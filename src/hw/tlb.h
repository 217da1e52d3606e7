/// \file
/// ASID-tagged, capacity-limited translation lookaside buffer model.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hw/arch.h"
#include "sim/fault.h"
#include "telemetry/metrics.h"

namespace vdom::hw {

/// A cached translation: the domain tag travels with the TLB entry, exactly
/// as on MPK/ARM hardware ("TLB entries are tagged with the domain
/// identifier of the pages", §2).
struct TlbEntry {
    Pdom pdom = 0;
    bool huge = false;
};

/// Per-core unified set-associative TLB with exact per-set LRU replacement.
///
/// Entries are tagged by ASID, so switching page tables does not require a
/// flush — the mechanism VDom leans on for cheap VDS switches (§5).  The
/// model tracks hit/miss/flush statistics; the MMU charges walk cycles for
/// misses and the shootdown manager charges flush cycles.
///
/// Storage is flat (no per-entry allocation): a slot array threaded with
/// per-set intrusive LRU lists, indexed by an open-addressing hash table.
/// Both grow with the peak number of live entries, so construction is
/// O(sets) and touches no per-entry storage: slots are appended on first
/// use (capacity is only reserved), and the index starts at 32 cells and
/// grows 8x before its load would pass 25%, up to its full size (2x the
/// slot count, rounded up to a power of two).  Neither shrinks on a
/// flush.  Index positions are never observable (eviction follows the
/// LRU lists), so growth changes no result.
///
/// The default geometry is fully associative (one set of `capacity`
/// ways), whose eviction order is bit-identical to the previous
/// `unordered_map` + `list` global-LRU implementation — proven by the
/// golden-replay test in tests/test_tlb_replay.cc.  Passing `ways` selects
/// a real set-associative geometry (sets is the largest power of two
/// ≤ capacity/ways; per-set ways = capacity/sets): more hardware-faithful,
/// but the conflict misses it introduces change hit/miss sequences, so the
/// paper-reproduction machines keep the fully-associative default.
class Tlb {
  public:
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t flushes_all = 0;
        std::uint64_t flushes_asid = 0;
        std::uint64_t flushed_pages = 0;  ///< Entries dropped by range flush.
        std::uint64_t evictions = 0;      ///< Capacity evictions.
        std::uint64_t assoc_conflicts = 0;  ///< Evictions while the TLB as a
                                            ///  whole still had free slots
                                            ///  (set-associative mode only).
        std::uint64_t fault_drops = 0;    ///< Injected spurious invalidations.
    };

    /// \param capacity total entries.
    /// \param owner  core id used as the telemetry shard for this TLB's
    ///        metrics (0 for standalone TLBs in tests/benches).
    /// \param ways   target associativity; 0 (default) = fully associative.
    explicit Tlb(std::size_t capacity, std::size_t owner = 0,
                 std::size_t ways = 0);

    /// Looks up (asid, vpn); refreshes LRU position on hit.  Defined
    /// inline below: this is the single hottest simulator function (every
    /// modeled memory access lands here), and keeping it visible to the
    /// MMU lets the compiler fold the whole hit path into do_translate.
    std::optional<TlbEntry> lookup(Asid asid, Vpn vpn);

    /// Installs a translation, evicting the set's LRU victim when the set
    /// is full.
    void insert(Asid asid, Vpn vpn, const TlbEntry &entry);

    /// Drops every entry.  O(live entries + sets): only the live slots
    /// and their index cells are touched, never the whole capacity.
    void flush_all();

    /// Drops every entry tagged \p asid.  Walks the live lists, so it
    /// costs O(live entries + sets) plus one deletion per match.
    void flush_asid(Asid asid);

    /// Drops entries for [vpn, vpn+count) in \p asid; returns the number of
    /// pages actually touched (for range-flush cost accounting).
    std::uint64_t flush_range(Asid asid, Vpn vpn, std::uint64_t count);

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }
    std::size_t num_sets() const { return num_sets_; }
    std::size_t ways() const { return ways_; }
    const Stats &stats() const { return stats_; }
    void reset_stats() { stats_ = Stats{}; }

    /// Slots allocated so far.  Freed slots are reused before a new one
    /// is appended, so this is the peak number of live entries and never
    /// passes the effective capacity (num_sets() * ways()).
    std::size_t slot_count() const { return slots_.size(); }

    /// Cells in the hash index: 32 at construction, growing 8x with the
    /// live count up to bit_ceil(max(8, 2 * effective capacity)).
    std::size_t index_cells() const { return index_.size(); }

    /// Set an (asid, vpn) pair indexes into — exposed so tests and benches
    /// can construct conflict-miss workloads deterministically.
    std::size_t
    set_index(Asid asid, Vpn vpn) const
    {
        return set_of(make_key(asid, vpn));
    }

  private:
    using Key = std::uint64_t;

    static constexpr std::uint32_t kNil = 0xffffffffu;
    static constexpr std::size_t kIndexInitialCells = 32;
    static constexpr std::size_t kIndexGrowth = 8;
    /// The index grows before its load would pass 1/kIndexGrowLoad.  A
    /// miss probes until it finds an empty cell: at 1/2 (from 16 cells),
    /// BM_TlbLookupPartial/500 ran ~25% slower than with a full-size
    /// index, at 1/4 (from 32 cells) ~15%.
    static constexpr std::size_t kIndexGrowLoad = 4;

    static Key
    make_key(Asid asid, Vpn vpn)
    {
        return (static_cast<std::uint64_t>(asid) << 48) |
               (vpn & 0xffffffffffffULL);
    }

    /// Fibonacci (multiplicative) hash: a single multiply whose *high*
    /// bits are well mixed even for sequential VPNs.  One multiply matters
    /// here — the backward-shift deletion recomputes the hash for every
    /// cell it probes, so this sits on the insert/evict hot path.
    static std::uint64_t
    mix(Key key)
    {
        return key * 0x9e3779b97f4a7c15ULL;
    }

    /// One TLB entry slot, threaded into its set's LRU list.
    struct Slot {
        Key key = 0;
        std::uint32_t prev = kNil;  ///< Towards MRU.
        std::uint32_t next = kNil;  ///< Towards LRU.
        std::uint32_t set = 0;
        TlbEntry entry;
    };

    /// Open-addressing index cell (linear probing, ≤50% load).
    struct Cell {
        Key key = 0;
        std::uint32_t slot = kNil;  ///< kNil = empty cell.
    };

    std::size_t set_of(Key key) const
    {
        return (mix(key) >> 32) & (num_sets_ - 1);
    }

    /// Index cell a key ideally lands in: the hash's top bits (the mixed
    /// ones), taken by shift rather than mask.
    std::size_t ideal_pos(Key key) const { return mix(key) >> hash_shift_; }

    /// Index cell holding \p key, or the empty cell ending its probe
    /// chain when the key is absent.
    std::size_t
    index_pos(Key key) const
    {
        std::size_t pos = ideal_pos(key);
        while (index_[pos].slot != kNil && index_[pos].key != key)
            pos = (pos + 1) & index_mask_;
        return pos;
    }

    /// Slot holding \p key, or kNil (an empty cell's slot).
    std::uint32_t
    index_find(Key key) const
    {
        return index_[index_pos(key)].slot;
    }

    void index_insert(Key key, std::uint32_t slot);
    void index_erase(Key key);

    /// Allocates an empty index of \p cells (a power of two) and sets the
    /// probe mask and hash shift for it.
    void index_reset(std::size_t cells);

    /// Index size that keeps a full TLB at most half loaded.
    std::size_t index_max_cells() const;

    /// Grows the index 8x (capped at index_max_cells()), re-inserting the
    /// live cells in one sequential scan of the old array.
    void index_grow();

    void
    list_unlink(std::uint32_t slot)
    {
        Slot &s = slots_[slot];
        if (s.prev != kNil)
            slots_[s.prev].next = s.next;
        else
            set_head_[s.set] = s.next;
        if (s.next != kNil)
            slots_[s.next].prev = s.prev;
        else
            set_tail_[s.set] = s.prev;
    }

    void
    list_push_front(std::uint32_t slot)
    {
        Slot &s = slots_[slot];
        s.prev = kNil;
        s.next = set_head_[s.set];
        if (s.next != kNil)
            slots_[s.next].prev = slot;
        else
            set_tail_[s.set] = slot;
        set_head_[s.set] = slot;
    }

    void
    touch_front(std::uint32_t slot)
    {
        if (set_head_[slots_[slot].set] == slot)
            return;
        list_unlink(slot);
        list_push_front(slot);
    }

    /// Removes an occupied slot entirely (index + list + free list).
    void remove_slot(std::uint32_t slot);

    std::size_t capacity_;      ///< Reported capacity (constructor value).
    std::size_t slot_limit_;    ///< Effective capacity (num_sets_ * ways_).
    std::size_t num_sets_;      ///< Power of two.
    std::size_t ways_;
    std::size_t owner_ = 0;
    std::size_t size_ = 0;

    std::vector<Slot> slots_;  ///< Grows on demand up to slot_limit_.
    std::uint32_t free_head_ = kNil;  ///< Freed slots chained via `next`.
    std::vector<std::uint32_t> set_head_;  ///< Per-set MRU.
    std::vector<std::uint32_t> set_tail_;  ///< Per-set LRU.
    std::vector<std::uint32_t> set_size_;
    std::vector<Cell> index_;  ///< Never more than half full.
    std::size_t grow_at_ = 0;  ///< Live count past which the index grows
                               ///  (none once it is at full size).
    std::size_t index_mask_ = 0;
    unsigned hash_shift_ = 63;  ///< 64 - log2(index size).
    Stats stats_;
};

inline std::optional<TlbEntry>
Tlb::lookup(Asid asid, Vpn vpn)
{
    Key key = make_key(asid, vpn);
    std::uint32_t slot = index_find(key);
    if (slot != kNil && sim::fault_fires(sim::FaultSite::kTlbEntryDrop)) {
        // Injected spurious invalidation: the entry vanishes and the
        // lookup misses; the subsequent page-table walk re-fills it.
        remove_slot(slot);
        slot = kNil;
        ++stats_.fault_drops;
    }
    if (slot == kNil) {
        ++stats_.misses;
        telemetry::metric_add(telemetry::Metric::kTlbMiss, 1, owner_);
        return std::nullopt;
    }
    ++stats_.hits;
    telemetry::metric_add(telemetry::Metric::kTlbHit, 1, owner_);
    touch_front(slot);
    return slots_[slot].entry;
}

}  // namespace vdom::hw
