/// \file
/// TLB model implementation: flat set-associative array with exact per-set
/// LRU, indexed by an open-addressing hash table.  Storage grows with the
/// peak number of live entries; no path allocates per entry.

#include "hw/tlb.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "sim/fault.h"
#include "telemetry/metrics.h"

namespace vdom::hw {

namespace tm = ::vdom::telemetry;

Tlb::Tlb(std::size_t capacity, std::size_t owner, std::size_t ways)
    : capacity_(capacity), owner_(owner)
{
    std::size_t effective = capacity == 0 ? 1 : capacity;
    if (ways == 0 || ways >= effective) {
        // Fully associative: one set, global exact LRU (the default — the
        // eviction order the paper-reproduction results were produced
        // with).
        num_sets_ = 1;
        ways_ = effective;
    } else {
        num_sets_ = std::bit_floor(effective / ways);
        if (num_sets_ == 0)
            num_sets_ = 1;
        ways_ = effective / num_sets_;
    }
    slot_limit_ = num_sets_ * ways_;
    slots_.reserve(slot_limit_);
    set_head_.assign(num_sets_, kNil);
    set_tail_.assign(num_sets_, kNil);
    set_size_.assign(num_sets_, 0);
    index_reset(std::min(kIndexInitialCells, index_max_cells()));
}

std::size_t
Tlb::index_max_cells() const
{
    return std::bit_ceil(std::max<std::size_t>(8, slot_limit_ * 2));
}

void
Tlb::index_reset(std::size_t cells)
{
    index_.assign(cells, Cell{});
    index_mask_ = cells - 1;
    hash_shift_ = 64 - static_cast<unsigned>(std::bit_width(cells) - 1);
    grow_at_ = cells < index_max_cells()
        ? cells / kIndexGrowLoad
        : std::numeric_limits<std::size_t>::max();
}

void
Tlb::index_grow()
{
    std::vector<Cell> old;
    old.swap(index_);
    index_reset(std::min(old.size() * kIndexGrowth, index_max_cells()));
    for (const Cell &cell : old) {
        if (cell.slot != kNil)
            index_insert(cell.key, cell.slot);
    }
}

void
Tlb::index_insert(Key key, std::uint32_t slot)
{
    std::size_t pos = ideal_pos(key);
    while (index_[pos].slot != kNil)
        pos = (pos + 1) & index_mask_;
    index_[pos] = Cell{key, slot};
}

void
Tlb::index_erase(Key key)
{
    std::size_t pos = index_pos(key);
    if (index_[pos].slot == kNil)
        return;  // Not present (caller guarantees it is; be safe).
    // Backward-shift deletion (Knuth 6.4, algorithm R): keep probe chains
    // contiguous without tombstones.
    std::size_t hole = pos;
    index_[hole].slot = kNil;
    std::size_t probe = hole;
    while (true) {
        probe = (probe + 1) & index_mask_;
        if (index_[probe].slot == kNil)
            return;
        std::size_t home = ideal_pos(index_[probe].key);
        // Move the cell into the hole when its home position lies
        // cyclically outside (hole, probe].
        bool movable = (probe > hole)
            ? (home <= hole || home > probe)
            : (home <= hole && home > probe);
        if (movable) {
            index_[hole] = index_[probe];
            index_[probe].slot = kNil;
            hole = probe;
        }
    }
}

void
Tlb::remove_slot(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    index_erase(s.key);
    list_unlink(slot);
    --set_size_[s.set];
    --size_;
    s.prev = kNil;
    s.next = free_head_;
    free_head_ = slot;
}

void
Tlb::insert(Asid asid, Vpn vpn, const TlbEntry &entry)
{
    Key key = make_key(asid, vpn);
    std::uint32_t slot = index_find(key);
    if (slot != kNil) {
        slots_[slot].entry = entry;
        touch_front(slot);
        return;
    }
    std::size_t set = set_of(key);
    if (set_size_[set] >= ways_) {
        std::uint32_t victim = set_tail_[set];
        ++stats_.evictions;
        tm::metric_add(tm::Metric::kTlbEvict, 1, owner_);
        if (size_ < slot_limit_) {
            ++stats_.assoc_conflicts;
            tm::metric_add(tm::Metric::kTlbAssocConflict, 1, owner_);
        }
        remove_slot(victim);
    }
    std::uint32_t fresh = free_head_;
    if (fresh != kNil) {
        free_head_ = slots_[fresh].next;
    } else {
        fresh = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot &s = slots_[fresh];
    s.key = key;
    s.set = static_cast<std::uint32_t>(set);
    s.entry = entry;
    list_push_front(fresh);
    ++set_size_[set];
    ++size_;
    if (size_ > grow_at_)
        index_grow();
    index_insert(key, fresh);
}

void
Tlb::flush_all()
{
    ++stats_.flushes_all;
    tm::metric_add(tm::Metric::kTlbFlush, 1, owner_);
    if (size_ == 0)
        return;
    // Two passes over the live lists.  The first parks each entry's index
    // position in its `prev` link (the walk follows `next`, and the lists
    // are discarded anyway) while every probe chain is still intact; the
    // second empties exactly those cells and frees the slots.  Clearing
    // cells without backward shifts is sound only because every cell is
    // emptied before the index is probed again.
    for (std::size_t set = 0; set < num_sets_; ++set) {
        for (std::uint32_t i = set_head_[set]; i != kNil; i = slots_[i].next)
            slots_[i].prev =
                static_cast<std::uint32_t>(index_pos(slots_[i].key));
    }
    for (std::size_t set = 0; set < num_sets_; ++set) {
        std::uint32_t i = set_head_[set];
        while (i != kNil) {
            Slot &s = slots_[i];
            std::uint32_t next = s.next;
            index_[s.prev].slot = kNil;
            s.prev = kNil;
            s.next = free_head_;
            free_head_ = i;
            i = next;
        }
        set_head_[set] = kNil;
        set_tail_[set] = kNil;
        set_size_[set] = 0;
    }
    size_ = 0;
}

void
Tlb::flush_asid(Asid asid)
{
    ++stats_.flushes_asid;
    tm::metric_add(tm::Metric::kTlbFlush, 1, owner_);
    for (std::size_t set = 0; set < num_sets_; ++set) {
        std::uint32_t i = set_head_[set];
        while (i != kNil) {
            std::uint32_t next = slots_[i].next;  // remove_slot relinks i.
            if ((slots_[i].key >> 48) == asid)
                remove_slot(i);
            i = next;
        }
    }
}

std::uint64_t
Tlb::flush_range(Asid asid, Vpn vpn, std::uint64_t count)
{
    std::uint64_t touched = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint32_t slot = index_find(make_key(asid, vpn + i));
        if (slot != kNil) {
            remove_slot(slot);
            ++touched;
        }
    }
    stats_.flushed_pages += touched;
    if (touched)
        tm::metric_add(tm::Metric::kTlbFlushedPages, touched, owner_);
    return touched;
}

}  // namespace vdom::hw
