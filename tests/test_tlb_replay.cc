/// \file
/// Golden-replay equivalence test for the TLB rewrite.
///
/// The flat set-associative TLB replaced an `unordered_map` + `std::list`
/// global-LRU implementation.  This test replays a recorded 10k-operation
/// trace (seeded xorshift mix of lookups, inserts, ASID flushes, and range
/// flushes) through a faithful copy of the old policy and through the new
/// engine, asserting the per-operation outcomes (hit/miss, returned entry,
/// range-flush counts) and running statistics are identical at every step.
///
/// The default (fully associative) geometry must be bit-identical — that is
/// what the paper-reproduction results were produced with.  Real set-
/// associative geometries (ways > 0) intentionally differ from global LRU:
/// conflict misses change the eviction sequence.  They are replayed against
/// a per-set reference instead (one old-policy LRU per set, `ways` deep),
/// and the set-assoc cases also pin determinism, capacity bounds, and that
/// the divergence shows up as a nonzero assoc_conflict count.
///
/// A second, flush-dense trace flushes every few operations, so the live
/// entries stay far below capacity: the case the live-list flush walk is
/// built for.  It covers flushes of an empty TLB, flushes of an ASID with
/// no entries, refilling past full capacity after a full flush (free-list
/// reuse, then eviction), and lookups with the kTlbEntryDrop fault armed.
///
/// A third, growth-boundary trace walks the TLB's storage through every
/// step of its growth: the index starts small and grows as live entries
/// pass 8, 64 and 512, and slots are appended on first use up to the full
/// capacity.  Each step is followed at once by a range, ASID and full
/// flush, and the trace ends by refilling to 1.5x capacity.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hw/arch.h"
#include "hw/tlb.h"
#include "sim/fault.h"

namespace vdom::hw {
namespace {

/// Faithful copy of the pre-rewrite TLB replacement policy: one global
/// exact-LRU list over all entries, hash-map keyed by (asid << 48 | vpn).
class ReferenceTlb {
  public:
    explicit ReferenceTlb(std::size_t capacity) : capacity_(capacity) {}

    std::optional<TlbEntry>
    lookup(Asid asid, Vpn vpn)
    {
        auto it = map_.find(make_key(asid, vpn));
        if (it == map_.end()) {
            ++misses_;
            return std::nullopt;
        }
        ++hits_;
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->entry;
    }

    void
    insert(Asid asid, Vpn vpn, const TlbEntry &entry)
    {
        Key key = make_key(asid, vpn);
        auto it = map_.find(key);
        if (it != map_.end()) {
            it->second->entry = entry;
            lru_.splice(lru_.begin(), lru_, it->second);
            return;
        }
        if (map_.size() >= capacity_ && !lru_.empty()) {
            map_.erase(lru_.back().key);
            lru_.pop_back();
            ++evictions_;
        }
        lru_.push_front(Node{key, entry});
        map_[key] = lru_.begin();
    }

    void
    flush_asid(Asid asid)
    {
        for (auto it = lru_.begin(); it != lru_.end();) {
            if ((it->key >> 48) == asid) {
                map_.erase(it->key);
                it = lru_.erase(it);
            } else {
                ++it;
            }
        }
    }

    std::uint64_t
    flush_range(Asid asid, Vpn vpn, std::uint64_t count)
    {
        std::uint64_t touched = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            auto it = map_.find(make_key(asid, vpn + i));
            if (it != map_.end()) {
                lru_.erase(it->second);
                map_.erase(it);
                ++touched;
            }
        }
        return touched;
    }

    void
    flush_all()
    {
        lru_.clear();
        map_.clear();
    }

    bool
    contains(Asid asid, Vpn vpn) const
    {
        return map_.count(make_key(asid, vpn)) != 0;
    }

    std::size_t size() const { return map_.size(); }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }

  private:
    using Key = std::uint64_t;

    static Key
    make_key(Asid asid, Vpn vpn)
    {
        return (static_cast<std::uint64_t>(asid) << 48) |
               (vpn & 0xffffffffffffULL);
    }

    struct Node {
        Key key;
        TlbEntry entry;
    };

    std::size_t capacity_;
    std::list<Node> lru_;
    std::unordered_map<Key, std::list<Node>::iterator> map_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

/// Reference for a whole TLB geometry: one old-policy LRU per set, each
/// `ways` deep, with sets picked by the TLB's own set function (one set
/// for the fully-associative default).  It also mirrors an armed
/// kTlbEntryDrop site firing on every `drop_every`-th lookup that would
/// hit, and counts conflict evictions the way Tlb::Stats does.
class ReferenceModel {
  public:
    explicit ReferenceModel(const Tlb &geometry, std::uint64_t drop_every = 0)
        : geometry_(&geometry), drop_every_(drop_every)
    {
        sets_.assign(geometry.num_sets(), ReferenceTlb(geometry.ways()));
    }

    std::optional<TlbEntry>
    lookup(Asid asid, Vpn vpn)
    {
        ReferenceTlb &set = set_for(asid, vpn);
        if (drop_every_ != 0 && set.contains(asid, vpn) &&
            ++drop_occurrences_ % drop_every_ == 0) {
            set.flush_range(asid, vpn, 1);
            ++drops_;
        }
        return set.lookup(asid, vpn);
    }

    void
    insert(Asid asid, Vpn vpn, const TlbEntry &entry)
    {
        ReferenceTlb &set = set_for(asid, vpn);
        bool room = size() < sets_.size() * geometry_->ways();
        std::uint64_t before = set.evictions();
        set.insert(asid, vpn, entry);
        if (room && set.evictions() > before)
            ++conflicts_;
    }

    void
    flush_asid(Asid asid)
    {
        for (ReferenceTlb &set : sets_)
            set.flush_asid(asid);
    }

    std::uint64_t
    flush_range(Asid asid, Vpn vpn, std::uint64_t count)
    {
        std::uint64_t touched = 0;
        for (std::uint64_t i = 0; i < count; ++i)
            touched += set_for(asid, vpn + i).flush_range(asid, vpn + i, 1);
        return touched;
    }

    void
    flush_all()
    {
        for (ReferenceTlb &set : sets_)
            set.flush_all();
    }

    std::size_t size() const { return sum(&ReferenceTlb::size); }
    std::uint64_t hits() const { return sum(&ReferenceTlb::hits); }
    std::uint64_t misses() const { return sum(&ReferenceTlb::misses); }
    std::uint64_t evictions() const { return sum(&ReferenceTlb::evictions); }
    std::uint64_t conflicts() const { return conflicts_; }
    std::uint64_t drops() const { return drops_; }

  private:
    ReferenceTlb &
    set_for(Asid asid, Vpn vpn)
    {
        return sets_[geometry_->set_index(asid, vpn)];
    }

    template <typename T>
    T
    sum(T (ReferenceTlb::*stat)() const) const
    {
        T total = 0;
        for (const ReferenceTlb &set : sets_)
            total += (set.*stat)();
        return total;
    }

    const Tlb *geometry_;
    std::vector<ReferenceTlb> sets_;
    std::uint64_t drop_every_;
    std::uint64_t drop_occurrences_ = 0;
    std::uint64_t drops_ = 0;
    std::uint64_t conflicts_ = 0;
};

/// One recorded trace operation.
struct Op {
    enum class Kind : std::uint8_t {
        kLookup,
        kInsert,
        kFlushAsid,
        kFlushRange,
        kFlushAll,
    };
    Kind kind;
    Asid asid;
    Vpn vpn;
    std::uint64_t count;  ///< kFlushRange page count.
    Pdom pdom;            ///< kInsert entry payload.
};

/// An ASID the traces never insert under.
constexpr Asid kAbsentAsid = 99;

std::uint64_t
xorshift(std::uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

/// Records a deterministic 10k-op trace skewed towards the hot path
/// (lookups/inserts), with a working set ~2x the capacity so capacity
/// evictions fire, plus occasional ASID and range flushes.
std::vector<Op>
record_trace(std::size_t capacity, std::uint64_t seed)
{
    std::vector<Op> trace;
    trace.reserve(10000);
    std::uint64_t rng = seed;
    const std::uint64_t vpn_space = capacity * 2;
    for (int i = 0; i < 10000; ++i) {
        std::uint64_t r = xorshift(rng);
        Asid asid = static_cast<Asid>(1 + (r >> 8) % 4);
        Vpn vpn = 0x1000 + (r >> 16) % vpn_space;
        std::uint64_t pick = r % 100;
        if (pick < 55) {
            trace.push_back({Op::Kind::kLookup, asid, vpn, 0, 0});
        } else if (pick < 95) {
            trace.push_back({Op::Kind::kInsert, asid, vpn, 0,
                             static_cast<Pdom>(r % 16)});
        } else if (pick < 97) {
            trace.push_back({Op::Kind::kFlushAsid, asid, 0, 0, 0});
        } else if (pick < 99) {
            trace.push_back(
                {Op::Kind::kFlushRange, asid, vpn, 1 + r % 64, 0});
        } else {
            trace.push_back({Op::Kind::kFlushAll, 0, 0, 0, 0});
        }
    }
    return trace;
}

/// Records a flush-dense trace.  It opens with flushes of an empty TLB
/// and of an absent ASID, then twice refills 1.5x capacity after a full
/// flush (every freed slot is reused before LRU eviction starts), and
/// ends with 10k ops over a 256-entry working set where roughly one op in
/// six is a flush, so the live entries stay far below capacity.
std::vector<Op>
record_flush_dense_trace(std::size_t capacity, std::uint64_t seed)
{
    std::vector<Op> trace;
    std::uint64_t rng = seed;
    trace.push_back({Op::Kind::kFlushAll, 0, 0, 0, 0});
    trace.push_back({Op::Kind::kFlushAsid, 1, 0, 0, 0});
    trace.push_back({Op::Kind::kFlushAsid, kAbsentAsid, 0, 0, 0});
    trace.push_back({Op::Kind::kLookup, 1, 0x1000, 0, 0});
    for (int round = 0; round < 2; ++round) {
        const std::uint64_t fill = capacity + capacity / 2;
        for (std::uint64_t i = 0; i < fill; ++i) {
            std::uint64_t r = xorshift(rng);
            Asid asid = static_cast<Asid>(1 + i % 4);
            trace.push_back({Op::Kind::kInsert, asid, 0x1000 + i, 0,
                             static_cast<Pdom>(r % 16)});
            if (i % 3 == 0) {
                Vpn back = 0x1000 + (r >> 16) % (i + 1);
                trace.push_back({Op::Kind::kLookup,
                                 static_cast<Asid>(1 + (back - 0x1000) % 4),
                                 back, 0, 0});
            }
        }
        trace.push_back({Op::Kind::kFlushAsid, kAbsentAsid, 0, 0, 0});
        trace.push_back({Op::Kind::kFlushAll, 0, 0, 0, 0});
    }
    for (int i = 0; i < 10000; ++i) {
        std::uint64_t r = xorshift(rng);
        Asid asid = static_cast<Asid>(1 + (r >> 8) % 4);
        Vpn vpn = 0x1000 + (r >> 16) % 64;
        if (r % 6 == 0) {
            switch ((r >> 4) % 4) {
              case 0:
                trace.push_back({Op::Kind::kFlushAll, 0, 0, 0, 0});
                break;
              case 1:
                trace.push_back({Op::Kind::kFlushAsid, asid, 0, 0, 0});
                break;
              case 2:
                trace.push_back({Op::Kind::kFlushAsid, kAbsentAsid, 0, 0, 0});
                break;
              default:
                trace.push_back(
                    {Op::Kind::kFlushRange, asid, vpn, 1 + r % 16, 0});
                break;
            }
        } else if ((r >> 32) % 2 == 0) {
            trace.push_back({Op::Kind::kLookup, asid, vpn, 0, 0});
        } else {
            trace.push_back({Op::Kind::kInsert, asid, vpn, 0,
                             static_cast<Pdom>(r % 16)});
        }
    }
    return trace;
}

/// Live-entry counts whose next insert grows the TLB index (32 cells,
/// 8x per step, kept at most a quarter full below its full size).
constexpr std::uint64_t kIndexGrowthSteps[] = {8, 64, 512};

/// The last index growth step a TLB of \p capacity slots can cross.
std::uint64_t
last_growth_step(std::size_t capacity)
{
    std::uint64_t last = 0;
    for (std::uint64_t step : kIndexGrowthSteps) {
        if (step < capacity)
            last = step;
    }
    return last;
}

/// Records a growth-boundary trace.  For each growth step below
/// capacity, and then for the capacity itself, it inserts distinct
/// translations over four ASIDs into an empty TLB until one entry past
/// the step is live (exactly full for the capacity), then flushes a range
/// of ASID 1, flushes ASID 2 and flushes everything, looking every
/// inserted entry up after each of the first two.  The fill phases have
/// no lookups, so injected drops cannot keep the live count from crossing
/// a step.  It ends by refilling to 1.5x capacity with a lookup of an
/// earlier entry every third insert.
std::vector<Op>
record_growth_trace(std::size_t capacity, std::uint64_t seed)
{
    std::vector<Op> trace;
    std::uint64_t rng = seed;
    std::uint64_t next = 0;  // Key counter: every phase uses fresh keys.
    auto key_of = [](std::uint64_t i) {
        return std::pair<Asid, Vpn>{static_cast<Asid>(1 + i % 4),
                                    0x1000 + i};
    };
    auto insert = [&](std::uint64_t i) {
        auto [asid, vpn] = key_of(i);
        trace.push_back({Op::Kind::kInsert, asid, vpn, 0,
                         static_cast<Pdom>(xorshift(rng) % 16)});
    };
    auto lookup = [&](std::uint64_t i) {
        auto [asid, vpn] = key_of(i);
        trace.push_back({Op::Kind::kLookup, asid, vpn, 0, 0});
    };
    std::vector<std::uint64_t> fills;
    for (std::uint64_t step : kIndexGrowthSteps) {
        if (step < capacity)
            fills.push_back(step + 1);
    }
    fills.push_back(capacity);
    for (std::uint64_t fill : fills) {
        const std::uint64_t first = next;
        for (std::uint64_t i = 0; i < fill; ++i)
            insert(next++);
        trace.push_back(
            {Op::Kind::kFlushRange, 1, 0x1000 + first, fill / 2 + 1, 0});
        for (std::uint64_t i = first; i < next; ++i)
            lookup(i);
        trace.push_back({Op::Kind::kFlushAsid, 2, 0, 0, 0});
        for (std::uint64_t i = first; i < next; ++i)
            lookup(i);
        trace.push_back({Op::Kind::kFlushAll, 0, 0, 0, 0});
        lookup(first);
    }
    const std::uint64_t first = next;
    const std::uint64_t refill = capacity + capacity / 2;
    for (std::uint64_t i = 0; i < refill; ++i) {
        insert(next++);
        if (i % 3 == 0)
            lookup(first + xorshift(rng) % (i + 1));
    }
    return trace;
}

/// Replays \p trace through \p tlb and a reference model of its geometry,
/// asserting identical per-op outcomes (hit/miss, returned entry,
/// range-flush counts) and running stats.  With \p drop_every nonzero the
/// kTlbEntryDrop site is armed to fire on every drop_every-th hitting
/// lookup, and the reference drops the same entries.  \p peak_live, when
/// given, receives the largest live-entry count the replay reached.
void
replay(Tlb &tlb, const std::vector<Op> &trace, std::uint64_t drop_every = 0,
       std::size_t *peak_live = nullptr)
{
    ReferenceModel ref(tlb, drop_every);
    sim::FaultPlan plan;
    if (drop_every != 0)
        plan.arm(sim::FaultSite::kTlbEntryDrop, {.every = drop_every});
    sim::ScopedFaults faults(plan);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Op &op = trace[i];
        switch (op.kind) {
          case Op::Kind::kLookup: {
            auto want = ref.lookup(op.asid, op.vpn);
            auto got = tlb.lookup(op.asid, op.vpn);
            ASSERT_EQ(want.has_value(), got.has_value()) << "op " << i;
            if (want) {
                ASSERT_EQ(want->pdom, got->pdom) << "op " << i;
                ASSERT_EQ(want->huge, got->huge) << "op " << i;
            }
            break;
          }
          case Op::Kind::kInsert:
            ref.insert(op.asid, op.vpn, TlbEntry{op.pdom, false});
            tlb.insert(op.asid, op.vpn, TlbEntry{op.pdom, false});
            break;
          case Op::Kind::kFlushAsid:
            ref.flush_asid(op.asid);
            tlb.flush_asid(op.asid);
            break;
          case Op::Kind::kFlushRange: {
            std::uint64_t want = ref.flush_range(op.asid, op.vpn, op.count);
            std::uint64_t got = tlb.flush_range(op.asid, op.vpn, op.count);
            ASSERT_EQ(want, got) << "op " << i;
            break;
          }
          case Op::Kind::kFlushAll:
            ref.flush_all();
            tlb.flush_all();
            break;
        }
        ASSERT_EQ(ref.size(), tlb.size()) << "op " << i;
        ASSERT_EQ(ref.hits(), tlb.stats().hits) << "op " << i;
        ASSERT_EQ(ref.misses(), tlb.stats().misses) << "op " << i;
        ASSERT_EQ(ref.evictions(), tlb.stats().evictions) << "op " << i;
        ASSERT_EQ(ref.conflicts(), tlb.stats().assoc_conflicts) << "op " << i;
        ASSERT_EQ(ref.drops(), tlb.stats().fault_drops) << "op " << i;
        if (peak_live)
            *peak_live = std::max(*peak_live, tlb.size());
    }
    EXPECT_EQ(drop_every != 0, tlb.stats().fault_drops > 0);
}

/// Replays the mixed trace through a default-geometry TLB against the
/// old global LRU.
void
replay_against_reference(std::size_t capacity, std::uint64_t seed)
{
    Tlb tlb(capacity);  // Default geometry: fully associative.
    ASSERT_EQ(tlb.num_sets(), 1u);
    ASSERT_EQ(tlb.ways(), capacity);
    replay(tlb, record_trace(capacity, seed));
    // Fully associative mode must never report a conflict eviction.
    EXPECT_EQ(tlb.stats().assoc_conflicts, 0u);
}

/// Replays the flush-dense trace through a default-geometry TLB against
/// the old global LRU, and checks the trace really ran with the TLB both
/// full (refill phase) and mostly empty (dense phase).
void
replay_flush_dense(std::size_t capacity, std::uint64_t seed,
                   std::uint64_t drop_every)
{
    Tlb tlb(capacity);
    std::vector<Op> trace = record_flush_dense_trace(capacity, seed);
    replay(tlb, trace, drop_every);
    EXPECT_GT(tlb.stats().evictions, 0u);
    EXPECT_GT(tlb.stats().flushes_all, 100u);
    EXPECT_LE(tlb.size(), 256u);
}

TEST(TlbReplay, X86CapacityMatchesOldLruExactly)
{
    // 1536 entries: the x86 ArchParams TLB size.
    replay_against_reference(ArchParams::x86().tlb_entries,
                             0x9e3779b97f4a7c15ULL);
}

TEST(TlbReplay, ArmCapacityMatchesOldLruExactly)
{
    // 512 entries: the ARM ArchParams TLB size.
    replay_against_reference(ArchParams::arm().tlb_entries,
                             0xdeadbeefcafef00dULL);
}

TEST(TlbReplay, TinyCapacitiesMatchOldLruExactly)
{
    // Edge geometries: single entry, and capacity 0 (old code evicted the
    // sole resident entry on every insert; new code models it as one way).
    replay_against_reference(1, 12345);
    replay_against_reference(2, 999);
}

TEST(TlbReplay, FlushDenseTraceMatchesOldLruAtBothCapacities)
{
    replay_flush_dense(ArchParams::x86().tlb_entries, 0x51ed2701u, 0);
    replay_flush_dense(ArchParams::arm().tlb_entries, 0x0ddba11u, 0);
}

TEST(TlbReplay, FlushDenseTraceWithEntryDropsMatchesOldLru)
{
    replay_flush_dense(ArchParams::x86().tlb_entries, 0x51ed2701u, 7);
    replay_flush_dense(ArchParams::arm().tlb_entries, 0x0ddba11u, 3);
}

/// Replays the growth-boundary trace through a TLB of \p capacity and
/// \p ways against its reference model, and checks the live count passed
/// the last growth step (and, fully associative, reached capacity).
void
replay_growth(std::size_t capacity, std::size_t ways, std::uint64_t seed,
              std::uint64_t drop_every)
{
    Tlb tlb(capacity, 0, ways);
    std::size_t peak = 0;
    replay(tlb, record_growth_trace(capacity, seed), drop_every, &peak);
    EXPECT_GT(tlb.stats().evictions, 0u);
    EXPECT_GT(peak, last_growth_step(capacity));
    if (ways == 0) {
        EXPECT_EQ(peak, capacity);
    }
}

TEST(TlbReplay, GrowthBoundaryTraceMatchesOldLruAtBothCapacities)
{
    replay_growth(ArchParams::x86().tlb_entries, 0, 0x6a09e667u, 0);
    replay_growth(ArchParams::arm().tlb_entries, 0, 0xbb67ae85u, 0);
}

TEST(TlbReplay, GrowthBoundaryTraceWithEntryDropsMatchesOldLru)
{
    replay_growth(ArchParams::x86().tlb_entries, 0, 0x6a09e667u, 7);
    replay_growth(ArchParams::arm().tlb_entries, 0, 0xbb67ae85u, 3);
}

TEST(TlbReplay, SetAssocGrowthBoundaryTraceMatchesPerSetReference)
{
    for (std::size_t capacity :
         {ArchParams::x86().tlb_entries, ArchParams::arm().tlb_entries}) {
        for (std::uint64_t drop_every : {0u, 5u})
            replay_growth(capacity, 8, 0x3c6ef372u + capacity, drop_every);
    }
}

TEST(TlbReplay, WaysEqualCapacityIsTheSameAsDefault)
{
    // Explicit ways == capacity must pick the identical fully-associative
    // geometry (the degenerate set-assoc case).
    Tlb a(64);
    Tlb b(64, 0, 64);
    EXPECT_EQ(b.num_sets(), 1u);
    EXPECT_EQ(b.ways(), 64u);
    std::uint64_t rng = 7;
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t r = xorshift(rng);
        Asid asid = static_cast<Asid>(1 + r % 3);
        Vpn vpn = r % 128;
        if (r & 1) {
            a.insert(asid, vpn, TlbEntry{static_cast<Pdom>(r % 16), false});
            b.insert(asid, vpn, TlbEntry{static_cast<Pdom>(r % 16), false});
        } else {
            auto ra = a.lookup(asid, vpn);
            auto rb = b.lookup(asid, vpn);
            ASSERT_EQ(ra.has_value(), rb.has_value()) << "op " << i;
        }
    }
    EXPECT_EQ(a.stats().hits, b.stats().hits);
    EXPECT_EQ(a.stats().misses, b.stats().misses);
    EXPECT_EQ(a.stats().evictions, b.stats().evictions);
}

// --- Pinned intentional differences of set-associative geometries --------
//
// With ways < capacity the TLB partitions into sets and a hot set can
// evict while other sets still have room.  That is a deliberate,
// hardware-faithful policy change, opted into per-instance; these tests
// pin its contract instead of pretending it matches global LRU.

TEST(TlbReplay, SetAssocGeometryRoundsToPowerOfTwoSets)
{
    Tlb tlb(512, 0, 8);
    EXPECT_EQ(tlb.num_sets(), 64u);
    EXPECT_EQ(tlb.ways(), 8u);

    // Non-power-of-two capacity/ways: sets round down to a power of two
    // and ways absorb the remainder, never exceeding capacity.
    Tlb odd(1536, 0, 8);
    EXPECT_EQ(odd.num_sets(), 128u);
    EXPECT_EQ(odd.ways(), 12u);
    EXPECT_LE(odd.num_sets() * odd.ways(), 1536u);
}

TEST(TlbReplay, SetAssocMatchesPerSetReference)
{
    // Both traces, at the two machine capacities split into 8-way sets,
    // with and without injected entry drops.  The flush-dense trace's
    // refill phase is what forces conflict evictions.
    for (std::size_t capacity :
         {ArchParams::x86().tlb_entries, ArchParams::arm().tlb_entries}) {
        for (std::uint64_t drop_every : {0u, 5u}) {
            Tlb mixed(capacity, 0, 8);
            replay(mixed, record_trace(capacity, 42 + capacity), drop_every);
            Tlb dense(capacity, 0, 8);
            replay(dense, record_flush_dense_trace(capacity, 7 + capacity),
                   drop_every);
            EXPECT_GT(dense.stats().assoc_conflicts, 0u);
        }
    }
}

TEST(TlbReplay, SetAssocIsDeterministic)
{
    // Two identically-configured instances replay the same trace to the
    // same stats: policy divergence from global LRU is fixed, not random.
    Tlb a(512, 0, 8);
    Tlb b(512, 0, 8);
    std::vector<Op> trace = record_trace(512, 42);
    for (const Op &op : trace) {
        switch (op.kind) {
          case Op::Kind::kLookup: {
            auto ra = a.lookup(op.asid, op.vpn);
            auto rb = b.lookup(op.asid, op.vpn);
            ASSERT_EQ(ra.has_value(), rb.has_value());
            break;
          }
          case Op::Kind::kInsert:
            a.insert(op.asid, op.vpn, TlbEntry{op.pdom, false});
            b.insert(op.asid, op.vpn, TlbEntry{op.pdom, false});
            break;
          case Op::Kind::kFlushAsid:
            a.flush_asid(op.asid);
            b.flush_asid(op.asid);
            break;
          case Op::Kind::kFlushRange:
            ASSERT_EQ(a.flush_range(op.asid, op.vpn, op.count),
                      b.flush_range(op.asid, op.vpn, op.count));
            break;
          case Op::Kind::kFlushAll:
            a.flush_all();
            b.flush_all();
            break;
        }
        ASSERT_EQ(a.size(), b.size());
    }
    EXPECT_EQ(a.stats().hits, b.stats().hits);
    EXPECT_EQ(a.stats().misses, b.stats().misses);
    EXPECT_EQ(a.stats().evictions, b.stats().evictions);
    EXPECT_EQ(a.stats().assoc_conflicts, b.stats().assoc_conflicts);
}

TEST(TlbReplay, SetAssocConflictsAreCountedAndBounded)
{
    Tlb tlb(512, 0, 8);
    // Build a conflict set: vpns that land in one specific set.  2x ways
    // of them round-robin must evict within the set while the TLB as a
    // whole stays nearly empty.
    std::size_t target = tlb.set_index(1, 0x1000);
    std::vector<Vpn> conflicting;
    for (Vpn v = 0x1000; conflicting.size() < 2 * tlb.ways(); ++v) {
        if (tlb.set_index(1, v) == target)
            conflicting.push_back(v);
    }
    for (int round = 0; round < 4; ++round) {
        for (Vpn v : conflicting)
            tlb.insert(1, v, TlbEntry{1, false});
    }
    EXPECT_GT(tlb.stats().evictions, 0u);
    EXPECT_GT(tlb.stats().assoc_conflicts, 0u);
    EXPECT_LE(tlb.size(), tlb.capacity());
    // Every entry currently resident is one of the conflicting vpns, and
    // at most `ways` of them fit.
    EXPECT_LE(tlb.size(), tlb.ways());
}

TEST(TlbReplay, StorageStaysWithinCapacityAcrossFlushRefillCycles)
{
    // Slots are reused from the free list before any is appended, so the
    // slot array never outgrows the effective capacity, however often the
    // TLB is filled, flushed and refilled.  The index stays within its
    // full size.  Replays compare only lookups and stats; this pins the
    // storage itself.
    for (std::size_t capacity :
         {ArchParams::x86().tlb_entries, ArchParams::arm().tlb_entries}) {
        for (std::size_t ways : {std::size_t{0}, std::size_t{8}}) {
            SCOPED_TRACE(testing::Message()
                         << "capacity " << capacity << " ways " << ways);
            Tlb tlb(capacity, 0, ways);
            const std::size_t slots = tlb.num_sets() * tlb.ways();
            const std::size_t max_cells =
                std::bit_ceil(std::max<std::size_t>(8, 2 * slots));
            std::size_t peak = 0;
            for (int cycle = 0; cycle < 9; ++cycle) {
                Asid asid = static_cast<Asid>(1 + cycle % 2);
                Vpn base = static_cast<Vpn>(cycle) * 97;
                for (Vpn v = 0; v < capacity + capacity / 2; ++v) {
                    tlb.insert(asid, base + v, TlbEntry{2, false});
                    peak = std::max(peak, tlb.size());
                    ASSERT_LE(tlb.slot_count(), slots) << "cycle " << cycle;
                }
                switch (cycle % 3) {
                  case 0:
                    tlb.flush_all();
                    break;
                  case 1:
                    tlb.flush_asid(asid);
                    break;
                  default:
                    tlb.flush_range(asid, base, capacity + capacity / 2);
                    break;
                }
                EXPECT_EQ(tlb.size(), 0u);
                EXPECT_LE(tlb.index_cells(), max_cells);
            }
            EXPECT_EQ(tlb.slot_count(), peak);
            EXPECT_LE(tlb.slot_count(), tlb.capacity());
        }
    }
}

}  // namespace
}  // namespace vdom::hw
