/// \file
/// Page-table model tests: domain tagging, PMD fast paths, PROT_NONE.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "hw/page_table.h"

namespace vdom::hw {
namespace {

constexpr std::size_t kSpan = 512;

TEST(PageTable, MapAndTranslate)
{
    PageTable pt(kSpan);
    EXPECT_FALSE(pt.translate(100).present);
    PtOps ops = pt.map_page(100, 3);
    EXPECT_EQ(ops.pte_writes, 1u);
    Translation t = pt.translate(100);
    ASSERT_TRUE(t.present);
    EXPECT_EQ(t.pdom, 3);
    EXPECT_FALSE(t.huge);
}

TEST(PageTable, UnmapPage)
{
    PageTable pt(kSpan);
    pt.map_page(7, 2);
    PtOps ops = pt.unmap_page(7);
    EXPECT_EQ(ops.pte_writes, 1u);
    EXPECT_FALSE(pt.translate(7).present);
    // Unmapping an absent page is a no-op.
    EXPECT_EQ(pt.unmap_page(7).pte_writes, 0u);
}

TEST(PageTable, HugeMapping)
{
    PageTable pt(kSpan);
    PtOps ops = pt.map_huge(0, 5);
    EXPECT_EQ(ops.pmd_writes, 1u);
    EXPECT_EQ(ops.pte_writes, 0u);
    Translation t = pt.translate(17);
    ASSERT_TRUE(t.present);
    EXPECT_TRUE(t.huge);
    EXPECT_EQ(t.pdom, 5);
    EXPECT_EQ(pt.present_pages(), kSpan);
}

TEST(PageTable, RetagRangePerPte)
{
    PageTable pt(kSpan);
    for (Vpn v = 0; v < 10; ++v)
        pt.map_page(v, 2);
    PtOps ops = pt.set_pdom_range(0, 10, 4, false);
    EXPECT_EQ(ops.pte_writes, 10u);
    EXPECT_EQ(pt.translate(9).pdom, 4);
}

TEST(PageTable, RetagSkipsAbsentPages)
{
    PageTable pt(kSpan);
    pt.map_page(0, 2);
    pt.map_page(5, 2);
    PtOps ops = pt.set_pdom_range(0, 10, 4, false);
    EXPECT_EQ(ops.pte_writes, 2u);
}

TEST(PageTable, PmdDisableFastPath)
{
    PageTable pt(kSpan);
    // A full uniform span: eviction disables one PMD, not 512 PTEs (§5.5).
    for (Vpn v = 0; v < kSpan; ++v)
        pt.map_page(v, 6);
    PtOps ops = pt.disable_range(0, kSpan, 1, true);
    EXPECT_EQ(ops.pmd_writes, 1u);
    EXPECT_EQ(ops.pte_writes, 0u);
    Translation t = pt.translate(42);
    EXPECT_FALSE(t.present);
    EXPECT_TRUE(t.pmd_disabled);
}

TEST(PageTable, PmdFastPathNeedsFullUniformSpan)
{
    PageTable pt(kSpan);
    for (Vpn v = 0; v < kSpan; ++v)
        pt.map_page(v, v < 10 ? 7 : 6);  // Mixed pdoms: not uniform.
    PtOps ops = pt.disable_range(0, kSpan, 1, true);
    EXPECT_EQ(ops.pmd_writes, 0u);
    EXPECT_EQ(ops.pte_writes, kSpan);
    // PTE-level eviction retags with the access-never pdom.
    Translation t = pt.translate(0);
    ASSERT_TRUE(t.present);
    EXPECT_EQ(t.pdom, 1);
}

TEST(PageTable, HlruRemapToSamePdomIsOnePmdWrite)
{
    PageTable pt(kSpan);
    for (Vpn v = 0; v < kSpan; ++v)
        pt.map_page(v, 6);
    pt.disable_range(0, kSpan, 1, true);
    // Remap to the SAME pdom: one PMD write restores everything (§5.5).
    PtOps ops = pt.set_pdom_range(0, kSpan, 6, true);
    EXPECT_EQ(ops.pmd_writes, 1u);
    EXPECT_EQ(ops.pte_writes, 0u);
    EXPECT_EQ(pt.translate(100).pdom, 6);
}

TEST(PageTable, RemapToDifferentPdomPaysPerPte)
{
    PageTable pt(kSpan);
    for (Vpn v = 0; v < kSpan; ++v)
        pt.map_page(v, 6);
    pt.disable_range(0, kSpan, 1, true);
    PtOps ops = pt.set_pdom_range(0, kSpan, 9, true);
    EXPECT_EQ(ops.pmd_writes, 1u);
    EXPECT_EQ(ops.pte_writes, kSpan);
    EXPECT_EQ(pt.translate(100).pdom, 9);
}

TEST(PageTable, HugeDisableAndRestore)
{
    PageTable pt(kSpan);
    pt.map_huge(0, 4);
    PtOps disable = pt.disable_range(0, kSpan, 1, true);
    EXPECT_EQ(disable.pmd_writes, 1u);
    EXPECT_TRUE(pt.translate(3).pmd_disabled);
    PtOps restore = pt.set_pdom_range(0, kSpan, 8, true);
    EXPECT_EQ(restore.pmd_writes, 1u);
    Translation t = pt.translate(3);
    ASSERT_TRUE(t.present);
    EXPECT_TRUE(t.huge);
    EXPECT_EQ(t.pdom, 8);
}

TEST(PageTable, MapPageIntoDisabledSpanNeutralizesSiblings)
{
    PageTable pt(kSpan, /*access_never=*/1);
    for (Vpn v = 0; v < kSpan; ++v)
        pt.map_page(v, 6);
    pt.disable_range(0, kSpan, 1, true);
    // Re-enabling one page must not resurrect the whole evicted span with
    // its old tags.
    pt.map_page(0, 9);
    EXPECT_EQ(pt.translate(0).pdom, 9);
    Translation sibling = pt.translate(1);
    ASSERT_TRUE(sibling.present);
    EXPECT_EQ(sibling.pdom, 1);  // access-never, not the stale pdom 6.
}

TEST(PageTable, ProtNoneRoundTrip)
{
    PageTable pt(kSpan);
    for (Vpn v = 0; v < 8; ++v)
        pt.map_page(v, 3);
    PtOps none = pt.protect_none_range(0, 8);
    EXPECT_EQ(none.pte_writes, 8u);
    Translation t = pt.translate(2);
    EXPECT_FALSE(t.present);
    EXPECT_TRUE(t.prot_none);
    // Restore via retag (the libmpk swap-in path).
    PtOps restore = pt.set_pdom_range(0, 8, 5, false);
    EXPECT_EQ(restore.pte_writes, 8u);
    t = pt.translate(2);
    ASSERT_TRUE(t.present);
    EXPECT_EQ(t.pdom, 5);
}

TEST(PageTable, ProtNoneOnHugeUsesOnePmdWrite)
{
    PageTable pt(kSpan);
    pt.map_huge(0, 3);
    PtOps none = pt.protect_none_range(0, kSpan);
    EXPECT_EQ(none.pmd_writes, 1u);
    EXPECT_EQ(none.pte_writes, 0u);
    EXPECT_FALSE(pt.translate(10).present);
}

TEST(PageTable, ProtNoneIdempotent)
{
    PageTable pt(kSpan);
    pt.map_page(0, 3);
    pt.protect_none_range(0, 1);
    PtOps again = pt.protect_none_range(0, 1);
    EXPECT_EQ(again.pte_writes, 0u);
}

TEST(PageTable, PresentPagesCount)
{
    PageTable pt(kSpan);
    for (Vpn v = 0; v < 20; ++v)
        pt.map_page(v, 2);
    EXPECT_EQ(pt.present_pages(), 20u);
    pt.unmap_page(0);
    EXPECT_EQ(pt.present_pages(), 19u);
}

TEST(PageTable, MultiPmdRange)
{
    PageTable pt(kSpan);
    // 64MB worth: 32 spans (Table 3's big-eviction case).
    constexpr std::uint64_t kPages = 32 * kSpan;
    for (Vpn v = 0; v < kPages; ++v)
        pt.map_page(v, 6);
    PtOps disable = pt.disable_range(0, kPages, 1, true);
    EXPECT_EQ(disable.pmd_writes, 32u);
    EXPECT_EQ(disable.pte_writes, 0u);
    PtOps restore = pt.set_pdom_range(0, kPages, 6, true);
    EXPECT_EQ(restore.pmd_writes, 32u);
    EXPECT_EQ(restore.pte_writes, 0u);
}

TEST(PageTable, UnalignedRangeFallsBackToPtes)
{
    PageTable pt(kSpan);
    for (Vpn v = 10; v < 10 + kSpan; ++v)
        pt.map_page(v, 6);
    // Covers 512 pages but straddles two PMDs: no span is fully covered.
    PtOps disable = pt.disable_range(10, kSpan, 1, true);
    EXPECT_EQ(disable.pmd_writes, 0u);
    EXPECT_EQ(disable.pte_writes, kSpan);
}

TEST(PageTable, RejectsNonPowerOfTwoSpan)
{
    EXPECT_THROW(PageTable(0), std::invalid_argument);
    EXPECT_THROW(PageTable(384), std::invalid_argument);
    EXPECT_THROW(PageTable(513), std::invalid_argument);
    PageTable pt(256);
    EXPECT_EQ(pt.pmd_index(255), 0u);
    EXPECT_EQ(pt.pmd_index(256), 1u);
}

// --- differential: leaf walks vs the per-page loops they replace ---------

/// PMD index past the dense directory (sparse overflow map).
constexpr Vpn kSparseIdx = (Vpn{1} << 16) + 3;

/// Builds the same layout into a destination table and a source (shadow)
/// table.  Each PMD span exercises one leaf shape on either side.
void
build_layout(PageTable &dst, PageTable &src)
{
    auto base = [](Vpn idx) { return idx * kSpan; };
    // Span 0: absent here; source PTE table with gaps and PROT_NONE pages.
    for (Vpn off = 0; off < kSpan; off += 3)
        src.map_page(base(0) + off, 0);
    src.protect_none_range(base(0) + 30, 40);
    // Span 1: PTE table here with present, PROT_NONE and absent PTEs;
    // source fully present.
    for (Vpn off = 100; off < 300; ++off)
        dst.map_page(base(1) + off, 6);
    dst.protect_none_range(base(1) + 100, 150);
    for (Vpn off = 0; off < kSpan; ++off)
        src.map_page(base(1) + off, 0);
    // Span 2: disabled (uniform span, not huge) here.
    for (Vpn off = 0; off < kSpan; ++off) {
        dst.map_page(base(2) + off, 6);
        src.map_page(base(2) + off, 0);
    }
    dst.disable_range(base(2), kSpan, 1, true);
    // Span 3: disabled huge here.
    dst.map_huge(base(3), 4);
    dst.disable_range(base(3), kSpan, 1, true);
    src.map_huge(base(3), 0);
    // Span 4: huge here, PTE table in the source.
    dst.map_huge(base(4), 5);
    for (Vpn off = 0; off < kSpan; off += 2)
        src.map_page(base(4) + off, 0);
    // Span 5: absent here, huge in the source.
    src.map_huge(base(5), 0);
    // Span 6: absent here, disabled in the source.
    for (Vpn off = 0; off < kSpan; ++off)
        src.map_page(base(6) + off, 0);
    src.disable_range(base(6), kSpan, 1, true);
    // Span 7: absent on both sides.  Span 8: empty PTE table here (every
    // page unmapped again), sparse source.
    for (Vpn off = 0; off < kSpan; off += 5) {
        dst.map_page(base(8) + off, 6);
        dst.unmap_page(base(8) + off);
        src.map_page(base(8) + off, 0);
    }
    // Span 9: partly present here, absent from the source.
    for (Vpn off = 50; off < 60; ++off)
        dst.map_page(base(9) + off, 6);
    // Sparse spans: one absent here, one partly present here.
    for (Vpn off = 10; off < 400; off += 7)
        src.map_page(base(kSparseIdx) + off, 0);
    for (Vpn off = 0; off < kSpan; ++off)
        src.map_page(base(kSparseIdx + 1) + off, 0);
    for (Vpn off = 200; off < 210; ++off)
        dst.map_page(base(kSparseIdx + 1) + off, 6);
}

/// The spans build_layout touches (plus an untouched neighbour).
std::vector<Vpn>
layout_spans()
{
    std::vector<Vpn> spans;
    for (Vpn idx = 0; idx < 11; ++idx)
        spans.push_back(idx);
    spans.push_back(kSparseIdx);
    spans.push_back(kSparseIdx + 1);
    spans.push_back(kSparseIdx + 2);
    return spans;
}

void
expect_same_translations(const PageTable &a, const PageTable &b)
{
    for (Vpn idx : layout_spans()) {
        for (Vpn v = idx * kSpan; v < (idx + 1) * kSpan; ++v) {
            Translation ta = a.translate(v);
            Translation tb = b.translate(v);
            ASSERT_EQ(ta.present, tb.present) << "vpn " << v;
            ASSERT_EQ(ta.pmd_disabled, tb.pmd_disabled) << "vpn " << v;
            ASSERT_EQ(ta.prot_none, tb.prot_none) << "vpn " << v;
            ASSERT_EQ(ta.huge, tb.huge) << "vpn " << v;
            ASSERT_EQ(ta.pdom, tb.pdom) << "vpn " << v;
        }
    }
    EXPECT_EQ(a.present_pages(), b.present_pages());
}

/// Ranges over the layout: whole spans, unaligned partial spans, ranges
/// crossing span boundaries, and pseudo-random ones.
std::vector<std::pair<Vpn, std::uint64_t>>
walk_ranges()
{
    std::vector<std::pair<Vpn, std::uint64_t>> ranges;
    for (Vpn idx : layout_spans()) {
        Vpn b = idx * kSpan;
        ranges.push_back({b, kSpan});
        ranges.push_back({b + 17, 300});
        ranges.push_back({b + 250, 2 * kSpan});
        ranges.push_back({b + kSpan - 1, 2});
    }
    ranges.push_back({0, 11 * kSpan});
    ranges.push_back({kSparseIdx * kSpan - 5, 3 * kSpan});
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    for (int i = 0; i < 64; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        Vpn start = (x >> 8) % (11 * kSpan);
        std::uint64_t count = 1 + (x >> 40) % (3 * kSpan);
        ranges.push_back({start, count});
    }
    return ranges;
}

TEST(PageTableDifferential, MapMissingFromMatchesPerPageLoop)
{
    for (auto [start, count] : walk_ranges()) {
        SCOPED_TRACE(testing::Message() << "range " << start << "+" << count);
        PageTable ref(kSpan), ref_src(kSpan);
        PageTable walk(kSpan), walk_src(kSpan);
        build_layout(ref, ref_src);
        build_layout(walk, walk_src);

        // The per-page loop install_vdom_in_vds ran before the leaf walk.
        PtOps ref_ops;
        Vpn ref_stop = start + count;
        for (Vpn v = start; v < start + count; ++v) {
            Translation t = ref.translate(v);
            if (t.present || t.pmd_disabled) {
                ref_stop = v;
                break;
            }
            if (ref_src.translate(v).present)
                ref_ops += ref.map_page(v, 9);
        }

        PtOps ops;
        Vpn stop = walk.map_missing_from(walk_src, start, count, 9, ops);
        EXPECT_EQ(stop, ref_stop);
        EXPECT_EQ(ops.pte_writes, ref_ops.pte_writes);
        EXPECT_EQ(ops.pmd_writes, ref_ops.pmd_writes);
        expect_same_translations(walk, ref);
        expect_same_translations(walk_src, ref_src);
    }
}

TEST(PageTableDifferential, DemandMapMatchesPerPageFaults)
{
    // One event per callback: the shadow step (vpn, filled, its writes)
    // or the mapping here (its writes; vpn and filled unused).
    struct Event {
        bool shadow_step;
        Vpn vpn;
        bool filled;
        PtOps ops;
    };
    auto same = [](const Event &a, const Event &b) {
        return a.shadow_step == b.shadow_step && a.vpn == b.vpn &&
               a.filled == b.filled && a.ops.pte_writes == b.ops.pte_writes &&
               a.ops.pmd_writes == b.ops.pmd_writes;
    };
    for (auto [start, count] : walk_ranges()) {
        SCOPED_TRACE(testing::Message() << "range " << start << "+" << count);
        PageTable ref(kSpan), ref_shadow(kSpan);
        PageTable walk(kSpan), walk_shadow(kSpan);
        build_layout(ref, ref_shadow);
        build_layout(walk, walk_shadow);

        // One fault per page, as MmStruct::fault_in does it.
        std::vector<Event> ref_events;
        for (Vpn v = start; v < start + count; ++v) {
            if (ref.translate(v).present)
                continue;
            Event shadow_step{true, v, !ref_shadow.translate(v).present, {}};
            if (shadow_step.filled)
                shadow_step.ops = ref_shadow.map_page(v, 0);
            ref_events.push_back(shadow_step);
            ref_events.push_back({false, 0, false, ref.map_page(v, 9)});
        }

        std::vector<Event> events;
        walk.demand_map(
            walk_shadow, start, count, 0, 9,
            [&](Vpn v, bool filled, const PtOps &ops) {
                events.push_back({true, v, filled, ops});
            },
            [&](const PtOps &ops) {
                events.push_back({false, 0, false, ops});
            });
        ASSERT_EQ(events.size(), ref_events.size());
        for (std::size_t i = 0; i < events.size(); ++i)
            EXPECT_TRUE(same(events[i], ref_events[i])) << "event " << i;
        expect_same_translations(walk, ref);
        expect_same_translations(walk_shadow, ref_shadow);
    }
}

// --- differential: plane layout vs a per-PTE reference ------------------

/// The page table as an array of per-PTE structs under an ordered map of
/// leaves, each mutator a plain per-PTE loop: the layout and loops the
/// byte planes replaced, kept here as the reference for the random traces.
class RefPageTable {
  public:
    RefPageTable(std::size_t span, Pdom access_never)
        : span_(span), access_never_(access_never)
    {
    }

    Translation
    translate(Vpn vpn) const
    {
        Translation t;
        auto it = leaves_.find(vpn / span_);
        if (it == leaves_.end())
            return t;
        const Leaf &leaf = it->second;
        if (leaf.kind == Kind::kDisabled) {
            t.pmd_disabled = true;
            return t;
        }
        if (leaf.kind == Kind::kHuge) {
            t.present = true;
            t.huge = true;
            t.pdom = leaf.pdom;
            return t;
        }
        const Pte &pte = leaf.ptes[vpn % span_];
        if (!pte.present)
            return t;
        if (pte.prot_none) {
            t.prot_none = true;
            return t;
        }
        t.present = true;
        t.pdom = pte.pdom;
        return t;
    }

    PtOps
    map_page(Vpn vpn, Pdom pdom)
    {
        PtOps ops;
        Leaf &leaf = grow(vpn / span_);
        if (leaf.kind != Kind::kTable) {
            if (leaf.kind == Kind::kDisabled) {
                for (std::size_t off = 0; off < span_; ++off) {
                    Pte &pte = leaf.ptes[off];
                    if (pte.present && off != vpn % span_) {
                        pte.pdom = access_never_;
                        ++ops.pte_writes;
                    }
                }
            }
            leaf.kind = Kind::kTable;
            leaf.was_huge = false;
            ++ops.pmd_writes;
        }
        Pte &pte = leaf.ptes[vpn % span_];
        pte.present = true;
        pte.pdom = pdom;
        ++ops.pte_writes;
        return ops;
    }

    PtOps
    unmap_page(Vpn vpn)
    {
        PtOps ops;
        auto it = leaves_.find(vpn / span_);
        if (it == leaves_.end() || it->second.kind == Kind::kHuge)
            return ops;
        Pte &pte = it->second.ptes[vpn % span_];
        if (!pte.present)
            return ops;
        pte = Pte{};
        ++ops.pte_writes;
        return ops;
    }

    PtOps
    unmap_huge(Vpn vpn)
    {
        PtOps ops;
        auto it = leaves_.find(vpn / span_);
        if (it == leaves_.end())
            return ops;
        const Leaf &leaf = it->second;
        if (leaf.kind == Kind::kHuge ||
            (leaf.kind == Kind::kDisabled && leaf.was_huge)) {
            leaves_.erase(it);
            ++ops.pmd_writes;
        }
        return ops;
    }

    PtOps
    map_huge(Vpn vpn, Pdom pdom)
    {
        PtOps ops;
        Leaf &leaf = grow(vpn / span_);
        leaf.kind = Kind::kHuge;
        leaf.pdom = pdom;
        ++ops.pmd_writes;
        std::fill(leaf.ptes.begin(), leaf.ptes.end(), Pte{});
        return ops;
    }

    PtOps
    set_pdom_range(Vpn vpn, std::uint64_t count, Pdom pdom, bool fast)
    {
        PtOps ops;
        for (Vpn v = vpn; v < vpn + count;) {
            Vpn start = v / span_ * span_;
            Vpn stop = std::min<Vpn>(vpn + count, start + span_);
            Leaf *leaf = find(v / span_);
            bool covers = v == start && vpn + count >= start + span_;
            if (covers && leaf && leaf->kind == Kind::kHuge) {
                leaf->pdom = pdom;
                ++ops.pmd_writes;
            } else if (covers && leaf && leaf->kind == Kind::kDisabled) {
                ++ops.pmd_writes;
                if (leaf->was_huge) {
                    leaf->kind = Kind::kHuge;
                    leaf->pdom = pdom;
                    leaf->was_huge = false;
                } else {
                    leaf->kind = Kind::kTable;
                    if (!fast || leaf->pdom != pdom)
                        ops.pte_writes += retag(*leaf, 0, span_, pdom);
                }
            } else if (leaf && leaf->kind == Kind::kTable) {
                ops.pte_writes += retag(*leaf, v - start, stop - start, pdom);
            }
            v = stop;
        }
        return ops;
    }

    PtOps
    disable_range(Vpn vpn, std::uint64_t count, Pdom access_never, bool fast)
    {
        PtOps ops;
        for (Vpn v = vpn; v < vpn + count;) {
            Vpn start = v / span_ * span_;
            Vpn stop = std::min<Vpn>(vpn + count, start + span_);
            Leaf *leaf = find(v / span_);
            bool covers = v == start && vpn + count >= start + span_;
            if (covers && leaf && leaf->kind == Kind::kHuge) {
                leaf->kind = Kind::kDisabled;
                leaf->was_huge = true;
                ++ops.pmd_writes;
            } else if (covers && fast && leaf && uniform(*leaf)) {
                leaf->kind = Kind::kDisabled;
                leaf->pdom = leaf->ptes[0].pdom;
                ++ops.pmd_writes;
            } else if (leaf && leaf->kind == Kind::kTable) {
                for (Vpn off = v - start; off < stop - start; ++off) {
                    Pte &pte = leaf->ptes[off];
                    if (pte.present && pte.pdom != access_never) {
                        pte.pdom = access_never;
                        ++ops.pte_writes;
                    }
                }
            }
            v = stop;
        }
        return ops;
    }

    PtOps
    protect_none_range(Vpn vpn, std::uint64_t count)
    {
        PtOps ops;
        for (Vpn v = vpn; v < vpn + count;) {
            Vpn start = v / span_ * span_;
            Vpn stop = std::min<Vpn>(vpn + count, start + span_);
            Leaf *leaf = find(v / span_);
            if (leaf && leaf->kind == Kind::kHuge && v == start &&
                vpn + count >= start + span_) {
                leaf->kind = Kind::kDisabled;
                leaf->was_huge = true;
                ++ops.pmd_writes;
            } else if (leaf) {
                for (Vpn off = v - start; off < stop - start; ++off) {
                    Pte &pte = leaf->ptes[off];
                    if (pte.present && !pte.prot_none) {
                        pte.prot_none = true;
                        ++ops.pte_writes;
                    }
                }
            }
            v = stop;
        }
        return ops;
    }

    std::uint64_t
    present_pages() const
    {
        std::uint64_t n = 0;
        for (const auto &[idx, leaf] : leaves_) {
            (void)idx;
            if (leaf.kind == Kind::kHuge) {
                n += span_;
                continue;
            }
            for (const Pte &pte : leaf.ptes)
                n += pte.present;
        }
        return n;
    }

  private:
    struct Pte {
        bool present = false;
        bool prot_none = false;
        Pdom pdom = 0;
    };
    enum class Kind { kTable, kDisabled, kHuge };
    struct Leaf {
        Kind kind = Kind::kTable;
        Pdom pdom = 0;
        bool was_huge = false;
        std::vector<Pte> ptes;
    };

    Leaf *
    find(Vpn idx)
    {
        auto it = leaves_.find(idx);
        return it == leaves_.end() ? nullptr : &it->second;
    }

    Leaf &
    grow(Vpn idx)
    {
        Leaf &leaf = leaves_[idx];
        if (leaf.ptes.empty())
            leaf.ptes.resize(span_);
        return leaf;
    }

    std::uint64_t
    retag(Leaf &leaf, std::size_t lo, std::size_t hi, Pdom pdom)
    {
        std::uint64_t writes = 0;
        for (std::size_t off = lo; off < hi; ++off) {
            Pte &pte = leaf.ptes[off];
            if (pte.present) {
                pte.pdom = pdom;
                pte.prot_none = false;
                ++writes;
            }
        }
        return writes;
    }

    bool
    uniform(const Leaf &leaf) const
    {
        if (leaf.kind != Kind::kTable)
            return false;
        for (const Pte &pte : leaf.ptes) {
            if (!pte.present || pte.prot_none ||
                pte.pdom != leaf.ptes[0].pdom)
                return false;
        }
        return true;
    }

    std::size_t span_;
    Pdom access_never_;
    std::map<Vpn, Leaf> leaves_;
};

/// One table under test and its reference, mutated in lockstep.
struct TablePair {
    PageTable pt;
    RefPageTable ref;

    TablePair(std::size_t span, Pdom access_never)
        : pt(span, access_never), ref(span, access_never)
    {
    }
};

void
expect_same_ops(const PtOps &got, const PtOps &want)
{
    ASSERT_EQ(got.pte_writes, want.pte_writes);
    ASSERT_EQ(got.pmd_writes, want.pmd_writes);
}

/// Random traces over a window of dense spans plus sparse ones past the
/// dense directory, on two tables (each the other's source or shadow).
void
run_random_trace(std::size_t span, std::uint64_t seed)
{
    constexpr Pdom kNever = 1;
    const Vpn dense_spans = span >= 512 ? 4 : 24;
    const Vpn sparse_spans = span >= 512 ? 2 : 4;
    std::vector<std::pair<Vpn, Vpn>> regions = {
        {0, dense_spans * span},
        {kSparseIdx * span, (kSparseIdx + sparse_spans) * span}};
    TablePair a(span, kNever), b(span, kNever);
    std::mt19937_64 rng(seed);
    auto below = [&](std::uint64_t n) { return rng() % n; };
    auto pick_pdom = [&] { return static_cast<Pdom>(below(4)); };
    // Aligned whole spans (most often: the §5.5 paths need them),
    // unaligned pieces, multi-span runs and single pages, inside one
    // region.
    auto pick_range = [&]() -> std::pair<Vpn, std::uint64_t> {
        auto [lo, hi] = regions[below(10) < 7 ? 0 : 1];
        Vpn spans = (hi - lo) / span;
        std::uint64_t shape = below(10);
        switch (shape < 4 ? 0 : shape < 6 ? 1 : shape < 8 ? 2 : 3) {
        case 0: {
            Vpn first = below(spans);
            return {lo + first * span, (1 + below(spans - first)) * span};
        }
        case 1: {
            Vpn start = lo + below(hi - lo);
            return {start, 1 + below(std::min<Vpn>(span, hi - start))};
        }
        case 2: {
            Vpn start = lo + below(hi - lo - span);
            return {start, span + below(hi - start - span + 1)};
        }
        default:
            return {lo + below(hi - lo), 1};
        }
    };
    auto check = [&](const TablePair &t) {
        for (auto [lo, hi] : regions) {
            for (Vpn v = lo; v < hi; ++v) {
                Translation got = t.pt.translate(v);
                Translation want = t.ref.translate(v);
                ASSERT_EQ(got.present, want.present) << "vpn " << v;
                ASSERT_EQ(got.pmd_disabled, want.pmd_disabled) << "vpn " << v;
                ASSERT_EQ(got.prot_none, want.prot_none) << "vpn " << v;
                ASSERT_EQ(got.huge, want.huge) << "vpn " << v;
                ASSERT_EQ(got.pdom, want.pdom) << "vpn " << v;
            }
        }
        // present_pages() sums each leaf's present count, so this also
        // checks that count against a rescan of the reference's PTEs.
        ASSERT_EQ(t.pt.present_pages(), t.ref.present_pages());
    };

    for (int step = 0; step < 2000; ++step) {
        SCOPED_TRACE(testing::Message() << "step " << step);
        bool a_first = below(2) == 0;
        TablePair &t = a_first ? a : b;
        TablePair &other = a_first ? b : a;
        auto [vpn, count] = pick_range();
        Vpn span_base = vpn / span * span;
        bool fast = below(2) == 0;
        Pdom pdom = pick_pdom();
        switch (below(12)) {
        case 0:
            expect_same_ops(t.pt.map_page(vpn, pdom),
                            t.ref.map_page(vpn, pdom));
            break;
        case 1:
        case 2:
            // Runs of one pdom build the uniform spans the fast paths need.
            for (Vpn v = vpn; v < vpn + count; ++v)
                expect_same_ops(t.pt.map_page(v, pdom),
                                t.ref.map_page(v, pdom));
            break;
        case 3:
            for (Vpn v = vpn; v < vpn + std::min<Vpn>(count, 4); ++v)
                expect_same_ops(t.pt.unmap_page(v), t.ref.unmap_page(v));
            break;
        case 4:
            expect_same_ops(t.pt.map_huge(span_base, pdom),
                            t.ref.map_huge(span_base, pdom));
            break;
        case 5:
            expect_same_ops(t.pt.unmap_huge(vpn), t.ref.unmap_huge(vpn));
            break;
        case 6:
            expect_same_ops(t.pt.set_pdom_range(vpn, count, pdom, fast),
                            t.ref.set_pdom_range(vpn, count, pdom, fast));
            break;
        case 7: {
            Pdom never = below(4) == 0 ? pdom : kNever;
            expect_same_ops(t.pt.disable_range(vpn, count, never, fast),
                            t.ref.disable_range(vpn, count, never, fast));
            break;
        }
        case 8:
            expect_same_ops(t.pt.protect_none_range(vpn, count),
                            t.ref.protect_none_range(vpn, count));
            break;
        case 9:
            // A vdom filling a whole span with one pdom, evicted (the
            // §5.5 PMD disable of a uniform span) and often remapped at
            // once, to the same pdom or another (the HLRU remap).
            for (Vpn v = span_base; v < span_base + span; ++v)
                expect_same_ops(t.pt.map_page(v, pdom),
                                t.ref.map_page(v, pdom));
            expect_same_ops(t.pt.disable_range(span_base, span, kNever, true),
                            t.ref.disable_range(span_base, span, kNever, true));
            if (below(2) == 0) {
                Pdom back = below(2) == 0 ? pdom : pick_pdom();
                expect_same_ops(
                    t.pt.set_pdom_range(span_base, span, back, fast),
                    t.ref.set_pdom_range(span_base, span, back, fast));
            }
            break;
        case 10: {
            // The per-page loop map_missing_from replaced.
            PtOps want;
            Vpn want_stop = vpn + count;
            for (Vpn v = vpn; v < vpn + count; ++v) {
                Translation here = t.ref.translate(v);
                if (here.present || here.pmd_disabled) {
                    want_stop = v;
                    break;
                }
                if (other.ref.translate(v).present)
                    want += t.ref.map_page(v, pdom);
            }
            PtOps got;
            Vpn stop = t.pt.map_missing_from(other.pt, vpn, count, pdom, got);
            ASSERT_EQ(stop, want_stop);
            expect_same_ops(got, want);
            break;
        }
        default: {
            // One fault per page, the loop demand_map replaced; compare
            // the callbacks' arguments in order.
            Pdom shadow_pdom = pick_pdom();
            std::vector<std::tuple<Vpn, bool, std::uint64_t, std::uint64_t>>
                want, got;
            for (Vpn v = vpn; v < vpn + count; ++v) {
                if (t.ref.translate(v).present)
                    continue;
                bool filled = !other.ref.translate(v).present;
                PtOps shadow_ops;
                if (filled)
                    shadow_ops = other.ref.map_page(v, shadow_pdom);
                want.emplace_back(v, filled, shadow_ops.pte_writes,
                                  shadow_ops.pmd_writes);
                PtOps ops = t.ref.map_page(v, pdom);
                want.emplace_back(v, false, ops.pte_writes, ops.pmd_writes);
            }
            Vpn at = 0;
            t.pt.demand_map(
                other.pt, vpn, count, shadow_pdom, pdom,
                [&](Vpn v, bool filled, const PtOps &ops) {
                    at = v;
                    got.emplace_back(v, filled, ops.pte_writes,
                                     ops.pmd_writes);
                },
                [&](const PtOps &ops) {
                    got.emplace_back(at, false, ops.pte_writes,
                                     ops.pmd_writes);
                });
            ASSERT_EQ(got, want);
            break;
        }
        }
        check(a);
        check(b);
        if (testing::Test::HasFatalFailure())
            return;
    }
}

TEST(PageTableDifferential, RandomOpsMatchPerPteReference)
{
    for (std::size_t span : {std::size_t{512}, std::size_t{8}}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(testing::Message()
                         << "span " << span << " seed " << seed);
            run_random_trace(span, seed);
            if (HasFatalFailure())
                return;
        }
    }
}

}  // namespace
}  // namespace vdom::hw
