/// \file
/// Page-table model tests: domain tagging, PMD fast paths, PROT_NONE.

#include <gtest/gtest.h>

#include <stdexcept>
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

}  // namespace
}  // namespace vdom::hw
