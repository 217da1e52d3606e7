/// \file
/// MmStruct tests: layout, vdom assignment, demand paging, eviction ops.

#include <gtest/gtest.h>

#include <optional>

#include "hw/machine.h"
#include "kernel/mm.h"
#include "sim/fault.h"
#include "telemetry/metrics.h"

namespace vdom::kernel {
namespace {

class MmTest : public ::testing::Test {
  protected:
    MmTest()
        : params(hw::ArchParams::x86(2)),
          machine(params),
          shootdown(machine),
          mm(params, &shootdown)
    {
        core().set_pgd(&mm.vds0()->pgd(), 1);
    }

    hw::Core &core() { return machine.core(0); }

    hw::ArchParams params;
    hw::Machine machine;
    ShootdownManager shootdown;
    MmStruct mm;
};

TEST_F(MmTest, MmapDisjointRegions)
{
    hw::Vpn a = mm.mmap(10);
    hw::Vpn b = mm.mmap(10);
    EXPECT_GE(b, a + 10);
    EXPECT_NE(mm.vmas().find(a), nullptr);
    EXPECT_NE(mm.vmas().find(b + 9), nullptr);
    EXPECT_EQ(mm.vmas().find(a + 10), nullptr);  // Guard gap.
}

TEST_F(MmTest, LargeMmapIsPmdAligned)
{
    hw::Vpn big = mm.mmap(512);
    EXPECT_EQ(big % params.pmd_span_pages, 0u);
    hw::Vpn huge = mm.mmap(512, true);
    EXPECT_EQ(huge % params.pmd_span_pages, 0u);
}

TEST_F(MmTest, AssignVdomAndVdt)
{
    VdomId v = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(8);
    EXPECT_EQ(mm.assign_vdom(core(), region, 8, v), VdomStatus::kOk);
    EXPECT_EQ(mm.vdom_of(region + 3), v);
    EXPECT_EQ(mm.vdm().vdt().protected_pages(v), 8u);
}

TEST_F(MmTest, AssignSplitsVma)
{
    VdomId v = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(10);
    ASSERT_EQ(mm.assign_vdom(core(), region + 3, 4, v), VdomStatus::kOk);
    EXPECT_EQ(mm.vdom_of(region), kCommonVdom);
    EXPECT_EQ(mm.vdom_of(region + 3), v);
    EXPECT_EQ(mm.vdom_of(region + 6), v);
    EXPECT_EQ(mm.vdom_of(region + 7), kCommonVdom);
}

TEST_F(MmTest, AddressSpaceIntegrity)
{
    // §7.2: a region given one vdom can never be reassigned to another.
    VdomId a = mm.vdm().alloc(false);
    VdomId b = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(4);
    ASSERT_EQ(mm.assign_vdom(core(), region, 4, a), VdomStatus::kOk);
    EXPECT_EQ(mm.assign_vdom(core(), region, 4, b),
              VdomStatus::kAlreadyAssigned);
    EXPECT_EQ(mm.assign_vdom(core(), region + 1, 2, b),
              VdomStatus::kAlreadyAssigned);
    // Re-assigning the same vdom is idempotent.
    EXPECT_EQ(mm.assign_vdom(core(), region, 4, a), VdomStatus::kOk);
}

TEST_F(MmTest, AssignRejectsBadInput)
{
    EXPECT_EQ(mm.assign_vdom(core(), 0xdead000, 4, 99),
              VdomStatus::kInvalidVdom);
    VdomId v = mm.vdm().alloc(false);
    EXPECT_EQ(mm.assign_vdom(core(), 0xdead000, 4, v),
              VdomStatus::kInvalidRange);
    EXPECT_EQ(mm.assign_vdom(core(), 0, 0, v), VdomStatus::kInvalidRange);
}

TEST_F(MmTest, FaultInPopulatesShadowAndVds)
{
    hw::Vpn region = mm.mmap(2);
    EXPECT_TRUE(mm.fault_in(core(), *mm.vds0(), region));
    EXPECT_TRUE(mm.shadow().translate(region).present);
    hw::Translation t = mm.vds0()->pgd().translate(region);
    ASSERT_TRUE(t.present);
    EXPECT_EQ(t.pdom, params.default_pdom);
}

TEST_F(MmTest, FaultInUnknownAddressFails)
{
    EXPECT_FALSE(mm.fault_in(core(), *mm.vds0(), 0xdead000));
}

TEST_F(MmTest, FaultInProtectedPageUnmappedVdomGetsAccessNever)
{
    VdomId v = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(2);
    mm.assign_vdom(core(), region, 2, v);
    mm.fault_in(core(), *mm.vds0(), region);
    hw::Translation t = mm.vds0()->pgd().translate(region);
    ASSERT_TRUE(t.present);
    EXPECT_EQ(t.pdom, params.access_never_pdom);
}

TEST_F(MmTest, FaultInProtectedPageMappedVdomGetsItsPdom)
{
    VdomId v = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(2);
    mm.assign_vdom(core(), region, 2, v);
    mm.vds0()->map_vdom(6, v);
    mm.fault_in(core(), *mm.vds0(), region);
    EXPECT_EQ(mm.vds0()->pgd().translate(region).pdom, 6);
}

TEST_F(MmTest, CrossVdsDemandPagingChargesMemsync)
{
    hw::Vpn region = mm.mmap(1);
    mm.fault_in(core(), *mm.vds0(), region);
    Vds *other = mm.create_vds();
    hw::Cycles before = core().breakdown().get(hw::CostKind::kMemSync);
    mm.fault_in(core(), *other, region);
    EXPECT_GT(core().breakdown().get(hw::CostKind::kMemSync), before);
    EXPECT_TRUE(other->pgd().translate(region).present);
}

TEST_F(MmTest, FaultInIdempotent)
{
    hw::Vpn region = mm.mmap(1);
    mm.fault_in(core(), *mm.vds0(), region);
    hw::Cycles before = core().now();
    EXPECT_TRUE(mm.fault_in(core(), *mm.vds0(), region));
    EXPECT_EQ(core().now(), before);  // Early-out: no charge.
}

TEST_F(MmTest, InstallVdomMapsPresentPages)
{
    VdomId v = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(4);
    mm.assign_vdom(core(), region, 4, v);
    for (int i = 0; i < 4; ++i)
        mm.fault_in(core(), *mm.vds0(), region + i);
    Vds *other = mm.create_vds();
    other->map_vdom(5, v);
    hw::PtOps ops = mm.install_vdom_in_vds(core(), *other, v, 5,
                                           hw::CostKind::kMigration);
    EXPECT_EQ(ops.pte_writes, 4u);
    EXPECT_EQ(other->pgd().translate(region + 2).pdom, 5);
}

TEST_F(MmTest, EvictUsesPmdFastPathFor2MbVdom)
{
    VdomId v = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(512);
    mm.assign_vdom(core(), region, 512, v);
    mm.vds0()->map_vdom(6, v);
    for (int i = 0; i < 512; ++i)
        mm.fault_in(core(), *mm.vds0(), region + i);
    hw::PtOps ops = mm.evict_vdom_from_vds(core(), *mm.vds0(), v);
    EXPECT_EQ(ops.pmd_writes, 1u);
    EXPECT_EQ(ops.pte_writes, 0u);
    EXPECT_TRUE(mm.vds0()->pgd().translate(region).pmd_disabled);
}

TEST_F(MmTest, EvictSmallVdomRetagsPerPte)
{
    VdomId v = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(2);
    mm.assign_vdom(core(), region, 2, v);
    mm.vds0()->map_vdom(6, v);
    mm.fault_in(core(), *mm.vds0(), region);
    mm.fault_in(core(), *mm.vds0(), region + 1);
    hw::PtOps ops = mm.evict_vdom_from_vds(core(), *mm.vds0(), v);
    EXPECT_EQ(ops.pte_writes, 2u);
    EXPECT_EQ(mm.vds0()->pgd().translate(region).pdom,
              params.access_never_pdom);
}

TEST_F(MmTest, EvictBumpsTlbGeneration)
{
    VdomId v = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(1);
    mm.assign_vdom(core(), region, 1, v);
    std::uint64_t gen = mm.vds0()->tlb_gen();
    mm.evict_vdom_from_vds(core(), *mm.vds0(), v);
    EXPECT_GT(mm.vds0()->tlb_gen(), gen);
}

TEST_F(MmTest, MunmapRemovesEverywhere)
{
    VdomId v = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(4);
    mm.assign_vdom(core(), region, 4, v);
    mm.fault_in(core(), *mm.vds0(), region);
    Vds *other = mm.create_vds();
    mm.fault_in(core(), *other, region);
    mm.munmap(core(), region, 4);
    EXPECT_EQ(mm.vmas().find(region), nullptr);
    EXPECT_FALSE(mm.shadow().translate(region).present);
    EXPECT_FALSE(mm.vds0()->pgd().translate(region).present);
    EXPECT_FALSE(other->pgd().translate(region).present);
    EXPECT_TRUE(mm.vdm().vdt().areas(v).empty());
}

TEST_F(MmTest, MunmapPartial)
{
    hw::Vpn region = mm.mmap(10);
    mm.munmap(core(), region + 2, 3);
    EXPECT_NE(mm.vmas().find(region), nullptr);
    EXPECT_EQ(mm.vmas().find(region + 3), nullptr);
    EXPECT_NE(mm.vmas().find(region + 6), nullptr);
}

TEST_F(MmTest, HugeFaultInMapsWholePmd)
{
    hw::Vpn region = mm.mmap(512, true);
    mm.fault_in(core(), *mm.vds0(), region + 5);
    hw::Translation t = mm.vds0()->pgd().translate(region + 100);
    ASSERT_TRUE(t.present);
    EXPECT_TRUE(t.huge);
}

TEST_F(MmTest, UnionCpuBitmap)
{
    mm.vds0()->cpu_set(0);
    Vds *other = mm.create_vds();
    other->cpu_set(1);
    EXPECT_EQ(mm.union_cpu_bitmap(), 3u);
}

// --- fault_in_range vs one fault_in per page -----------------------------

/// One process with a layout that covers every fault_in branch: a
/// PMD-aligned region spanning two PMDs, a small region, a huge region, a
/// vdom-owned region, pages already present in vds0, pages present only
/// in a second VDS (memsync), and the guard gaps between regions.
struct FaultRig {
    FaultRig()
        : params(hw::ArchParams::x86(2)),
          machine(params),
          shootdown(machine),
          mm(params, &shootdown)
    {
        hw::Core &core = machine.core(0);
        core.set_pgd(&mm.vds0()->pgd(), 1);
        lo = mm.mmap(700);
        hw::Vpn small = mm.mmap(40);
        mm.mmap(512, true);
        hw::Vpn owned = mm.mmap(30);
        VdomId v = mm.vdm().alloc(false);
        mm.assign_vdom(core, owned, 30, v);
        hi = owned + 31;  // Ends one guard page past the last region.
        mm.fault_in(core, *mm.vds0(), lo + 5);
        mm.fault_in(core, *mm.vds0(), lo + 600);
        Vds *other = mm.create_vds();
        for (hw::Vpn p = small + 3; p < small + 9; ++p)
            mm.fault_in(core, *other, p);
        mm.fault_in(core, *other, owned + 2);
        core.reset();
    }

    hw::ArchParams params;
    hw::Machine machine;
    ShootdownManager shootdown;
    MmStruct mm;
    hw::Vpn lo = 0;
    hw::Vpn hi = 0;
};

/// What a pre-fault leaves behind: charged cycles (exact doubles), the
/// fault/VMA-cache/memsync counters, and every translation it touched.
void
expect_same_fault_state(FaultRig &a, FaultRig &b,
                        const telemetry::MetricsRegistry &ma,
                        const telemetry::MetricsRegistry &mb)
{
    using telemetry::Metric;
    hw::Core &ca = a.machine.core(0);
    hw::Core &cb = b.machine.core(0);
    EXPECT_EQ(ca.now(), cb.now());
    for (std::size_t k = 0; k < hw::kNumCostKinds; ++k) {
        auto kind = static_cast<hw::CostKind>(k);
        EXPECT_EQ(ca.breakdown().get(kind), cb.breakdown().get(kind))
            << hw::cost_kind_name(kind);
    }
    for (Metric m : {Metric::kFaultIn, Metric::kVmaCacheHit,
                     Metric::kVmaCacheMiss, Metric::kMemsyncPages,
                     Metric::kFaultsInjected}) {
        EXPECT_EQ(ma.value(m), mb.value(m)) << static_cast<int>(m);
    }
    EXPECT_EQ(a.mm.vmas().cache_stats().hits, b.mm.vmas().cache_stats().hits);
    EXPECT_EQ(a.mm.vmas().cache_stats().misses,
              b.mm.vmas().cache_stats().misses);
    auto same = [](const hw::PageTable &x, const hw::PageTable &y,
                   hw::Vpn v) {
        hw::Translation tx = x.translate(v);
        hw::Translation ty = y.translate(v);
        return tx.present == ty.present && tx.huge == ty.huge &&
               tx.pdom == ty.pdom && tx.prot_none == ty.prot_none &&
               tx.pmd_disabled == ty.pmd_disabled;
    };
    for (hw::Vpn v = a.lo; v < a.hi; ++v) {
        ASSERT_TRUE(same(a.mm.shadow(), b.mm.shadow(), v)) << "vpn " << v;
        for (std::size_t i = 0; i < a.mm.num_vdses(); ++i) {
            ASSERT_TRUE(same(a.mm.vdses()[i]->pgd(), b.mm.vdses()[i]->pgd(),
                             v))
                << "vds " << i << " vpn " << v;
        }
    }
}

/// Runs the pre-fault both ways under the fault plan \p arm sets up and
/// compares the results, including where a PowerLoss stops them.
template <class ArmFn>
void
compare_prefault(ArmFn arm)
{
    FaultRig ref, range;
    ASSERT_EQ(ref.lo, range.lo);
    ASSERT_EQ(ref.hi, range.hi);
    telemetry::MetricsRegistry mref(2), mrange(2);
    std::optional<sim::PowerLoss> ref_loss, range_loss;
    bool ref_covered = true, range_covered = true;
    {
        telemetry::ScopedMetrics metrics(mref);
        sim::FaultPlan plan(5);
        arm(plan);
        sim::ScopedFaults faults(plan);
        try {
            for (hw::Vpn v = ref.lo; v < ref.hi; ++v) {
                ref_covered &= ref.mm.fault_in(ref.machine.core(0),
                                               *ref.mm.vds0(), v);
            }
        } catch (const sim::PowerLoss &loss) {
            ref_loss = loss;
        }
    }
    {
        telemetry::ScopedMetrics metrics(mrange);
        sim::FaultPlan plan(5);
        arm(plan);
        sim::ScopedFaults faults(plan);
        try {
            range_covered = range.mm.fault_in_range(
                range.machine.core(0), *range.mm.vds0(), range.lo,
                range.hi - range.lo);
        } catch (const sim::PowerLoss &loss) {
            range_loss = loss;
        }
    }
    ASSERT_EQ(ref_loss.has_value(), range_loss.has_value());
    if (ref_loss)
        EXPECT_EQ(ref_loss->crossing, range_loss->crossing);
    else
        EXPECT_EQ(ref_covered, range_covered);
    expect_same_fault_state(ref, range, mref, mrange);
}

TEST(FaultInRange, MatchesPerPageFaultIn)
{
    compare_prefault([](sim::FaultPlan &) {});
}

TEST(FaultInRange, MatchesPerPageFaultInWithPteWriteDelays)
{
    compare_prefault([](sim::FaultPlan &plan) {
        plan.arm(sim::FaultSite::kPteWriteDelay, {.every = 3});
    });
}

TEST(FaultInRange, PowerLossMidRangeLeavesPerPageState)
{
    // Every fault-site crossing is a crash point.  Count them over the
    // per-page pre-fault, then cut it at crossings spread over the walk.
    FaultRig probe_rig;
    sim::FaultPlan probe;
    probe.arm_probe(sim::FaultSite::kCrash);
    {
        sim::ScopedFaults faults(probe);
        for (hw::Vpn v = probe_rig.lo; v < probe_rig.hi; ++v)
            probe_rig.mm.fault_in(probe_rig.machine.core(0),
                                  *probe_rig.mm.vds0(), v);
    }
    std::uint64_t n = probe.occurrences(sim::FaultSite::kCrash);
    ASSERT_GT(n, 1000u);
    for (std::uint64_t k : {std::uint64_t{1}, std::uint64_t{2}, n / 3,
                            n / 2, n - 1, n}) {
        SCOPED_TRACE(testing::Message() << "crash at crossing " << k);
        compare_prefault([k](sim::FaultPlan &plan) {
            plan.arm_exact(sim::FaultSite::kCrash, k);
        });
    }
}

}  // namespace
}  // namespace vdom::kernel
