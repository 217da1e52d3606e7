/// \file
/// Process tests: context switches, VDS switches, TLB-generation protocol,
/// and the cached permission-register image.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common.h"
#include "sim/fault.h"
#include "sim/rng.h"
#include "telemetry/metrics.h"

namespace vdom::kernel {
namespace {

using ::vdom::testing::World;

TEST(Process, CreateTaskStartsInVds0)
{
    auto world = std::unique_ptr<World>(World::x86());
    Task *task = world->proc.create_task();
    EXPECT_EQ(task->vds(), world->proc.mm().vds0());
    EXPECT_EQ(world->proc.mm().vds0()->resident_threads(), 1u);
    EXPECT_FALSE(task->has_vdr());
}

TEST(Process, SwitchToInstallsPgdAndAsid)
{
    auto world = std::unique_ptr<World>(World::x86());
    Task *task = world->proc.create_task();
    world->proc.switch_to(world->core(0), *task, false);
    EXPECT_EQ(world->core(0).pgd(), &world->proc.mm().vds0()->pgd());
    EXPECT_NE(world->core(0).asid(), 0u);
    EXPECT_TRUE(world->proc.mm().vds0()->cpu_bitmap() & 1u);
}

TEST(Process, ContextSwitchCostPlainVsVdom)
{
    auto world = std::unique_ptr<World>(World::x86());
    world->sys.vdom_init(world->core(0));
    Task *plain = world->proc.create_task();
    Task *vdomer = world->proc.create_task();
    world->sys.vdr_alloc(world->core(0), *vdomer, 2);

    hw::Core &core = world->core(1);
    hw::Cycles t0 = core.now();
    world->proc.switch_to(core, *plain);
    hw::Cycles plain_cost = core.now() - t0;

    t0 = core.now();
    world->proc.switch_to(core, *vdomer);
    hw::Cycles vdom_cost = core.now() - t0;

    // §7.5: VDom slows context switch by ~6% for VDom-using tasks.
    EXPECT_GT(vdom_cost, plain_cost);
    // Plain switch_mm = bookkeeping + pgd write = 426.3 on X86 (§7.5).
    EXPECT_NEAR(plain_cost,
                world->machine.params().costs.context_switch +
                    world->machine.params().costs.pgd_switch,
                1.0);
    EXPECT_NEAR(vdom_cost - plain_cost,
                world->machine.params().costs.context_switch_vdom, 1.0);
}

TEST(Process, SwitchVdsMovesResidency)
{
    auto world = std::unique_ptr<World>(World::x86());
    Task *task = world->ready_thread();
    Vds *fresh = world->proc.mm().create_vds();
    world->proc.switch_vds(world->core(0), *task, *fresh,
                           hw::CostKind::kPgdSwitch);
    EXPECT_EQ(task->vds(), fresh);
    EXPECT_EQ(fresh->resident_threads(), 1u);
    EXPECT_EQ(world->proc.mm().vds0()->resident_threads(), 0u);
    EXPECT_EQ(world->core(0).pgd(), &fresh->pgd());
}

TEST(Process, SwitchVdsRebuildsPermRegisterFromMap)
{
    auto world = std::unique_ptr<World>(World::x86());
    Task *task = world->ready_thread();
    task->vdr()->set(42, VPerm::kFullAccess);
    Vds *fresh = world->proc.mm().create_vds();
    fresh->map_vdom(6, 42);
    world->proc.switch_vds(world->core(0), *task, *fresh,
                           hw::CostKind::kPgdSwitch);
    EXPECT_EQ(world->core(0).perm_reg().get(6), hw::Perm::kFullAccess);
    // Unmapped slots stay access-disabled.
    EXPECT_EQ(world->core(0).perm_reg().get(7), hw::Perm::kAccessDisable);
}

TEST(Process, VdsSwitchWithoutTlbFlush)
{
    // The headline property (§5): ASID-tagged switches leave the TLB warm.
    auto world = std::unique_ptr<World>(World::x86());
    Task *task = world->ready_thread();
    world->core(0).tlb().insert(world->core(0).asid(), 123, {});
    Vds *fresh = world->proc.mm().create_vds();
    world->proc.switch_vds(world->core(0), *task, *fresh,
                           hw::CostKind::kPgdSwitch);
    world->proc.switch_vds(world->core(0), *task,
                           *world->proc.mm().vds0(),
                           hw::CostKind::kPgdSwitch);
    // The entry cached under VDS0's ASID is still there.
    EXPECT_TRUE(
        world->core(0).tlb().lookup(world->core(0).asid(), 123).has_value());
}

TEST(Process, StaleTlbGenerationFlushesOnSwitchIn)
{
    auto world = std::unique_ptr<World>(World::x86());
    Task *task = world->ready_thread();
    hw::Asid vds0_asid = world->core(0).asid();
    world->core(0).tlb().insert(vds0_asid, 77, {});

    // Move away, then mutate VDS0's tables from afar (bump gen without a
    // local flush on core 0... simulate by bumping directly).
    Vds *fresh = world->proc.mm().create_vds();
    world->proc.switch_vds(world->core(0), *task, *fresh,
                           hw::CostKind::kPgdSwitch);
    world->proc.mm().vds0()->bump_tlb_gen();

    world->proc.switch_vds(world->core(0), *task,
                           *world->proc.mm().vds0(),
                           hw::CostKind::kPgdSwitch);
    // The generation check must have flushed the stale entry.
    EXPECT_FALSE(world->core(0).tlb().lookup(vds0_asid, 77).has_value());
}

TEST(Process, ArmRolloverBroadcasts)
{
    // Exhaust the ARM ASID space and verify everything is flushed.
    hw::ArchParams params = hw::ArchParams::arm(2);
    auto world = std::make_unique<World>(params);
    Task *task = world->ready_thread();
    world->core(1).tlb().insert(1, 5, {});
    // ARM allocator holds 256 ASIDs; create enough VDSes to roll over.
    for (int i = 0; i < 300; ++i) {
        Vds *vds = world->proc.mm().create_vds();
        world->proc.switch_vds(world->core(0), *task, *vds,
                               hw::CostKind::kPgdSwitch);
    }
    EXPECT_FALSE(world->core(1).tlb().lookup(1, 5).has_value());
}

// --- cached permission-register image ------------------------------------

/// What one rebuild_perm_reg call leaves behind that the simulation can
/// observe: the register, the metrics it books and the VDR memo.
struct RebuildEffects {
    std::uint32_t raw = 0;
    std::uint64_t perm_writes = 0;
    std::uint64_t memo_hits = 0;
    VdomId memo_vdom = kInvalidVdom;
    VPerm memo_perm = VPerm::kAccessDisable;

    bool
    operator==(const RebuildEffects &o) const
    {
        return raw == o.raw && perm_writes == o.perm_writes &&
               memo_hits == o.memo_hits && memo_vdom == o.memo_vdom &&
               memo_perm == o.memo_perm;
    }
};

RebuildEffects
rebuild_effects(hw::Machine &machine, hw::Core &core, Task &task,
                const Vds &vds)
{
    telemetry::MetricsRegistry reg(machine.num_cores());
    telemetry::ScopedMetrics scoped(reg);
    Process::rebuild_perm_reg(core, task, vds);
    RebuildEffects out;
    out.raw = core.perm_reg().raw();
    out.perm_writes = reg.value(telemetry::Metric::kPermRegWrite);
    out.memo_hits = reg.value(telemetry::Metric::kVdrMemoHit);
    out.memo_vdom = task.vdr()->memo_vdom();
    out.memo_perm = task.vdr()->memo_perm();
    return out;
}

/// Compares, for \p task and \p vds, a rebuild through the task's cache
/// as it stands (possibly an image from before the last op), a rebuild
/// that must hit, and a from-scratch rebuild, each from the same VDR memo.
/// Returns true when the first rebuild found a matching image.
bool
expect_cached_matches_scratch(hw::Machine &machine, hw::Core &scratch,
                              Task &task, const Vds &vds)
{
    const Vdr &vdr = *task.vdr();
    const VdomId memo = vdr.memo_vdom();
    const VPerm memo_perm = vdr.memo_perm();
    auto restore_memo = [&] {
        vdr.get(memo);  // Re-memoises `memo` with its current permission.
        EXPECT_EQ(vdr.memo_vdom(), memo);
        EXPECT_EQ(vdr.memo_perm(), memo_perm);
    };
    const Task::PermImage before = task.perm_image();
    bool was_hit = before.ctx_id == vds.ctx_id() &&
                   before.map_version == vds.map_version() &&
                   before.vdr_version == vdr.version();
    RebuildEffects as_cached = rebuild_effects(machine, scratch, task, vds);
    restore_memo();
    RebuildEffects hit = rebuild_effects(machine, scratch, task, vds);
    restore_memo();
    task.perm_image() = Task::PermImage{};
    RebuildEffects fresh = rebuild_effects(machine, scratch, task, vds);
    EXPECT_TRUE(as_cached == fresh) << "stale image for vds " << vds.id();
    EXPECT_TRUE(hit == fresh) << "cache hit differs for vds " << vds.id();
    // The register must also match a plain walk of the map and the VDR.
    hw::PermRegister expect;
    vds.for_each_mapped([&](hw::Pdom pdom, VdomId v) {
        VPerm perm = VPerm::kAccessDisable;
        if (v == kCommonVdom)
            perm = VPerm::kFullAccess;
        vdr.for_each([&](VdomId id, VPerm p) {
            if (id == v)
                perm = p;
        });
        expect.set(pdom, to_hw_perm(perm));
    });
    EXPECT_EQ(fresh.raw, expect.raw());
    return was_hit;
}

/// Randomised trace over wrvdr, domain allocation/free (evictions and VDS
/// migrations follow from more live domains than pdoms), context switches,
/// vdr_free/vdr_alloc and wrvdr rollbacks from a sticky permission-register
/// write failure.  After every op, every VDR-holding task's cached rebuild
/// must equal a from-scratch one for its VDS and for every other VDS.
void
run_perm_image_trace(World &w, std::uint64_t seed)
{
    constexpr std::size_t kTaskCores = 3;  // Core 3 is the scratch core.
    sim::Rng rng(seed);
    hw::Core &scratch = w.core(kTaskCores);
    w.sys.vdom_init(w.core(0));
    std::vector<Task *> tasks;
    for (std::size_t i = 0; i < kTaskCores; ++i) {
        Task *t = w.spawn(i);
        w.sys.vdr_alloc(w.core(i), *t, 1 + i);  // nas 1, 2, 3.
        tasks.push_back(t);
    }
    std::vector<VdomId> vdoms;
    for (int i = 0; i < 24; ++i)
        vdoms.push_back(w.make_domain(1 + i % 3).first);

    const VPerm perms[] = {VPerm::kFullAccess, VPerm::kWriteDisable,
                           VPerm::kAccessDisable, VPerm::kPinned};
    std::size_t hits = 0;
    std::size_t rollbacks = 0;
    for (int op = 0; op < 600; ++op) {
        std::size_t ti = rng.below(tasks.size());
        Task &task = *tasks[ti];
        hw::Core &core = w.core(ti);
        std::uint64_t kind = rng.below(100);
        if (!task.has_vdr()) {
            ASSERT_EQ(w.sys.vdr_alloc(core, task, 1 + rng.below(3)),
                      VdomStatus::kOk);
        } else if (kind < 55) {
            VdomId v = vdoms[rng.below(vdoms.size())];
            w.sys.wrvdr(core, task, v, perms[rng.below(4)]);
        } else if (kind < 63) {
            // Sticky register-write failure: wrvdr exhausts its retries
            // and the journal rolls the VDR write back through Vdr::set.
            sim::FaultPlan plan(seed + static_cast<std::uint64_t>(op));
            plan.arm_exact(sim::FaultSite::kPermRegWriteFail, 1, true);
            sim::ScopedFaults armed(plan);
            VdomId v = vdoms[rng.below(vdoms.size())];
            if (w.sys.wrvdr(core, task, v, VPerm::kFullAccess) ==
                VdomStatus::kRetriesExhausted)
                ++rollbacks;
        } else if (kind < 78) {
            w.proc.switch_to(core, task);
        } else if (kind < 84) {
            VdomId v = vdoms[rng.below(vdoms.size())];
            if (w.sys.vdom_free(core, v) == VdomStatus::kOk)
                vdoms.erase(std::find(vdoms.begin(), vdoms.end(), v));
            vdoms.push_back(w.make_domain(1, rng.below(2) == 0, ti).first);
        } else if (kind < 90) {
            w.sys.vdr_free(core, task);
        } else {
            std::size_t n = w.proc.mm().num_vdses();
            Vds &target = *w.proc.mm().vdses()[rng.below(n)];
            if (&target != task.vds())
                w.proc.switch_vds(core, task, target,
                                  hw::CostKind::kPgdSwitch);
        }
        for (Task *t : tasks) {
            if (!t->has_vdr())
                continue;
            hits += expect_cached_matches_scratch(w.machine, scratch, *t,
                                                  *t->vds());
            for (const auto &vds : w.proc.mm().vdses())
                expect_cached_matches_scratch(w.machine, scratch, *t, *vds);
            // Leave the image keyed on the task's own VDS, as a switch-in
            // would, so the next op's first comparison sees an old image.
            expect_cached_matches_scratch(w.machine, scratch, *t,
                                          *t->vds());
            if (::testing::Test::HasFailure())
                FAIL() << "seed " << seed << " op " << op;
        }
    }
    // The trace must exercise old images that are still current, VDS
    // migrations and rollbacks, or the comparison proves little.
    EXPECT_GT(hits, 100u);
    EXPECT_GT(rollbacks, 5u);
    EXPECT_GT(w.proc.mm().num_vdses(), 1u);
}

TEST(PermImageCache, CachedRebuildMatchesScratchX86)
{
    for (std::uint64_t seed : {1, 2, 3}) {
        auto world = std::unique_ptr<World>(World::x86(4));
        run_perm_image_trace(*world, seed);
    }
}

TEST(PermImageCache, CachedRebuildMatchesScratchArm)
{
    for (std::uint64_t seed : {1, 2, 3}) {
        auto world = std::unique_ptr<World>(World::arm(4));
        run_perm_image_trace(*world, seed);
    }
}

TEST(PermImageCache, StampsBumpOnEveryMutation)
{
    Vdr vdr;
    std::uint64_t v0 = vdr.version();
    vdr.set(5, VPerm::kFullAccess);
    EXPECT_GT(vdr.version(), v0);
    std::uint64_t v1 = vdr.version();
    vdr.set(5, VPerm::kFullAccess);  // Same value: still a new stamp.
    EXPECT_GT(vdr.version(), v1);
    std::uint64_t v2 = vdr.version();
    vdr.clear();
    EXPECT_GT(vdr.version(), v2);

    auto world = std::unique_ptr<World>(World::x86());
    Vds &vds = *world->proc.mm().vds0();
    std::uint64_t m0 = vds.map_version();
    vds.map_vdom(3, 7);
    EXPECT_GT(vds.map_version(), m0);
    std::uint64_t m1 = vds.map_version();
    vds.unmap_pdom(4);  // Nothing mapped there: the map is unchanged.
    EXPECT_EQ(vds.map_version(), m1);
    vds.unmap_pdom(3);
    EXPECT_GT(vds.map_version(), m1);
}

}  // namespace
}  // namespace vdom::kernel
