/// \file
/// Cycle identity of the benchmark's timing wrapper: every strategy kind,
/// on both architectures and under all three application models, simulates
/// the same elapsed cycles, completed work and CycleBreakdown with and
/// without TimedStrategy around it.  MySQL registers its tables through
/// attach_pages, and every model charges work/io, so EPK's VM tax path and
/// attach_pages are both forwarded here.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "timed_strategy.h"
#include "world.h"

namespace vdom::perfbench {
namespace {

struct Case {
    App app;
    hw::ArchKind arch;
    std::string kind;
};

std::vector<Case>
all_cases()
{
    std::vector<Case> cases;
    for (App app : {App::kHttpd, App::kMysql, App::kPmo})
        for (hw::ArchKind arch : {hw::ArchKind::kX86, hw::ArchKind::kArm})
            for (const char *kind :
                 {"original", "VDom", "VDS switch", "VDom evict",
                  "lowerbound", "EPK", "libmpk", "libmpk 2MB"})
                cases.push_back({app, arch, kind});
    return cases;
}

WorldSpec
small_world(const Case &c)
{
    WorldSpec w;
    w.app = c.app;
    w.arch = c.arch;
    w.cores = 4;
    w.kind = c.kind;
    // More clients than hardware keys, so libmpk evicts and busy-waits.
    w.clients = c.app == App::kPmo ? 4 : 20;
    w.file_kb = 64;
    w.work = c.app == App::kMysql ? 80 : 60;
    return w;
}

class TimedStrategyIdentity : public ::testing::TestWithParam<Case> {};

TEST_P(TimedStrategyIdentity, SameSimulatedResult)
{
    const WorldSpec spec = small_world(GetParam());

    AppWorld plain(spec);
    SimResult expect = plain.run();
    ASSERT_TRUE(plain.complete(expect));

    AppWorld wrapped(spec);
    CallStats stats;
    TimedStrategy timed(wrapped.strategy(), stats);
    EXPECT_STREQ(timed.name(), wrapped.strategy().name());
    SimResult got = wrapped.run(timed);

    EXPECT_EQ(got.elapsed, expect.elapsed);
    EXPECT_EQ(got.completed, expect.completed);
    for (std::size_t k = 0; k < hw::kNumCostKinds; ++k) {
        EXPECT_EQ(got.breakdown.by_kind[k], expect.breakdown.by_kind[k])
            << hw::cost_kind_name(static_cast<hw::CostKind>(k));
    }

    // The wrapper saw the calls it claims to forward.
    EXPECT_GT(stats.count(Call::kRegister), 0u);
    EXPECT_GT(stats.count(Call::kEnable), 0u);
    EXPECT_GT(stats.count(Call::kAccess), 0u);
    EXPECT_GT(stats.count(Call::kWork), 0u);
    if (spec.app != App::kPmo) {
        EXPECT_GT(stats.count(Call::kIo), 0u);
    }
    if (spec.app == App::kMysql) {
        EXPECT_GT(stats.count(Call::kAttach), 0u);
    }
}

TEST(TimedStrategy, EpkVmTaxChargedThroughWrapper)
{
    // EPK overrides work/io to add the VM tax; the wrapper must dispatch to
    // the override, not to the base-class charge.
    WorldSpec spec = small_world({App::kHttpd, hw::ArchKind::kX86, "EPK"});
    AppWorld world(spec);
    CallStats stats;
    TimedStrategy timed(world.strategy(), stats);
    SimResult r = world.run(timed);
    EXPECT_GT(r.breakdown.get(hw::CostKind::kVmOverhead), 0.0);
    EXPECT_GT(stats.count(Call::kWork), 0u);
    EXPECT_GT(stats.count(Call::kIo), 0u);
}

std::string
case_name(const ::testing::TestParamInfo<Case> &info)
{
    static const char *const kApps[] = {"httpd", "mysql", "pmo"};
    std::string name = std::string(kApps[static_cast<int>(info.param.app)]) +
                       "_" + hw::arch_name(info.param.arch) + "_" +
                       info.param.kind;
    for (char &ch : name)
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TimedStrategyIdentity,
                         ::testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace vdom::perfbench
