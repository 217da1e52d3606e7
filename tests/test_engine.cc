/// \file
/// Discrete-event engine tests: determinism, min-time ordering, slices, and
/// the pick tree against a linear-scan reference.

#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "common.h"
#include "sim/engine.h"
#include "sim/rng.h"
#include "sim/thread.h"

namespace vdom::sim {
namespace {

using ::vdom::testing::World;

/// Thread charging a fixed cost per step for N steps, recording the global
/// completion order.
class FixedWork final : public SimThread {
  public:
    FixedWork(int id, int steps, hw::Cycles per_step,
              std::vector<int> *order)
        : id_(id), steps_(steps), per_step_(per_step), order_(order)
    {
    }

    bool
    step(hw::Core &core) override
    {
        core.charge(hw::CostKind::kCompute, per_step_);
        order_->push_back(id_);
        return --steps_ > 0;
    }

  private:
    int id_;
    int steps_;
    hw::Cycles per_step_;
    std::vector<int> *order_;
};

TEST(Engine, RunsAllThreadsToCompletion)
{
    hw::Machine machine(hw::ArchParams::x86(2));
    Engine engine(machine);
    std::vector<int> order;
    FixedWork a(0, 5, 100, &order), b(1, 5, 100, &order);
    engine.add_thread(&a, 0);
    engine.add_thread(&b, 1);
    engine.run();
    EXPECT_EQ(order.size(), 10u);
    EXPECT_EQ(engine.live_threads(), 0u);
}

TEST(Engine, MinTimeOrderingInterleavesCausally)
{
    hw::Machine machine(hw::ArchParams::x86(2));
    Engine engine(machine);
    std::vector<int> order;
    FixedWork slow(0, 3, 1000, &order);
    FixedWork fast(1, 3, 10, &order);
    engine.add_thread(&slow, 0);
    engine.add_thread(&fast, 1);
    engine.run();
    // The fast thread's 3 steps all complete before the slow thread's
    // second step (its core clock stays behind).
    std::vector<int> expected = {0, 1, 1, 1, 0, 0};
    EXPECT_EQ(order, expected);
}

TEST(Engine, DeterministicAcrossRuns)
{
    auto run_once = [] {
        hw::Machine machine(hw::ArchParams::x86(3));
        Engine engine(machine);
        std::vector<int> order;
        Rng rng(5);
        std::vector<std::unique_ptr<FixedWork>> threads;
        for (int i = 0; i < 6; ++i) {
            threads.push_back(std::make_unique<FixedWork>(
                i, 4, 50 + rng.below(400), &order));
            engine.add_thread(threads.back().get());
        }
        engine.run();
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, TimeSharingChargesContextSwitches)
{
    auto world = std::unique_ptr<World>(World::x86(1));
    Engine engine(world->machine, &world->proc, /*time_slice=*/500);
    std::vector<int> order;
    FixedWork a(0, 10, 400, &order), b(1, 10, 400, &order);
    a.set_task(world->proc.create_task());
    b.set_task(world->proc.create_task());
    engine.add_thread(&a, 0);
    engine.add_thread(&b, 0);
    engine.run();
    EXPECT_GT(engine.context_switches(), 2u);
    EXPECT_GT(world->core(0).breakdown().get(hw::CostKind::kContextSwitch),
              0.0);
}

TEST(Engine, RunUntilStopsAtDeadline)
{
    hw::Machine machine(hw::ArchParams::x86(1));
    Engine engine(machine);
    std::vector<int> order;
    FixedWork a(0, 1000, 100, &order);
    engine.add_thread(&a, 0);
    engine.run_until(5'000);
    EXPECT_LT(order.size(), 1000u);
    EXPECT_GE(machine.core(0).now(), 5'000.0);
    EXPECT_EQ(engine.live_threads(), 1u);
}

TEST(Engine, RoundRobinPlacement)
{
    hw::Machine machine(hw::ArchParams::x86(4));
    Engine engine(machine);
    std::vector<int> order;
    std::vector<std::unique_ptr<FixedWork>> threads;
    for (int i = 0; i < 4; ++i) {
        threads.push_back(std::make_unique<FixedWork>(i, 1, 100, &order));
        engine.add_thread(threads.back().get());  // No affinity.
    }
    engine.run();
    // Each landed on its own core: all four cores advanced.
    for (std::size_t c = 0; c < 4; ++c)
        EXPECT_GT(machine.core(c).now(), 0.0) << c;
}

// --- pick tree vs. linear scan --------------------------------------------

TEST(CorePickTree, MatchesLinearScanOnRandomUpdates)
{
    constexpr hw::Cycles kInf = CorePickTree::kDrained;
    Rng rng(11);
    for (std::size_t n : {1u, 2u, 3u, 5u, 8u, 13u, 26u, 33u}) {
        std::vector<std::size_t> cores(n);
        for (std::size_t i = 0; i < n; ++i)
            cores[i] = 3 * i + 1;  // Core ids differ from leaf indices.
        std::vector<hw::Cycles> keys(n);
        CorePickTree tree;
        tree.assign(cores);
        for (std::size_t i = 0; i < n; ++i) {
            keys[i] = static_cast<hw::Cycles>(rng.below(4) * 10);
            tree.set_key(i, keys[i]);
        }
        tree.build();
        for (int op = 0; op < 2000; ++op) {
            std::size_t best = 0;
            for (std::size_t i = 1; i < n; ++i)
                if (keys[i] < keys[best])
                    best = i;
            ASSERT_EQ(tree.top(), best) << "n=" << n << " op=" << op;
            ASSERT_EQ(tree.core(best), cores[best]);
            ASSERT_EQ(tree.key(best), keys[best]);
            std::size_t leaf = rng.below(n);
            std::uint64_t roll = rng.below(10);
            keys[leaf] = roll == 0 ? kInf
                                   : static_cast<hw::Cycles>(rng.below(6) * 10);
            tree.update(leaf, keys[leaf]);
        }
    }
}

TEST(RunQueue, MatchesDequeUnderRandomOps)
{
    std::vector<std::unique_ptr<FixedWork>> pool;
    std::vector<int> unused;
    for (int i = 0; i < 64; ++i)
        pool.push_back(std::make_unique<FixedWork>(i, 1, 1, &unused));
    Rng rng(5);
    RunQueue queue;
    std::deque<SimThread *> model;
    std::size_t next = 0;
    for (int op = 0; op < 20000; ++op) {
        std::uint64_t roll = rng.below(10);
        if (roll < 3 && model.size() < 12) {
            SimThread *t = pool[next++ % pool.size()].get();
            queue.push_back(t);
            model.push_back(t);
        } else if (roll < 5 && !model.empty()) {
            queue.pop_front();
            model.pop_front();
        } else if (!model.empty()) {
            queue.rotate();
            model.push_back(model.front());
            model.pop_front();
        }
        ASSERT_EQ(queue.size(), model.size());
        ASSERT_EQ(queue.empty(), model.empty());
        if (!model.empty()) {
            ASSERT_EQ(queue.front(), model.front()) << "op " << op;
        }
        std::vector<SimThread *> order;
        queue.for_each([&](SimThread *t) { order.push_back(t); });
        ASSERT_EQ(order, std::vector<SimThread *>(model.begin(), model.end()))
            << "op " << op;
    }
}

/// One group of cores whose threads share an RNG and a pick log.  The
/// groups of one engine never touch each other's cores, so each group's
/// log is independent of how the engine interleaves groups.
struct PickTrace {
    hw::Machine *machine = nullptr;
    Engine *engine = nullptr;
    kernel::Process *process = nullptr;  ///< Couples the group's cores.
    std::vector<std::size_t> cores;
    std::vector<int> live;  ///< Unfinished threads per machine core.
    Rng rng{1};
    int spawn_budget = 0;
    std::size_t mismatches = 0;
    std::vector<std::pair<std::size_t, hw::Cycles>> picks;
    std::vector<std::unique_ptr<SimThread>> threads;

    void add(std::size_t core, int steps);
};

/// Checks at every step that the engine stepped the core a linear scan
/// over the group's runnable cores picks, then charges a random amount
/// (often equal, for ties), sometimes bumps another core's clock (as a
/// shootdown does), yields, or adds a thread.
class PickCheckThread final : public SimThread {
  public:
    PickCheckThread(PickTrace &trace, int steps)
        : trace_(&trace), steps_(steps)
    {
    }

    bool
    step(hw::Core &core) override
    {
        PickTrace &t = *trace_;
        std::size_t best = 0;
        hw::Cycles best_clock = std::numeric_limits<hw::Cycles>::max();
        for (std::size_t c : t.cores) {
            if (t.live[c] == 0)
                continue;
            hw::Cycles clock = t.machine->core(c).now();
            if (clock < best_clock) {
                best = c;
                best_clock = clock;
            }
        }
        if (best != core.id())
            ++t.mismatches;
        t.picks.emplace_back(core.id(), core.now());
        core.charge(hw::CostKind::kCompute,
                    static_cast<hw::Cycles>(50 * t.rng.below(4)));
        if (t.rng.below(6) == 0) {
            std::size_t other = t.cores[t.rng.below(t.cores.size())];
            t.machine->core(other).charge(
                hw::CostKind::kCompute,
                static_cast<hw::Cycles>(50 * (1 + t.rng.below(4))));
        }
        if (t.rng.below(5) == 0)
            yield();
        if (t.spawn_budget > 0 && t.rng.below(12) == 0) {
            --t.spawn_budget;
            t.add(t.cores[t.rng.below(t.cores.size())],
                  1 + static_cast<int>(t.rng.below(40)));
        }
        if (--steps_ > 0)
            return true;
        --t.live[core.id()];
        return false;
    }

  private:
    PickTrace *trace_;
    int steps_;
};

void
PickTrace::add(std::size_t core, int steps)
{
    auto thread = std::make_unique<PickCheckThread>(*this, steps);
    if (process)
        thread->set_task(*process, nullptr);  // Couples, charges nothing.
    ++live[core];
    engine->add_thread(thread.get(), static_cast<int>(core));
    threads.push_back(std::move(thread));
}

constexpr std::size_t kNoIdle = static_cast<std::size_t>(-1);

/// Builds a group over \p cores, leaving \p idle without threads at the
/// start (spawns may populate it later).
void
seed_trace(PickTrace &t, hw::Machine &machine, Engine &engine,
           std::vector<std::size_t> cores, std::size_t idle,
           std::uint64_t seed, int spawns)
{
    t.machine = &machine;
    t.engine = &engine;
    t.cores = std::move(cores);
    t.live.assign(machine.num_cores(), 0);
    t.rng = Rng(seed);
    t.spawn_budget = spawns;
    for (std::size_t c : t.cores) {
        if (c == idle)
            continue;
        int threads = 1 + static_cast<int>(t.rng.below(3));
        for (int i = 0; i < threads; ++i)
            t.add(c, 1 + static_cast<int>(t.rng.below(60)));
    }
}

std::vector<std::size_t>
core_range(std::size_t n)
{
    std::vector<std::size_t> cores(n);
    for (std::size_t c = 0; c < n; ++c)
        cores[c] = c;
    return cores;
}

TEST(EngineDifferential, SerialPicksMatchLinearScan)
{
    for (std::size_t ncores : {1u, 5u, 13u, 26u}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            hw::Machine machine(hw::ArchParams::x86(ncores));
            Engine engine(machine, nullptr, /*time_slice=*/250);
            PickTrace t;
            std::size_t idle = ncores > 1 ? ncores / 2 : kNoIdle;
            seed_trace(t, machine, engine, core_range(ncores), idle, seed,
                       /*spawns=*/20);
            if (seed % 2 == 0) {
                engine.run();
            } else {
                // run_until in slices re-enters the pick between calls.
                hw::Cycles deadline = 0;
                while (engine.live_threads() > 0)
                    engine.run_until(deadline += 333);
            }
            EXPECT_EQ(t.mismatches, 0u) << ncores << " cores, seed " << seed;
            EXPECT_EQ(engine.steps(), t.picks.size());
            EXPECT_GT(t.picks.size(), 20u);
            for (int live : t.live)
                EXPECT_EQ(live, 0);
        }
    }
}

/// Runs \p groups disjoint core groups (one process each) to completion
/// and returns each group's pick log.
std::vector<PickTrace>
run_groups(std::size_t ncores, std::size_t groups, std::size_t host_threads,
           std::uint64_t seed)
{
    hw::Machine machine(hw::ArchParams::x86(ncores));
    std::vector<std::unique_ptr<kernel::Process>> procs;
    Engine engine(machine, nullptr, /*time_slice=*/250);
    engine.set_host_threads(host_threads);
    engine.set_epoch_quantum(400);
    std::vector<PickTrace> traces(groups);
    for (std::size_t g = 0; g < groups; ++g) {
        procs.push_back(std::make_unique<kernel::Process>(machine));
        traces[g].process = procs.back().get();
        std::vector<std::size_t> cores;
        for (std::size_t c = g; c < ncores; c += groups)
            cores.push_back(c);
        // No spawns: add_thread is not supported while epochs run.
        seed_trace(traces[g], machine, engine, cores, kNoIdle, seed + g, 0);
    }
    engine.run();
    for (PickTrace &t : traces) {
        t.machine = nullptr;
        t.engine = nullptr;
        t.process = nullptr;
        t.threads.clear();
    }
    return traces;
}

TEST(EngineDifferential, ShardPicksMatchSerialAndLinearScan)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        for (std::size_t groups : {1u, 2u}) {
            std::vector<PickTrace> serial = run_groups(12, groups, 1, seed);
            std::vector<PickTrace> epochs = run_groups(12, groups, 2, seed);
            for (std::size_t g = 0; g < groups; ++g) {
                EXPECT_EQ(serial[g].mismatches, 0u);
                EXPECT_EQ(epochs[g].mismatches, 0u)
                    << "seed " << seed << " group " << g;
                EXPECT_EQ(serial[g].picks, epochs[g].picks)
                    << "seed " << seed << " group " << g;
                EXPECT_GT(serial[g].picks.size(), 50u);
            }
        }
    }
}

TEST(Rng, DeterministicAndUniform)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        std::uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
    }
    EXPECT_NE(a.next(), c.next());
    // below() stays in range.
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
    // uniform() in [0,1).
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

}  // namespace
}  // namespace vdom::sim
