/// \file
/// Simulator hot-path performance (google-benchmark, wall-clock).
///
/// The paper-reproduction benches measure *simulated cycles*, for which
/// wall-clock timing is meaningless; this binary instead measures the
/// simulator's own throughput on its hot paths (TLB, page tables, the
/// virtualization algorithm, full app steps) so regressions in the
/// library's real performance are caught.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <vector>

#include "apps/pmo.h"
#include "apps/strategy.h"
#include "bench_util.h"
#include "hw/mmu.h"
#include "hw/page_table.h"
#include "hw/tlb.h"
#include "kernel/mm.h"
#include "kernel/vma.h"
#include "sim/engine.h"
#include "sim/rng.h"
#include "vdom/vdr.h"

namespace vdom::bench {
namespace {

void
BM_TlbLookupHit(benchmark::State &state)
{
    hw::Tlb tlb(1536);
    for (hw::Vpn v = 0; v < 1024; ++v)
        tlb.insert(1, v, {});
    sim::Rng rng(1);
    for (auto _ : state) {
        auto hit = tlb.lookup(1, rng.below(1024));
        benchmark::DoNotOptimize(hit);
    }
}
BENCHMARK(BM_TlbLookupHit);

void
BM_TlbLookupPartial(benchmark::State &state)
{
    // Arg live entries in an x86-capacity TLB, looked up at random over
    // twice that many keys: half hit, half miss.  A TLB between flushes
    // is mostly partly full, and a miss probes the index until it finds
    // an empty cell, so this tracks how full the index runs.
    const hw::Vpn live = static_cast<hw::Vpn>(state.range(0));
    hw::Tlb tlb(hw::ArchParams::x86().tlb_entries);
    for (hw::Vpn v = 0; v < live; ++v)
        tlb.insert(static_cast<hw::Asid>(1 + v % 4), v, {});
    sim::Rng rng(1);
    for (auto _ : state) {
        hw::Vpn v = rng.below(2 * live);
        auto hit = tlb.lookup(static_cast<hw::Asid>(1 + v % 4), v);
        benchmark::DoNotOptimize(hit);
    }
}
BENCHMARK(BM_TlbLookupPartial)->Arg(60)->Arg(500);

void
BM_TlbInsertEvict(benchmark::State &state)
{
    hw::Tlb tlb(512);
    hw::Vpn v = 0;
    for (auto _ : state)
        tlb.insert(1, ++v, {});
}
BENCHMARK(BM_TlbInsertEvict);

// Flush cost at x86 capacity (1536 entries) against the live-entry count
// (Arg).  In the paper benches most flushes reach TLBs holding a few
// entries, so the few-live arms are the hot path.  The perf-smoke gate
// bounds each few-live arm as a fraction of its full arm, which only a
// flush that scales with capacity rather than live entries can break.

void
BM_TlbFlushAll(benchmark::State &state)
{
    // Refill Arg entries over four ASIDs, then flush them all.
    const hw::Vpn live = static_cast<hw::Vpn>(state.range(0));
    hw::Tlb tlb(hw::ArchParams::x86().tlb_entries);
    for (auto _ : state) {
        for (hw::Vpn v = 0; v < live; ++v)
            tlb.insert(static_cast<hw::Asid>(1 + v % 4), v, {});
        tlb.flush_all();
        benchmark::DoNotOptimize(tlb.size());
    }
}
BENCHMARK(BM_TlbFlushAll)->Arg(8)->Arg(1536);

void
BM_TlbFlushAsid(benchmark::State &state)
{
    // Arg entries of ASID 1 stay resident; each iteration caches one ASID 2
    // translation and flushes ASID 2, so the walk passes every live entry.
    const hw::Vpn live = static_cast<hw::Vpn>(state.range(0));
    hw::Tlb tlb(hw::ArchParams::x86().tlb_entries);
    for (hw::Vpn v = 0; v < live; ++v)
        tlb.insert(1, v, {});
    for (auto _ : state) {
        tlb.insert(2, 0, {});
        tlb.flush_asid(2);
        benchmark::DoNotOptimize(tlb.size());
    }
}
BENCHMARK(BM_TlbFlushAsid)->Arg(8)->Arg(1536);

void
BM_TlbConstruct(benchmark::State &state)
{
    // A fresh world builds one TLB per core and most of them see only a
    // handful of translations before the world is torn down.  The
    // perf-smoke gate bounds the x86-capacity arm as a multiple of a
    // 16-entry TLB, which only a constructor that initialises storage
    // for the whole capacity can break.
    const std::size_t capacity = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        hw::Tlb tlb(capacity);
        for (hw::Vpn v = 0; v < 8; ++v)
            tlb.insert(1, v, {});
        benchmark::DoNotOptimize(tlb.size());
    }
}
BENCHMARK(BM_TlbConstruct)->Arg(16)->Arg(1536);

void
BM_TlbSetAssocConflict(benchmark::State &state)
{
    // Opt-in set-associative geometry: 64 sets x 8 ways.  Round-robin over
    // 2x-ways vpns that all land in one set, so every insert past the
    // first 8 is a conflict eviction while the TLB is otherwise empty.
    hw::Tlb tlb(512, 0, 8);
    std::vector<hw::Vpn> conflicting;
    std::size_t target = tlb.set_index(1, 0x1000);
    for (hw::Vpn v = 0x1000; conflicting.size() < 2 * tlb.ways(); ++v) {
        if (tlb.set_index(1, v) == target)
            conflicting.push_back(v);
    }
    std::size_t i = 0;
    for (auto _ : state)
        tlb.insert(1, conflicting[i++ % conflicting.size()], {});
}
BENCHMARK(BM_TlbSetAssocConflict);

void
BM_PageTableTranslate(benchmark::State &state)
{
    hw::PageTable pt(512);
    for (hw::Vpn v = 0; v < 4096; ++v)
        pt.map_page(v, 3);
    sim::Rng rng(2);
    for (auto _ : state) {
        hw::Translation t = pt.translate(rng.below(4096));
        benchmark::DoNotOptimize(t);
    }
}
BENCHMARK(BM_PageTableTranslate);

void
BM_PmdDisableRemap2MB(benchmark::State &state)
{
    hw::PageTable pt(512);
    for (hw::Vpn v = 0; v < 512; ++v)
        pt.map_page(v, 6);
    for (auto _ : state) {
        pt.disable_range(0, 512, 1, true);
        pt.set_pdom_range(0, 512, 6, true);
    }
}
BENCHMARK(BM_PmdDisableRemap2MB);

void
BM_RadixTranslateSparse(benchmark::State &state)
{
    // Pages scattered one-per-PMD across the dense directory plus a band
    // beyond the dense limit, exercising both radix paths.
    hw::PageTable pt(512);
    std::vector<hw::Vpn> mapped;
    for (hw::Vpn pmd = 0; pmd < 1024; pmd += 8) {
        hw::Vpn v = pmd * 512 + (pmd % 512);
        pt.map_page(v, 3);
        mapped.push_back(v);
    }
    for (hw::Vpn pmd = 1u << 17; pmd < (1u << 17) + 256; pmd += 8) {
        hw::Vpn v = static_cast<hw::Vpn>(pmd) * 512;
        pt.map_page(v, 3);
        mapped.push_back(v);
    }
    sim::Rng rng(5);
    for (auto _ : state) {
        hw::Translation t = pt.translate(mapped[rng.below(mapped.size())]);
        benchmark::DoNotOptimize(t);
    }
}
BENCHMARK(BM_RadixTranslateSparse);

void
BM_VmaCacheHit(benchmark::State &state)
{
    // Fault-stream pattern: repeated lookups inside one large region.  The
    // single-entry cache answers everything after the first probe.
    kernel::VmaTree vmas;
    for (hw::Vpn base = 0; base < 64 * 1024; base += 1024)
        vmas.insert(kernel::Vma{base, 1024, kCommonVdom, false});
    sim::Rng rng(6);
    for (auto _ : state) {
        const kernel::Vma *vma = vmas.find(32 * 1024 + rng.below(1024));
        benchmark::DoNotOptimize(vma);
    }
}
BENCHMARK(BM_VmaCacheHit);

void
BM_VmaCacheMiss(benchmark::State &state)
{
    // Adversarial pattern: alternate between distant regions so every
    // find misses the cache and pays the tree descent.
    kernel::VmaTree vmas;
    for (hw::Vpn base = 0; base < 64 * 1024; base += 1024)
        vmas.insert(kernel::Vma{base, 1024, kCommonVdom, false});
    hw::Vpn toggle = 0;
    for (auto _ : state) {
        toggle ^= 48 * 1024;
        const kernel::Vma *vma = vmas.find(toggle + 17);
        benchmark::DoNotOptimize(vma);
    }
}
BENCHMARK(BM_VmaCacheMiss);

void
BM_VdrFlatScan(benchmark::State &state)
{
    // rdvdr over a 32-entry active set with rotating ids: each get() past
    // the memo is one binary search over the contiguous array.
    Vdr vdr;
    for (VdomId v = 2; v < 34; ++v)
        vdr.set(v, VPerm::kFullAccess);
    VdomId next = 2;
    for (auto _ : state) {
        VPerm p = vdr.get(next);
        benchmark::DoNotOptimize(p);
        next = 2 + (next - 1) % 32;
    }
}
BENCHMARK(BM_VdrFlatScan);

void
BM_MmuAccessHit(benchmark::State &state)
{
    hw::Machine machine(hw::ArchParams::x86(1));
    hw::PageTable pt(512);
    pt.map_page(7, 0);
    machine.core(0).set_pgd(&pt, 1);
    for (auto _ : state) {
        hw::AccessResult r = hw::Mmu::access(machine.core(0), 7, false);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_MmuAccessHit);

void
BM_WrvdrMapped(benchmark::State &state)
{
    BenchWorld world(hw::ArchParams::x86(1));
    world.sys.vdom_init(world.core(0));
    kernel::Task *task = world.spawn(0);
    world.sys.vdr_alloc(world.core(0), *task, 1);
    VdomId v = world.sys.vdom_alloc(world.core(0));
    hw::Vpn vpn = world.proc.mm().mmap(1);
    world.sys.vdom_mprotect(world.core(0), vpn, 1, v);
    world.sys.wrvdr(world.core(0), *task, v, VPerm::kFullAccess);
    for (auto _ : state) {
        world.sys.wrvdr(world.core(0), *task, v, VPerm::kWriteDisable);
        world.sys.wrvdr(world.core(0), *task, v, VPerm::kFullAccess);
    }
}
BENCHMARK(BM_WrvdrMapped);

void
BM_WrvdrEvictionChurn(benchmark::State &state)
{
    BenchWorld world(hw::ArchParams::x86(1));
    world.sys.vdom_init(world.core(0));
    kernel::Task *task = world.spawn(0);
    world.sys.vdr_alloc(world.core(0), *task, 1);
    std::vector<VdomId> doms;
    for (int i = 0; i < 20; ++i) {
        VdomId v = world.sys.vdom_alloc(world.core(0));
        hw::Vpn vpn = world.proc.mm().mmap(1);
        world.sys.vdom_mprotect(world.core(0), vpn, 1, v);
        doms.push_back(v);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        VdomId v = doms[i++ % doms.size()];
        world.sys.wrvdr(world.core(0), *task, v, VPerm::kFullAccess);
        world.sys.wrvdr(world.core(0), *task, v, VPerm::kAccessDisable);
    }
}
BENCHMARK(BM_WrvdrEvictionChurn);

void
BM_PmoWorkloadStep(benchmark::State &state)
{
    // Full-stack: one simulated PMO op per iteration under VDom.
    BenchWorld world(hw::ArchParams::x86(4));
    world.sys.vdom_init(world.core(0));
    apps::VdomStrategy strat(world.sys, 6);
    std::size_t ops = 0;
    for (auto _ : state) {
        state.PauseTiming();
        BenchWorld fresh(hw::ArchParams::x86(4));
        fresh.sys.vdom_init(fresh.core(0));
        apps::VdomStrategy s(fresh.sys, 6);
        apps::PmoConfig cfg = apps::PmoConfig::for_arch(hw::ArchKind::kX86, 2);
        cfg.ops_per_thread = 500;
        state.ResumeTiming();
        apps::PmoResult r =
            apps::run_pmo(fresh.machine, fresh.proc, s, cfg);
        ops += r.completed;
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_PmoWorkloadStep)->Unit(benchmark::kMillisecond);

void
BM_InstallVdomInVds(benchmark::State &state)
{
    // Installs a 512-page (2MB) vdom area, present in the shadow, into a
    // fresh VDS: the remap half of every vdom switch in the PMO bench.
    // Fresh VDSes are built and torn down in batches with timing paused.
    BenchWorld world(hw::ArchParams::x86(2));
    kernel::MmStruct &mm = world.proc.mm();
    hw::Core &core = world.core(0);
    constexpr std::uint64_t kPages = 512;
    constexpr std::size_t kBatch = 32;
    VdomId vdom = mm.vdm().alloc(false);
    hw::Vpn base = mm.mmap(kPages);
    mm.assign_vdom(core, base, kPages, vdom);
    mm.fault_in_range(core, *mm.vds0(), base, kPages);
    std::vector<std::unique_ptr<kernel::Vds>> fresh;
    for (auto _ : state) {
        state.PauseTiming();
        fresh.clear();
        for (std::size_t i = 0; i < kBatch; ++i) {
            fresh.push_back(
                std::make_unique<kernel::Vds>(1, world.proc.params()));
        }
        state.ResumeTiming();
        for (auto &vds : fresh) {
            hw::PtOps ops = mm.install_vdom_in_vds(core, *vds, vdom, 2,
                                                   hw::CostKind::kApi);
            benchmark::DoNotOptimize(ops);
        }
    }
    state.SetItemsProcessed(state.iterations() * kBatch * kPages);
}
BENCHMARK(BM_InstallVdomInVds);

void
BM_FaultInRange(benchmark::State &state)
{
    // Pre-faults one 2MB PMO (512 pages) into a fresh address space, as
    // run_pmo does for each of its PMOs.  Fresh address spaces are built
    // in batches with timing paused.
    hw::ArchParams params = hw::ArchParams::x86(1);
    hw::Machine machine(params);
    hw::Core &core = machine.core(0);
    constexpr std::uint64_t kPages = 512;
    constexpr std::size_t kBatch = 16;
    std::vector<std::unique_ptr<kernel::MmStruct>> spaces;
    std::vector<hw::Vpn> bases;
    for (auto _ : state) {
        state.PauseTiming();
        spaces.clear();
        bases.clear();
        for (std::size_t i = 0; i < kBatch; ++i) {
            spaces.push_back(
                std::make_unique<kernel::MmStruct>(params, nullptr));
            bases.push_back(spaces.back()->mmap(kPages));
        }
        state.ResumeTiming();
        for (std::size_t i = 0; i < kBatch; ++i) {
            kernel::MmStruct &mm = *spaces[i];
            bool ok = mm.fault_in_range(core, *mm.vds0(), bases[i], kPages);
            benchmark::DoNotOptimize(ok);
        }
    }
    state.SetItemsProcessed(state.iterations() * kBatch * kPages);
}
BENCHMARK(BM_FaultInRange);

/// One simulated thread of the engine-scaling workload: MMU-heavy steps
/// against its own process's address space (share-nothing, so every
/// process is its own shard and the epoch-parallel engine can run all
/// eight without cross-shard traffic).
class ScalingWorker final : public sim::SimThread {
  public:
    ScalingWorker(hw::Vpn base, std::size_t pages, std::size_t steps)
        : base_(base), pages_(pages), remaining_(steps)
    {
    }

    bool
    step(hw::Core &core) override
    {
        if (remaining_ == 0)
            return false;
        --remaining_;
        for (std::size_t i = 0; i < 128; ++i) {
            hw::Vpn vpn = base_ + (i * 13 + remaining_) % pages_;
            hw::AccessResult r = hw::Mmu::access(core, vpn, (i & 7) == 0);
            benchmark::DoNotOptimize(r);
        }
        return true;
    }

  private:
    hw::Vpn base_;
    std::size_t pages_;
    std::size_t remaining_;
};

void
BM_EngineParallelScaling(benchmark::State &state)
{
    // Eight single-threaded processes pinned to eight simulated cores;
    // Arg = engine host threads (1 = serial engine, >= 2 = epoch mode).
    // Simulated cycles and telemetry are byte-identical across Args
    // (tests/test_engine_parallel.cc); only wall-clock may change.
    // items_per_second is simulated steps per wall-clock second of
    // engine.run(): google-benchmark's own rate divides by the main
    // thread's CPU time, which misses the pool workers' time.  (Its
    // UseRealTime() would instead rename the case, which the perf-smoke
    // gate reads by name.)
    const std::size_t host_threads = static_cast<std::size_t>(state.range(0));
    const std::size_t sim_cores = 8;
    const std::size_t pages = 64;
    const std::size_t steps = 2000;
    std::uint64_t total_steps = 0;
    std::chrono::steady_clock::duration run_wall{};
    for (auto _ : state) {
        state.PauseTiming();
        hw::Machine machine(hw::ArchParams::x86(sim_cores));
        std::vector<std::unique_ptr<kernel::Process>> procs;
        std::vector<std::unique_ptr<ScalingWorker>> workers;
        sim::Engine engine(machine, nullptr, 4'000'000);
        engine.set_host_threads(host_threads);
        for (std::size_t c = 0; c < sim_cores; ++c) {
            procs.push_back(std::make_unique<kernel::Process>(machine));
            kernel::Process &proc = *procs.back();
            kernel::Task *task = proc.create_task();
            hw::Vpn base = proc.mm().mmap(pages, false);
            proc.switch_to(machine.core(c), *task, false);
            for (std::size_t i = 0; i < pages; ++i)
                proc.mm().fault_in(machine.core(c), *proc.mm().vds0(),
                                   base + i);
            machine.core(c).reset();
            workers.push_back(
                std::make_unique<ScalingWorker>(base, pages, steps));
            workers.back()->set_task(proc, task);
            engine.add_thread(workers.back().get(), static_cast<int>(c));
        }
        state.ResumeTiming();
        auto start = std::chrono::steady_clock::now();
        engine.run();
        run_wall += std::chrono::steady_clock::now() - start;
        total_steps += engine.steps();
        benchmark::DoNotOptimize(engine.steps());
    }
    double wall_s = std::chrono::duration<double>(run_wall).count();
    if (wall_s > 0)
        state.counters["items_per_second"] =
            benchmark::Counter(static_cast<double>(total_steps) / wall_s);
}
BENCHMARK(BM_EngineParallelScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// ConsoleReporter that also mirrors every run into the --json report
/// (real/cpu nanoseconds per iteration, matching the schema of the
/// simulated-cycle benches).
class RecordingReporter : public benchmark::ConsoleReporter {
  public:
    explicit RecordingReporter(BenchReport &report) : report_(&report) {}

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred || run.iterations == 0)
                continue;
            double iters = static_cast<double>(run.iterations);
            report_->add()
                .config("case", run.benchmark_name())
                .metric("real_time_ns_per_iter",
                        run.real_accumulated_time / iters * 1e9)
                .metric("cpu_time_ns_per_iter",
                        run.cpu_accumulated_time / iters * 1e9)
                .metric("iterations", iters);
        }
        ConsoleReporter::ReportRuns(runs);
    }

  private:
    BenchReport *report_;
};

}  // namespace
}  // namespace vdom::bench

int
main(int argc, char **argv)
{
    vdom::bench::BenchReport report("bench_simperf", argc, argv);
    // Strip the flags google-benchmark does not recognize before
    // Initialize sees them.
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json") {
            ++i;  // Skip the path operand too.
            continue;
        }
        if (arg == "--quick")
            continue;
        args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;
    vdom::bench::RecordingReporter reporter(report);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    report.write();
    return 0;
}
