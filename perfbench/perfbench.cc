/// \file
/// Host-time benchmark driver: times the simulator's own public entry
/// points (apps::run_httpd / run_mysql / run_pmo over figure-shaped worlds,
/// sim::SweepHarness / CrashSweepHarness over sweep seeds) on the host.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// The seed picks the workload's config points; one *pass* simulates the
/// whole list once.  After one untimed warm-up pass (the first pass runs
/// slower: cold caches and allocator), passes repeat until --seconds of
/// measuring have elapsed, and every reported time is the median over
/// passes.  With --trace 1, traced passes (TimedStrategy around every
/// strategy + an attached MetricsRegistry) alternate with untraced ones and
/// the per-layer metrics are printed instead of the end-to-end ones.
///
/// Every pass is checked against the warm-up pass: an operation (one world
/// or one sweep seed) fails when it throws, completes less than its
/// configured work, reports a sweep violation, or simulates a different
/// result (elapsed cycles, completed count, CycleBreakdown, sweep digest)
/// than the warm-up did — so traced passes must reproduce untraced ones
/// exactly.  The last stdout line is one JSON object with the keys
/// correct, attempted, failed and metrics.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "sim/chaos.h"
#include "sim/rng.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "timed_strategy.h"
#include "world.h"

namespace vdom::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double
seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// --- operations -----------------------------------------------------------

/// One sweep seed on one architecture, run by one of the two harnesses.
struct SweepSpec {
    bool crash = false;  ///< CrashSweepHarness instead of SweepHarness.
    hw::ArchKind arch = hw::ArchKind::kX86;
    std::uint64_t seed = 1;
};

/// One operation of a workload: an application world or a sweep seed.
using Op = std::variant<WorldSpec, SweepSpec>;

/// The simulated outcome of one operation (host-time independent).
struct Outcome {
    SimResult sim;
    std::uint64_t digest = 0;  ///< Sweep digest (sweeps only).

    bool
    operator==(const Outcome &o) const
    {
        return sim == o.sim && digest == o.digest;
    }
};

/// What one execution of an operation produced.
struct Execution {
    Outcome out;
    bool ok = true;
    std::string error;
    double setup_s = 0;
    double run_s = 0;
};

/// Host-side tallies of one traced pass.
struct Trace {
    std::map<std::string, CallStats> layers;  ///< Keyed by layer_of(kind).
    double app_s = 0, sweep_s = 0, crash_s = 0;
    std::uint64_t app_ops = 0;  ///< Completed requests, queries, PMO ops.
    std::uint64_t sweep_runs = 0, crash_runs = 0;
};

/// Builds the harness (set-up), runs it, and checks for violations.
template <class Harness, class Config>
void
run_sweep(const Config &cfg, Execution &ex)
{
    auto t0 = Clock::now();
    Harness harness(cfg);
    auto t1 = Clock::now();
    auto r = harness.run();
    auto t2 = Clock::now();
    ex.setup_s = seconds_between(t0, t1);
    ex.run_s = seconds_between(t1, t2);
    ex.out.sim.completed = r.injected_runs;
    ex.out.digest = r.digest;
    if (!r.ok() || r.injected_runs == 0) {
        ex.ok = false;
        ex.error = r.injected_runs == 0 ? "no injected runs"
                                        : r.first_violation;
    }
}

Execution
execute(const Op &op, Trace *trace)
{
    Execution ex;
    try {
        if (const auto *w = std::get_if<WorldSpec>(&op)) {
            auto t0 = Clock::now();
            AppWorld world(*w);
            auto t1 = Clock::now();
            if (trace) {
                TimedStrategy timed(world.strategy(),
                                    trace->layers[layer_of(w->kind)]);
                ex.out.sim = world.run(timed);
            } else {
                ex.out.sim = world.run();
            }
            auto t2 = Clock::now();
            ex.setup_s = seconds_between(t0, t1);
            ex.run_s = seconds_between(t1, t2);
            if (trace) {
                trace->app_s += ex.run_s;
                trace->app_ops += ex.out.sim.completed;
            }
            if (!world.complete(ex.out.sim)) {
                ex.ok = false;
                ex.error = "completed only " +
                           std::to_string(ex.out.sim.completed);
            }
        } else {
            const auto &s = std::get<SweepSpec>(op);
            if (s.crash) {
                sim::CrashSweepConfig cfg;
                cfg.arch = s.arch;
                cfg.seed = s.seed;
                run_sweep<sim::CrashSweepHarness>(cfg, ex);
            } else {
                sim::SweepConfig cfg;
                cfg.arch = s.arch;
                cfg.seed = s.seed;
                run_sweep<sim::SweepHarness>(cfg, ex);
            }
            if (trace) {
                (s.crash ? trace->crash_s : trace->sweep_s) += ex.run_s;
                (s.crash ? trace->crash_runs : trace->sweep_runs) +=
                    ex.out.sim.completed;
            }
        }
    } catch (const std::exception &e) {
        ex.ok = false;
        ex.error = std::string("threw: ") + e.what();
    }
    return ex;
}

std::string
describe(const Op &op)
{
    if (const auto *w = std::get_if<WorldSpec>(&op)) {
        static const char *const kApps[] = {"httpd", "mysql", "pmo"};
        return std::string(kApps[static_cast<int>(w->app)]) + " " +
               hw::arch_name(w->arch) + " '" + w->kind + "' clients=" +
               std::to_string(w->clients) + " kb=" +
               std::to_string(w->file_kb) + " work=" +
               std::to_string(w->work);
    }
    const auto &s = std::get<SweepSpec>(op);
    return std::string(s.crash ? "crash_sweep " : "sweep ") +
           hw::arch_name(s.arch) + " seed=" + std::to_string(s.seed);
}

// --- workloads -------------------------------------------------------------
//
// Each application workload is its figure's grid: every strategy of the
// figure on both architectures, over strata of the figure's client/thread
// axis.  The seed picks the point inside each stratum, which row point
// gets which work multiplier (a permutation, so each row's total work is
// fixed), the file size per point (httpd), and the order of the list.  The
// host cost of a list therefore stays close to the grid's from seed to
// seed, while the simulated inputs differ.

/// Work multipliers a row's points share out; they sum to the row length.
std::vector<double>
multipliers(std::size_t n)
{
    std::vector<double> m(n, 1.0);
    for (std::size_t i = 0; i < n / 2; ++i) {
        double d = 0.08 * static_cast<double>(i + 1) /
                   static_cast<double>(n / 2);
        m[i] = 1.0 - d;
        m[n - 1 - i] = 1.0 + d;
    }
    return m;
}

template <class T>
void
shuffle(std::vector<T> &v, sim::Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/// One architecture panel of a figure.
struct Panel {
    hw::ArchKind arch;
    std::size_t cores;
    std::vector<std::vector<std::size_t>> strata;  ///< Client/thread axis.
    std::size_t work;                              ///< Per-point base work.
};

/// Appends one row (a strategy over a panel's strata) of \p app worlds.
void
add_row(std::vector<Op> &ops, App app, const Panel &p,
        const std::string &kind, sim::Rng &rng)
{
    std::vector<double> mult = multipliers(p.strata.size());
    shuffle(mult, rng);
    std::vector<std::size_t> kbs = {1, 64, 128};
    for (std::size_t i = 0; i < p.strata.size(); ++i) {
        if (i % kbs.size() == 0)
            shuffle(kbs, rng);
        WorldSpec w;
        w.app = app;
        w.arch = p.arch;
        w.cores = p.cores;
        w.kind = kind;
        const auto &stratum = p.strata[i];
        w.clients = stratum[rng.below(stratum.size())];
        w.file_kb = kbs[i % kbs.size()];
        w.work = static_cast<std::size_t>(
            static_cast<double>(p.work) * mult[i] + 0.5);
        ops.push_back(w);
    }
}

std::vector<Op>
make_ops(const std::string &workload, std::uint64_t seed)
{
    sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15ULL);
    std::vector<Op> ops;
    const std::vector<std::vector<std::size_t>> x86_clients = {
        {4, 8}, {12, 16}, {20, 24}, {28, 32}, {36, 40}, {44, 48}};
    const std::vector<std::vector<std::size_t>> arm_clients = {
        {4, 8}, {12, 16}, {20, 24}};
    if (workload == "pmo_replace") {
        // Fig. 7: 64 2MB PMOs, one domain each, 1-8 threads.
        const std::vector<Panel> panels = {
            {hw::ArchKind::kX86, 10, {{1}, {2}, {4}, {8}}, 1500},
            {hw::ArchKind::kArm, 4, {{1}, {2}, {4}}, 1000}};
        for (const Panel &p : panels) {
            for (const char *k : {"original", "lowerbound", "EPK",
                                  "libmpk 4KB", "libmpk 2MB", "VDS switch",
                                  "VDom evict"}) {
                if (p.arch == hw::ArchKind::kArm && std::strcmp(k, "EPK") == 0)
                    continue;  // No VMFUNC on ARM.
                add_row(ops, App::kPmo, p, k, rng);
            }
        }
    } else if (workload == "mysql_oltp") {
        // Fig. 6: fixed-duration sysbench OLTP, 4-48 connections.
        const std::vector<Panel> panels = {
            {hw::ArchKind::kX86, 26, x86_clients, 120},
            {hw::ArchKind::kArm, 4, arm_clients, 30}};
        for (const Panel &p : panels)
            for (const char *k : {"original", "VDom", "EPK", "libmpk"})
                add_row(ops, App::kMysql, p, k, rng);
    } else if (workload == "httpd_tls") {
        // Fig. 5: 1/64/128KB responses, 4-48 clients, 40 workers.
        const std::vector<Panel> panels = {
            {hw::ArchKind::kX86, 26, x86_clients, 400},
            {hw::ArchKind::kArm, 4, arm_clients, 50}};
        for (const Panel &p : panels)
            for (const char *k :
                 {"original", "VDom", "lowerbound", "EPK", "libmpk"})
                add_row(ops, App::kHttpd, p, k, rng);
    } else if (workload == "fault_sweep") {
        // Fault-point and crash-point sweeps, seeds drawn from the seed.
        for (bool crash : {false, true})
            for (hw::ArchKind arch : {hw::ArchKind::kX86, hw::ArchKind::kArm})
                for (int i = 0; i < 16; ++i)
                    ops.push_back(SweepSpec{crash, arch, 1 + rng.below(1u << 30)});
    } else {
        return {};
    }
    shuffle(ops, rng);
    return ops;
}

// --- measurement -------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Order-dependent FNV-1a fold over every operation's simulated outcome.
std::uint64_t
digest_of(const std::vector<Outcome> &outcomes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto fold = [&h](std::uint64_t word) {
        for (int i = 0; i < 8; ++i) {
            h ^= (word >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    auto bits = [](double d) {
        std::uint64_t u;
        std::memcpy(&u, &d, sizeof u);
        return u;
    };
    for (const Outcome &o : outcomes) {
        fold(bits(o.sim.elapsed));
        fold(o.sim.completed);
        for (hw::Cycles c : o.sim.breakdown.by_kind)
            fold(bits(c));
        fold(o.digest);
    }
    return h;
}

/// Peak resident set of this process image (VmHWM).  getrusage's
/// ru_maxrss would not do: it keeps the launching process's peak across
/// exec, so it reports the Python wrapper's size, not the simulator's.
double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0;
}

std::string
cpu_model()
{
#if defined(__x86_64__)
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x80000000, nullptr);
    if (max_leaf >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

// --- host-speed probe ----------------------------------------------------
//
// The host is shared, and its speed for this code drifts by up to ~1.6x
// over tens of seconds (other tenants' cache and memory traffic), while
// ALU-bound loops stay within a few percent.  Raw seconds from two runs
// would compare the host's state, not the code.  Each pass therefore
// interleaves a fixed probe — an unordered_map build and lookup, which
// slows down with the host as the simulator does — and scales the pass's
// times by (reference probe time / measured probe time)^kProbeElasticity.
// The exponent is the measured elasticity of the simulator's pass time to
// the probe's time: regressing log pass time on log probe time over 47
// interleaved samples on the 4-CPU host in README.md gave 0.60 (pmo),
// 0.64 (mysql), 0.79 (httpd) and 0.81 (sweeps).  The probe is benchmark
// code, so no change to the simulator moves it.

/// The probe's duration on the reference host in its fast state.
constexpr double kProbeRefSeconds = 0.0015;

/// How strongly the simulator's host time follows the probe's.
constexpr double kProbeElasticity = 0.7;

/// Probes per pass, spread evenly between the pass's operations.
constexpr std::size_t kProbesPerPass = 8;

volatile std::uint64_t g_probe_sink = 0;

double
probe_host()
{
    constexpr std::uint64_t kKeys = 40'000;
    constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
    auto t0 = Clock::now();
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t i = 0; i < kKeys; ++i)
        map[i * kMul] = i;
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < 2 * kKeys; ++i) {
        auto it = map.find(i * kMul);
        if (it != map.end())
            acc += it->second;
    }
    g_probe_sink = acc;
    return seconds_between(t0, Clock::now());
}

/// One pass over every operation; compares each against \p reference.
struct Pass {
    double setup_s = 0;
    double run_s = 0;
    double probe_s = 0;  ///< Mean probe duration (untraced passes).
    std::uint64_t failed = 0;

    /// Host slowdown against the reference state (> 1: slower).
    double
    slowdown() const
    {
        return std::pow(probe_s / kProbeRefSeconds, kProbeElasticity);
    }
};

Pass
run_pass(const std::vector<Op> &ops, const std::vector<Outcome> &reference,
         Trace *trace, std::vector<std::string> &errors)
{
    Pass pass;
    const std::size_t stride = (ops.size() + kProbesPerPass - 1) / kProbesPerPass;
    std::size_t probes = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (!trace && i % stride == 0) {
            pass.probe_s += probe_host();
            ++probes;
        }
        Execution ex = execute(ops[i], trace);
        pass.setup_s += ex.setup_s;
        pass.run_s += ex.run_s;
        if (ex.ok && !(ex.out == reference[i])) {
            ex.ok = false;
            ex.error = trace ? "traced result differs from untraced"
                             : "result differs between passes";
        }
        if (!ex.ok) {
            ++pass.failed;
            errors.push_back(describe(ops[i]) + ": " + ex.error);
        }
    }
    if (probes)
        pass.probe_s /= static_cast<double>(probes);
    return pass;
}

/// The per-layer metrics of one traced pass.
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

Metrics
layer_metrics(const Trace &t, const telemetry::MetricsRegistry &reg)
{
    using telemetry::Metric;
    auto v = [&reg](Metric m) { return static_cast<double>(reg.value(m)); };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    const double app_ns = t.app_s * 1e9;
    CallStats none, vdom, mpk, epk;
    auto find = [&t](const char *layer) {
        auto it = t.layers.find(layer);
        return it == t.layers.end() ? CallStats{} : it->second;
    };
    none = find("none");
    vdom = find("vdom");
    mpk = find("libmpk");
    epk = find("epk");
    double strategy_ns = static_cast<double>(
        none.total_ns() + vdom.total_ns() + mpk.total_ns() + epk.total_ns());
    auto per_call = [&ratio](const CallStats &s, Call c) {
        return ratio(static_cast<double>(s.nanos(c)),
                     static_cast<double>(s.count(c)));
    };
    auto share = [&](const CallStats &s) {
        return ratio(static_cast<double>(s.total_ns()), app_ns);
    };

    Metrics m;
    auto put = [&m](const char *name, double value, const char *unit) {
        m.push_back({name, {value, unit}});
    };
    put("apps.run_ms", t.app_s * 1e3, "ms");
    put("apps.host_us_per_op", ratio(t.app_s * 1e6, static_cast<double>(t.app_ops)), "us");
    put("sim.engine_self_ms", (app_ns - strategy_ns) / 1e6, "ms");
    put("sim.engine_self_share", ratio(app_ns - strategy_ns, app_ns), "ratio");
    put("vdom.calls", static_cast<double>(vdom.total_calls()), "count");
    put("vdom.host_share", share(vdom), "ratio");
    put("vdom.register_ns", per_call(vdom, Call::kRegister), "ns");
    put("vdom.enable_ns", per_call(vdom, Call::kEnable), "ns");
    put("vdom.disable_ns", per_call(vdom, Call::kDisable), "ns");
    put("vdom.access_ns", per_call(vdom, Call::kAccess), "ns");
    put("libmpk.host_share", share(mpk), "ratio");
    put("libmpk.enable_ns", per_call(mpk, Call::kEnable), "ns");
    put("libmpk.register_ns", per_call(mpk, Call::kRegister), "ns");
    put("epk.host_share", share(epk), "ratio");
    put("epk.enable_ns", per_call(epk, Call::kEnable), "ns");
    put("hw.tlb.flush", v(Metric::kTlbFlush), "count");
    put("hw.tlb.range_flush_pages", v(Metric::kTlbFlushedPages), "count");
    put("hw.tlb.hit_ratio", ratio(v(Metric::kTlbHit), v(Metric::kTlbHit) + v(Metric::kTlbMiss)), "ratio");
    put("hw.perm_reg.write", v(Metric::kPermRegWrite), "count");
    put("kernel.shootdown.count", v(Metric::kShootdowns), "count");
    put("kernel.shootdown.ipi", v(Metric::kShootdownIpis), "count");
    put("kernel.asid.recycle", v(Metric::kAsidRecycle), "count");
    put("kernel.asid.rollover", v(Metric::kAsidRollover), "count");
    put("kernel.vma_cache.hit_ratio", ratio(v(Metric::kVmaCacheHit), v(Metric::kVmaCacheHit) + v(Metric::kVmaCacheMiss)), "ratio");
    put("vdom.wrvdr", v(Metric::kWrvdrCalls), "count");
    put("vdom.hlru_evict", v(Metric::kHlruEvict), "count");
    put("vdom.migration", v(Metric::kMigration), "count");
    put("vdom.vds_switch", v(Metric::kVdsSwitch), "count");
    put("vdom.vdr_memo.hit", v(Metric::kVdrMemoHit), "count");
    put("chaos.sweep_ms", t.sweep_s * 1e3, "ms");
    put("chaos.sweep_us_per_run", ratio(t.sweep_s * 1e6, static_cast<double>(t.sweep_runs)), "us");
    put("chaos.crash_sweep_ms", t.crash_s * 1e3, "ms");
    put("chaos.crash_sweep_us_per_run", ratio(t.crash_s * 1e6, static_cast<double>(t.crash_runs)), "us");
    put("chaos.injected_runs", static_cast<double>(t.sweep_runs + t.crash_runs), "count");
    put("kernel.wal.append", v(Metric::kWalAppend), "count");
    put("kernel.txn.rollback", v(Metric::kTxnRollback), "count");
    put("vdom.recovery.replayed", v(Metric::kRecoveryReplayed), "count");
    return m;
}

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
};

bool
parse(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        std::string value = argv[i + 1];
        try {
            if (flag == "--workload")
                a.workload = value;
            else if (flag == "--seed")
                a.seed = std::stoull(value);
            else if (flag == "--seconds")
                a.seconds = std::stod(value);
            else if (flag == "--trace")
                a.trace = std::stoi(value);
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
           (a.trace == 0 || a.trace == 1);
}

int
main_impl(int argc, char **argv)
{
    Args args;
    if (!parse(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <pmo_replace|mysql_oltp|"
                     "httpd_tls|fault_sweep> --seed <n> --seconds <s> "
                     "--trace <0|1>\n");
        return 2;
    }
    const std::vector<Op> ops = make_ops(args.workload, args.seed);
    if (ops.empty()) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    std::printf("perfbench: host nproc=%ld cpu=\"%s\" engine_host_threads=1\n",
                sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str());
    std::printf("perfbench: workload=%s seed=%llu ops=%zu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), ops.size(),
                args.seconds, args.trace);

    // Warm-up pass: untimed, and the reference every later pass must match.
    std::vector<Outcome> reference;
    std::vector<std::string> errors;
    std::uint64_t attempted = ops.size(), failed = 0;
    for (const Op &op : ops) {
        Execution ex = execute(op, nullptr);
        reference.push_back(ex.out);
        if (!ex.ok) {
            ++failed;
            errors.push_back(describe(op) + ": " + ex.error);
        }
    }

    // Later passes repeat the same worlds, so the warm-up pass sets the
    // simulator's peak; read it before the host probe first allocates.
    const double peak_rss = peak_rss_mb();

    std::vector<double> setups, runs, raw_runs, slowdowns, traced_runs;
    std::vector<std::pair<double, Metrics>> traced;
    auto start = Clock::now();
    const int kMinPasses = 3;
    while (static_cast<int>(runs.size()) < kMinPasses ||
           seconds_between(start, Clock::now()) < args.seconds) {
        Pass p = run_pass(ops, reference, nullptr, errors);
        setups.push_back(p.setup_s / p.slowdown());
        runs.push_back(p.run_s / p.slowdown());
        raw_runs.push_back(p.run_s);
        slowdowns.push_back(p.slowdown());
        attempted += ops.size();
        failed += p.failed;
        if (args.trace) {
            Trace t;
            telemetry::MetricsRegistry registry(32);
            Pass tp;
            {
                telemetry::ScopedMetrics attach(registry);
                tp = run_pass(ops, reference, &t, errors);
            }
            attempted += ops.size();
            failed += tp.failed;
            traced_runs.push_back(tp.run_s);
            traced.push_back({tp.run_s, layer_metrics(t, registry)});
        }
    }

    for (std::size_t i = 0; i < errors.size() && i < 10; ++i)
        std::printf("perfbench: FAILED %s\n", errors[i].c_str());
    std::printf("perfbench: digest=%016llx passes=%zu\n",
                static_cast<unsigned long long>(digest_of(reference)),
                runs.size());

    Metrics metrics;
    if (args.trace) {
        // The traced pass with the median run time speaks for the layers;
        // trace.overhead_pct compares the two medians.
        std::sort(traced.begin(), traced.end(),
                  [](const auto &a, const auto &b) { return a.first < b.first; });
        metrics.push_back({"setup.world_ms",
                           {median(setups) * 1e3 / static_cast<double>(ops.size()), "ms"}});
        metrics.push_back({"trace.overhead_pct",
                           {(median(traced_runs) / median(raw_runs) - 1.0) * 100.0, "%"}});
        const Metrics &layers = traced[traced.size() / 2].second;
        metrics.insert(metrics.end(), layers.begin(), layers.end());
    } else {
        metrics.push_back({"wall_s", {median(runs), "s"}});
        metrics.push_back({"setup_s", {median(setups), "s"}});
        metrics.push_back({"peak_rss_mb", {peak_rss, "MB"}});
        std::printf("perfbench: raw_wall_s median=%.4f host_slowdown median=%.3f\n",
                    median(raw_runs), median(slowdowns));
    }

    std::ostringstream out;
    telemetry::JsonWriter w(out);
    w.begin_object();
    w.key("correct").value(failed == 0);
    w.key("attempted").value(attempted);
    w.key("failed").value(failed);
    w.key("metrics").begin_object();
    for (const auto &[name, vu] : metrics) {
        w.key(name).begin_object();
        w.key("value").value(vu.first);
        w.key("unit").value(vu.second);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    std::printf("%s\n", out.str().c_str());
    return 0;
}

}  // namespace
}  // namespace vdom::perfbench

int
main(int argc, char **argv)
{
    return vdom::perfbench::main_impl(argc, argv);
}
