/// \file
/// Chaos harness implementation.

#include "sim/chaos.h"

#include <algorithm>
#include <map>
#include <optional>

#include "apps/httpd.h"
#include "apps/mysql.h"
#include "apps/strategy.h"
#include "kernel/asid.h"
#include "sim/rng.h"
#include "telemetry/metrics.h"
#include "telemetry/postmortem.h"
#include "vdom/introspect.h"
#include "vdom/recovery.h"
#include "vdom/sandbox.h"
#include "vdom/secure_alloc.h"

namespace vdom::sim {

namespace {

/// The graceful-degradation statuses an armed run is allowed to surface.
bool
is_fault_status(VdomStatus st)
{
    return st == VdomStatus::kTransientFault ||
           st == VdomStatus::kRetriesExhausted ||
           st == VdomStatus::kResourceExhausted;
}

/// The DESIGN.md structural invariants both harnesses enforce after every
/// op: each VDS domain map internally consistent (invariant 3), reserved
/// pdoms and the API vdom never mapped (invariant 7), freed vdoms gone
/// from every map.  Returns the first breach, empty when all hold;
/// \p checks counts one check per VDS examined.
std::string
check_design_invariants(kernel::Process &proc, const hw::ArchParams &params,
                        std::uint64_t *checks)
{
    const kernel::MmStruct &mm = proc.mm();
    for (const auto &vds : mm.vdses()) {
        if (checks)
            ++*checks;
        if (!vds->check_consistency())
            return "vds " + std::to_string(vds->id()) +
                   " domain map inconsistent";
        for (auto [pdom, vdomid] : vds->mapped_pairs()) {
            if (pdom < params.num_reserved_pdoms || vdomid == kApiVdom)
                return "reserved domain mapped";
            if (!mm.vdm().is_allocated(vdomid))
                return "freed vdom " + std::to_string(vdomid) +
                       " still mapped";
        }
    }
    return {};
}

/// Sites worth replaying in sticky mode.  The two pure-delay sites are
/// exempt: kPteWriteDelay only adds latency, and a sticky kTlbEntryDrop
/// would drop every re-filled entry — unbounded re-walks with no new
/// architectural outcome.
bool
sticky_swept(FaultSite site)
{
    return site != FaultSite::kTlbEntryDrop &&
           site != FaultSite::kPteWriteDelay;
}

}  // namespace

ChaosHarness::ChaosHarness(const ChaosConfig &config)
    : config_(config),
      params_(config.arch == hw::ArchKind::kX86
                  ? hw::ArchParams::x86(config.cores)
                  : hw::ArchParams::arm(config.cores)),
      machine_(std::make_unique<hw::Machine>(params_)),
      proc_(std::make_unique<kernel::Process>(*machine_)),
      sys_(std::make_unique<VdomSystem>(*proc_)),
      plan_(config.seed),
      flight_(config.cores, config.flight_per_core)
{
    for (const auto &[site, spec] : config_.faults)
        plan_.arm(site, spec);
    // World bring-up runs fault-free (the plan is attached only inside
    // run()): chaos targets steady-state behaviour, not construction.
    sys_->vdom_init(machine_->core(0));
    for (std::size_t t = 0; t < config_.threads; ++t) {
        std::size_t core_id = t % config_.cores;
        kernel::Task *task = proc_->create_task();
        proc_->switch_to(machine_->core(core_id), *task, false);
        sys_->vdr_alloc(machine_->core(core_id), *task, 1 + t % 3);
        tasks_.push_back(task);
    }
    for (std::size_t d = 0; d < config_.domains; ++d)
        make_domain(1 + d % 3, d % 5 == 0, 0, nullptr);
}

ChaosHarness::~ChaosHarness() = default;

bool
ChaosHarness::make_domain(std::uint64_t pages, bool frequent,
                          std::size_t core_id, VdomStatus *status)
{
    hw::Core &core = machine_->core(core_id);
    VdomId vdom = sys_->vdom_alloc(core, frequent);
    if (vdom == kInvalidVdom)
        return false;
    hw::Vpn vpn = proc_->mm().mmap(pages);
    VdomStatus st = sys_->vdom_mprotect(core, vpn, pages, vdom);
    if (status)
        *status = st;
    if (st != VdomStatus::kOk) {
        sys_->vdom_free(core, vdom);
        return false;
    }
    doms_.emplace_back(vdom, vpn);
    return true;
}

ChaosResult
ChaosHarness::run()
{
    ChaosResult result;
    Rng rng(config_.seed + 0x9e3779b97f4a7c15ULL);
    ScopedFaults armed(plan_);
    // The flight recorder rides along for the whole churn (it observes,
    // never charges), so a violation bundle carries the causal timeline
    // that led to it.  A zero budget disables the recorder entirely.
    std::optional<telemetry::ScopedFlightRecorder> recording;
    if (config_.flight_per_core > 0)
        recording.emplace(flight_);

    for (int op = 0; op < config_.ops; ++op) {
        std::size_t ti = rng.below(tasks_.size());
        std::size_t core_id = ti % config_.cores;
        kernel::Task &task = *tasks_[ti];
        hw::Core &core = machine_->core(core_id);
        // Keep the acting thread installed on its core (the switch runs
        // the ASID path, where kAsidExhaustion fires).
        proc_->switch_to(core, task, false);

        switch (rng.below(8)) {
          case 0:
          case 1:
          case 2: {
            // Weighted toward grants: mapping pressure is what drives the
            // interesting paths (eviction, VDS allocation, migration).
            static constexpr VPerm kPerms[4] = {VPerm::kFullAccess,
                                                VPerm::kFullAccess,
                                                VPerm::kAccessDisable,
                                                VPerm::kPinned};
            VPerm perm = kPerms[rng.below(4)];
            VdomId vdom = doms_[rng.below(doms_.size())].first;
            VdomStatus st = sys_->wrvdr(core, task, vdom, perm);
            if (is_fault_status(st)) {
                ++result.transient_failures;
            } else if (st != VdomStatus::kOk &&
                       st != VdomStatus::kNoVdr) {
                record_violation(result, op,
                                 std::string("unexpected wrvdr status ") +
                                     status_name(st));
            }
            break;
          }
          case 3:
          case 4:
          case 5: {
            auto [vdom, vpn] = doms_[rng.below(doms_.size())];
            bool write = rng.below(2) != 0;
            const Vdr *vdr = task.vdr();
            VPerm held = vdr ? vdr->get(vdom) : VPerm::kAccessDisable;
            VAccess res = sys_->access(core, task, vpn, write);
            // DESIGN.md invariant 1: outcome == VDR policy, always —
            // injected faults may slow an access down, never change its
            // verdict.
            bool allowed = write ? held == VPerm::kFullAccess
                                 : vperm_active(held);
            if (res.ok != allowed) {
                record_violation(
                    result, op,
                    "access outcome diverged from VDR policy (vdom " +
                        std::to_string(vdom) + ", held " +
                        vperm_name(held) + ")");
            }
            if (res.ok)
                ++result.ok_accesses;
            else
                ++result.denied_accesses;
            // Touch the page again: a successful first access filled the
            // TLB, so this one exercises the hit path (where
            // kTlbEntryDrop lives) and must reach the same verdict.
            VAccess again = sys_->access(core, task, vpn, write);
            if (again.ok != res.ok) {
                record_violation(result, op,
                                 "repeated access changed verdict (vdom " +
                                     std::to_string(vdom) + ")");
            }
            break;
          }
          case 6: {
            if (doms_.size() < 2 * config_.domains) {
                VdomStatus st = VdomStatus::kOk;
                if (!make_domain(1 + rng.below(3), rng.below(5) == 0,
                                 core_id, &st)) {
                    if (is_fault_status(st)) {
                        ++result.transient_failures;
                    } else {
                        record_violation(
                            result, op,
                            std::string("unexpected mprotect status ") +
                                status_name(st));
                    }
                }
            } else if (doms_.size() > 4) {
                std::size_t di = rng.below(doms_.size());
                VdomStatus st =
                    sys_->vdom_free(core, doms_[di].first);
                if (st != VdomStatus::kOk) {
                    record_violation(
                        result, op,
                        std::string("unexpected vdom_free status ") +
                            status_name(st));
                }
                doms_.erase(doms_.begin() +
                            static_cast<std::ptrdiff_t>(di));
            }
            break;
          }
          case 7: {
            if (doms_.size() > 4 && rng.below(2) == 0) {
                std::size_t di = rng.below(doms_.size());
                VdomStatus st =
                    sys_->vdom_free(core, doms_[di].first);
                if (st != VdomStatus::kOk) {
                    record_violation(
                        result, op,
                        std::string("unexpected vdom_free status ") +
                            status_name(st));
                }
                doms_.erase(doms_.begin() +
                            static_cast<std::ptrdiff_t>(di));
            } else if (!task.has_vdr()) {
                VdomStatus st =
                    sys_->vdr_alloc(core, task, 1 + ti % 3);
                if (is_fault_status(st))
                    ++result.transient_failures;
            } else if (rng.below(4) == 0) {
                sys_->vdr_free(core, task);
            }
            break;
          }
        }
        ++result.ops;
        check_invariants(result, op);
    }

    result.faults_injected = plan_.total_fires();
    for (std::size_t s = 0; s < kNumFaultSites; ++s) {
        auto site = static_cast<FaultSite>(s);
        result.occurrences_by_site[s] = plan_.occurrences(site);
        result.fires_by_site[s] = plan_.fires(site);
    }
    result.breakdown = machine_->total_breakdown();
    for (std::size_t c = 0; c < machine_->num_cores(); ++c)
        result.max_clock = std::max(result.max_clock,
                                    machine_->core(c).now());
    result.flight_records = flight_.total();
    result.flows = flight_.last_flow();
    return result;
}

bool
ChaosHarness::export_postmortem(const std::string &path,
                                const std::string &reason, int op) const
{
    telemetry::PostmortemInfo info;
    info.reason = reason;
    info.context.emplace_back("arch", hw::arch_name(config_.arch));
    info.context.emplace_back("seed", std::to_string(config_.seed));
    info.context.emplace_back("cores", std::to_string(config_.cores));
    info.context.emplace_back("ops", std::to_string(config_.ops));
    if (op >= 0)
        info.context.emplace_back("op", std::to_string(op));
    info.flight = &flight_;
    info.metrics = telemetry::metrics_sink();
    info.plan = &plan_;
    info.system = sys_.get();
    return telemetry::export_postmortem(path, info);
}

void
ChaosHarness::check_invariants(ChaosResult &result, int op)
{
    std::string bad = check_design_invariants(*proc_, params_,
                                              &result.invariant_checks);
    if (!bad.empty())
        record_violation(result, op, bad);
}

void
ChaosHarness::record_violation(ChaosResult &result, int op,
                               const std::string &what)
{
    ++result.violations;
    if (result.first_violation.empty()) {
        result.first_violation = "op " + std::to_string(op) + " (seed " +
                                 std::to_string(config_.seed) + ", " +
                                 hw::arch_name(config_.arch) + "): " + what;
        // First violation wins the bundle: the flight ring still holds the
        // records leading up to it, and later violations are usually
        // knock-on effects of the same root cause.
        if (!config_.postmortem_path.empty()) {
            result.postmortem_written = export_postmortem(
                config_.postmortem_path,
                "invariant violation: " + what, op);
        }
    }
}

// --- SweepHarness --------------------------------------------------------

/// One scripted public-API operation.  Domain/region fields index the
/// World's append-only `doms`/`regions` vectors, which replay identically
/// in every fresh world.
struct SweepHarness::Op {
    enum class Kind : std::uint8_t {
        kInit,      ///< vdom_init
        kVdrAlloc,  ///< vdr_alloc(nas = pages)
        kVdrFree,   ///< vdr_free
        kMmap,      ///< mm.mmap(pages) — appends a region
        kAlloc,     ///< vdom_alloc(frequent) — appends a dom
        kMprotect,  ///< vdom_mprotect(regions[region], doms[dom])
        kWrvdr,     ///< wrvdr(doms[dom], perm)
        kAccess,    ///< access(regions[region], write) + verdict oracle
        kFreeDom,   ///< vdom_free(doms[dom])
    };

    Kind kind = Kind::kInit;
    std::size_t task = 0;    ///< Acting thread (thread-scoped ops).
    std::size_t dom = 0;     ///< Index into World::doms.
    std::size_t region = 0;  ///< Index into World::regions.
    std::uint64_t pages = 0; ///< kMmap page count / kVdrAlloc nas budget.
    VPerm perm = VPerm::kFullAccess;
    bool write = false;
    bool frequent = false;
    /// kMprotect: one call covering regions[region] through
    /// regions[region+1] — the multi-VMA range whose mid-loop fault point
    /// the journal exists to make safe.
    bool span = false;

    static const char *name(Kind kind);
};

/// A fresh simulated world; rebuilt from scratch for every injected run so
/// earlier faults cannot leak state between runs.
struct SweepHarness::World {
    hw::ArchParams params;
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<kernel::Process> proc;
    std::unique_ptr<VdomSystem> sys;
    std::vector<kernel::Task *> tasks;
    std::vector<VdomId> doms;
    std::vector<std::pair<hw::Vpn, std::uint64_t>> regions;
};

const char *
SweepHarness::Op::name(Kind kind)
{
    switch (kind) {
      case Kind::kInit: return "vdom_init";
      case Kind::kVdrAlloc: return "vdr_alloc";
      case Kind::kVdrFree: return "vdr_free";
      case Kind::kMmap: return "mmap";
      case Kind::kAlloc: return "vdom_alloc";
      case Kind::kMprotect: return "vdom_mprotect";
      case Kind::kWrvdr: return "wrvdr";
      case Kind::kAccess: return "access";
      case Kind::kFreeDom: return "vdom_free";
    }
    return "?";
}

SweepHarness::SweepHarness(const SweepConfig &config)
    : config_(config), flight_(config.cores, config.flight_per_core)
{
}

SweepHarness::~SweepHarness() = default;

std::unique_ptr<SweepHarness::World>
SweepHarness::build_world() const
{
    // Same-config worlds must be bit-identical, so the global id counters
    // restart with every rebuild (mirrors tests/test_invariants.cc).
    kernel::reset_unique_asids();
    kernel::Vds::reset_ctx_ids();
    auto w = std::make_unique<World>();
    w->params = config_.arch == hw::ArchKind::kX86
                    ? hw::ArchParams::x86(config_.cores)
                    : hw::ArchParams::arm(config_.cores);
    w->machine = std::make_unique<hw::Machine>(w->params);
    w->proc = std::make_unique<kernel::Process>(*w->machine);
    w->sys = std::make_unique<VdomSystem>(*w->proc);
    for (std::size_t t = 0; t < config_.threads; ++t)
        w->tasks.push_back(w->proc->create_task());
    return w;
}

std::vector<SweepHarness::Op>
SweepHarness::make_script() const
{
    using Kind = Op::Kind;
    std::vector<Op> ops;
    std::size_t d = config_.domains;

    // Deterministic prologue: bring-up plus the shapes the journal must
    // protect — per-domain single-VMA mprotects, then a spanning mprotect
    // over two *present* VMAs (its mid-range fault point must undo real
    // PTE retags), then a second area chained onto an existing vdom.
    ops.push_back({.kind = Kind::kInit});
    for (std::size_t t = 0; t < config_.threads; ++t)
        ops.push_back({.kind = Kind::kVdrAlloc, .task = t,
                       .pages = 2 + t % 3});
    for (std::size_t i = 0; i < d; ++i)
        ops.push_back({.kind = Kind::kAlloc, .frequent = i % 3 == 0});
    for (std::size_t i = 0; i < d; ++i)
        ops.push_back({.kind = Kind::kMmap, .pages = 1 + i % 3});
    for (std::size_t i = 0; i < d; ++i)
        ops.push_back({.kind = Kind::kMprotect, .dom = i, .region = i});
    ops.push_back({.kind = Kind::kMmap, .pages = 2});  // regions[d]
    ops.push_back({.kind = Kind::kMmap, .pages = 3});  // regions[d + 1]
    // Fault the spanned pages in while still common, so the spanning
    // mprotect retags present PTEs.
    ops.push_back({.kind = Kind::kAccess, .task = 0, .region = d,
                   .write = true});
    ops.push_back({.kind = Kind::kAccess, .task = 1 % config_.threads,
                   .region = d + 1});
    ops.push_back({.kind = Kind::kAlloc});             // doms[d]
    ops.push_back({.kind = Kind::kMprotect, .dom = d, .region = d,
                   .span = true});
    ops.push_back({.kind = Kind::kMmap, .pages = 2});  // regions[d + 2]
    ops.push_back({.kind = Kind::kMprotect, .dom = 0, .region = d + 2});

    // Seeded churn: grants, revokes, accesses, VDR recycling.  The
    // generator tracks VDR liveness so wrvdr always has a register to
    // write (kNoVdr is a validation outcome, not a fault path).
    Rng rng(config_.seed ^ 0xc2b2ae3d27d4eb4fULL);
    std::vector<bool> has_vdr(config_.threads, true);
    std::size_t ndoms = d + 1;
    std::size_t nregions = d + 3;
    for (int i = 0; i < config_.churn_ops; ++i) {
        std::size_t t = rng.below(config_.threads);
        switch (rng.below(6)) {
          case 0:
          case 1:
            if (has_vdr[t])
                ops.push_back({.kind = Kind::kWrvdr, .task = t,
                               .dom = rng.below(ndoms),
                               .perm = VPerm::kFullAccess});
            break;
          case 2:
            if (has_vdr[t])
                ops.push_back({.kind = Kind::kWrvdr, .task = t,
                               .dom = rng.below(ndoms),
                               .perm = VPerm::kAccessDisable});
            break;
          case 3:
          case 4:
            ops.push_back({.kind = Kind::kAccess, .task = t,
                           .region = rng.below(nregions),
                           .write = rng.below(2) != 0});
            break;
          case 5:
            ops.push_back({.kind = Kind::kVdrFree, .task = t});
            ops.push_back({.kind = Kind::kVdrAlloc, .task = t,
                           .pages = 2});
            break;
        }
    }

    // Epilogue: grant → revoke → free on a throwaway domain, so the sweep
    // covers vdom_free of a domain that reached a VDS.
    ops.push_back({.kind = Kind::kAlloc});             // doms[d + 1]
    ops.push_back({.kind = Kind::kMmap, .pages = 1});  // regions[d + 3]
    ops.push_back({.kind = Kind::kMprotect, .dom = d + 1,
                   .region = d + 3});
    ops.push_back({.kind = Kind::kWrvdr, .task = 0, .dom = d + 1,
                   .perm = VPerm::kFullAccess});
    ops.push_back({.kind = Kind::kWrvdr, .task = 0, .dom = d + 1,
                   .perm = VPerm::kAccessDisable});
    ops.push_back({.kind = Kind::kFreeDom, .dom = d + 1});
    return ops;
}

void
SweepHarness::prepare(World &w, const Op &op) const
{
    // Thread-scoped ops act from their task's core; the switch itself
    // runs unarmed — the sweep targets the API op, not the scheduler.
    switch (op.kind) {
      case Op::Kind::kVdrAlloc:
      case Op::Kind::kVdrFree:
      case Op::Kind::kWrvdr:
      case Op::Kind::kAccess: {
        hw::Core &core = w.machine->core(op.task % config_.cores);
        w.proc->switch_to(core, *w.tasks[op.task], false);
        break;
      }
      default:
        break;
    }
}

VdomStatus
SweepHarness::perform(World &w, const Op &op, bool *verdict_ok) const
{
    hw::Core &core0 = w.machine->core(0);
    switch (op.kind) {
      case Op::Kind::kInit:
        return w.sys->vdom_init(core0);
      case Op::Kind::kVdrAlloc:
        return w.sys->vdr_alloc(w.machine->core(op.task % config_.cores),
                                *w.tasks[op.task], op.pages);
      case Op::Kind::kVdrFree:
        return w.sys->vdr_free(w.machine->core(op.task % config_.cores),
                               *w.tasks[op.task]);
      case Op::Kind::kMmap:
        w.regions.emplace_back(w.proc->mm().mmap(op.pages), op.pages);
        return VdomStatus::kOk;
      case Op::Kind::kAlloc: {
        VdomId v = w.sys->vdom_alloc(core0, op.frequent);
        w.doms.push_back(v);
        return v == kInvalidVdom ? VdomStatus::kResourceExhausted
                                 : VdomStatus::kOk;
      }
      case Op::Kind::kMprotect: {
        auto [vpn, pages] = w.regions[op.region];
        if (op.span) {
            auto [v2, p2] = w.regions[op.region + 1];
            pages = v2 + p2 - vpn;
        }
        return w.sys->vdom_mprotect(core0, vpn, pages, w.doms[op.dom]);
      }
      case Op::Kind::kWrvdr:
        return w.sys->wrvdr(w.machine->core(op.task % config_.cores),
                            *w.tasks[op.task], w.doms[op.dom], op.perm);
      case Op::Kind::kAccess: {
        kernel::Task &task = *w.tasks[op.task];
        hw::Core &core = w.machine->core(op.task % config_.cores);
        hw::Vpn vpn = w.regions[op.region].first;
        // DESIGN.md invariant 1: outcome == VDR policy, always — injected
        // faults may slow an access down, never change its verdict.
        VdomId vd = w.proc->mm().vdom_of(vpn);
        const Vdr *vdr = task.vdr();
        VPerm held = vdr ? vdr->get(vd) : VPerm::kAccessDisable;
        bool allowed =
            vd == kCommonVdom ||
            (op.write ? held == VPerm::kFullAccess : vperm_active(held));
        VAccess res = w.sys->access(core, task, vpn, op.write);
        if (verdict_ok)
            *verdict_ok = res.ok == allowed;
        return VdomStatus::kOk;
      }
      case Op::Kind::kFreeDom:
        return w.sys->vdom_free(core0, w.doms[op.dom]);
    }
    return VdomStatus::kOk;
}

void
SweepHarness::fold(SweepResult &result, const std::string &line) const
{
    // Order-dependent chain: xor in the line hash, then smear with the
    // FNV prime, so reordered runs cannot collide to the same digest.
    result.digest ^= snapshot_hash(line);
    result.digest *= 1099511628211ULL;
}

void
SweepHarness::record_violation(SweepResult &result, World *world,
                               const FaultPlan *plan,
                               const std::string &what)
{
    ++result.violations;
    if (!result.first_violation.empty())
        return;
    result.first_violation = what;
    if (config_.postmortem_path.empty() || world == nullptr)
        return;
    telemetry::PostmortemInfo info;
    info.reason = "sweep violation: " + what;
    info.context.emplace_back("arch", hw::arch_name(config_.arch));
    info.context.emplace_back("seed", std::to_string(config_.seed));
    info.context.emplace_back("cores", std::to_string(config_.cores));
    info.flight = &flight_;
    info.metrics = telemetry::metrics_sink();
    info.plan = plan;
    info.system = world->sys.get();
    result.postmortem_written =
        telemetry::export_postmortem(config_.postmortem_path, info);
}

void
SweepHarness::run_injection(const std::vector<Op> &script, std::size_t i,
                            FaultSite site, std::uint64_t k, bool sticky,
                            SweepResult &result)
{
    auto w = build_world();
    for (std::size_t j = 0; j < i; ++j) {
        prepare(*w, script[j]);
        perform(*w, script[j], nullptr);
    }
    const Op &op = script[i];
    prepare(*w, op);

    const std::string before = snapshot_state(*w->sys);
    const std::uint64_t rollbacks_before =
        w->proc->mm().journal().rollbacks();

    FaultPlan plan(config_.seed);
    plan.arm_exact(site, k, sticky);
    flight_.clear();
    bool verdict_ok = true;
    VdomStatus st;
    {
        ScopedFaults armed(plan);
        std::optional<telemetry::ScopedFlightRecorder> recording;
        if (config_.flight_per_core > 0)
            recording.emplace(flight_);
        st = perform(*w, op, &verdict_ok);
    }
    ++result.injected_runs;
    result.rollbacks +=
        w->proc->mm().journal().rollbacks() - rollbacks_before;

    const std::string label =
        "op " + std::to_string(i) + " (" + Op::name(op.kind) +
        ") site " + fault_site_name(site) + " k=" + std::to_string(k) +
        (sticky ? " sticky" : "") + " (seed " +
        std::to_string(config_.seed) + ", " + hw::arch_name(config_.arch) +
        ")";
    const std::string after = snapshot_state(*w->sys);

    if (is_fault_status(st)) {
        // A graceful failure must be a perfect no-op architecturally.
        ++result.failed_ops;
        ++result.snapshot_checks;
        if (after != before)
            record_violation(result, w.get(), &plan,
                             label + ": failed op mutated state");
    } else if (st == VdomStatus::kOk) {
        if (plan.total_fires() > 0)
            ++result.degraded_ops;
        if (!verdict_ok)
            record_violation(
                result, w.get(), &plan,
                label + ": access verdict diverged from VDR policy");
    } else {
        record_violation(result, w.get(), &plan,
                         label + ": unexpected status " + status_name(st));
    }

    std::string bad = check_design_invariants(*w->proc, w->params,
                                              &result.invariant_checks);
    if (!bad.empty())
        record_violation(result, w.get(), &plan, label + ": " + bad);

    // Rolled-back ops must be cleanly retryable once the fault clears.
    if (is_fault_status(st)) {
        bool retry_ok = true;
        VdomStatus retry = perform(*w, op, &retry_ok);
        if (retry != VdomStatus::kOk || !retry_ok)
            record_violation(result, w.get(), &plan,
                             label + ": retry after rollback failed: " +
                                 status_name(retry));
    }

    fold(result, label + " -> " + status_name(st) + " " +
                     std::to_string(snapshot_hash(after)));
}

SweepResult
SweepHarness::run()
{
    SweepResult result;
    const std::vector<Op> script = make_script();
    result.script_ops = script.size();

    // Probe pass: one clean world with every site count-armed, recording
    // per-(op, site) crossing counts.  The script must run clean — the
    // sweep's promises are meaningless over a broken baseline.
    std::vector<std::array<std::uint64_t, kNumFaultSites>> crossings(
        script.size());
    {
        auto w = build_world();
        FaultPlan probe(config_.seed);
        for (std::size_t s = 0; s < kNumFaultSites; ++s)
            probe.arm_probe(static_cast<FaultSite>(s));
        ScopedFaults armed(probe);
        for (std::size_t i = 0; i < script.size(); ++i) {
            const Op &op = script[i];
            prepare(*w, op);
            std::array<std::uint64_t, kNumFaultSites> before{};
            for (std::size_t s = 0; s < kNumFaultSites; ++s)
                before[s] = probe.occurrences(static_cast<FaultSite>(s));
            bool verdict_ok = true;
            VdomStatus st = perform(*w, op, &verdict_ok);
            for (std::size_t s = 0; s < kNumFaultSites; ++s)
                crossings[i][s] =
                    probe.occurrences(static_cast<FaultSite>(s)) -
                    before[s];
            std::string label = "clean op " + std::to_string(i) + " (" +
                                Op::name(op.kind) + ")";
            if (st != VdomStatus::kOk || !verdict_ok) {
                record_violation(result, w.get(), &probe,
                                 label + " failed: " + status_name(st));
                return result;
            }
            std::string bad = check_design_invariants(
                *w->proc, w->params, &result.invariant_checks);
            if (!bad.empty()) {
                record_violation(result, w.get(), &probe,
                                 label + ": " + bad);
                return result;
            }
            fold(result, label + " " +
                             std::to_string(snapshot_hash(
                                 snapshot_state(*w->sys))));
        }
    }

    // Injection passes: one fresh world per (op, site, crossing[, mode]).
    for (std::size_t i = 0; i < script.size(); ++i) {
        for (std::size_t s = 0; s < kNumFaultSites; ++s) {
            auto site = static_cast<FaultSite>(s);
            std::uint64_t n = crossings[i][s];
            result.fault_points += n;
            for (std::uint64_t k = 1; k <= n; ++k) {
                run_injection(script, i, site, k, false, result);
                if (config_.sticky && sticky_swept(site))
                    run_injection(script, i, site, k, true, result);
            }
        }
    }
    return result;
}

// --- CrashSweepHarness ---------------------------------------------------

/// One scripted operation.  Domain/region fields index the World's
/// append-only `doms`/`regions` vectors; every op commits at most one WAL
/// transaction, which is what keeps the recovery oracle binary (the
/// durable state is golden[i] when op i committed, golden[i-1] otherwise
/// — never anything in between).
struct CrashSweepHarness::Op {
    enum class Kind : std::uint8_t {
        kInit,            ///< vdom_init
        kVdrAlloc,        ///< vdr_alloc(nas = pages)
        kVdrFree,         ///< vdr_free
        kMmap,            ///< mm.mmap(pages) under a harness WAL intent
        kAlloc,           ///< vdom_alloc(frequent) — appends a dom
        kMprotect,        ///< vdom_mprotect(regions[region], doms[dom])
        kWrvdr,           ///< wrvdr(doms[dom], perm)
        kAccess,          ///< access(regions[region], write) + oracle
        kFreeDom,         ///< vdom_free(doms[dom])
        kArena,           ///< DomainAllocator ctor (one vdom_alloc txn)
        kSecureAlloc,     ///< arena allocate forcing one pool growth
        kSandboxMprotect, ///< Sandbox::sandbox_mprotect
        kPmoAttach,       ///< apps::pmo_attach(pmo, pages, seed)
        kPmoDetach,       ///< apps::pmo_detach(pmo)
    };

    Kind kind = Kind::kInit;
    std::size_t task = 0;    ///< Acting thread (thread-scoped ops).
    std::size_t dom = 0;     ///< Index into World::doms.
    std::size_t region = 0;  ///< Index into World::regions.
    std::uint64_t pages = 0; ///< Page count / nas budget / PMO size.
    VPerm perm = VPerm::kFullAccess;
    bool write = false;
    bool frequent = false;
    int pmo = 0;             ///< PMO object id.
    std::uint64_t seed = 0;  ///< PMO content seed.

    static const char *name(Kind kind);
};

/// A fresh simulated world, rebuilt for every crash/reboot cycle.  The
/// durable media (WAL, PmoStore) live in the harness, not here.
struct CrashSweepHarness::World {
    hw::ArchParams params;
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<kernel::Process> proc;
    std::unique_ptr<VdomSystem> sys;
    std::vector<kernel::Task *> tasks;
    std::vector<VdomId> doms;
    std::vector<std::pair<hw::Vpn, std::uint64_t>> regions;
    std::unique_ptr<DomainAllocator> arena;
    std::unique_ptr<Sandbox> sandbox;
    std::map<int, VdomId> pmos;  ///< Attached PMO -> protecting vdom.
};

/// Probe-pass golden state after each script op: the durable snapshot a
/// recovered world must reproduce, the WAL commit count that selects it,
/// and the PMO objects the store must hold intact.
struct CrashSweepHarness::Golden {
    std::string durable;
    std::uint64_t commits = 0;
    /// pmo -> (pages, seed) expected durable at this boundary.
    std::map<int, std::pair<std::uint64_t, std::uint64_t>> pmos;
};

const char *
CrashSweepHarness::Op::name(Kind kind)
{
    switch (kind) {
      case Kind::kInit: return "vdom_init";
      case Kind::kVdrAlloc: return "vdr_alloc";
      case Kind::kVdrFree: return "vdr_free";
      case Kind::kMmap: return "mmap";
      case Kind::kAlloc: return "vdom_alloc";
      case Kind::kMprotect: return "vdom_mprotect";
      case Kind::kWrvdr: return "wrvdr";
      case Kind::kAccess: return "access";
      case Kind::kFreeDom: return "vdom_free";
      case Kind::kArena: return "arena_create";
      case Kind::kSecureAlloc: return "secure_alloc";
      case Kind::kSandboxMprotect: return "sandbox_mprotect";
      case Kind::kPmoAttach: return "pmo_attach";
      case Kind::kPmoDetach: return "pmo_detach";
    }
    return "?";
}

CrashSweepHarness::CrashSweepHarness(const CrashSweepConfig &config)
    : config_(config), flight_(config.cores, config.flight_per_core)
{
}

CrashSweepHarness::~CrashSweepHarness() = default;

std::unique_ptr<CrashSweepHarness::World>
CrashSweepHarness::build_world(kernel::Wal *wal) const
{
    // Same-config worlds must be bit-identical — replay determinism is
    // what lets recovery reconverge on recorded ids and addresses.
    kernel::reset_unique_asids();
    kernel::Vds::reset_ctx_ids();
    auto w = std::make_unique<World>();
    w->params = config_.arch == hw::ArchKind::kX86
                    ? hw::ArchParams::x86(config_.cores)
                    : hw::ArchParams::arm(config_.cores);
    w->machine = std::make_unique<hw::Machine>(w->params);
    w->proc = std::make_unique<kernel::Process>(*w->machine);
    w->sys = std::make_unique<VdomSystem>(*w->proc);
    for (std::size_t t = 0; t < config_.threads; ++t)
        w->tasks.push_back(w->proc->create_task());
    w->proc->mm().set_wal(wal);
    return w;
}

std::vector<CrashSweepHarness::Op>
CrashSweepHarness::make_script() const
{
    using Kind = Op::Kind;
    std::vector<Op> ops;
    std::size_t d = config_.domains;

    // Deterministic prologue: bring-up, one protected region per domain,
    // and faulted-in pages so later retags cover present PTEs.
    ops.push_back({.kind = Kind::kInit});
    for (std::size_t t = 0; t < config_.threads; ++t)
        ops.push_back({.kind = Kind::kVdrAlloc, .task = t,
                       .pages = 2 + t % 2});
    for (std::size_t i = 0; i < d; ++i)
        ops.push_back({.kind = Kind::kAlloc, .frequent = i % 3 == 0});
    for (std::size_t i = 0; i < d; ++i)
        ops.push_back({.kind = Kind::kMmap, .pages = 1 + i % 2});
    for (std::size_t i = 0; i < d; ++i)
        ops.push_back({.kind = Kind::kMprotect, .dom = i, .region = i});
    ops.push_back({.kind = Kind::kAccess, .task = 0, .write = true});
    ops.push_back({.kind = Kind::kAccess, .task = 1 % config_.threads,
                   .region = d > 1 ? std::size_t{1} : std::size_t{0}});

    // The other WAL-covered entry points: secure-pool growth (the arena
    // ctor allocates the vdom, the first allocate grows the pool) and the
    // sandbox mprotect facade over a fresh region.
    ops.push_back({.kind = Kind::kArena});
    ops.push_back({.kind = Kind::kSecureAlloc});
    ops.push_back({.kind = Kind::kMmap, .pages = 1});  // regions[d]
    ops.push_back({.kind = Kind::kSandboxMprotect, .dom = 0, .region = d});

    // Seeded churn: grants, revokes, accesses, VDR recycling.
    Rng rng(config_.seed ^ 0xa0761d6478bd642fULL);
    std::size_t nregions = d + 1;
    for (int i = 0; i < config_.churn_ops; ++i) {
        std::size_t t = rng.below(config_.threads);
        switch (rng.below(6)) {
          case 0:
          case 1:
            ops.push_back({.kind = Kind::kWrvdr, .task = t,
                           .dom = rng.below(d),
                           .perm = VPerm::kFullAccess});
            break;
          case 2:
            ops.push_back({.kind = Kind::kWrvdr, .task = t,
                           .dom = rng.below(d),
                           .perm = VPerm::kAccessDisable});
            break;
          case 3:
          case 4:
            ops.push_back({.kind = Kind::kAccess, .task = t,
                           .region = rng.below(nregions),
                           .write = rng.below(2) != 0});
            break;
          case 5:
            ops.push_back({.kind = Kind::kVdrFree, .task = t});
            ops.push_back({.kind = Kind::kVdrAlloc, .task = t,
                           .pages = 2});
            break;
        }
    }

    // Epilogue: the PMO attach/detach durability pair (attach writes
    // content before COMMIT, detach erases after), then free of a domain
    // that reached a VDS.
    ops.push_back({.kind = Kind::kPmoAttach, .pages = 2, .pmo = 1,
                   .seed = config_.seed + 0x11});
    ops.push_back({.kind = Kind::kPmoAttach, .pages = 3, .pmo = 2,
                   .seed = config_.seed + 0x23});
    ops.push_back({.kind = Kind::kPmoDetach, .pmo = 1});
    ops.push_back({.kind = Kind::kWrvdr, .task = 0, .dom = d - 1,
                   .perm = VPerm::kAccessDisable});
    ops.push_back({.kind = Kind::kFreeDom, .dom = d - 1});
    return ops;
}

void
CrashSweepHarness::prepare(World &w, const Op &op) const
{
    // Thread-scoped ops act from their task's core; the switch itself is
    // outside the armed window (the sweep targets the API op).
    switch (op.kind) {
      case Op::Kind::kVdrAlloc:
      case Op::Kind::kVdrFree:
      case Op::Kind::kWrvdr:
      case Op::Kind::kAccess: {
        hw::Core &core = w.machine->core(op.task % config_.cores);
        w.proc->switch_to(core, *w.tasks[op.task], false);
        break;
      }
      default:
        break;
    }
}

VdomStatus
CrashSweepHarness::perform(World &w, const Op &op, bool *verdict_ok)
{
    hw::Core &core0 = w.machine->core(0);
    switch (op.kind) {
      case Op::Kind::kInit:
        return w.sys->vdom_init(core0);
      case Op::Kind::kVdrAlloc:
        return w.sys->vdr_alloc(w.machine->core(op.task % config_.cores),
                                *w.tasks[op.task], op.pages);
      case Op::Kind::kVdrFree:
        return w.sys->vdr_free(w.machine->core(op.task % config_.cores),
                               *w.tasks[op.task]);
      case Op::Kind::kMmap: {
        // MmStruct::mmap has no core to charge through, so the script
        // logs the mapping intent itself — the shape an allocating
        // runtime would use.
        kernel::WalTxn wtxn(w.proc->mm().wal(), core0,
                            kernel::WalOp::kMmap, 0, op.pages, 0);
        hw::Vpn vpn = w.proc->mm().mmap(op.pages);
        w.regions.emplace_back(vpn, op.pages);
        wtxn.commit(vpn);
        return VdomStatus::kOk;
      }
      case Op::Kind::kAlloc: {
        VdomId v = w.sys->vdom_alloc(core0, op.frequent);
        w.doms.push_back(v);
        return v == kInvalidVdom ? VdomStatus::kResourceExhausted
                                 : VdomStatus::kOk;
      }
      case Op::Kind::kMprotect: {
        auto [vpn, pages] = w.regions[op.region];
        return w.sys->vdom_mprotect(core0, vpn, pages, w.doms[op.dom]);
      }
      case Op::Kind::kWrvdr:
        return w.sys->wrvdr(w.machine->core(op.task % config_.cores),
                            *w.tasks[op.task], w.doms[op.dom], op.perm);
      case Op::Kind::kAccess: {
        kernel::Task &task = *w.tasks[op.task];
        hw::Core &core = w.machine->core(op.task % config_.cores);
        hw::Vpn vpn = w.regions[op.region].first;
        VdomId vd = w.proc->mm().vdom_of(vpn);
        const Vdr *vdr = task.vdr();
        VPerm held = vdr ? vdr->get(vd) : VPerm::kAccessDisable;
        bool allowed =
            vd == kCommonVdom ||
            (op.write ? held == VPerm::kFullAccess : vperm_active(held));
        VAccess res = w.sys->access(core, task, vpn, op.write);
        if (verdict_ok)
            *verdict_ok = res.ok == allowed;
        return VdomStatus::kOk;
      }
      case Op::Kind::kFreeDom:
        return w.sys->vdom_free(core0, w.doms[op.dom]);
      case Op::Kind::kArena: {
        w.arena =
            std::make_unique<DomainAllocator>(*w.sys, core0, false, 2);
        return w.arena->domain() == kInvalidVdom
                   ? VdomStatus::kResourceExhausted
                   : VdomStatus::kOk;
      }
      case Op::Kind::kSecureAlloc: {
        // First allocation after the ctor: the pool is empty, so this
        // always takes exactly one kSecureGrow transaction.
        SecureAllocation a = w.arena->allocate(core0, 64);
        return a.ok() ? VdomStatus::kOk : w.arena->last_status();
      }
      case Op::Kind::kSandboxMprotect: {
        if (!w.sandbox)
            w.sandbox = std::make_unique<Sandbox>(*w.sys);
        auto [vpn, pages] = w.regions[op.region];
        return w.sandbox->sandbox_mprotect(core0, vpn, pages,
                                           w.doms[op.dom]);
      }
      case Op::Kind::kPmoAttach: {
        apps::PmoAttachResult r = apps::pmo_attach(
            *w.sys, core0, store_, op.pmo, op.pages, op.seed);
        if (r.status == VdomStatus::kOk)
            w.pmos[op.pmo] = r.vdom;
        return r.status;
      }
      case Op::Kind::kPmoDetach: {
        auto it = w.pmos.find(op.pmo);
        if (it == w.pmos.end())
            return VdomStatus::kInvalidRange;
        VdomStatus st =
            apps::pmo_detach(*w.sys, core0, store_, op.pmo, it->second);
        if (st == VdomStatus::kOk)
            w.pmos.erase(it);
        return st;
      }
    }
    return VdomStatus::kOk;
}

void
CrashSweepHarness::fold(CrashSweepResult &result,
                        const std::string &line) const
{
    // Order-dependent chain (same shape as the fault sweep's): reordered
    // runs cannot collide to the same digest.
    result.digest ^= snapshot_hash(line);
    result.digest *= 1099511628211ULL;
}

void
CrashSweepHarness::record_violation(CrashSweepResult &result, World *world,
                                    const FaultPlan *plan,
                                    const std::string &what)
{
    ++result.violations;
    if (!result.first_violation.empty())
        return;
    result.first_violation = what;
    if (config_.postmortem_path.empty() || world == nullptr)
        return;
    telemetry::PostmortemInfo info;
    info.reason = "crash sweep violation: " + what;
    info.context.emplace_back("arch", hw::arch_name(config_.arch));
    info.context.emplace_back("seed", std::to_string(config_.seed));
    info.context.emplace_back("cores", std::to_string(config_.cores));
    info.flight = &flight_;
    info.metrics = telemetry::metrics_sink();
    info.plan = plan;
    info.system = world->sys.get();
    result.postmortem_written =
        telemetry::export_postmortem(config_.postmortem_path, info);
}

void
CrashSweepHarness::verify_recovered(World &w, const Golden &expect,
                                    const std::string &label,
                                    CrashSweepResult &result)
{
    // Durable-snapshot oracle first (the verdict sweep below mutates
    // volatile state).
    ++result.snapshot_checks;
    const std::string after = snapshot_durable_state(*w.sys);
    if (after != expect.durable) {
        record_violation(result, &w, nullptr,
                         label + ": recovered durable state diverged");
        return;
    }

    std::string bad = check_design_invariants(*w.proc, w.params,
                                              &result.invariant_checks);
    if (!bad.empty()) {
        record_violation(result, &w, nullptr, label + ": " + bad);
        return;
    }

    // PMO content integrity: exactly the golden object set, every page
    // matching its seed-derived pattern (torn attach content undone,
    // interrupted detach erase redone).
    ++result.pmo_checks;
    if (store_.content.size() != expect.pmos.size()) {
        record_violation(result, &w, nullptr,
                         label + ": PMO store object set diverged");
        return;
    }
    for (const auto &[pmo, shape] : expect.pmos) {
        if (!store_.intact(pmo, shape.second, shape.first)) {
            record_violation(result, &w, nullptr,
                             label + ": PMO " + std::to_string(pmo) +
                                 " content not intact");
            return;
        }
    }

    // Access-verdict oracle over the recovered world: every outcome must
    // equal the replayed VDR policy (DESIGN.md invariant 1), from every
    // thread, over every user VMA.
    std::vector<hw::Vpn> starts;
    for (const auto &[start, vma] : w.proc->mm().vmas()) {
        if (vma.vdom != kApiVdom)
            starts.push_back(start);
    }
    for (std::size_t t = 0; t < w.tasks.size(); ++t) {
        kernel::Task &task = *w.tasks[t];
        hw::Core &core = w.machine->core(t % config_.cores);
        w.proc->switch_to(core, task, false);
        for (hw::Vpn vpn : starts) {
            VdomId vd = w.proc->mm().vdom_of(vpn);
            const Vdr *vdr = task.vdr();
            VPerm held = vdr ? vdr->get(vd) : VPerm::kAccessDisable;
            bool allowed = vd == kCommonVdom || vperm_active(held);
            VAccess res = w.sys->access(core, task, vpn, false);
            if (res.ok != allowed) {
                record_violation(
                    result, &w, nullptr,
                    label + ": recovered access verdict diverged (vpn " +
                        std::to_string(vpn) + ")");
                return;
            }
        }
    }

    fold(result, label + " recovered " +
                     std::to_string(snapshot_hash(after)));
}

void
CrashSweepHarness::run_injection(const std::vector<Op> &script,
                                 const std::vector<Golden> &golden,
                                 std::size_t i, std::uint64_t k,
                                 CrashSweepResult &result)
{
    // Fresh durable media + fresh world; the prefix replays fault-free
    // (only kCrash is ever armed, and only around the target op).
    wal_.reset();
    store_.content.clear();
    auto w = build_world(&wal_);
    for (std::size_t j = 0; j < i; ++j) {
        prepare(*w, script[j]);
        VdomStatus st = perform(*w, script[j], nullptr);
        if (st != VdomStatus::kOk) {
            record_violation(result, w.get(), nullptr,
                             "prefix op " + std::to_string(j) +
                                 " failed: " + status_name(st));
            return;
        }
    }
    const Op &op = script[i];
    prepare(*w, op);

    const std::string label =
        "op " + std::to_string(i) + " (" + Op::name(op.kind) +
        ") crash k=" + std::to_string(k) + " (seed " +
        std::to_string(config_.seed) + ", " + hw::arch_name(config_.arch) +
        ")";

    FaultPlan plan(config_.seed);
    plan.arm_exact(FaultSite::kCrash, k, false);
    flight_.clear();
    bool crashed = false;
    {
        ScopedFaults armed(plan);
        std::optional<telemetry::ScopedFlightRecorder> recording;
        if (config_.flight_per_core > 0)
            recording.emplace(flight_);
        try {
            perform(*w, op, nullptr);
        } catch (const PowerLoss &) {
            crashed = true;
        }
    }
    ++result.injected_runs;
    if (!crashed) {
        record_violation(result, w.get(), &plan,
                         label + ": armed crash never fired");
        return;
    }

    // Reboot: the crashed world is discarded wholesale; only the WAL and
    // the PMO store survive.  The recovered world runs with no WAL
    // attached (redo must not re-log) and no fault plan armed.
    w.reset();
    wal_.reboot();
    auto fresh = build_world(nullptr);

    RecoveryHook hook = [this](const kernel::WalCommitted &entry,
                               bool committed) {
        const kernel::WalRecord &b = entry.begin;
        if (b.op == kernel::WalOp::kPmoAttach) {
            auto pmo = static_cast<int>(b.a);
            if (committed) {
                // Redo is an idempotent rewrite, not a bare verify: a
                // later committed detach may already have erased this
                // object (its own redo will erase it again), and the
                // content is deterministic from the logged seed.
                auto pages = static_cast<std::size_t>(b.b);
                if (!store_.intact(pmo, b.c, pages)) {
                    std::vector<std::uint64_t> &content =
                        store_.content[pmo];
                    content.clear();
                    for (std::size_t p = 0; p < pages; ++p)
                        content.push_back(
                            apps::PmoStore::pattern(pmo, b.c, p));
                }
                return true;
            }
            store_.content.erase(pmo);  // Torn attach: undo the content.
            return true;
        }
        if (b.op == kernel::WalOp::kPmoDetach) {
            // Idempotent erase redo: finishes an interrupted detach.
            store_.content.erase(static_cast<int>(b.a));
            return true;
        }
        return true;
    };

    RecoveryStats stats;
    {
        std::optional<telemetry::ScopedFlightRecorder> recording;
        if (config_.flight_per_core > 0)
            recording.emplace(flight_);
        stats = recover(*fresh->sys, fresh->machine->core(0), wal_, hook);
    }
    result.replayed_ops += stats.replayed;
    result.torn_records += stats.torn;
    result.undone_ops += stats.undone;
    if (!stats.ok) {
        record_violation(result, fresh.get(), &plan,
                         label + ": recovery failed: " + stats.error);
        return;
    }
    ++result.recoveries;

    // Atomicity oracle: the WAL decides which golden boundary the
    // recovered world must sit on — after op i when its transaction
    // committed before the crash, after op i-1 otherwise.  Any other
    // committed count means an op leaked more than one transaction.
    const Golden *expect = nullptr;
    if (stats.committed == golden[i + 1].commits)
        expect = &golden[i + 1];
    else if (stats.committed == golden[i].commits)
        expect = &golden[i];
    if (expect == nullptr) {
        record_violation(result, fresh.get(), &plan,
                         label + ": committed count " +
                             std::to_string(stats.committed) +
                             " matches no op boundary");
        return;
    }

    verify_recovered(*fresh, *expect, label, result);
    fold(result, label + " committed=" + std::to_string(stats.committed) +
                     " replayed=" + std::to_string(stats.replayed) +
                     " torn=" + std::to_string(stats.torn));
}

CrashSweepResult
CrashSweepHarness::run()
{
    CrashSweepResult result;
    const std::vector<Op> script = make_script();
    result.script_ops = script.size();

    // Probe pass: one clean world with the WAL attached and kCrash
    // count-armed (a probe tallies crossings, never fires).  Records the
    // per-op crossing count plus the golden durable state at every op
    // boundary.
    std::vector<std::uint64_t> crossings(script.size());
    std::vector<Golden> golden(script.size() + 1);
    {
        wal_.reset();
        store_.content.clear();
        auto w = build_world(&wal_);
        FaultPlan probe(config_.seed);
        probe.arm_probe(FaultSite::kCrash);
        ScopedFaults armed(probe);
        golden[0].durable = snapshot_durable_state(*w->sys);
        std::map<int, std::pair<std::uint64_t, std::uint64_t>> live;
        for (std::size_t i = 0; i < script.size(); ++i) {
            const Op &op = script[i];
            prepare(*w, op);
            std::uint64_t before = probe.occurrences(FaultSite::kCrash);
            bool verdict_ok = true;
            VdomStatus st = perform(*w, op, &verdict_ok);
            crossings[i] =
                probe.occurrences(FaultSite::kCrash) - before;
            std::string label = "clean op " + std::to_string(i) + " (" +
                                Op::name(op.kind) + ")";
            if (st != VdomStatus::kOk || !verdict_ok) {
                record_violation(result, w.get(), &probe,
                                 label + " failed: " + status_name(st));
                return result;
            }
            std::string bad = check_design_invariants(
                *w->proc, w->params, &result.invariant_checks);
            if (!bad.empty()) {
                record_violation(result, w.get(), &probe,
                                 label + ": " + bad);
                return result;
            }
            if (op.kind == Op::Kind::kPmoAttach)
                live[op.pmo] = {op.pages, op.seed};
            else if (op.kind == Op::Kind::kPmoDetach)
                live.erase(op.pmo);
            golden[i + 1].durable = snapshot_durable_state(*w->sys);
            golden[i + 1].commits = wal_.commits();
            golden[i + 1].pmos = live;
            fold(result, label + " " +
                             std::to_string(
                                 snapshot_hash(golden[i + 1].durable)) +
                             " crossings=" +
                             std::to_string(crossings[i]) + " commits=" +
                             std::to_string(golden[i + 1].commits));
        }
    }

    // Injection passes: one crash/reboot/recover cycle per (op, k-th
    // crossing) — every WAL ordering point, every PMO persist point, and
    // (via the kCrash piggyback) every other fault site's crossing.
    for (std::size_t i = 0; i < script.size(); ++i) {
        result.crash_points += crossings[i];
        for (std::uint64_t k = 1; k <= crossings[i]; ++k)
            run_injection(script, golden, i, k, result);
    }
    return result;
}

// --- application-workload chaos ------------------------------------------

ChaosAppsResult
run_chaos_apps(const ChaosAppsConfig &config)
{
    ChaosAppsResult result;
    kernel::reset_unique_asids();
    kernel::Vds::reset_ctx_ids();
    hw::ArchParams params = config.arch == hw::ArchKind::kX86
                                ? hw::ArchParams::x86(config.cores)
                                : hw::ArchParams::arm(config.cores);
    hw::Machine machine(params);
    kernel::Process proc(machine);
    VdomSystem sys(proc);
    // Bring-up runs fault-free (mirrors ChaosHarness): chaos targets the
    // workload's steady state, not construction.
    sys.vdom_init(machine.core(0));

    FaultPlan plan(config.seed);
    for (const auto &[site, spec] : config.faults)
        plan.arm(site, spec);
    apps::VdomStrategy strat(sys, 2);
    {
        ScopedFaults armed(plan);
        switch (config.workload) {
          case ChaosAppsConfig::Workload::kHttpd: {
            apps::HttpdConfig cfg =
                apps::HttpdConfig::for_arch(config.arch, config.clients, 1);
            cfg.total_requests = config.work_items;
            cfg.host_threads = config.host_threads;
            apps::HttpdResult r =
                apps::run_httpd(machine, proc, strat, cfg);
            result.completed = r.completed;
            result.elapsed = r.elapsed;
            break;
          }
          case ChaosAppsConfig::Workload::kMysql: {
            apps::MysqlConfig cfg =
                apps::MysqlConfig::for_arch(config.arch, config.clients);
            cfg.total_queries = config.work_items;
            cfg.host_threads = config.host_threads;
            apps::MysqlResult r =
                apps::run_mysql(machine, proc, strat, cfg);
            result.completed = r.completed;
            result.elapsed = r.elapsed;
            break;
          }
          case ChaosAppsConfig::Workload::kPmo: {
            apps::PmoConfig cfg =
                apps::PmoConfig::for_arch(config.arch, config.clients);
            cfg.ops_per_thread = config.work_items;
            cfg.pmos = 16;
            cfg.pmo_pages = 8;
            cfg.host_threads = config.host_threads;
            apps::PmoResult r = apps::run_pmo(machine, proc, strat, cfg);
            result.completed = r.completed;
            result.elapsed = r.elapsed;
            break;
          }
        }
    }
    result.faults_injected = plan.total_fires();
    std::string bad =
        check_design_invariants(proc, params, &result.invariant_checks);
    if (!bad.empty()) {
        ++result.violations;
        result.first_violation = hw::arch_name(config.arch) +
                                 std::string(" (seed ") +
                                 std::to_string(config.seed) + "): " + bad;
    }
    return result;
}

}  // namespace vdom::sim
