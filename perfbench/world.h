/// \file
/// One application world of the benchmark: a BenchWorld-style machine +
/// process + VdomSystem, the figure's protection strategy, and the
/// application model (httpd, MySQL or PMO string replace) it runs.
///
/// Building a world is the benchmark's set-up; AppWorld::run is the timed
/// part.  The global ASID and VDS-context counters are reset before every
/// build, so a world's simulated result does not depend on how many worlds
/// the process built before it — the untraced and traced runs of one
/// config, and every repeated pass, must agree exactly.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "apps/httpd.h"
#include "apps/mysql.h"
#include "apps/pmo.h"
#include "apps/strategy.h"
#include "baselines/epk.h"
#include "baselines/libmpk.h"
#include "bench_util.h"
#include "kernel/asid.h"
#include "kernel/vds.h"

namespace vdom::perfbench {

/// The application model a world runs.
enum class App : std::uint8_t { kHttpd, kMysql, kPmo };

/// One config point of a figure.
struct WorldSpec {
    App app = App::kHttpd;
    hw::ArchKind arch = hw::ArchKind::kX86;
    std::size_t cores = 4;
    /// Strategy kind, named as in the figure: "original", "VDom",
    /// "lowerbound", "EPK", "libmpk" / "libmpk 4KB", "libmpk 2MB",
    /// "VDS switch", "VDom evict".
    std::string kind = "original";
    std::size_t clients = 4;  ///< Clients / connections / threads.
    std::size_t file_kb = 1;  ///< httpd response size.
    /// Work size: requests (httpd), duration in million-cycle
    /// query-equivalents (MySQL), ops per thread (PMO).
    std::size_t work = 100;
};

/// The simulated outcome of one world; host-time independent.
struct SimResult {
    hw::Cycles elapsed = 0;
    std::uint64_t completed = 0;
    hw::CycleBreakdown breakdown;

    bool
    operator==(const SimResult &o) const
    {
        return elapsed == o.elapsed && completed == o.completed &&
               breakdown.by_kind == o.breakdown.by_kind;
    }
};

/// The protection layer a strategy kind belongs to.
inline const char *
layer_of(const std::string &kind)
{
    if (kind == "original")
        return "none";
    if (kind == "EPK")
        return "epk";
    if (kind.rfind("libmpk", 0) == 0)
        return "libmpk";
    return "vdom";
}

class AppWorld {
  public:
    explicit AppWorld(const WorldSpec &spec)
        : spec_(spec), world_(reset_and_params(spec))
    {
        world_.sys.vdom_init(world_.core(0));
        kernel::Process &proc = world_.proc;
        const std::string &k = spec.kind;
        if (k == "original") {
            strat_ = std::make_unique<apps::NoneStrategy>(proc);
        } else if (k == "VDom") {
            strat_ = std::make_unique<apps::VdomStrategy>(world_.sys, 2);
        } else if (k == "VDS switch") {
            strat_ = std::make_unique<apps::VdomStrategy>(world_.sys, 6);
        } else if (k == "VDom evict") {
            strat_ = std::make_unique<apps::VdomStrategy>(world_.sys, 1);
        } else if (k == "lowerbound") {
            strat_ = std::make_unique<apps::LowerboundStrategy>(world_.sys);
        } else if (k == "EPK") {
            epk_ = std::make_unique<baselines::Epk>(world_.machine.params());
            strat_ = std::make_unique<apps::EpkStrategy>(proc, *epk_);
        } else if (k == "libmpk" || k == "libmpk 4KB" || k == "libmpk 2MB") {
            mpk_ = std::make_unique<baselines::LibMpk>(proc,
                                                       k == "libmpk 2MB");
            strat_ = std::make_unique<apps::LibmpkStrategy>(proc, *mpk_);
        } else {
            throw std::invalid_argument("unknown strategy kind: " + k);
        }
    }

    AppWorld(const AppWorld &) = delete;
    AppWorld &operator=(const AppWorld &) = delete;

    apps::Strategy &strategy() { return *strat_; }

    /// Runs the application once under \p strategy (the world's own
    /// strategy, or a wrapper around it).
    SimResult
    run(apps::Strategy &strategy)
    {
        hw::Machine &m = world_.machine;
        kernel::Process &p = world_.proc;
        SimResult r;
        switch (spec_.app) {
          case App::kHttpd: {
            auto cfg = apps::HttpdConfig::for_arch(spec_.arch, spec_.clients,
                                                   spec_.file_kb);
            cfg.workers = 40;
            cfg.total_requests = spec_.work;
            auto out = apps::run_httpd(m, p, strategy, cfg);
            r = {out.elapsed, out.completed, out.breakdown};
            break;
          }
          case App::kMysql: {
            auto cfg = apps::MysqlConfig::for_arch(spec_.arch, spec_.clients);
            cfg.duration = static_cast<hw::Cycles>(spec_.work) * 1'000'000.0;
            auto out = apps::run_mysql(m, p, strategy, cfg);
            r = {out.elapsed, out.completed, out.breakdown};
            break;
          }
          case App::kPmo: {
            auto cfg = apps::PmoConfig::for_arch(spec_.arch, spec_.clients);
            cfg.ops_per_thread = spec_.work;
            cfg.huge_pages = spec_.kind == "libmpk 2MB";
            auto out = apps::run_pmo(m, p, strategy, cfg);
            r = {out.elapsed, out.completed, out.breakdown};
            break;
          }
        }
        return r;
    }

    SimResult run() { return run(*strat_); }

    /// False when \p r completed less than the configured work.  A
    /// fixed-duration MySQL run has no fixed count; it must run the whole
    /// duration and complete at least one query.
    bool
    complete(const SimResult &r) const
    {
        switch (spec_.app) {
          case App::kHttpd: return r.completed == spec_.work;
          case App::kPmo: return r.completed == spec_.work * spec_.clients;
          case App::kMysql:
            return r.completed > 0 &&
                   r.elapsed ==
                       static_cast<hw::Cycles>(spec_.work) * 1'000'000.0;
        }
        return false;
    }

  private:
    static hw::ArchParams
    reset_and_params(const WorldSpec &spec)
    {
        kernel::reset_unique_asids();
        kernel::Vds::reset_ctx_ids();
        return spec.arch == hw::ArchKind::kX86
                   ? hw::ArchParams::x86(spec.cores)
                   : hw::ArchParams::arm(spec.cores);
    }

    WorldSpec spec_;
    bench::BenchWorld world_;
    std::unique_ptr<baselines::LibMpk> mpk_;
    std::unique_ptr<baselines::Epk> epk_;
    std::unique_ptr<apps::Strategy> strat_;
};

}  // namespace vdom::perfbench
