/// \file
/// PMO String Replace implementation.

#include "apps/pmo.h"

#include <memory>

#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/rng.h"
#include "sim/thread.h"

namespace vdom::apps {

namespace {

struct PmoShared {
    const PmoConfig *config;
    std::vector<hw::Vpn> pmo_base;
    std::vector<int> pmo_obj;
    std::uint64_t completed = 0;
};

/// One worker performing random string-replace operations.
class PmoWorker final : public sim::SimThread {
  public:
    PmoWorker(PmoShared &shared, Strategy &strategy, std::size_t id)
        : shared_(&shared),
          strat_(&strategy),
          rng_(0x9d0 + 77 * id),
          ops_left_(shared.config->ops_per_thread)
    {
    }

    bool
    step(hw::Core &core) override
    {
        const PmoConfig &cfg = *shared_->config;
        switch (phase_) {
          case Phase::kInit:
            strat_->thread_init(core, *task());
            phase_ = Phase::kPick;
            return true;
          case Phase::kPick: {
            if (ops_left_ == 0)
                return false;
            pmo_ = rng_.below(cfg.pmos);
            page_ = shared_->pmo_base[pmo_] + rng_.below(cfg.pmo_pages);
            phase_ = Phase::kRead;
            return true;
          }
          case Phase::kRead: {
            // WD permission while searching the string (§7.6).
            if (!strat_->enable(core, *task(), shared_->pmo_obj[pmo_],
                                VPerm::kWriteDisable)) {
                return true;
            }
            strat_->access(core, *task(), page_, false);
            strat_->work(core, cfg.search_cycles);
            phase_ = Phase::kWrite;
            return true;
          }
          case Phase::kWrite: {
            // Full access for the replacement.
            if (!strat_->enable(core, *task(), shared_->pmo_obj[pmo_],
                                VPerm::kFullAccess)) {
                return true;
            }
            strat_->access(core, *task(), page_, true);
            strat_->work(core, cfg.replace_cycles);
            strat_->disable(core, *task(), shared_->pmo_obj[pmo_]);
            ++shared_->completed;
            --ops_left_;
            phase_ = Phase::kPick;
            return true;
          }
        }
        return false;
    }

  private:
    enum class Phase { kInit, kPick, kRead, kWrite };

    PmoShared *shared_;
    Strategy *strat_;
    sim::Rng rng_;
    std::size_t ops_left_;
    Phase phase_ = Phase::kInit;
    std::size_t pmo_ = 0;
    hw::Vpn page_ = 0;
};

}  // namespace

PmoResult
run_pmo(hw::Machine &machine, kernel::Process &proc, Strategy &strategy,
        const PmoConfig &config)
{
    PmoShared shared;
    shared.config = &config;

    kernel::Task *init_task = proc.create_task();
    hw::Core &core0 = machine.core(0);
    proc.switch_to(core0, *init_task, false);
    strategy.thread_init(core0, *init_task);
    for (std::size_t p = 0; p < config.pmos; ++p) {
        hw::Vpn base = proc.mm().mmap(config.pmo_pages, config.huge_pages);
        shared.pmo_base.push_back(base);
        shared.pmo_obj.push_back(strategy.register_object(
            core0, *init_task, base, config.pmo_pages, false));
        // Pre-fault the PMO (attached persistent memory is mapped up
        // front), so steady state measures protection, not paging.
        proc.mm().fault_in_range(core0, *proc.mm().vds0(), base,
                                 config.pmo_pages);
    }
    core0.reset();  // Setup cost is not part of the measurement.

    std::vector<std::unique_ptr<PmoWorker>> workers;
    sim::Engine engine(machine, &proc, 4'000'000);
    engine.set_host_threads(config.host_threads);
    for (std::size_t t = 0; t < config.threads; ++t) {
        workers.push_back(
            std::make_unique<PmoWorker>(shared, strategy, t));
        workers.back()->set_task(proc.create_task());
        engine.add_thread(workers.back().get(),
                          static_cast<int>(t % machine.num_cores()));
    }
    engine.run();

    PmoResult result;
    result.completed = shared.completed;
    result.elapsed = machine.max_clock();
    result.breakdown = machine.total_breakdown();
    double seconds = result.elapsed / (machine.params().cpu_ghz * 1e9);
    result.ops_per_sec =
        seconds > 0 ? static_cast<double>(result.completed) / seconds : 0;
    result.cycles_per_op =
        result.completed > 0
            ? result.elapsed * static_cast<double>(config.threads) /
                  static_cast<double>(result.completed)
            : 0;
    return result;
}

PmoAttachResult
pmo_attach(VdomSystem &sys, hw::Core &core, PmoStore &store, int pmo,
           std::size_t pages, std::uint64_t seed)
{
    PmoAttachResult out;
    if (!sys.initialized() || pages == 0 || store.has(pmo)) {
        out.status = VdomStatus::kInvalidRange;
        return out;
    }
    kernel::MmStruct &mm = sys.process().mm();
    // WAL intent before any durable effect; the inner vdom_alloc and
    // vdom_mprotect logging nests away under this record.
    kernel::WalTxn wtxn(mm.wal(), core, kernel::WalOp::kPmoAttach, 0,
                        static_cast<std::uint64_t>(pmo), pages, seed);
    kernel::ScopedTxn txn(mm.journal(), core, 0, "pmo_attach");
    hw::Vpn base = mm.mmap(pages);
    VdomId vdom = sys.vdom_alloc(core, false);
    if (vdom == kInvalidVdom) {
        out.status = VdomStatus::kResourceExhausted;
        return out;  // Rollback unwinds the mmap; WalTxn seals an ABORT.
    }
    // vdom_alloc has no journal undo of its own (it is a single step);
    // inside this compound op a graceful failure below must not leak it.
    kernel::Vdm *vdm = &mm.vdm();
    mm.journal().record([vdm, vdom] { vdm->free(vdom); });
    VdomStatus st = sys.vdom_mprotect(core, base, pages, vdom);
    if (st != VdomStatus::kOk) {
        out.status = st;
        return out;
    }
    // Persist the object's content page by page *before* the COMMIT: a
    // power loss mid-stream leaves a torn store entry that recovery must
    // erase (the undo half of the redo/undo log).  A graceful rollback
    // erases it in place.
    PmoStore *sp = &store;
    mm.journal().record([sp, pmo] { sp->content.erase(pmo); });
    std::vector<std::uint64_t> &content = store.content[pmo];
    const hw::CostTable &costs = core.costs();
    for (std::size_t i = 0; i < pages; ++i) {
        mm.fault_in(core, *mm.vds0(), base + i);
        // Each page persist is an ordering point (and a crash point).
        (void)sim::fault_fires(sim::FaultSite::kCrash);
        content.push_back(PmoStore::pattern(pmo, seed, i));
        core.charge(hw::CostKind::kWal, costs.wal_append);
    }
    core.charge(hw::CostKind::kWal, costs.wal_flush);
    txn.commit();
    wtxn.commit(vdom, base);
    out.status = VdomStatus::kOk;
    out.vdom = vdom;
    out.base = base;
    return out;
}

VdomStatus
pmo_detach(VdomSystem &sys, hw::Core &core, PmoStore &store, int pmo,
           VdomId vdom)
{
    if (!store.has(pmo))
        return VdomStatus::kInvalidRange;
    kernel::MmStruct &mm = sys.process().mm();
    kernel::WalTxn wtxn(mm.wal(), core, kernel::WalOp::kPmoDetach, 0,
                        static_cast<std::uint64_t>(pmo), vdom);
    VdomStatus st = sys.vdom_free(core, vdom);
    if (st != VdomStatus::kOk)
        return st;  // WalTxn seals an ABORT; the store is untouched.
    wtxn.commit();
    // The durable erase is ordered strictly after the COMMIT: a crash
    // right here is finished by recovery redoing the (idempotent) erase,
    // whereas erasing first could lose content of an op that never
    // committed.
    (void)sim::fault_fires(sim::FaultSite::kCrash);
    store.content.erase(pmo);
    core.charge(hw::CostKind::kWal, core.costs().wal_flush);
    return VdomStatus::kOk;
}

}  // namespace vdom::apps
