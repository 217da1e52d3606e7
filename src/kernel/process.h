/// \file
/// Process: tasks + memory + per-process kernel services.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/machine.h"
#include "kernel/asid.h"
#include "kernel/mm.h"
#include "kernel/shootdown.h"
#include "kernel/task.h"

namespace vdom::kernel {

/// One simulated process and the kernel services it needs.
///
/// Owns the MmStruct (shared across all VDSes, §6.1), the task list, the
/// per-arch ASID allocator and the shootdown manager.  The scheduler /
/// workload driver calls switch_to() to place a task on a core; the VDom
/// algorithm calls switch_vds() to move a running task between address
/// spaces.
class Process {
  public:
    explicit Process(hw::Machine &machine)
        : machine_(&machine),
          shootdown_(machine),
          asid_(AsidAllocator::make(machine.params())),
          mm_(machine.params(), &shootdown_)
    {
    }

    hw::Machine &machine() { return *machine_; }
    const hw::ArchParams &params() const { return machine_->params(); }
    MmStruct &mm() { return mm_; }
    ShootdownManager &shootdown() { return shootdown_; }
    AsidAllocator &asid_allocator() { return *asid_; }

    /// Creates a thread, initially resident in VDS0.
    Task *
    create_task()
    {
        tasks_.push_back(std::make_unique<Task>(next_tid_++));
        Task *task = tasks_.back().get();
        task->set_vds(mm_.vds0());
        mm_.vds0()->thread_enter();
        return task;
    }

    const std::vector<std::unique_ptr<Task>> &tasks() const { return tasks_; }

    /// Places \p task on \p core (context switch).
    ///
    /// Charges switch_mm (§7.5: +6%/+7.63% when either side of the switch
    /// uses VDom — leaving a VDom task saves its VDR/register state — plus
    /// VDS metadata costs when resuming into a non-default VDS), assigns
    /// the ASID, installs the pgd and restores the permission register.
    void
    switch_to(hw::Core &core, Task &task, bool charge = true)
    {
        const hw::CostTable &costs = core.costs();
        Vds *vds = task.vds();
        if (charge) {
            hw::Cycles cycles = costs.context_switch;
            Task *outgoing = running_for(core.id());
            bool vdom_involved = task.uses_vdom() ||
                                 (outgoing && outgoing->uses_vdom());
            if (vdom_involved)
                cycles += costs.context_switch_vdom;
            if (task.uses_vdom() && vds != mm_.vds0())
                cycles += costs.vds_switch_fixed + costs.pgd_switch;
            core.charge(hw::CostKind::kContextSwitch, cycles);
        }
        install(core, task, *vds);
    }

    /// Switches a running \p task to \p target (the VDom algorithm's pgd
    /// switch, §5.4).  Charges pgd write + VDS bookkeeping under \p kind.
    void
    switch_vds(hw::Core &core, Task &task, Vds &target, hw::CostKind kind)
    {
        const hw::CostTable &costs = core.costs();
        Vds *from = task.vds();
        from->thread_leave();
        from->cpu_clear(core.id());
        task.set_vds(&target);
        target.thread_enter();
        core.charge(kind, costs.vds_switch_fixed);
        install_pgd(core, target, kind);
        rebuild_perm_reg(core, task, target);
        core.charge(hw::CostKind::kPermReg, costs.perm_reg_write);
        target.cpu_set(core.id());
    }

    /// Rebuilds the hardware permission register from the thread's VDR and
    /// the target VDS's domain map ("the permission register of T is
    /// synchronized to stay consistent with the new domain map", Fig. 3).
    ///
    /// When the task's cached image (Task::PermImage) was built from the
    /// same VDS map and VDR versions, it is loaded instead of walking the
    /// map, with the same effects: one kPermRegWrite per mapped pair, and
    /// the VDR memo hit and final memo state the walk's get() calls leave.
    static void
    rebuild_perm_reg(hw::Core &core, Task &task, const Vds &vds)
    {
        hw::PermRegister &reg = core.perm_reg();
        const Vdr *vdr = task.vdr();
        if (!vdr) {
            reg.reset();
            return;
        }
        Task::PermImage &image = task.perm_image();
        if (image.ctx_id == vds.ctx_id() &&
            image.map_version == vds.map_version() &&
            image.vdr_version == vdr->version()) {
            reg.load_slots(image.slots, image.writes);
            if (image.writes != 0)
                vdr->replay_walk(image.first, image.last, image.last_perm);
            return;
        }
        reg.reset();
        image = Task::PermImage{};
        // The walk skips the reserved pdoms, vdom0's among them, so every
        // get() below goes through the VDR memo.
        vds.for_each_mapped([&](hw::Pdom pdom, VdomId vdomid) {
            VPerm perm = vdr->get(vdomid);
            reg.set(pdom, to_hw_perm(perm));
            if (image.writes++ == 0)
                image.first = vdomid;
            image.last = vdomid;
            image.last_perm = perm;
        });
        image.ctx_id = vds.ctx_id();
        image.map_version = vds.map_version();
        image.vdr_version = vdr->version();
        image.slots = reg.slots();
    }

    /// Installs \p vds's pgd + ASID on \p core (no residency changes).
    ///
    /// Applies the TLB-generation protocol (§6.1): if this core last saw
    /// the VDS at an older generation, its cached translations for the VDS
    /// may be stale and the ASID is flushed before use.
    void
    install_pgd(hw::Core &core, Vds &vds, hw::CostKind kind)
    {
        AsidAssignment a = asid_->assign(core.id(), vds.ctx_id());
        if (a.need_flush_all) {
            telemetry::flight_record(
                {telemetry::FlightEvent::kAsidRollover,
                 static_cast<std::uint32_t>(core.id()), 0,
                 static_cast<std::uint64_t>(core.now()), a.flow, a.asid,
                 vds.ctx_id()});
            shootdown_.broadcast_flush_all(core, a.flow);
        } else if (a.need_flush_asid) {
            telemetry::flight_record(
                {telemetry::FlightEvent::kAsidRecycle,
                 static_cast<std::uint32_t>(core.id()), 0,
                 static_cast<std::uint64_t>(core.now()), a.flow, a.asid,
                 vds.ctx_id()});
            shootdown_.local_flush(core, FlushKind::kAsid, a.asid);
        }
        std::uint64_t seen = vds.core_seen_gen(core.id());
        if (seen != 0 && seen < vds.tlb_gen())
            shootdown_.local_flush(core, FlushKind::kAsid, a.asid);
        vds.set_core_seen_gen(core.id(), vds.tlb_gen());
        // ASID ablation: without address-space identifiers, every
        // page-table switch must flush the local TLB (the pre-ASID world
        // VDom's cheap VDS switches depend on avoiding).
        if (!machine_->params().knobs.asid)
            shootdown_.local_flush(core, FlushKind::kAll);
        core.switch_pgd(&vds.pgd(), a.asid, kind);
    }

  private:
    void
    install(hw::Core &core, Task &task, Vds &vds)
    {
        install_pgd(core, vds, hw::CostKind::kContextSwitch);
        rebuild_perm_reg(core, task, vds);
        vds.cpu_set(core.id());
        task.bind_core(core.id());
        running_for(core.id()) = &task;
    }

    Task *&
    running_for(std::size_t core)
    {
        if (running_.size() <= core)
            running_.resize(core + 1, nullptr);
        return running_[core];
    }

  public:
    /// The task last installed on \p core (null when none).
    Task *
    running_on(std::size_t core) const
    {
        return core < running_.size() ? running_[core] : nullptr;
    }

  private:

    hw::Machine *machine_;
    std::vector<Task *> running_;  ///< Last-installed task per core.
    ShootdownManager shootdown_;
    std::unique_ptr<AsidAllocator> asid_;
    MmStruct mm_;
    std::vector<std::unique_ptr<Task>> tasks_;
    std::uint32_t next_tid_ = 1;
};

}  // namespace vdom::kernel
