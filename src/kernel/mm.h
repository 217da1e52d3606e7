/// \file
/// Process memory descriptor (the paper's extended mm_struct, §6.1/§6.2).
///
/// One MmStruct serves *all* VDSes of a process: "we decide to use it for
/// all VDSes ... only page tables require extra synchronization."  It owns
/// the shared VMA layout, the per-process VDM/VDT, a shadow page table
/// (the master copy demand paging reads from), and the list of VDSes.
///
/// Synchronization policy (§6.2): lazy through page faults when permissions
/// grow (VDS demand paging), eager across every VDS page table when
/// permissions shrink (munmap, vdom assignment, protection changes).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/arch.h"
#include "hw/core.h"
#include "hw/page_table.h"
#include "kernel/journal.h"
#include "kernel/shootdown.h"
#include "kernel/wal.h"
#include "kernel/vdm.h"
#include "kernel/vds.h"
#include "kernel/vma.h"
#include "vdom/types.h"

namespace vdom::kernel {

/// Per-process memory state.
class MmStruct {
  public:
    MmStruct(const hw::ArchParams &params, ShootdownManager *shootdown);

    const hw::ArchParams &params() const { return *params_; }

    Vdm &vdm() { return vdm_; }
    const Vdm &vdm() const { return vdm_; }

    /// The process-wide undo log (kernel/journal.h).  Ops open a
    /// ScopedTxn on it; mutators below record inverses when it is active.
    Journal &journal() { return journal_; }

    /// The attached write-ahead log, or nullptr (the default).  The Wal
    /// is the durable medium and is owned by whoever simulates the
    /// "NVDIMM" (harness or test), outliving this process across a
    /// simulated reboot.  Every logging site is a no-op when detached,
    /// so unattached runs stay cycle-identical.
    Wal *wal() { return wal_; }
    void set_wal(Wal *wal) { wal_ = wal; }

    VmaTree &vmas() { return vmas_; }
    const VmaTree &vmas() const { return vmas_; }
    hw::PageTable &shadow() { return shadow_; }

    /// Routes future VDS context ids through a private block reserved
    /// from the shared counter (Vds::reserve_ctx_block).  Set by the
    /// epoch-parallel engine, one block per process, so runtime VDS
    /// allocation never touches — or nondeterministically interleaves —
    /// the machine-wide counter from host workers.
    void
    set_ctx_block(std::uint64_t base, std::uint64_t count)
    {
        ctx_block_base_ = base;
        ctx_block_size_ = count;
        ctx_block_used_ = 0;
    }

    bool has_ctx_block() const { return ctx_block_size_ != 0; }

    // --- VDS management ---------------------------------------------------

    /// The initial VDS every thread starts in.
    Vds *vds0() { return vdses_.front().get(); }

    /// Allocates and chains a new VDS (charged by the caller via
    /// CostTable::vds_alloc).
    Vds *create_vds();

    const std::vector<std::unique_ptr<Vds>> &vdses() const { return vdses_; }
    std::size_t num_vdses() const { return vdses_.size(); }

    /// Union of all VDS CPU bitmaps: every core running this process.
    std::uint64_t union_cpu_bitmap() const;

    // --- layout -------------------------------------------------------------

    /// Allocates \p pages of fresh virtual address space (returns the first
    /// vpn).  With \p huge, the region is 2MB-aligned and backed by huge
    /// pages.  Pages become present on first touch (demand paging).
    hw::Vpn mmap(std::uint64_t pages, bool huge = false);

    /// Unmaps [start, start+pages): eagerly removes translations from the
    /// shadow and every VDS, drops VDT areas, and shoots down every core
    /// running the process.
    void munmap(hw::Core &core, hw::Vpn start, std::uint64_t pages);

    /// Assigns \p vdom to [start, start+pages) (vdom_mprotect backend).
    ///
    /// Enforces address-space integrity (§7.2): pages already owned by a
    /// different protected vdom are rejected.  Splits VMAs as needed,
    /// chains the area into the VDT, and eagerly retags present pages in
    /// every VDS (revocation is eager, §6.2), with shootdowns.
    VdomStatus assign_vdom(hw::Core &core, hw::Vpn start,
                           std::uint64_t pages, VdomId vdom);

    // --- paging ----------------------------------------------------------

    /// First-touch / VDS demand paging for \p vpn in \p vds.
    ///
    /// \returns false when no VMA covers \p vpn (SIGSEGV for the caller).
    /// Charges fault-side costs on \p core: shadow population on first
    /// touch, memsync when copying into a VDS table (§6.2, Table 5).
    bool fault_in(hw::Core &core, Vds &vds, hw::Vpn vpn);

    /// fault_in() for every page of [start, start+pages), in order: the
    /// same page-table writes, per-page charges and metrics, with one VMA
    /// lookup per VMA and one leaf lookup per PMD span.  Pre-faulting
    /// loops use it.  \returns false when some page has no VMA (that page
    /// is skipped).
    bool fault_in_range(hw::Core &core, Vds &vds, hw::Vpn start,
                        std::uint64_t pages);

    /// Eagerly maps every present page of \p vdom into \p vds with tag
    /// \p pdom ("the OS kernel assigns PTEs of all present pages protected
    /// by the vdom with the selected pdom", §5.4).  Returns entry-write
    /// counts; cycles are charged on \p core under \p kind.
    hw::PtOps install_vdom_in_vds(hw::Core &core, Vds &vds, VdomId vdom,
                                  hw::Pdom pdom, hw::CostKind kind);

    /// Disables every area of \p vdom in \p vds (eviction, §5.4): PTEs are
    /// retagged access-never or PMDs disabled (§5.5), then minimal TLB
    /// invalidation: range flush for small areas, full-ASID flush for large
    /// ones, local-only when the VDS runs nowhere else.
    hw::PtOps evict_vdom_from_vds(hw::Core &core, Vds &vds, VdomId vdom);

    /// kswapd-style page reclaim: drops the frames backing
    /// [start, start+pages) from the shadow and every VDS (eager
    /// synchronization, §6.2) while keeping the VMAs — a later access
    /// demand-pages the data back in with the correct domain tag.
    /// \returns the number of pages actually reclaimed.
    std::uint64_t reclaim_range(hw::Core &core, hw::Vpn start,
                                std::uint64_t pages);

    /// The vdom owning \p vpn (kCommonVdom when unprotected / unmapped).
    VdomId vdom_of(hw::Vpn vpn) const;

    /// Charges \p ops at CostTable rates on \p core under \p kind.
    void charge_pt_ops(hw::Core &core, const hw::PtOps &ops,
                       hw::CostKind kind) const;

  private:
    /// fault_in() once \p vma is known to cover \p vpn.
    void fault_in_page(hw::Core &core, Vds &vds, const Vma &vma,
                       hw::Vpn vpn);

    /// Tag a demand-paged page of \p vma gets in \p vds: the default
    /// pdom for unprotected memory, else the vdom's pdom in \p vds, or
    /// access-never while the vdom is not mapped there.
    hw::Pdom fault_tag(const Vds &vds, const Vma &vma) const;

    /// Bumps every VDS's TLB generation and flush-alls every core running
    /// the process (eager revocation paths: munmap, vdom assignment).
    void flush_everywhere(hw::Core &core);

    /// Draws the next VDS context id: from the private block when one is
    /// reserved (epoch-parallel engine), else 0 = let Vds draw from the
    /// shared counter.
    std::uint64_t
    next_ctx()
    {
        if (ctx_block_size_ != 0 && ctx_block_used_ < ctx_block_size_)
            return ctx_block_base_ + ctx_block_used_++;
        return 0;
    }

    const hw::ArchParams *params_;
    ShootdownManager *shootdown_;
    Journal journal_;
    Wal *wal_ = nullptr;
    Vdm vdm_;
    VmaTree vmas_;
    hw::PageTable shadow_;
    std::vector<std::unique_ptr<Vds>> vdses_;
    std::uint32_t next_vds_id_ = 0;
    hw::Vpn next_vpn_ = 0x1000;  ///< Bump allocator for fresh mappings.
    std::uint64_t ctx_block_base_ = 0;
    std::uint64_t ctx_block_size_ = 0;
    std::uint64_t ctx_block_used_ = 0;
};

}  // namespace vdom::kernel
