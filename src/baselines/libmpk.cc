/// \file
/// libmpk baseline implementation.

#include "baselines/libmpk.h"

#include <algorithm>
#include <bit>

#include "hw/mmu.h"

namespace vdom::baselines {

namespace {
/// Hardware keys usable by libmpk: pkey 1..15 (pkey 0 is the default).
constexpr int kFirstHwKey = 1;
constexpr int kNumHwKeys = 16;
}  // namespace

LibMpk::LibMpk(kernel::Process &proc, bool huge_pages)
    : proc_(&proc), huge_pages_(huge_pages), hw_owner_(kNumHwKeys, -1)
{
}

int
LibMpk::pkey_alloc(hw::Core &core)
{
    core.charge(hw::CostKind::kSyscall, core.costs().syscall);
    vkeys_.push_back(VKey{});
    vkeys_.back().allocated = true;
    return static_cast<int>(vkeys_.size() - 1);
}

VdomStatus
LibMpk::pkey_mprotect(hw::Core &core, hw::Vpn vpn, std::uint64_t pages,
                      int vkey)
{
    if (vkey < 0 || static_cast<std::size_t>(vkey) >= vkeys_.size())
        return VdomStatus::kInvalidVdom;
    const hw::CostTable &costs = core.costs();
    core.charge(hw::CostKind::kSyscall, costs.syscall + costs.mprotect_base);
    VKey &k = vkeys_[static_cast<std::size_t>(vkey)];
    k.areas.push_back(kernel::VdtArea{vpn, pages, huge_pages_});
    // If the vkey currently holds a hardware key, tag the pages now; else
    // they stay untagged until the key is swapped in.
    kernel::MmStruct &mm = proc_->mm();
    hw::PageTable &pgd = mm.vds0()->pgd();
    hw::PtOps ops;
    if (huge_pages_) {
        for (hw::Vpn base = vpn; base < vpn + pages;
             base += proc_->params().pmd_span_pages) {
            ops += pgd.map_huge(base,
                                k.hw_key >= 0
                                    ? static_cast<hw::Pdom>(k.hw_key)
                                    : proc_->params().default_pdom);
        }
        if (k.hw_key < 0)
            ops += pgd.protect_none_range(vpn, pages);
    } else {
        for (std::uint64_t i = 0; i < pages; ++i) {
            ops += pgd.map_page(vpn + i,
                                k.hw_key >= 0
                                    ? static_cast<hw::Pdom>(k.hw_key)
                                    : proc_->params().default_pdom);
        }
        if (k.hw_key < 0)
            ops += pgd.protect_none_range(vpn, pages);
    }
    mm.charge_pt_ops(core, ops, hw::CostKind::kEviction);
    return VdomStatus::kOk;
}

LibMpk::ThreadState &
LibMpk::thread_state(std::uint32_t tid)
{
    if (tid >= threads_.size())
        threads_.resize(tid + 1);
    return threads_[tid];
}

std::optional<int>
LibMpk::choose_victim() const
{
    std::optional<int> best;
    std::uint64_t best_lru = 0;
    for (int hw = kFirstHwKey; hw < kNumHwKeys; ++hw) {
        int owner = hw_owner_[static_cast<std::size_t>(hw)];
        if (owner < 0)
            continue;
        const VKey &k = vkeys_[static_cast<std::size_t>(owner)];
        if (k.users > 0)
            continue;
        if (!best || k.lru < best_lru) {
            best = owner;
            best_lru = k.lru;
        }
    }
    return best;
}

void
LibMpk::evict(hw::Core &core, VKey &victim)
{
    const hw::CostTable &costs = core.costs();
    kernel::MmStruct &mm = proc_->mm();
    hw::PageTable &pgd = mm.vds0()->pgd();
    ++stats_.evictions;
    // mprotect(PROT_NONE): one syscall + per-PTE disables.
    core.charge(hw::CostKind::kSyscall, costs.syscall + costs.mprotect_base);
    hw::PtOps ops;
    for (const kernel::VdtArea &area : victim.areas)
        ops += pgd.protect_none_range(area.start, area.pages);
    mm.charge_pt_ops(core, ops, hw::CostKind::kEviction);
    // Process-wide shootdown: every core running the process, plus a local
    // flush — libmpk has no CPU-bitmap narrowing (§3.2).
    kernel::ShootdownManager &sd = proc_->shootdown();
    mm.vds0()->bump_tlb_gen();
    std::uint64_t cpus = mm.union_cpu_bitmap();
    sd.shoot(core, cpus, kernel::FlushKind::kAll);
    sd.local_flush(core, kernel::FlushKind::kAll);
    // The shootdown and local flush leave every CPU bitmap unchanged, so
    // one read covers the loop; visit the set bits in ascending order.
    for (std::uint64_t left = cpus | (1ULL << core.id()); left != 0;
         left &= left - 1)
        mm.vds0()->set_core_seen_gen(
            static_cast<std::size_t>(std::countr_zero(left)),
            mm.vds0()->tlb_gen());
    hw_owner_[static_cast<std::size_t>(victim.hw_key)] = -1;
    victim.hw_key = -1;
}

void
LibMpk::install(hw::Core &core, VKey &vkey, int hw_key)
{
    const hw::CostTable &costs = core.costs();
    kernel::MmStruct &mm = proc_->mm();
    hw::PageTable &pgd = mm.vds0()->pgd();
    // mprotect back to RW with the key: one syscall + per-PTE restores.
    core.charge(hw::CostKind::kSyscall, costs.syscall + costs.mprotect_base);
    hw::PtOps ops;
    for (const kernel::VdtArea &area : vkey.areas) {
        ops += pgd.set_pdom_range(area.start, area.pages,
                                  static_cast<hw::Pdom>(hw_key), false);
    }
    mm.charge_pt_ops(core, ops, hw::CostKind::kEviction);
    vkey.hw_key = hw_key;
    hw_owner_[static_cast<std::size_t>(hw_key)] =
        static_cast<int>(&vkey - vkeys_.data());
}

MpkResult
LibMpk::pkey_set(hw::Core &core, kernel::Task &task, int vkey, VPerm perm)
{
    if (vkey < 0 || static_cast<std::size_t>(vkey) >= vkeys_.size())
        return MpkResult::kInvalid;
    const hw::CostTable &costs = core.costs();
    VKey &k = vkeys_[static_cast<std::size_t>(vkey)];
    ++stats_.pkey_sets;

    ThreadState &thread = thread_state(task.tid());
    std::vector<VPerm> &thread_perms = thread.perms;
    auto slot = static_cast<std::size_t>(vkey);
    VPerm old = slot < thread_perms.size() ? thread_perms[slot]
                                           : VPerm::kAccessDisable;

    if (vperm_active(perm) && k.hw_key < 0) {
        // Serialize on libmpk's global metadata lock before touching the
        // key tables; queueing time is busy waiting.
        core.advance_to(meta_lock_free_, hw::CostKind::kBusyWait);
        // Need a hardware key: free one, else evict an idle victim, else
        // busy-wait (charged one spin quantum; the caller retries).
        int free_hw = -1;
        for (int hw = kFirstHwKey; hw < kNumHwKeys; ++hw) {
            if (hw_owner_[static_cast<std::size_t>(hw)] < 0) {
                free_hw = hw;
                break;
            }
        }
        if (free_hw < 0) {
            auto victim = choose_victim();
            if (!victim) {
                std::uint32_t &backoff = thread.backoff;
                if (backoff == 0)
                    backoff = 1;
                core.charge(hw::CostKind::kBusyWait,
                            costs.busy_wait_spin * backoff);
                backoff = std::min<std::uint32_t>(backoff * 2, 512);
                ++stats_.busy_waits;
                return MpkResult::kWouldBlock;
            }
            thread.backoff = 1;
            VKey &v = vkeys_[static_cast<std::size_t>(*victim)];
            free_hw = v.hw_key;
            evict(core, v);
        }
        install(core, k, free_hw);
        meta_lock_free_ = core.now();
    }

    if (vperm_active(perm))
        thread.backoff = 1;
    core.charge(hw::CostKind::kPermReg, costs.pkey_set);
    if (slot >= thread_perms.size())
        thread_perms.resize(slot + 1, VPerm::kAccessDisable);
    thread_perms[slot] = perm;
    if (vperm_active(perm) && !vperm_active(old))
        ++k.users;
    else if (!vperm_active(perm) && vperm_active(old) && k.users > 0)
        --k.users;
    k.lru = ++lru_tick_;
    if (k.hw_key >= 0) {
        core.perm_reg().set(static_cast<hw::Pdom>(k.hw_key),
                            to_hw_perm(perm));
    }
    return MpkResult::kOk;
}

bool
LibMpk::access(hw::Core &core, kernel::Task &task, hw::Vpn vpn, bool write)
{
    (void)task;
    hw::AccessResult res = hw::Mmu::access(core, vpn, write);
    return res.outcome == hw::AccessOutcome::kOk;
}

std::size_t
LibMpk::num_hw_keys_in_use() const
{
    std::size_t n = 0;
    for (int hw = kFirstHwKey; hw < kNumHwKeys; ++hw)
        if (hw_owner_[static_cast<std::size_t>(hw)] >= 0)
            ++n;
    return n;
}

}  // namespace vdom::baselines
