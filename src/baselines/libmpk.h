/// \file
/// libmpk baseline (Park et al., ATC'19), ported per the paper's §7.4.
///
/// libmpk virtualizes the 15 usable protection keys of one address space.
/// When a virtual key without a hardware key is activated it evicts a
/// victim: the victim's pages are disabled with mprotect(PROT_NONE)
/// (per-PTE updates, no PMD fast path) and a process-wide TLB shootdown is
/// broadcast to every core running the process.  If every hardware key is
/// held by other threads, the caller must busy-wait for a release — the
/// two behaviours behind Figure 1's breakdown (§3.2).
///
/// The paper's port fixes libmpk's multi-threading (per-thread permission
/// view, no data races) without changing the key logic; this model does the
/// same: permissions are per-thread, metadata is shared.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hw/arch.h"
#include "hw/core.h"
#include "kernel/process.h"
#include "kernel/task.h"
#include "vdom/types.h"

namespace vdom::baselines {

/// Result of a pkey activation attempt.
enum class MpkResult : std::uint8_t {
    kOk,
    kWouldBlock,  ///< All hardware keys in use by other threads: the caller
                  ///  must spin and retry (cycles already charged).
    kInvalid,
};

/// The libmpk library instance for one process.
class LibMpk {
  public:
    /// \param huge_pages protect regions with 2MB mappings (Fig. 7's
    ///        "libmpk 2MB huge pages" variant).
    explicit LibMpk(kernel::Process &proc, bool huge_pages = false);

    /// Allocates a virtual protection key.
    int pkey_alloc(hw::Core &core);

    /// Binds [vpn, vpn+pages) to \p vkey.
    VdomStatus pkey_mprotect(hw::Core &core, hw::Vpn vpn,
                             std::uint64_t pages, int vkey);

    /// Sets the calling thread's permission on \p vkey.
    ///
    /// Granting FA/WD requires \p vkey to hold a hardware key: a free one
    /// is claimed, else an idle victim is evicted (mprotect storm +
    /// process-wide shootdown), else kWouldBlock after one spin quantum.
    MpkResult pkey_set(hw::Core &core, kernel::Task &task, int vkey,
                       VPerm perm);

    /// One application access to \p vpn (charges the TLB/walk path and
    /// verifies the protection state).
    bool access(hw::Core &core, kernel::Task &task, hw::Vpn vpn, bool write);

    /// Statistics for the Figure 1 breakdown.
    struct Stats {
        std::uint64_t evictions = 0;
        std::uint64_t busy_waits = 0;  ///< Spin quanta charged.
        std::uint64_t pkey_sets = 0;
    };
    const Stats &stats() const { return stats_; }

    std::size_t num_hw_keys_in_use() const;

  private:
    struct VKey {
        bool allocated = false;
        int hw_key = -1;  ///< -1 while evicted.
        std::uint32_t users = 0;  ///< Threads holding FA/WD.
        std::uint64_t lru = 0;
        std::vector<kernel::VdtArea> areas;
    };

    /// Evicts \p vkey: PROT_NONE its pages + process-wide shootdown.
    void evict(hw::Core &core, VKey &victim);

    /// Installs \p vkey on hardware key \p hw_key: mprotect restore.
    void install(hw::Core &core, VKey &vkey, int hw_key);

    /// Picks an idle mapped victim (LRU), or nullopt if all are in use.
    std::optional<int> choose_victim() const;

    kernel::Process *proc_;
    bool huge_pages_;
    std::vector<VKey> vkeys_;          ///< Indexed by virtual key id.
    std::vector<int> hw_owner_;        ///< hw key -> vkey id (-1 free).
    /// One thread's libmpk state.
    struct ThreadState {
        /// Permission view indexed by vkey (the paper's multi-threading
        /// fix); keys past the end are kAccessDisable.
        std::vector<VPerm> perms;
        /// Spin backoff multiplier: consecutive failed waits back off
        /// exponentially (standard spinlock etiquette; also keeps the
        /// simulation's step count bounded in the >14-thread thrash
        /// regime).
        std::uint32_t backoff = 0;
    };

    /// State of thread \p tid, created on first use.
    ThreadState &thread_state(std::uint32_t tid);

    /// Indexed by tid: tids are dense from 1 within a process.
    std::vector<ThreadState> threads_;
    /// Global metadata lock: libmpk's eviction/installation path is one
    /// critical section (the paper's port fixes the races, not the
    /// serialization), so concurrent evictors queue behind each other.
    hw::Cycles meta_lock_free_ = 0;
    std::uint64_t lru_tick_ = 0;
    Stats stats_;
};

}  // namespace vdom::baselines
