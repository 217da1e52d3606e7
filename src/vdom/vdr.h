/// \file
/// Virtual Domain Register: the per-thread virtualized permission register
/// (§5.2).
///
/// "VDom introduces a per-thread array called virtual domain register (VDR),
/// every 2 bits of which represents the access right to memory protected by
/// the corresponding vdom."  Unlike the 16-slot hardware register, the VDR
/// is indexed by *vdom* and therefore unlimited.  On Intel the array lives
/// in pdom1-protected pages and is only touched inside the call gate (§6.3).

#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"
#include "vdom/types.h"

namespace vdom {

/// Per-thread virtual permission array.
///
/// Stored as a sorted small-vector flat map: threads hold permissions on a
/// handful of vdoms (their active set), so a binary search over a
/// contiguous array beats a red-black tree on every wrvdr/rdvdr, and
/// iteration stays deterministic lowest-id-first.  A one-entry memo in
/// front of the search makes the wrvdr fast path (re-checking the vdom the
/// thread just touched) a single compare.
///
/// version() changes on every set() and clear(), so a value derived from
/// the contents (Process::rebuild_perm_reg's cached register image) can be
/// keyed on it.  Copying would carry a version over to another object's
/// history, so a Vdr is not copyable.
class Vdr {
  public:
    Vdr() = default;
    Vdr(const Vdr &) = delete;
    Vdr &operator=(const Vdr &) = delete;

    /// Reads the thread's permission on \p vdom (default: access disable,
    /// except full access on the common vdom0).
    VPerm
    get(VdomId vdom) const
    {
        if (vdom == kCommonVdom)
            return VPerm::kFullAccess;
        if (vdom == memo_vdom_) {
            telemetry::metric_add(telemetry::Metric::kVdrMemoHit);
            return memo_perm_;
        }
        auto it = lower_bound(vdom);
        VPerm perm = (it != perms_.end() && it->first == vdom)
            ? it->second
            : VPerm::kAccessDisable;
        memo_vdom_ = vdom;
        memo_perm_ = perm;
        return perm;
    }

    /// Writes the thread's permission on \p vdom; returns the old value.
    VPerm
    set(VdomId vdom, VPerm perm)
    {
        ++version_;
        VPerm old;
        auto it = lower_bound(vdom);
        bool found = it != perms_.end() && it->first == vdom;
        if (vdom == kCommonVdom)
            old = VPerm::kFullAccess;
        else
            old = found ? it->second : VPerm::kAccessDisable;
        if (perm == VPerm::kAccessDisable) {
            if (found)
                perms_.erase(it);
        } else if (found) {
            it->second = perm;
        } else {
            perms_.insert(it, {vdom, perm});
        }
        if (vdom != kCommonVdom) {
            memo_vdom_ = vdom;
            memo_perm_ = perm;
        }
        if (vperm_active(old) && !vperm_active(perm))
            --active_count_;
        else if (!vperm_active(old) && vperm_active(perm))
            ++active_count_;
        return old;
    }

    /// Number of vdoms the thread currently holds FA/WD on (its "active
    /// set" — what must stay simultaneously mapped, Fig. 3).
    std::size_t active_count() const { return active_count_; }

    /// Iterates the thread's active vdoms (FA/WD).
    template <typename Fn>
    void
    for_each_active(Fn &&fn) const
    {
        for (const auto &[vdomid, perm] : perms_) {
            if (vperm_active(perm))
                fn(vdomid, perm);
        }
    }

    /// Iterates every non-default entry (including pinned).
    template <typename Fn>
    void
    for_each(Fn &&fn) const
    {
        for (const auto &[vdomid, perm] : perms_)
            fn(vdomid, perm);
    }

    /// Drops every entry (vdr_free).
    void
    clear()
    {
        ++version_;
        perms_.clear();
        active_count_ = 0;
        memo_vdom_ = kInvalidVdom;
        memo_perm_ = VPerm::kAccessDisable;
    }

    /// Bumped by every set() and clear(); never repeats for one Vdr.
    std::uint64_t version() const { return version_; }

    /// Applies to the memo what get() does over a pdom-ordered walk of
    /// distinct non-common vdoms that starts at \p first and ends at
    /// \p last, with permission \p last_perm: the first get
    /// hits when it asks for the memoised vdom, and every later one misses
    /// and re-memoises.  (When the walk has one vdom and it hits, the get
    /// leaves the memo as is; so does re-memoising it, because the memo
    /// always holds its vdom's current permission.)  A cached rebuild
    /// calls this in place of the gets.
    void
    replay_walk(VdomId first, VdomId last, VPerm last_perm) const
    {
        if (first == memo_vdom_)
            telemetry::metric_add(telemetry::Metric::kVdrMemoHit);
        memo_vdom_ = last;
        memo_perm_ = last_perm;
    }

    /// The memo (tests compare cached and from-scratch rebuilds).
    VdomId memo_vdom() const { return memo_vdom_; }
    VPerm memo_perm() const { return memo_perm_; }

  private:
    std::vector<std::pair<VdomId, VPerm>>::const_iterator
    lower_bound(VdomId vdom) const
    {
        return std::lower_bound(
            perms_.begin(), perms_.end(), vdom,
            [](const std::pair<VdomId, VPerm> &e, VdomId v) {
                return e.first < v;
            });
    }

    std::vector<std::pair<VdomId, VPerm>>::iterator
    lower_bound(VdomId vdom)
    {
        return std::lower_bound(
            perms_.begin(), perms_.end(), vdom,
            [](const std::pair<VdomId, VPerm> &e, VdomId v) {
                return e.first < v;
            });
    }

    /// Sorted by vdom id so iteration (migration mapping order, Fig. 3) is
    /// deterministic and lowest-id-first.
    std::vector<std::pair<VdomId, VPerm>> perms_;
    std::size_t active_count_ = 0;
    std::uint64_t version_ = 0;

    /// Last-translation memo.  kInvalidVdom never collides with a real
    /// query in a correctness-relevant way: get(kInvalidVdom) returns
    /// kAccessDisable with or without the memo.
    mutable VdomId memo_vdom_ = kInvalidVdom;
    mutable VPerm memo_perm_ = VPerm::kAccessDisable;
};

}  // namespace vdom
