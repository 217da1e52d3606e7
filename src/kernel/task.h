/// \file
/// Thread control block (the paper's extended task_struct, §6.1).

#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "hw/perm_register.h"
#include "kernel/vds.h"
#include "vdom/vdr.h"

namespace vdom::kernel {

/// One thread.
///
/// §6.1: "the per-thread task_struct has two extra fields: a pointer to the
/// VDS the thread stays in and a pointer to the VDR of the thread.  When
/// the thread can efficiently switch between several VDSes (determined by
/// nas in the vdr_alloc API), an array of pointers to VDSes and their
/// corresponding values in the architectural permission register are also
/// recorded."
class Task {
  public:
    /// The permission-register image Process::rebuild_perm_reg last built
    /// for this thread, and what it was built from.  The image is a
    /// function of the VDS's mapped pairs and the VDR's contents, so it is
    /// current exactly when all three stamps still match.
    struct PermImage {
        std::uint64_t ctx_id = 0;  ///< 0: empty (real ctx ids start at 1).
        std::uint64_t map_version = 0;
        std::uint64_t vdr_version = 0;
        hw::PermRegister::Slots slots{};
        std::uint32_t writes = 0;     ///< Mapped pairs, one set() each.
        VdomId first = kInvalidVdom;  ///< First mapped vdom (pdom order).
        VdomId last = kInvalidVdom;   ///< Last mapped vdom.
        VPerm last_perm = VPerm::kAccessDisable;
    };

    explicit Task(std::uint32_t tid) : tid_(tid) {}

    std::uint32_t tid() const { return tid_; }

    Vds *vds() const { return vds_; }
    void set_vds(Vds *vds) { vds_ = vds; }

    /// The thread's VDR; null until vdr_alloc.
    Vdr *vdr() { return has_vdr_ ? &vdr_ : nullptr; }
    const Vdr *vdr() const { return has_vdr_ ? &vdr_ : nullptr; }

    bool has_vdr() const { return has_vdr_; }

    void
    alloc_vdr(std::size_t nas)
    {
        has_vdr_ = true;
        nas_limit_ = nas;
        vdr_.clear();
    }

    void
    free_vdr()
    {
        has_vdr_ = false;
        vdr_.clear();
        owned_.clear();
        ref_home_.clear();
    }

    /// Cached permission-register image (Process::rebuild_perm_reg).
    PermImage &perm_image() { return perm_image_; }

    /// Maximum address spaces the thread may efficiently own (vdr_alloc's
    /// nas argument).
    std::size_t nas_limit() const { return nas_limit_; }

    /// VDSes the thread can efficiently switch between (§6.1).  The
    /// virtualization algorithm "does not generate fixed maps between
    /// vdoms and pdoms" (§7.1), so the permission-register image for a VDS
    /// can change while the thread is away.  The thread's one cached image
    /// (perm_image()) is keyed on the VDS's ctx_id and map_version and on
    /// the VDR's version: every map change and every VDR write bumps a
    /// stamp, neither object can be copied behind those stamps, and a
    /// process never frees a VDS, so a matching key means an unchanged
    /// image.
    std::vector<Vds *> &owned_vdses() { return owned_; }
    const std::vector<Vds *> &owned_vdses() const { return owned_; }

    bool
    owns(const Vds *vds) const
    {
        for (const Vds *o : owned_)
            if (o == vds)
                return true;
        return false;
    }

    /// Records ownership (bounded by nas; oldest entry is replaced).
    void
    add_owned(Vds *vds)
    {
        if (owns(vds))
            return;
        if (owned_.size() >= nas_limit_ && !owned_.empty())
            owned_.erase(owned_.begin());
        owned_.push_back(vds);
    }

    /// §6.3: VDom binds each running thread to a particular core so the
    /// call gate can find the VDR through the per-core sharing page.
    std::size_t bound_core() const { return bound_core_; }
    void bind_core(std::size_t core) { bound_core_ = core; }

    // --- active-reference homes -------------------------------------------
    //
    // Fig. 3's per-VDS "#thread" counts must be decremented on the VDS
    // that holds the reference, which is the one where the vdom was
    // granted — not necessarily the thread's VDS at revocation time.

    /// The VDS currently holding this thread's reference on \p vdom.
    /// Sorted flat vector, same idiom as the VDR: a thread's active set is
    /// small, and this probe is on the wrvdr fast path.
    Vds *
    ref_home(VdomId vdom) const
    {
        auto it = ref_home_lower(vdom);
        return (it != ref_home_.end() && it->first == vdom) ? it->second
                                                            : nullptr;
    }

    void
    set_ref_home(VdomId vdom, Vds *vds)
    {
        auto it = ref_home_lower(vdom);
        if (it != ref_home_.end() && it->first == vdom)
            it->second = vds;
        else
            ref_home_.insert(it, {vdom, vds});
    }

    void
    clear_ref_home(VdomId vdom)
    {
        auto it = ref_home_lower(vdom);
        if (it != ref_home_.end() && it->first == vdom)
            ref_home_.erase(it);
    }

    /// Iterates (vdom, home VDS) pairs in vdom order (vdr_free cleanup).
    template <typename Fn>
    void
    for_each_ref_home(Fn &&fn) const
    {
        for (const auto &[vdomid, vds] : ref_home_)
            fn(vdomid, vds);
    }

    /// Convenience predicate: the thread participates in VDom.
    bool uses_vdom() const { return has_vdr_; }

  private:
    std::vector<std::pair<VdomId, Vds *>>::iterator
    ref_home_lower(VdomId vdom)
    {
        return std::lower_bound(
            ref_home_.begin(), ref_home_.end(), vdom,
            [](const std::pair<VdomId, Vds *> &e, VdomId v) {
                return e.first < v;
            });
    }

    std::vector<std::pair<VdomId, Vds *>>::const_iterator
    ref_home_lower(VdomId vdom) const
    {
        return std::lower_bound(
            ref_home_.begin(), ref_home_.end(), vdom,
            [](const std::pair<VdomId, Vds *> &e, VdomId v) {
                return e.first < v;
            });
    }

    std::uint32_t tid_;
    Vds *vds_ = nullptr;
    bool has_vdr_ = false;
    Vdr vdr_;
    std::size_t nas_limit_ = 1;
    std::vector<Vds *> owned_;
    std::vector<std::pair<VdomId, Vds *>> ref_home_;  ///< Sorted by vdom.
    std::size_t bound_core_ = 0;
    PermImage perm_image_;
};

}  // namespace vdom::kernel
