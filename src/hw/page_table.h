/// \file
/// Domain-tagged hierarchical page-table model.
///
/// Each VDS owns one of these (its private pgd); the kernel additionally
/// keeps a shadow instance as the master copy of the process layout (§6.2).
/// The model keeps two levels explicit: PTEs (one per 4KB page) and PMDs
/// (one per 2MB span).  That is enough to express the paper's §5.5
/// optimization: evicting a vdom whose pages cover whole 2MB spans disables
/// the PMD in O(1) instead of rewriting 512 PTEs, and huge-page mappings
/// (used by the libmpk 2MB-page baseline in Fig. 7) are single PMD entries.
///
/// A PMD span is one leaf, and a leaf is one zeroed allocation: the PMD
/// entry followed by its PTEs as three byte planes (present, PROT_NONE,
/// pdom tag).  Range mutators combine the planes with masks instead of
/// branching per PTE, so the compiler vectorises them.
///
/// The hardware layer is cost-agnostic: every mutator returns the number of
/// PTE/PMD writes it performed so the caller can charge cycles from the
/// architecture's CostTable.

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <unordered_map>
#include <vector>

#include "hw/arch.h"

namespace vdom::hw {

/// Counts of entry writes performed by a page-table mutation.
struct PtOps {
    std::uint64_t pte_writes = 0;
    std::uint64_t pmd_writes = 0;

    PtOps &
    operator+=(const PtOps &other)
    {
        pte_writes += other.pte_writes;
        pmd_writes += other.pmd_writes;
        return *this;
    }
};

/// Result of a hardware translation through one page table.
struct Translation {
    bool present = false;   ///< False: page fault (not mapped or PMD off).
    bool pmd_disabled = false;  ///< True when the miss came from a disabled
                                ///  PMD (evicted large region, §5.5).
    bool prot_none = false;  ///< Miss came from a PROT_NONE page.
    bool huge = false;       ///< Mapped by a 2MB PMD entry.
    Pdom pdom = 0;           ///< Domain tag checked against PKRU/DACR.
};

/// A single address space's page table (one pgd).
class PageTable {
  public:
    /// \param pmd_span_pages pages covered by one PMD entry (512 for 2MB);
    ///        must be a power of two (throws std::invalid_argument), so
    ///        the PMD index is a shift and the PTE offset a mask.
    /// \param access_never pdom used to neutralize stale sibling PTEs when
    ///        a disabled PMD span must be partially re-enabled.
    explicit PageTable(std::size_t pmd_span_pages = 512,
                       Pdom access_never = 1);

    /// Translates \p vpn.  Never mutates; no cost implied (the TLB model
    /// charges walk cycles).  Inline: every TLB miss and fault lands here.
    Translation translate(Vpn vpn) const;

    /// Maps one 4KB page with domain tag \p pdom.  Inline when the span
    /// is already a PTE table; otherwise map_page_slow() creates the leaf
    /// or re-enables a huge/disabled PMD.
    PtOps map_page(Vpn vpn, Pdom pdom);

    /// Maps, with tag \p pdom, every page of [vpn, vpn+count) that is
    /// present in \p source and not present here, walking a leaf at a
    /// time.  Stops at the first page that is present here or lies under
    /// a disabled PMD, and returns it (vpn+count when there is none).
    /// Adds the writes to \p ops.  Same effect as a per-page loop of
    /// translate() on both tables and map_page() here.  \p source must be
    /// another table with the same PMD span.
    Vpn map_missing_from(const PageTable &source, Vpn vpn,
                         std::uint64_t count, Pdom pdom, PtOps &ops);

    /// Demand-pages [vpn, vpn+count) in address order.  For each page not
    /// present here: maps it in \p shadow with \p shadow_pdom when it is
    /// not present there either, calls \p on_shadow(vpn, filled,
    /// shadow_ops), then maps it here with \p pdom and calls \p on_map(ops).
    /// The callbacks run between the writes exactly where a per-page
    /// fault handler charges them, so one that throws leaves the tables
    /// as that handler would.  Same effect and per-page PtOps as
    /// translate() and map_page() on both tables, but each leaf is looked
    /// up once per span.  Both tables must share the PMD span.
    template <class OnShadow, class OnMap>
    void demand_map(PageTable &shadow, Vpn vpn, std::uint64_t count,
                    Pdom shadow_pdom, Pdom pdom, OnShadow &&on_shadow,
                    OnMap &&on_map);

    /// Unmaps one 4KB page.
    PtOps unmap_page(Vpn vpn);

    /// Removes the huge (or disabled-was-huge) PMD entry covering \p vpn.
    /// No-op when the span is a normal PTE table.
    PtOps unmap_huge(Vpn vpn);

    /// Maps a 2MB span as a single huge entry tagged \p pdom.
    /// \p vpn must be PMD-aligned.
    PtOps map_huge(Vpn vpn, Pdom pdom);

    /// Retags [vpn, vpn+count) with \p pdom.
    ///
    /// When \p allow_pmd_fast_path is set and a whole PMD span is disabled
    /// or uniformly mapped, the retag costs one PMD write for that span
    /// (the "remap a large domain to the same pdom" HLRU optimization).
    PtOps set_pdom_range(Vpn vpn, std::uint64_t count, Pdom pdom,
                         bool allow_pmd_fast_path);

    /// Disables [vpn, vpn+count): future accesses fault.
    ///
    /// Per the paper, evicted pages are retagged with the predefined
    /// access-never pdom (\p access_never), so a later remap only rewrites
    /// domain tags.  With \p allow_pmd_fast_path, spans of continuous
    /// non-huge pages that cover a full PMD are disabled by one PMD write
    /// instead (§5.5); the prior pdom is remembered for the HLRU
    /// remap-to-same-pdom optimization.
    PtOps disable_range(Vpn vpn, std::uint64_t count, Pdom access_never,
                        bool allow_pmd_fast_path);

    /// mprotect(PROT_NONE) over [vpn, vpn+count): present pages fault until
    /// a later set_pdom_range restores them.  Per-PTE (no §5.5 fast path —
    /// this is the baseline mechanism); huge mappings disable their PMD.
    PtOps protect_none_range(Vpn vpn, std::uint64_t count);

    /// Returns the number of present 4KB-equivalent pages (huge counts as
    /// pmd_span).  Debug/test helper.
    std::uint64_t present_pages() const;

    std::size_t pmd_span_pages() const { return pmd_span_; }

    /// PMD-span index containing \p vpn.
    Vpn pmd_index(Vpn vpn) const { return vpn >> pmd_shift_; }

  private:
    enum class PmdKind : std::uint8_t {
        kTable,     ///< Points to a PTE table (the leaf's flat PTE block).
        kDisabled,  ///< §5.5: whole span faults; saved pdom for remap.
        kHuge,      ///< 2MB mapping with a single domain tag.
    };

    /// One radix leaf, one zeroed allocation: this PMD header, then the
    /// span's PTEs as three planes of pmd_span bytes each, like a real
    /// PTE page hanging off its PMD entry:
    ///
    ///     [header][present 0/1 ...][PROT_NONE 0/1 ...][pdom tag ...]
    ///
    /// An absent PTE is zero in all three planes, and PROT_NONE is set
    /// only on present PTEs (mprotect(PROT_NONE): faults until restored,
    /// the libmpk eviction mechanism, §3.2).  Range loops select with a
    /// mask built from the present byte instead of branching per PTE, so
    /// they run as SIMD over 16 PTEs at a time and cannot mispredict on a
    /// span of mixed PTEs.  Each counts its writes in a local stored once:
    /// the plane stores are byte stores, which may alias the header (and
    /// any counter reached through memory), so a per-PTE increment of a
    /// leaf field would cost a load and a store per PTE and block the
    /// vectorisation.
    struct Leaf {
        PmdKind kind = PmdKind::kTable;
        Pdom pdom = 0;           ///< For kHuge; for kDisabled: prior pdom.
        bool was_huge = false;   ///< Disabled entry had a huge backing.
        std::uint32_t present = 0;  ///< Present PTEs under this PMD
                                    ///  (exact; present_pages() sums it).

        /// The present plane; PROT_NONE and pdom follow at +span, +2*span.
        std::uint8_t *
        planes()
        {
            return reinterpret_cast<std::uint8_t *>(this) + sizeof(Leaf);
        }
        const std::uint8_t *
        planes() const
        {
            return reinterpret_cast<const std::uint8_t *>(this) +
                   sizeof(Leaf);
        }
    };

    /// Frees a leaf's block (the header is trivially destructible).
    struct LeafFree {
        void operator()(Leaf *leaf) const { std::free(leaf); }
    };
    using LeafPtr = std::unique_ptr<Leaf, LeafFree>;

    /// PMD indices below this use the dense directory (a flat pointer
    /// array — mmap allocates VPNs bottom-up, so real address spaces land
    /// here); pathological sparse indices overflow into a hash map.
    static constexpr Vpn kDenseLimit = Vpn{1} << 16;

    /// Leaf covering PMD index \p idx, or nullptr.
    Leaf *
    leaf_at(Vpn idx) const
    {
        if (idx < dense_.size())
            return dense_[idx].get();
        if (idx < kDenseLimit)
            return nullptr;
        auto it = sparse_.find(idx);
        return it == sparse_.end() ? nullptr : it->second.get();
    }

    /// A fresh leaf: one zeroed block, an empty PTE table.
    LeafPtr new_leaf() const;

    /// Leaf covering PMD index \p idx, created on demand.
    Leaf &leaf_grow(Vpn idx);

    /// Present and not PROT_NONE: what translate() reports as present
    /// for PTE \p off under a table PMD of span \p span.  The walks test
    /// a leaf's kind once per span, not per page: PTE writes are byte
    /// stores, which may alias the kind, so the compiler would reload it
    /// after each one.
    static bool
    pte_live(const Leaf &leaf, std::size_t span, Vpn off)
    {
        const std::uint8_t *pl = leaf.planes();
        return (pl[off] & ~pl[span + off]) != 0;
    }

    /// Writes PTE \p off of \p leaf as present with tag \p pdom (one
    /// PTE write; PROT_NONE is left as it was).
    static void
    install_pte(Leaf &leaf, std::size_t span, Vpn off, Pdom pdom)
    {
        std::uint8_t *pl = leaf.planes();
        leaf.present += 1u - pl[off];
        pl[off] = 1;
        pl[2 * span + off] = pdom;
    }

    /// map_page() when the span has no leaf or is not a PTE table.
    PtOps map_page_slow(Vpn vpn, Pdom pdom);

    /// Drops the leaf at \p idx entirely (PMD entry + PTE planes).
    void leaf_drop(Vpn idx);

    /// True when every page in [base, base+span) is present, same pdom,
    /// and the span exactly covers the PMD.
    bool span_uniform(const Leaf *leaf, Pdom *pdom_out) const;

    std::size_t pmd_span_;
    unsigned pmd_shift_;  ///< log2(pmd_span_).
    Vpn pmd_mask_;        ///< pmd_span_ - 1: a page's offset in its span.
    Pdom access_never_;
    std::vector<LeafPtr> dense_;
    std::unordered_map<Vpn, LeafPtr> sparse_;
};

inline Translation
PageTable::translate(Vpn vpn) const
{
    Translation t;
    const Leaf *leaf = leaf_at(pmd_index(vpn));
    if (!leaf)
        return t;
    if (leaf->kind == PmdKind::kDisabled) {
        t.pmd_disabled = true;
        return t;
    }
    if (leaf->kind == PmdKind::kHuge) {
        t.present = true;
        t.huge = true;
        t.pdom = leaf->pdom;
        return t;
    }
    const std::uint8_t *pl = leaf->planes() + (vpn & pmd_mask_);
    if (!pl[0])
        return t;
    if (pl[pmd_span_]) {
        t.prot_none = true;
        return t;
    }
    t.present = true;
    t.pdom = pl[2 * pmd_span_];
    return t;
}

inline PtOps
PageTable::map_page(Vpn vpn, Pdom pdom)
{
    Leaf *leaf = leaf_at(pmd_index(vpn));
    if (!leaf || leaf->kind != PmdKind::kTable)
        return map_page_slow(vpn, pdom);
    install_pte(*leaf, pmd_span_, vpn & pmd_mask_, pdom);
    PtOps ops;
    ops.pte_writes = 1;
    return ops;
}

template <class OnShadow, class OnMap>
void
PageTable::demand_map(PageTable &shadow, Vpn vpn, std::uint64_t count,
                      Pdom shadow_pdom, Pdom pdom, OnShadow &&on_shadow,
                      OnMap &&on_map)
{
    Vpn v = vpn;
    Vpn end = vpn + count;
    while (v < end) {
        Vpn idx = pmd_index(v);
        Vpn chunk_end = std::min(end, (idx + 1) << pmd_shift_);
        Leaf *leaf = leaf_at(idx);
        Leaf *sleaf = shadow.leaf_at(idx);
        if ((leaf && leaf->kind != PmdKind::kTable) ||
            (sleaf && sleaf->kind != PmdKind::kTable)) {
            // A huge or disabled PMD on either side: go page by page
            // through the general paths, which re-enable or skip the span
            // exactly as one fault per page would.
            for (; v < chunk_end; ++v) {
                if (translate(v).present)
                    continue;
                PtOps shadow_ops;
                bool filled = !shadow.translate(v).present;
                if (filled)
                    shadow_ops = shadow.map_page(v, shadow_pdom);
                on_shadow(v, filled, shadow_ops);
                on_map(map_page(v, pdom));
            }
            continue;
        }
        PtOps one_pte;
        one_pte.pte_writes = 1;
        const std::size_t span = pmd_span_;
        for (; v < chunk_end; ++v) {
            Vpn off = v & pmd_mask_;
            if (leaf && pte_live(*leaf, span, off))
                continue;
            bool filled = !(sleaf && pte_live(*sleaf, span, off));
            if (filled) {
                if (!sleaf)
                    sleaf = &shadow.leaf_grow(idx);
                install_pte(*sleaf, span, off, shadow_pdom);
            }
            on_shadow(v, filled, filled ? one_pte : PtOps{});
            if (!leaf)
                leaf = &leaf_grow(idx);
            install_pte(*leaf, span, off, pdom);
            on_map(one_pte);
        }
    }
}

}  // namespace vdom::hw
