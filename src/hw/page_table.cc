/// \file
/// Domain-tagged page-table model implementation (two-level radix: a dense
/// PMD directory of leaves, each leaf a flat PTE block).

#include "hw/page_table.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace vdom::hw {

PageTable::PageTable(std::size_t pmd_span_pages, Pdom access_never)
    : pmd_span_(pmd_span_pages),
      pmd_shift_(static_cast<unsigned>(std::countr_zero(pmd_span_pages))),
      pmd_mask_(pmd_span_pages - 1),
      access_never_(access_never)
{
    if (!std::has_single_bit(pmd_span_pages))
        throw std::invalid_argument(
            "PageTable: PMD span must be a power of two");
}

PageTable::Leaf &
PageTable::leaf_grow(Vpn idx)
{
    if (idx < kDenseLimit) {
        if (idx >= dense_.size()) {
            std::size_t grown =
                std::max<std::size_t>(idx + 1, dense_.size() * 2);
            dense_.resize(std::min<std::size_t>(grown, kDenseLimit));
        }
        if (!dense_[idx])
            dense_[idx] = std::make_unique<Leaf>(pmd_span_);
        return *dense_[idx];
    }
    auto &slot = sparse_[idx];
    if (!slot)
        slot = std::make_unique<Leaf>(pmd_span_);
    return *slot;
}

void
PageTable::leaf_drop(Vpn idx)
{
    if (idx < dense_.size())
        dense_[idx].reset();
    else if (idx >= kDenseLimit)
        sparse_.erase(idx);
}

PtOps
PageTable::protect_none_range(Vpn vpn, std::uint64_t count)
{
    PtOps ops;
    Vpn v = vpn;
    Vpn end = vpn + count;
    while (v < end) {
        Vpn idx = pmd_index(v);
        Vpn span_start = idx << pmd_shift_;
        Vpn span_end = span_start + pmd_span_;
        Leaf *leaf = leaf_at(idx);
        if (leaf && leaf->kind == PmdKind::kHuge && v == span_start &&
            end >= span_end) {
            leaf->kind = PmdKind::kDisabled;
            leaf->was_huge = true;
            ++ops.pmd_writes;
            v = span_end;
            continue;
        }
        Vpn chunk_end = std::min(end, span_end);
        if (leaf) {
            for (; v < chunk_end; ++v) {
                Pte &pte = leaf->ptes[v - span_start];
                if (pte.present && !pte.prot_none) {
                    pte.prot_none = true;
                    ++ops.pte_writes;
                }
            }
        } else {
            v = chunk_end;
        }
    }
    return ops;
}

PtOps
PageTable::map_page_slow(Vpn vpn, Pdom pdom)
{
    PtOps ops;
    Vpn idx = pmd_index(vpn);
    Leaf &leaf = leaf_grow(idx);
    if (leaf.kind != PmdKind::kTable) {
        // Re-enable the span as a PTE table before installing the page.
        // Sibling PTEs under a disabled PMD still carry their pre-eviction
        // tags; neutralize them so re-enabling one page cannot resurrect
        // the whole evicted span.
        if (leaf.kind == PmdKind::kDisabled) {
            Vpn target = vpn & pmd_mask_;
            for (Vpn off = 0; off < pmd_span_; ++off) {
                Pte &pte = leaf.ptes[off];
                if (pte.present && off != target) {
                    pte.pdom = access_never_;
                    ++ops.pte_writes;
                }
            }
        }
        leaf.kind = PmdKind::kTable;
        leaf.was_huge = false;
        ++ops.pmd_writes;
    }
    install_pte(leaf, vpn & pmd_mask_, pdom);
    ++ops.pte_writes;
    return ops;
}

Vpn
PageTable::map_missing_from(const PageTable &source, Vpn vpn,
                            std::uint64_t count, Pdom pdom, PtOps &ops)
{
    Vpn v = vpn;
    Vpn end = vpn + count;
    while (v < end) {
        Vpn idx = pmd_index(v);
        Vpn chunk_end = std::min(end, (idx + 1) << pmd_shift_);
        Leaf *leaf = leaf_at(idx);
        // A huge PMD translates as present and a disabled one as
        // pmd_disabled, for every page of the span.
        if (leaf && leaf->kind != PmdKind::kTable)
            return v;
        // The source has every page of a huge span, none of a disabled
        // one, and the live PTEs of a table.
        const Leaf *src = source.leaf_at(idx);
        bool src_all = src && src->kind == PmdKind::kHuge;
        const Leaf *src_table =
            src && src->kind == PmdKind::kTable ? src : nullptr;
        for (; v < chunk_end; ++v) {
            Vpn off = v & pmd_mask_;
            if (leaf && pte_live(leaf->ptes[off]))
                return v;
            if (!src_all && !(src_table && pte_live(src_table->ptes[off])))
                continue;
            if (!leaf)
                leaf = &leaf_grow(idx);
            install_pte(*leaf, off, pdom);
            ++ops.pte_writes;
        }
    }
    return end;
}

PtOps
PageTable::unmap_page(Vpn vpn)
{
    PtOps ops;
    Vpn idx = pmd_index(vpn);
    Leaf *leaf = leaf_at(idx);
    if (!leaf || leaf->kind == PmdKind::kHuge)
        return ops;
    Pte &pte = leaf->ptes[vpn & pmd_mask_];
    if (!pte.present)
        return ops;
    pte = Pte{};
    ++ops.pte_writes;
    if (leaf->present > 0)
        --leaf->present;
    return ops;
}

PtOps
PageTable::unmap_huge(Vpn vpn)
{
    PtOps ops;
    Vpn idx = pmd_index(vpn);
    Leaf *leaf = leaf_at(idx);
    if (!leaf)
        return ops;
    if (leaf->kind == PmdKind::kHuge ||
        (leaf->kind == PmdKind::kDisabled && leaf->was_huge)) {
        leaf_drop(idx);
        ++ops.pmd_writes;
    }
    return ops;
}

PtOps
PageTable::map_huge(Vpn vpn, Pdom pdom)
{
    PtOps ops;
    Leaf &leaf = leaf_grow(pmd_index(vpn));
    leaf.kind = PmdKind::kHuge;
    leaf.pdom = pdom;
    leaf.present = 0;
    ++ops.pmd_writes;
    // Drop any stale PTEs shadowed by the huge entry.
    std::fill(leaf.ptes.begin(), leaf.ptes.end(), Pte{});
    return ops;
}

bool
PageTable::span_uniform(const Leaf *leaf, Pdom *pdom_out) const
{
    if (!leaf || leaf->kind != PmdKind::kTable ||
        leaf->present != pmd_span_) {
        return false;
    }
    Pdom pdom = leaf->ptes[0].pdom;
    for (const Pte &pte : leaf->ptes) {
        if (!pte.present || pte.prot_none || pte.pdom != pdom)
            return false;
    }
    if (pdom_out)
        *pdom_out = pdom;
    return true;
}

PtOps
PageTable::set_pdom_range(Vpn vpn, std::uint64_t count, Pdom pdom,
                          bool allow_pmd_fast_path)
{
    PtOps ops;
    Vpn v = vpn;
    Vpn end = vpn + count;
    while (v < end) {
        Vpn idx = pmd_index(v);
        Vpn span_start = idx << pmd_shift_;
        Vpn span_end = span_start + pmd_span_;
        bool covers_span = (v == span_start && end >= span_end);
        Leaf *leaf = leaf_at(idx);
        if (covers_span && leaf) {
            if (leaf->kind == PmdKind::kHuge) {
                leaf->pdom = pdom;
                ++ops.pmd_writes;
                v = span_end;
                continue;
            }
            if (leaf->kind == PmdKind::kDisabled) {
                if (leaf->was_huge) {
                    // Restore the huge mapping with the new tag: the PMD is
                    // the only entry either way.
                    leaf->kind = PmdKind::kHuge;
                    leaf->pdom = pdom;
                    leaf->was_huge = false;
                    ++ops.pmd_writes;
                    v = span_end;
                    continue;
                }
                if (allow_pmd_fast_path && leaf->pdom == pdom) {
                    // §5.5 HLRU remap: the vdom returns to the same pdom it
                    // last occupied, so the (uniform) PTE tags below the
                    // disabled PMD are still valid; one PMD write restores
                    // the whole span without touching 512 PTEs.
                    leaf->kind = PmdKind::kTable;
                    ++ops.pmd_writes;
                    v = span_end;
                    continue;
                }
                // Different pdom: re-enable the span and pay per-PTE retags.
                leaf->kind = PmdKind::kTable;
                ++ops.pmd_writes;
                for (Pte &pte : leaf->ptes) {
                    if (pte.present) {
                        pte.pdom = pdom;
                        pte.prot_none = false;
                        ++ops.pte_writes;
                    }
                }
                v = span_end;
                continue;
            }
        }
        Vpn chunk_end = std::min(end, span_end);
        if (leaf && leaf->kind == PmdKind::kTable) {
            for (; v < chunk_end; ++v) {
                Pte &pte = leaf->ptes[v - span_start];
                if (pte.present) {
                    pte.pdom = pdom;
                    pte.prot_none = false;
                    ++ops.pte_writes;
                }
            }
        } else {
            v = chunk_end;
        }
    }
    return ops;
}

PtOps
PageTable::disable_range(Vpn vpn, std::uint64_t count, Pdom access_never,
                         bool allow_pmd_fast_path)
{
    PtOps ops;
    Vpn v = vpn;
    Vpn end = vpn + count;
    while (v < end) {
        Vpn idx = pmd_index(v);
        Vpn span_start = idx << pmd_shift_;
        Vpn span_end = span_start + pmd_span_;
        bool covers_span = (v == span_start && end >= span_end);
        Leaf *leaf = leaf_at(idx);
        if (covers_span && leaf) {
            if (leaf->kind == PmdKind::kHuge) {
                leaf->kind = PmdKind::kDisabled;
                leaf->was_huge = true;
                ++ops.pmd_writes;
                v = span_end;
                continue;
            }
            Pdom uniform_pdom = 0;
            if (allow_pmd_fast_path &&
                span_uniform(leaf, &uniform_pdom)) {
                leaf->kind = PmdKind::kDisabled;
                leaf->pdom = uniform_pdom;
                ++ops.pmd_writes;
                v = span_end;
                continue;
            }
        }
        Vpn chunk_end = std::min(end, span_end);
        if (leaf && leaf->kind == PmdKind::kTable) {
            for (; v < chunk_end; ++v) {
                Pte &pte = leaf->ptes[v - span_start];
                if (pte.present && pte.pdom != access_never) {
                    pte.pdom = access_never;
                    ++ops.pte_writes;
                }
            }
        } else {
            v = chunk_end;
        }
    }
    return ops;
}

std::uint64_t
PageTable::present_pages() const
{
    std::uint64_t count = 0;
    auto tally = [&](const Leaf *leaf) {
        if (!leaf)
            return;
        if (leaf->kind == PmdKind::kHuge) {
            count += pmd_span_;
            return;
        }
        for (const Pte &pte : leaf->ptes) {
            if (pte.present)
                ++count;
        }
    };
    for (const auto &leaf : dense_)
        tally(leaf.get());
    for (const auto &[idx, leaf] : sparse_) {
        (void)idx;
        tally(leaf.get());
    }
    return count;
}

}  // namespace vdom::hw
