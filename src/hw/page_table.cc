/// \file
/// Domain-tagged page-table model implementation (two-level radix: a dense
/// PMD directory of leaves, each leaf one block holding the PMD entry and
/// its PTE planes).
///
/// The per-span loops below read the planes through local pointers, turn
/// the present byte into a 0x00/0xff mask and select with it, and count
/// their writes in locals that the caller stores once per range.  Written
/// this way they have no branch per PTE and vectorise.

#include "hw/page_table.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <stdexcept>

namespace vdom::hw {

namespace {

/// PTEs per block of count_over(): a constant trip count, so GCC
/// vectorises the block even at -O2, whose cheap cost model refuses loops
/// that need a scalar epilogue.  At most 255, so a block's count fits the
/// byte lanes it is summed in.
constexpr std::size_t kBlock = 64;

/// Number of i in [lo, hi) for which \p body(i), which returns 0 or 1,
/// is 1: whole blocks summed in bytes, then the tail.
template <class Body>
inline std::uint64_t
count_over(std::size_t lo, std::size_t hi, Body body)
{
    std::uint64_t total = 0;
    std::size_t i = lo;
    for (; i + kBlock <= hi; i += kBlock) {
        std::uint8_t block = 0;
        for (std::size_t j = 0; j < kBlock; ++j)
            block = static_cast<std::uint8_t>(block + body(i + j));
        total += block;
    }
    for (; i < hi; ++i)
        total += body(i);
    return total;
}

/// 0xff when \p flag (a 0/1 plane byte) is set, else 0.
inline std::uint8_t
mask_of(std::uint8_t flag)
{
    return static_cast<std::uint8_t>(-flag);
}

/// \p pick where \p mask is 0xff, else \p keep.
inline std::uint8_t
select(std::uint8_t mask, std::uint8_t pick, std::uint8_t keep)
{
    return static_cast<std::uint8_t>((pick & mask) | (keep & ~mask));
}

// The planes of one leaf never overlap, hence __restrict: it lets the
// compiler vectorise without a run-time overlap check, which -O2 does not
// emit.  The loops stay out of line (one call per span) because GCC drops
// the __restrict of a parameter when it inlines the function into a
// caller that derives every plane from one pointer.

/// Sets PROT_NONE on the present PTEs of [lo, hi).  Returns the writes:
/// PTEs that were present and not yet PROT_NONE.
[[gnu::noinline]] std::uint64_t
protect_none_ptes(const std::uint8_t *__restrict present,
                  std::uint8_t *__restrict none, std::size_t lo,
                  std::size_t hi)
{
    return count_over(lo, hi, [=](std::size_t i) -> std::uint8_t {
        std::uint8_t p = present[i];
        std::uint8_t n = none[i];
        none[i] = n | p;
        return p & (n ^ 1);
    });
}

/// Tags the present PTEs of [lo, hi) with \p pdom; with \p lift_none
/// also clears their PROT_NONE.  Returns the writes: every present PTE.
[[gnu::noinline]] std::uint64_t
retag_ptes(const std::uint8_t *__restrict present,
           std::uint8_t *__restrict none, std::uint8_t *__restrict tags,
           std::size_t lo, std::size_t hi, Pdom pdom, bool lift_none)
{
    const std::uint8_t lift = mask_of(lift_none);
    return count_over(lo, hi, [=](std::size_t i) -> std::uint8_t {
        std::uint8_t p = present[i];
        std::uint8_t m = mask_of(p);
        tags[i] = select(m, pdom, tags[i]);
        none[i] &= static_cast<std::uint8_t>(~(m & lift));
        return p;
    });
}

/// Tags the present PTEs of [lo, hi) with \p access_never.  Returns the
/// writes: present PTEs whose tag differed.
[[gnu::noinline]] std::uint64_t
evict_ptes(const std::uint8_t *__restrict present,
           std::uint8_t *__restrict tags, std::size_t lo, std::size_t hi,
           Pdom access_never)
{
    return count_over(lo, hi, [=](std::size_t i) -> std::uint8_t {
        std::uint8_t p = present[i];
        std::uint8_t old = tags[i];
        tags[i] = select(mask_of(p), access_never, old);
        return p & static_cast<std::uint8_t>(old != access_never);
    });
}

/// First offset in [lo, hi) whose PTE is live (present, not PROT_NONE),
/// or hi.  Tests eight PTEs per step.
std::size_t
first_live(const std::uint8_t *present, const std::uint8_t *none,
           std::size_t lo, std::size_t hi)
{
    std::size_t i = lo;
    for (; i + 8 <= hi; i += 8) {
        std::uint64_t p;
        std::uint64_t n;
        std::memcpy(&p, present + i, sizeof p);
        std::memcpy(&n, none + i, sizeof n);
        if (std::uint64_t live = p & ~n) {
            int bit = std::endian::native == std::endian::little
                          ? std::countr_zero(live)
                          : std::countl_zero(live);
            return i + static_cast<std::size_t>(bit) / 8;
        }
    }
    for (; i < hi; ++i) {
        if (present[i] & ~none[i])
            return i;
    }
    return hi;
}

/// Whether the source maps PTE i: every PTE of a huge source (\p all is
/// 1; its planes are zero), else the live ones of a table.
inline std::uint8_t
source_has(const std::uint8_t *src_present, const std::uint8_t *src_none,
           std::uint8_t all, std::size_t i)
{
    return all | static_cast<std::uint8_t>(src_present[i] & ~src_none[i]);
}

/// PTEs of [lo, hi) that copy_ptes() would newly make present.
[[gnu::noinline]] std::uint64_t
count_new_ptes(const std::uint8_t *__restrict src_present,
               const std::uint8_t *__restrict src_none, std::uint8_t all,
               const std::uint8_t *__restrict present, std::size_t lo,
               std::size_t hi)
{
    return count_over(lo, hi, [=](std::size_t i) -> std::uint8_t {
        return source_has(src_present, src_none, all, i) & (present[i] ^ 1);
    });
}

/// Maps with tag \p pdom each PTE of [lo, hi) that the source has
/// (PROT_NONE is left as it was).  Returns the writes.
[[gnu::noinline]] std::uint64_t
copy_ptes(const std::uint8_t *__restrict src_present,
          const std::uint8_t *__restrict src_none, std::uint8_t all,
          std::uint8_t *__restrict present, std::uint8_t *__restrict tags,
          std::size_t lo, std::size_t hi, Pdom pdom)
{
    return count_over(lo, hi, [=](std::size_t i) -> std::uint8_t {
        std::uint8_t s = source_has(src_present, src_none, all, i);
        present[i] |= s;
        tags[i] = select(mask_of(s), pdom, tags[i]);
        return s;
    });
}

}  // namespace

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

PageTable::LeafPtr
PageTable::new_leaf() const
{
    void *block = std::calloc(1, sizeof(Leaf) + 3 * pmd_span_);
    if (!block)
        throw std::bad_alloc();
    return LeafPtr(new (block) Leaf);
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
            dense_[idx] = new_leaf();
        return *dense_[idx];
    }
    auto &slot = sparse_[idx];
    if (!slot)
        slot = new_leaf();
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
    const std::size_t span = pmd_span_;
    std::uint64_t pte_writes = 0;
    std::uint64_t pmd_writes = 0;
    Vpn v = vpn;
    Vpn end = vpn + count;
    while (v < end) {
        Vpn idx = pmd_index(v);
        Vpn span_start = idx << pmd_shift_;
        Vpn span_end = span_start + span;
        Leaf *leaf = leaf_at(idx);
        if (leaf && leaf->kind == PmdKind::kHuge && v == span_start &&
            end >= span_end) {
            leaf->kind = PmdKind::kDisabled;
            leaf->was_huge = true;
            ++pmd_writes;
            v = span_end;
            continue;
        }
        Vpn chunk_end = std::min(end, span_end);
        // Under a huge PMD the planes are zero, so this writes nothing;
        // under a disabled one it marks the saved PTEs, which stay
        // PROT_NONE when the span is re-enabled.
        if (leaf) {
            std::uint8_t *pl = leaf->planes();
            pte_writes += protect_none_ptes(pl, pl + span, v - span_start,
                                            chunk_end - span_start);
        }
        v = chunk_end;
    }
    return {pte_writes, pmd_writes};
}

PtOps
PageTable::map_page_slow(Vpn vpn, Pdom pdom)
{
    const std::size_t span = pmd_span_;
    std::uint64_t pte_writes = 1;  // The PTE installed below.
    std::uint64_t pmd_writes = 0;
    Vpn idx = pmd_index(vpn);
    Vpn off = vpn & pmd_mask_;
    Leaf &leaf = leaf_grow(idx);
    if (leaf.kind != PmdKind::kTable) {
        // Re-enable the span as a PTE table before installing the page.
        // Sibling PTEs under a disabled PMD still carry their pre-eviction
        // tags; neutralize them so re-enabling one page cannot resurrect
        // the whole evicted span.  The target is tagged too, but
        // install_pte retags it and it is not a sibling write.
        if (leaf.kind == PmdKind::kDisabled) {
            std::uint8_t *pl = leaf.planes();
            pte_writes += retag_ptes(pl, pl + span, pl + 2 * span, 0, span,
                                     access_never_, false) -
                          pl[off];
        }
        leaf.kind = PmdKind::kTable;
        leaf.was_huge = false;
        ++pmd_writes;
    }
    install_pte(leaf, span, off, pdom);
    return {pte_writes, pmd_writes};
}

Vpn
PageTable::map_missing_from(const PageTable &source, Vpn vpn,
                            std::uint64_t count, Pdom pdom, PtOps &ops)
{
    const std::size_t span = pmd_span_;
    std::uint64_t pte_writes = 0;
    Vpn stop = vpn + count;
    Vpn v = vpn;
    while (v < stop) {
        Vpn idx = pmd_index(v);
        Vpn span_start = idx << pmd_shift_;
        std::size_t lo = v - span_start;
        std::size_t hi = std::min<Vpn>(stop - span_start, span);
        Leaf *leaf = leaf_at(idx);
        // A huge PMD translates as present and a disabled one as
        // pmd_disabled, for every page of the span.
        if (leaf && leaf->kind != PmdKind::kTable) {
            stop = v;
            break;
        }
        // Map the pages before the first live one here, which ends the
        // walk.  The source has every page of a huge span, none of a
        // disabled one, and the live PTEs of a table.
        std::size_t live = hi;
        if (leaf) {
            const std::uint8_t *pl = leaf->planes();
            live = first_live(pl, pl + span, lo, hi);
        }
        const Leaf *src = source.leaf_at(idx);
        if (src && src->kind != PmdKind::kDisabled) {
            std::uint8_t all = src->kind == PmdKind::kHuge;
            const std::uint8_t *sp = src->planes();
            if (!leaf && (all || first_live(sp, sp + span, lo, live) < live))
                leaf = &leaf_grow(idx);
            if (leaf) {
                std::uint8_t *pl = leaf->planes();
                leaf->present += static_cast<std::uint32_t>(
                    count_new_ptes(sp, sp + span, all, pl, lo, live));
                pte_writes += copy_ptes(sp, sp + span, all, pl,
                                        pl + 2 * span, lo, live, pdom);
            }
        }
        if (live < hi) {
            stop = span_start + live;
            break;
        }
        v = span_start + hi;
    }
    ops.pte_writes += pte_writes;
    return stop;
}

PtOps
PageTable::unmap_page(Vpn vpn)
{
    PtOps ops;
    Leaf *leaf = leaf_at(pmd_index(vpn));
    if (!leaf || leaf->kind == PmdKind::kHuge)
        return ops;
    std::uint8_t *pl = leaf->planes() + (vpn & pmd_mask_);
    if (!pl[0])
        return ops;
    pl[0] = 0;
    pl[pmd_span_] = 0;
    pl[2 * pmd_span_] = 0;
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
    std::memset(leaf.planes(), 0, 3 * pmd_span_);
    return ops;
}

bool
PageTable::span_uniform(const Leaf *leaf, Pdom *pdom_out) const
{
    const std::size_t span = pmd_span_;
    if (!leaf || leaf->kind != PmdKind::kTable || leaf->present != span)
        return false;
    // Nonzero for every PTE that breaks uniformity: absent, PROT_NONE or
    // tagged differently from the first.
    const std::uint8_t *present = leaf->planes();
    const std::uint8_t *none = present + span;
    const std::uint8_t *tags = present + 2 * span;
    const Pdom pdom = tags[0];
    std::uint64_t odd = count_over(0, span, [=](std::size_t i) -> std::uint8_t {
        return ((present[i] ^ 1) | none[i] | (tags[i] ^ pdom)) != 0;
    });
    if (odd != 0)
        return false;
    if (pdom_out)
        *pdom_out = pdom;
    return true;
}

PtOps
PageTable::set_pdom_range(Vpn vpn, std::uint64_t count, Pdom pdom,
                          bool allow_pmd_fast_path)
{
    const std::size_t span = pmd_span_;
    std::uint64_t pte_writes = 0;
    std::uint64_t pmd_writes = 0;
    Vpn v = vpn;
    Vpn end = vpn + count;
    while (v < end) {
        Vpn idx = pmd_index(v);
        Vpn span_start = idx << pmd_shift_;
        Vpn span_end = span_start + span;
        bool covers_span = (v == span_start && end >= span_end);
        Leaf *leaf = leaf_at(idx);
        Vpn chunk_end = std::min(end, span_end);
        if (covers_span && leaf && leaf->kind == PmdKind::kHuge) {
            leaf->pdom = pdom;
            ++pmd_writes;
        } else if (covers_span && leaf && leaf->kind == PmdKind::kDisabled) {
            ++pmd_writes;
            if (leaf->was_huge) {
                // Restore the huge mapping with the new tag: the PMD is
                // the only entry either way.
                leaf->kind = PmdKind::kHuge;
                leaf->pdom = pdom;
                leaf->was_huge = false;
            } else {
                // §5.5 HLRU remap: a vdom returning to the pdom it last
                // occupied finds the (uniform) PTE tags below the disabled
                // PMD still valid, so one PMD write restores the whole
                // span.  Another pdom re-enables it and pays per-PTE
                // retags.
                leaf->kind = PmdKind::kTable;
                if (!allow_pmd_fast_path || leaf->pdom != pdom) {
                    std::uint8_t *pl = leaf->planes();
                    pte_writes += retag_ptes(pl, pl + span, pl + 2 * span,
                                             0, span, pdom, true);
                }
            }
        } else if (leaf && leaf->kind == PmdKind::kTable) {
            std::uint8_t *pl = leaf->planes();
            pte_writes += retag_ptes(pl, pl + span, pl + 2 * span,
                                     v - span_start, chunk_end - span_start,
                                     pdom, true);
        }
        v = chunk_end;
    }
    return {pte_writes, pmd_writes};
}

PtOps
PageTable::disable_range(Vpn vpn, std::uint64_t count, Pdom access_never,
                         bool allow_pmd_fast_path)
{
    const std::size_t span = pmd_span_;
    std::uint64_t pte_writes = 0;
    std::uint64_t pmd_writes = 0;
    Vpn v = vpn;
    Vpn end = vpn + count;
    while (v < end) {
        Vpn idx = pmd_index(v);
        Vpn span_start = idx << pmd_shift_;
        Vpn span_end = span_start + span;
        bool covers_span = (v == span_start && end >= span_end);
        Leaf *leaf = leaf_at(idx);
        Vpn chunk_end = std::min(end, span_end);
        Pdom uniform_pdom = 0;
        if (covers_span && leaf && leaf->kind == PmdKind::kHuge) {
            leaf->kind = PmdKind::kDisabled;
            leaf->was_huge = true;
            ++pmd_writes;
        } else if (covers_span && allow_pmd_fast_path &&
                   span_uniform(leaf, &uniform_pdom)) {
            leaf->kind = PmdKind::kDisabled;
            leaf->pdom = uniform_pdom;
            ++pmd_writes;
        } else if (leaf && leaf->kind == PmdKind::kTable) {
            std::uint8_t *pl = leaf->planes();
            pte_writes += evict_ptes(pl, pl + 2 * span, v - span_start,
                                     chunk_end - span_start, access_never);
        }
        v = chunk_end;
    }
    return {pte_writes, pmd_writes};
}

std::uint64_t
PageTable::present_pages() const
{
    // A huge PMD maps its whole span; any other leaf keeps its present
    // PTEs counted (a disabled one still holds them for the remap).
    std::uint64_t count = 0;
    auto tally = [&](const Leaf *leaf) {
        if (leaf)
            count += leaf->kind == PmdKind::kHuge ? pmd_span_ : leaf->present;
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
