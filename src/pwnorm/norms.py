"""Single-pair and family sup-norm evaluation.

Canonical evaluation rule shared by every code path that must agree
bit-for-bit: squared terms are ``(c*c)*(w*w)``, inner sums run over
cell points in ascending index order under ``math.fsum``, cell values
are ``pow(s, p/2)``, the outer sum is again ``fsum`` in canonical cell
order, and the final value ``pow(outer, 1/p)``.  ``fsum`` is correctly
rounded, so independently constructed but identical term multisets give
identical floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ArityError, CapacityError, NormOverflowError, SupportError
from .families import DEFAULT_MAX_PAIRS, Family, descriptor_members, restrict_family
from .indices import Index
from .partitions import PartitionDescriptor, RestrictedPair, check_weight_value
from .vectors import ConstantBlock, SparseVector, blocks_overlap, first_points_inside
from .weights import Weight

__all__ = [
    "NormResult",
    "pair_norm",
    "family_norm",
    "member_norm_intensional",
    "term",
    "canonical_value",
    "DEFAULT_MAX_SUPPORT",
]

DEFAULT_MAX_SUPPORT = 1 << 16


def term(c: float, w: float) -> float:
    """The squared summand c²w² — the one atomic formula used everywhere."""
    return (c * c) * (w * w)


def canonical_value(cell_terms: Sequence[Sequence[float]], p: float, singletons=()) -> float:
    """((Σ_cells (Σ terms)^{p/2})^{1/p} with fsum at both levels.

    ``singletons`` lists (K, t) for K further cells that hold the single
    term t each; they enter the outer sum as the exact parts of K·t^{p/2},
    which fsum adds exactly as it would add K copies of t^{p/2}.
    """
    hp = p / 2.0
    try:
        outer_terms = [pow(math.fsum(ts), hp) for ts in cell_terms]
        for k, t in singletons:
            outer_terms.extend(_exact_multiple(k, pow(t, hp)))
        outer = math.fsum(outer_terms)
        value = pow(outer, 1.0 / p)
    except OverflowError as exc:
        raise NormOverflowError(f"norm evaluation overflowed ({exc})") from exc
    if not math.isfinite(value):
        raise NormOverflowError(f"norm evaluation overflowed (outer sum {outer!r})")
    return value


def _exact_multiple(k: int, v: float) -> list[float]:
    """Floats whose exact sum is k·v: fsum over them equals fsum over k
    copies of v, bit for bit; NormOverflowError past the float range."""
    try:
        num, den = v.as_integer_ratio()  # den: a power of two, a multiple of each part's
        num, parts = num * k, []
        while num:  # the rest is num/den
            parts.append(num / den)  # int / int is correctly rounded
            pn, pd = parts[-1].as_integer_ratio()
            num -= pn * (den // pd)
    except OverflowError as exc:
        raise NormOverflowError(f"norm evaluation overflowed ({exc})") from exc
    return parts


@dataclass(frozen=True)
class NormResult:
    value: float
    argmax_member: str
    candidates_evaluated: int


def pair_norm(x: SparseVector, rp: RestrictedPair, p: float) -> float:
    """Norm of ``x`` under one restricted member.

    Every support point of ``x`` must lie in ``rp``'s support; cells not
    meeting supp(x) contribute nothing.
    """
    items = dict(x.items())
    member_support = set(rp.support)
    missing = [b for b in items if b not in member_support]
    if missing:
        raise SupportError(f"vector points {missing[:3]} outside the member's support")
    wmap = rp.weight_map()
    cell_terms = []
    for cell in rp.cells:
        ts = [term(items[b], wmap[b]) for b in cell if b in items]
        if ts:
            cell_terms.append(ts)
    if not cell_terms:
        return 0.0
    return canonical_value(cell_terms, p)


def family_norm(
    x: SparseVector,
    f: Family,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    max_support: int = DEFAULT_MAX_SUPPORT,
) -> NormResult:
    """Exact max of member norms over the family, first maximiser's label.

    Members given by descriptors are evaluated from the blocks of ``x`` by
    :func:`member_norm_intensional` (``max_support`` caps the points it
    may expand); other sources are restricted to supp(x), at most
    ``max_support`` points, and normed by :func:`pair_norm`.
    """
    if not x.support_size:
        raise SupportError("family_norm needs a vector with nonempty support")
    pairs = descriptor_members(f, max_pairs)
    if pairs is None:
        members = restrict_family(f, x.support(cap=max_support), max_pairs)
        scored = [(pair_norm(x, rp, f.p), rp.label) for rp in members]
    else:
        scored = [
            (member_norm_intensional(x, m.partition, m.weight, f.p, f.arity, max_support),
             m.label)
            for m in pairs
        ]
    best, best_label = -1.0, ""
    for v, label in scored:
        if v > best:
            best, best_label = v, label
    return NormResult(value=best, argmax_member=best_label, candidates_evaluated=len(scored))


# ---------------------------------------------------------------------------
# intensional evaluation straight from descriptors (no support expansion)

def member_norm_intensional(
    x: SparseVector,
    partition: PartitionDescriptor,
    weight: Weight,
    p: float,
    arity: int,
    expand_cap: int = DEFAULT_MAX_SUPPORT,
) -> float:
    """Pair norm from descriptors, with run-length blocks in closed form.

    The value is bit-identical to :func:`pair_norm` on the member's
    restriction to supp(x).  A block whose weight is constant along its
    run is kept whole.  If the partition does not fix its running
    coordinate, its K points share one cell and add K·c²w² there; if it
    does, they form K cells of their own, each adding (c²w²)^{p/2}.  Both
    multiples enter fsum as exact float parts.  Those K cells must meet
    nothing else, which is checked on their projections to the fixed
    coordinates; on a clash every block is expanded, as are blocks whose
    weight varies along the run, at most ``expand_cap`` points in all.
    """
    if x.arity != arity:
        raise ArityError(f"vector arity {x.arity} does not match the family arity {arity}")
    if not x.support_size:
        raise SupportError("a member norm needs a vector with nonempty support")
    fixed = [q - 1 for q in sorted(partition.fixed_coords(arity))]
    wdeps = weight.depends_on(arity)

    def key_of(idx: Index) -> tuple[int, ...]:
        return tuple(idx[q] for q in fixed)

    def term_at(c: float, idx: Index) -> float:
        return term(c, check_weight_value(weight.value_at(idx)))

    lumps, splits, varying = [], [], []
    for blk in x.blocks:
        rc = blk.running_coord
        (varying if rc in wdeps else splits if rc - 1 in fixed else lumps).append(blk)
    points = list(x.entries) + _expand(varying, expand_cap)
    # a split block's cells, as a block on the fixed coordinates
    cells_of = [
        ConstantBlock(key_of(b.template), fixed.index(b.running_coord - 1) + 1, b.lo, b.hi, 1.0)
        for b in splits
    ]
    if cells_of and _clash(
        cells_of, [key_of(b) for b, _ in points] + [key_of(blk.template) for blk in lumps]
    ):
        lumps, splits = [], []
        points = list(x.entries) + _expand(x.blocks, expand_cap)

    cells: dict[tuple[int, ...], list[float]] = {}
    for b, c in points:
        cells.setdefault(key_of(b), []).append(term_at(c, b))
    for blk in lumps:
        t = term_at(blk.coeff, blk.point_at(blk.lo))
        cells.setdefault(key_of(blk.template), []).extend(_exact_multiple(blk.size, t))
    singletons = [(blk.size, term_at(blk.coeff, blk.point_at(blk.lo))) for blk in splits]
    return canonical_value(list(cells.values()), p, singletons)


def _clash(cells_of: list[ConstantBlock], keys: list[tuple[int, ...]]) -> bool:
    """Whether split blocks' cells meet each other or any of the keys."""
    return any(
        blocks_overlap(a, b) for i, a in enumerate(cells_of) for b in cells_of[i + 1 :]
    ) or any(hit is not None for hit in first_points_inside(cells_of, sorted(keys)))


def _expand(blocks: Sequence[ConstantBlock], cap: int) -> list[tuple[Index, float]]:
    size = sum(blk.size for blk in blocks)
    if size > cap:
        raise CapacityError(f"{size} block points need expanding here, more than the cap {cap}")
    return [(b, blk.coeff) for blk in blocks for b in blk.points()]
