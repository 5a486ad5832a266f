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

import numpy as np

from .errors import ArityError, CapacityError, NormOverflowError, SupportError, ValidationError
from .families import Family, descriptor_members, restrict_family
from .indices import Index
from .partitions import PartitionDescriptor, RestrictedPair, check_weight_value
from .vectors import ConstantBlock, SparseVector, first_overlap, first_points_inside
from .weights import CoordinateLift, Product, Weight

__all__ = [
    "NormResult",
    "pair_norm",
    "family_norm",
    "member_norm_intensional",
    "term",
    "canonical_value",
    "MAX_SUPPORT",
]

MAX_SUPPORT = 1 << 16  # points a norm restricts to, or expands from blocks, at most


def term(c: float, w: float) -> float:
    """The squared summand c²w² — the one atomic formula used everywhere."""
    return (c * c) * (w * w)


def canonical_value(cell_terms: Sequence[Sequence[float]], p: float) -> float:
    """((Σ_cells (Σ terms)^{p/2})^{1/p} with fsum at both levels."""
    hp = p / 2.0
    try:
        outer_terms = [pow(math.fsum(ts), hp) for ts in cell_terms]
    except OverflowError as exc:
        raise NormOverflowError(f"norm evaluation overflowed ({exc})") from exc
    return _root(outer_terms, p)


def _root(outer_terms: list[float], p: float) -> float:
    """(fsum of the cells' powered sums)^{1/p}, refusing overflow."""
    try:
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


def family_norm(x: SparseVector, f: Family) -> NormResult:
    """Exact max of member norms over the family, first maximiser's label.

    Members given by descriptors (explicit families, subset lattices and
    tensor products of these, see :func:`descriptor_members`) are
    evaluated from the blocks of ``x`` by :func:`member_norm_intensional`
    (:data:`MAX_SUPPORT` caps the points it may expand); other sources
    (sums, envelopes) are restricted to supp(x), at most
    :data:`MAX_SUPPORT` points, and normed by :func:`pair_norm`.
    """
    if not x.support_size:
        raise SupportError("family_norm needs a vector with nonempty support")
    pairs = descriptor_members(f)
    if pairs is None:
        members = restrict_family(f, x.support(cap=MAX_SUPPORT))
        scored = [(pair_norm(x, rp, f.p), rp.label) for rp in members]
    else:
        scored = [
            (member_norm_intensional(x, m.partition, m.weight, f.p, f.arity), m.label)
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
    weight varies along the run, at most :data:`MAX_SUPPORT` points in all.

    The other points are evaluated as columns: the vector's entries (an
    index matrix and a coefficient column built once per vector) and the
    expanded blocks' points.  Cells are the runs of equal fixed
    coordinates after a stable lexicographic sort; a lump's exact parts
    join the cell of its template.  The value stays exact because numpy
    only multiplies and compares:

    - weight values come only from the descriptors' own ``value_at``,
      called once per distinct value of the coordinates a descriptor
      reads (see :func:`_weight_column`);
    - a product's factors multiply elementwise in factor order, each
      product correctly rounded, as ``Product.value_at`` multiplies;
    - terms are ``(c*c)*(w*w)``, elementwise;
    - no power is taken by numpy (no ``power``, ``exp``), whose SIMD
      paths may differ from libm: each cell is ``math.fsum``
      of its terms (a single term is its own sum) and then Python
      ``pow(s, p/2)``, in the cells' order of first occurrence.

    fsum is correctly rounded, so the order of the terms within a cell,
    and of the cells, cannot change a bit.  Errors keep their types and
    messages: a weight outside (0, 1] names the descriptor and the point,
    underflow names ``s``, and a lift position past the arity, a
    one-dimensional descriptor on a higher arity and the
    :data:`MAX_SUPPORT` limit fail as ``value_at`` and the cap do.  With
    several failing points, the one raised is the first in row order.
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
        return term(c, check_weight_value(weight.value_at(idx), weight, idx))

    lumps, splits, varying = [], [], []
    for blk in x.blocks:
        rc = blk.running_coord
        (varying if rc in wdeps else splits if rc - 1 in fixed else lumps).append(blk)
    idx, coeff = _points(x, varying)
    # a split block's cells, as a block on the fixed coordinates
    cells_of = [
        ConstantBlock(key_of(b.template), fixed.index(b.running_coord - 1) + 1, b.lo, b.hi, 1.0)
        for b in splits
    ]
    if cells_of and _clash(
        cells_of, [tuple(k) for k in idx[:, fixed].tolist()] + [key_of(b.template) for b in lumps]
    ):
        lumps, splits = [], []
        idx, coeff = _points(x, x.blocks)

    if len(idx):
        w = _checked_weight_column(weight, idx)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = (coeff * coeff) * (w * w)
    else:
        terms = coeff
    # a lump's K terms, as exact parts, filed under the key of its cell
    lumped: dict[tuple[int, ...], list[float]] = {}
    for blk in lumps:
        ts = _exact_multiple(blk.size, term_at(blk.coeff, blk.point_at(blk.lo)))
        lumped.setdefault(key_of(blk.template), []).extend(ts)
    singletons = [(blk.size, term_at(blk.coeff, blk.point_at(blk.lo))) for blk in splits]

    hp = p / 2.0
    try:
        outer = _cell_powers([idx[:, q] for q in fixed], terms, lumped, hp)
        for k, t in singletons:
            outer.extend(_exact_multiple(k, pow(t, hp)))
    except OverflowError as exc:
        raise NormOverflowError(f"norm evaluation overflowed ({exc})") from exc
    return _root(outer, p)


def _points(x: SparseVector, blocks: Sequence[ConstantBlock]) -> tuple[np.ndarray, np.ndarray]:
    """Index matrix and coefficients of x's entries, then ``blocks``' points."""
    size = sum(blk.size for blk in blocks)
    if size > MAX_SUPPORT:
        raise CapacityError(
            f"{size} block points need expanding here, more than the cap {MAX_SUPPORT}"
        )
    idx, coeff = x.entry_columns
    if not blocks:
        return idx, coeff
    return (
        np.concatenate([idx] + [blk.point_matrix() for blk in blocks]),
        np.concatenate([coeff] + [np.full(blk.size, blk.coeff) for blk in blocks]),
    )


def _runs(cols: Sequence[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """For n >= 1 rows of ``cols``: a stable order sorting them
    lexicographically, and the starts of the runs of equal rows in that
    order, followed by n."""
    if not cols:
        return np.arange(n), np.array([0, n])
    order = np.lexsort(cols[::-1])
    new = np.zeros(n + 1, dtype=bool)
    new[0] = new[n] = True
    for c in cols:
        s = c[order]
        new[1:n] |= s[1:] != s[:-1]
    return order, new.nonzero()[0]


def _cell_powers(
    keys: list[np.ndarray], terms: np.ndarray, lumped: dict[tuple, list[float]], hp: float
) -> list[float]:
    """(fsum of a cell's terms)^hp per cell, in the order of first
    occurrence: the runs of rows with equal keys, each with the lump
    terms filed under its key, then the cells of lumps alone."""
    outer = []
    if len(terms):
        order, bounds = _runs(keys, len(terms))
        ts = terms[order].tolist()
        firsts = order[bounds[:-1]]
        b = bounds.tolist()
        if lumped:  # the cells' keys, to find the lumps that join them
            cell_keys = list(zip(*(c[firsts].tolist() for c in keys))) or [()]
        for j in firsts.argsort(kind="stable").tolist():
            cell = ts[b[j] : b[j + 1]]
            if lumped:
                cell += lumped.pop(cell_keys[j], [])
            outer.append(pow(cell[0], hp) if len(cell) == 1 else pow(math.fsum(cell), hp))
    outer.extend(pow(math.fsum(ts), hp) for ts in lumped.values())
    return outer


def _checked_weight_column(w: Weight, idx: np.ndarray) -> np.ndarray:
    """:func:`_weight_column` at the rows of ``idx``, every value in (0, 1].

    When an evaluation fails or a value is out of range, the rows are
    evaluated and checked again one by one in order, so the error raised
    is the one a walk over the points meets first.
    """
    try:
        column = _weight_column(w, list(idx.T))
    except Exception:
        _first_failure(w, idx)
        raise
    if not (column.min() > 0.0 and column.max() <= 1.0):  # NaN fails too
        _first_failure(w, idx)
        raise AssertionError(f"the column of {w!r} disagrees with its value_at")
    return column


def _first_failure(w: Weight, idx: np.ndarray) -> None:
    for row in idx.tolist():
        b = tuple(row)
        check_weight_value(w.value_at(b), w, b)


def _weight_column(w: Weight, cols: list[np.ndarray]) -> np.ndarray:
    """w at every one of the n >= 1 rows of the coordinate columns.

    A product multiplies its factors' columns in factor order, a lift
    evaluates its inner weight on the selected columns, and any other
    descriptor calls its own ``value_at`` once per distinct projection of
    the rows onto ``depends_on``, at the first row with that projection;
    projections are visited in the order of those rows.
    """
    if isinstance(w, Product):
        v = _weight_column(w.factors[0], cols)
        for f in w.factors[1:]:
            v = v * _weight_column(f, cols)
        return v
    if isinstance(w, CoordinateLift):
        for q in w.positions:
            if q > len(cols):
                raise ValidationError(f"lift position {q} exceeds arity {len(cols)}")
        return _weight_column(w.inner, [cols[q - 1] for q in w.positions])
    n = len(cols[0])
    deps = [cols[q - 1] for q in sorted(w.depends_on(len(cols))) if q <= len(cols)]
    order, bounds = _runs(deps, n)
    firsts = order[bounds[:-1]]
    visit = firsts.argsort(kind="stable")
    values = np.empty(len(firsts))
    values[visit] = [w.value_at(r) for r in zip(*(c[firsts[visit]].tolist() for c in cols))]
    column = np.empty(n)
    column[order] = values.repeat(bounds[1:] - bounds[:-1])
    return column


def _clash(cells_of: list[ConstantBlock], keys: list[tuple[int, ...]]) -> bool:
    """Whether split blocks' cells meet each other or any of the keys."""
    return first_overlap(cells_of) is not None or any(
        hit is not None for hit in first_points_inside(cells_of, sorted(keys))
    )
