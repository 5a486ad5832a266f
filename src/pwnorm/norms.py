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
from .families import (
    Family,
    SumMembers,
    descriptor_members,
    indiscrete_weight,
    restrict_family,
    sum_split_vector,
)
from .indices import Index, check_index
from .partitions import Indiscrete, PairPW, PartitionDescriptor, RestrictedPair, check_weight_value
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
    "ULP",
    "ulps",
]

MAX_SUPPORT = 1 << 16  # points a norm restricts to, or expands from blocks, at most


def term(c: float, w: float) -> float:
    """The squared summand c²w² — the one atomic formula used everywhere."""
    return (c * c) * (w * w)


def canonical_value(cell_terms: Sequence[Sequence[float]], p: float) -> float:
    """((Σ_cells (Σ terms)^{p/2})^{1/p} with fsum at both levels."""
    return _root(_powered(cell_terms, p), p)


def _powered(cell_terms: Sequence[Sequence[float]], p: float) -> list[float]:
    """(fsum of each cell's terms)^{p/2}: the powered cell terms."""
    hp = p / 2.0
    try:
        return [pow(math.fsum(ts), hp) for ts in cell_terms]
    except OverflowError as exc:
        raise NormOverflowError(f"norm evaluation overflowed ({exc})") from exc


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
    powers = _pair_powers(dict(x.items()), rp, p)
    return _root(powers, p) if powers else 0.0


def _pair_powers(items: dict[Index, float], rp: RestrictedPair, p: float) -> list[float]:
    """:func:`pair_norm` before its root: the powered cell terms of the
    vector with these items, one per cell meeting it."""
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
    return _powered(cell_terms, p)


def family_norm(x: SparseVector, f: Family) -> NormResult:
    """Exact max of member norms over the family, first maximiser's label.

    Members given by descriptors (explicit families, subset lattices and
    tensor products of these, see :func:`descriptor_members`) are
    evaluated from the blocks of ``x`` by :func:`member_norm_intensional`
    (:data:`MAX_SUPPORT` caps the points it may expand); sums are normed
    child by child (see :func:`_sum_norm`); other sources (envelopes,
    tensors of lattices) are restricted to supp(x), at most
    :data:`MAX_SUPPORT` points, and normed by :func:`pair_norm`.
    """
    if not x.support_size:
        raise SupportError("family_norm needs a vector with nonempty support")
    if isinstance(f.members, SumMembers):
        return _sum_norm(x, f)
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
# (p,2) sums, child by child

def _sum_norm(x: SparseVector, f: Family) -> NormResult:
    """:func:`family_norm` of a sum, without listing its combinations.

    The value and the label are those of the restricted members in
    canonical order (every combination of the touched children's members,
    in product order, then the global ``()``), and so is the error for
    points outside the sum's base set (see :func:`sum_split_vector`).  Cells
    never cross children, so the p-th power of a combination's norm is
    the sum of its children's powered cell terms, and the maximum over
    combinations separates: each touched child takes a member whose
    powered cell terms have the largest exact total (integers in units of
    2^-1074), recursively through nested sums.  The value is the root of
    the concatenation of those terms: fsum is correctly rounded and pow
    is monotone, so no combination's value is larger.  The sum's own
    ``()`` member, one cell whose weight is outer(a)·ind_a on child a's
    points, is evaluated once, and wins only when strictly larger,
    because it is listed last.

    The label is the first maximiser's in product order.  A greedy over
    the children in order finds it: each child takes its first member c
    such that the value of the chosen members so far, c and the later
    children's best members equals the maximum.  A nested sum makes the
    same choice over its own children, or takes its ``()`` when no
    combination of them reaches the maximum.

    ``candidates_evaluated`` counts the members so listed, Π k_a + 1 over
    the touched children, where k_a is the count of child a (for a nested
    sum, by the same rule); members that coincide on the support are
    counted each time.
    """
    if x.arity != f.arity:  # restriction reports the least point
        check_index(min([b for b, _ in x.entries[:1]] + [b.point_at(b.lo) for b in x.blocks]),
                    f.arity)
    node = _Sum(x, f)
    value = _root(node.best_powers(), f.p)
    return NormResult(value, node.first(0, value, f.p)[0], node.count)


ULP = 1 << 1074  # 1 / the least subnormal float


def ulps(v: float) -> int:
    """v / 2^-1074, exactly: every finite float is a whole number of the
    least subnormal, so sums of these are exact, and int / int rounds
    them correctly, as fsum does.  OverflowError for inf."""
    num, den = v.as_integer_ratio()
    return num * (ULP // den)


def _exact_total(powers: list[float], p: float) -> int:
    """Σ :func:`ulps` of the powered cell terms.  An infinite term raises
    :class:`NormOverflowError` as :func:`_root` does."""
    try:
        return sum(map(ulps, powers))
    except OverflowError:
        _root(powers, p)
        raise


def _value_of(total: int, p: float) -> float:
    """The norm whose p-th power has this exact total, as :func:`_root`
    gives it: int / int is correctly rounded, as fsum is."""
    return pow(total / ULP, 1.0 / p)


def _ranked(y: SparseVector, g: Family) -> "_Members | _Sum":
    return _Sum(y, g) if isinstance(g.members, SumMembers) else _Members(y, g)


class _Members:
    """A family that is no sum, on one vector: each member's label and
    exact total in canonical order, and the powered cell terms of the
    first member with the largest total."""

    def __init__(self, y: SparseVector, g: Family) -> None:
        self.y, self.g = y, g
        self.ind_columns: _Columns | None = None  # of the distinguished single-cell member
        pairs = descriptor_members(g)
        if pairs is not None:
            ind = indiscrete_weight(g)

            def evaluate(m: PairPW) -> list[float]:
                cols = _member_columns(y, m.partition, m.weight, g.arity)
                if (self.ind_columns is None and m.weight == ind
                        and not m.partition.fixed_coords(g.arity)):
                    self.ind_columns = cols
                return _powers(cols, g.p)

            scored = ((m.label, evaluate(m)) for m in pairs)
        else:
            members = restrict_family(g, y.support(cap=MAX_SUPPORT))
            items = dict(y.items())
            scored = ((rp.label, _pair_powers(items, rp, g.p)) for rp in members)
        self.labels: list[str] = []
        self.totals: list[int] = []
        self.best, self.powers = -1, []
        for label, powers in scored:
            t = _exact_total(powers, g.p)
            if t > self.best:
                self.best, self.powers = t, powers
            self.labels.append(label)
            self.totals.append(t)
        self.count = len(self.totals)

    def best_powers(self) -> list[float]:
        return self.powers

    def unit_columns(self) -> _Columns:
        """The family's distinguished single-cell member on the vector."""
        g = self.g
        return self.ind_columns or _member_columns(
            self.y, Indiscrete(), indiscrete_weight(g), g.arity
        )

    def first(self, rest: int, value: float, p: float) -> tuple[str, int]:
        """The label and total of the first member whose value, with
        ``rest`` added to its total, is ``value``."""
        for label, t in zip(self.labels, self.totals):
            if _value_of(rest + t, p) == value:
                return label, t
        raise AssertionError("no member attains the maximum")  # pragma: no cover


class _Sum:
    """A sum family on one vector: its touched children's ranked members,
    and its own ``()`` member (see :func:`_sum_norm`)."""

    def __init__(self, y: SparseVector, f: Family) -> None:
        src = f.members
        parts = sum_split_vector(src, y)
        self.children = [(a, _ranked(v, src.children[a - 1])) for a, v in parts.items()]
        self.combined = sum(node.best for _, node in self.children)
        self.count = math.prod(node.count for _, node in self.children) + 1
        # the () member: one cell, weighted outer(a)·ind_a on child a's points
        # (no fixed coordinates, so every row and lump is in the one cell)
        outer = [src.outer.value_at_nat(a) for a in parts]
        units = [node.unit_columns() for _, node in self.children]
        coeff = np.concatenate([c for _, c, _, _, _ in units])
        w = np.concatenate([o * ws for o, (_, _, ws, _, _) in zip(outer, units)])
        lumps = [
            ((), k, c, o * v) for o, (_, _, _, ls, _) in zip(outer, units) for _, k, c, v in ls
        ]
        if len(w):  # a product of weights in (0, 1] can only underflow to 0
            check_weight_value(float(w.min()))
        for _, _, _, v in lumps:
            check_weight_value(v)
        self.columns: _Columns = ([], coeff, w, lumps, [])
        self.unit_powers = _powers(self.columns, f.p)
        self.unit = _exact_total(self.unit_powers, f.p)
        self.best = max(self.combined, self.unit)

    def unit_columns(self) -> _Columns:
        return self.columns

    def best_powers(self) -> list[float]:
        if self.unit > self.combined:
            return self.unit_powers
        return [t for _, node in self.children for t in node.best_powers()]

    def first(self, rest: int, value: float, p: float) -> tuple[str, int]:
        """As :meth:`_Members.first`, over the combinations in product
        order and then ``()``."""
        later = self.combined
        if _value_of(rest + later, p) != value:
            return "()", self.unit
        labels, chosen = [], 0
        for a, node in self.children:
            later -= node.best
            label, t = node.first(rest + chosen + later, value, p)
            labels.append(f"{a}:{label}")
            chosen += t
        return "prod(" + ",".join(labels) + ")", chosen


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
    return _root(_powers(_member_columns(x, partition, weight, arity), p), p)


_Columns = tuple[
    list[np.ndarray],  # the fixed coordinates of the rows
    np.ndarray,  # the rows' coefficients
    np.ndarray,  # and weights
    list[tuple[tuple[int, ...], int, float, float]],  # lumps: cell key, size, coefficient, weight
    list[tuple[int, float, float]],  # split blocks: size, coefficient, weight
]


def _powers(columns: _Columns, p: float) -> list[float]:
    """:func:`member_norm_intensional` before its root: the member's
    powered cell terms, a split block's K cells as exact parts."""
    keys, coeff, w, lumps, splits = columns
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (coeff * coeff) * (w * w)
    # a lump's K terms, as exact parts, filed under the key of its cell
    lumped: dict[tuple[int, ...], list[float]] = {}
    for key, k, c, v in lumps:
        lumped.setdefault(key, []).extend(_exact_multiple(k, term(c, v)))
    hp = p / 2.0
    try:
        outer = _cell_powers(keys, terms, lumped, hp)
        for k, c, v in splits:
            outer.extend(_exact_multiple(k, pow(term(c, v), hp)))
    except OverflowError as exc:
        raise NormOverflowError(f"norm evaluation overflowed ({exc})") from exc
    return outer


def _member_columns(
    x: SparseVector, partition: PartitionDescriptor, weight: Weight, arity: int
) -> _Columns:
    """The member on ``x`` before any term is formed: the fixed-coordinate
    columns, coefficients and checked weights of the rows evaluated as
    columns; each lump's cell key, size, coefficient and weight; and each
    split block's size, coefficient and weight (see
    :func:`member_norm_intensional`)."""
    if x.arity != arity:
        raise ArityError(f"vector arity {x.arity} does not match the family arity {arity}")
    if not x.support_size:
        raise SupportError("a member norm needs a vector with nonempty support")
    fixed = [q - 1 for q in sorted(partition.fixed_coords(arity))]
    wdeps = weight.depends_on(arity)

    def key_of(idx: Index) -> tuple[int, ...]:
        return tuple(idx[q] for q in fixed)

    def weight_of(blk: ConstantBlock) -> float:
        at = blk.point_at(blk.lo)
        return check_weight_value(weight.value_at(at), weight, at)

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

    w = _checked_weight_column(weight, idx) if len(idx) else coeff
    return (
        [idx[:, q] for q in fixed],
        coeff,
        w,
        [(key_of(b.template), b.size, b.coeff, weight_of(b)) for b in lumps],
        [(b.size, b.coeff, weight_of(b)) for b in splits],
    )


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
