"""Named space builders, combinators, and the two classification tables.

Everything returns a :class:`~pwnorm.families.Family`; norms and
envelopes are computed by the norm/envelope modules.  Classification
maps weight descriptors (or single-partition size profiles) onto the
handful of classical isomorphism types these norms can realize.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Literal, Sequence

from .errors import UndecidableWeightError, ValidationError
from .families import (
    EnvelopeMembers,
    ExplicitMembers,
    ExtendedMembers,
    Family,
    MemberSource,
    SubsetLattice,
    SumMembers,
    TensorMembers,
    has_discrete_one,
    indiscrete_weight,
    is_admissible,
)
from .partitions import CoordinateGrouping, Discrete, Indiscrete, PairPW
from .weights import Constant, Geometric, Min, One, Weight, symbolic_tail_queries

__all__ = [
    "IsoType",
    "SizeProfile",
    "OrdinalDesc",
    "Classification",
    "make_lp",
    "make_l2",
    "make_sum_l2_lp",
    "make_rosenthal_xp",
    "make_schechtman",
    "make_Yn",
    "p2w_sum",
    "lp_sum",
    "tensor_family",
    "envelope_family",
    "xp_alpha",
    "make_admissible",
    "classify_single",
    "classify_rosenthal",
    "INFINITELY_MANY",
]


class IsoType(Enum):
    LP = "l_p"
    L2 = "l_2"
    L2_PLUS_LP = "l_2+l_p"
    SUM_L2_LP = "(sum_l2)_p"
    XP = "X_p"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Classification:
    tag: IsoType
    detail: str = ""


INFINITELY_MANY = "inf"


@dataclass(frozen=True)
class SizeProfile:
    """Shape of a single partition's cells on a countable base set.

    ``count_infinite`` / ``count_finite`` are nonnegative ints or
    ``INFINITELY_MANY``; ``finite_sizes`` describes the finite cells:
    none, all_singletons, bounded (with ``bound``), or unbounded.
    """

    count_infinite: int | str
    finite_sizes: Literal["none", "all_singletons", "bounded", "unbounded"]
    count_finite: int | str
    bound: int | None = None

    def __post_init__(self) -> None:
        for v, name in ((self.count_infinite, "count_infinite"), (self.count_finite, "count_finite")):
            if v != INFINITELY_MANY and (not isinstance(v, int) or v < 0):
                raise ValidationError(f"{name} must be a nonnegative int or {INFINITELY_MANY!r}")
        if self.finite_sizes not in ("none", "all_singletons", "bounded", "unbounded"):
            raise ValidationError(f"bad finite_sizes {self.finite_sizes!r}")
        if (self.finite_sizes == "none") != (self.count_finite == 0):
            raise ValidationError("finite_sizes 'none' iff count_finite is 0")
        if self.finite_sizes == "bounded":
            if self.bound is None or self.bound < 1:
                raise ValidationError("'bounded' needs bound >= 1")
        elif self.bound is not None:
            raise ValidationError("bound only applies to 'bounded'")
        if self.finite_sizes == "unbounded" and self.count_finite != INFINITELY_MANY:
            raise ValidationError("unbounded finite sizes need infinitely many finite cells")
        if self.count_infinite == 0 and self.count_finite == 0:
            raise ValidationError("a partition has at least one cell")
        if self.count_infinite == 0 and self.count_finite != INFINITELY_MANY:
            raise ValidationError(
                "finitely many finite cells cannot cover a countable base set"
            )


@dataclass(frozen=True)
class OrdinalDesc:
    """An ordinal below ω² as ω·q + r, with limit stages truncated to the
    first L predecessors."""

    q: int
    r: int
    limit_truncation: int = 4

    def __post_init__(self) -> None:
        if self.q < 0 or self.r < 0:
            raise ValidationError("ordinal parts must be nonnegative")
        if self.limit_truncation < 1:
            raise ValidationError("limit truncation must be >= 1")


# ---------------------------------------------------------------------------
# basic builders

def make_lp(p: float) -> Family:
    """All-singleton cells, weight 1 — the plain p-sum."""
    return Family(p, 1, ExplicitMembers((PairPW(Discrete(), One(), "discrete"),)))


def make_l2(p: float, w: Weight) -> Family:
    """One cell, weighted 2-sum."""
    return Family(p, 1, ExplicitMembers((PairPW(Indiscrete(), w, "()"),)))


def make_sum_l2_lp(p: float, w: Weight) -> Family:
    """Cells {n}×N on pairs: a p-sum of weighted 2-sums."""
    return Family(
        p,
        2,
        ExplicitMembers((PairPW(CoordinateGrouping(frozenset({1})), w, "rows"),)),
    )


def make_rosenthal_xp(p: float, w: Weight) -> Family:
    """The two-member family: singletons with weight 1, one cell with w."""
    return Family(
        p,
        1,
        ExplicitMembers(
            (
                PairPW(Discrete(), One(), "discrete"),
                PairPW(Indiscrete(), w, "()"),
            )
        ),
    )


def make_schechtman(p: float, w: Weight, w2: Weight) -> Family:
    """Four members on pairs (i, j): products of the two-member family
    with itself — weights w_i·w2_j, 1·w2_j, w_i·1, 1·1."""
    return tensor_family(make_rosenthal_xp(p, w), make_rosenthal_xp(p, w2))


def make_Yn(p: float, n: int, w: Weight) -> Family:
    """The 2^n-member subset-lattice family on n coordinate pairs."""
    return Family(p, 2 * n, SubsetLattice(n, w))


# ---------------------------------------------------------------------------
# combinators

def p2w_sum(children: Sequence[Family], W: Weight) -> Family:
    """Sum of admissible children: per-child member choices glued over
    the disjoint union, plus one global cell weighted W(a) times each
    child's distinguished single-cell weight."""
    children = tuple(children)
    if not children:
        raise ValidationError("p2w_sum needs at least one child")
    arity = 1 + max(ch.arity for ch in children)
    return Family(children[0].p, arity, SumMembers(children, W))


def lp_sum(children: Sequence[Family]) -> Family:
    """p2w_sum with the canonical geometric outer weight, small enough
    that the global-cell member never dominates a p-sum asymptotically:
    W(a) = 2^{-a(p-2)/(2p)}, so Σ_a W(a)^{2p/(p-2)} = Σ_a 2^{-a} < 1."""
    children = tuple(children)
    if not children:
        raise ValidationError("lp_sum needs at least one child")
    p = children[0].p
    return p2w_sum(children, Geometric(2.0 ** (-(p - 2.0) / (2.0 * p))))


def tensor_family(left: Family, right: Family) -> Family:
    """All pairwise products of members: product cells, product weights."""
    return Family(left.p, left.arity + right.arity, TensorMembers(left, right))


def envelope_family(inner: Family) -> Family:
    """The refinement closure, enumerable on finite supports."""
    return Family(inner.p, inner.arity, EnvelopeMembers(inner))


def xp_alpha(p: float, alpha: OrdinalDesc) -> Family:
    """Iterated-sum hierarchy below ω²: stage 0 is a single coordinate
    (p-th and 2-nd power sums coincide there), successors pair two copies
    with the equal-weight constant 2^{(2-p)/(2p)}, and limit stages sum
    the first ``limit_truncation`` predecessors with constant weight 1."""
    base = Family(
        p,
        1,
        ExplicitMembers(
            (
                PairPW(Discrete(), One(), "discrete"),
                PairPW(Indiscrete(), One(), "()"),
            )
        ),
    )
    w1 = Constant(2.0 ** ((2.0 - p) / (2.0 * p)))
    stage = base
    for _ in range(alpha.q):
        # the next limit stage sums the first L ordinals from this one on
        preds = [stage]
        while len(preds) < alpha.limit_truncation:
            preds.append(p2w_sum((preds[-1], preds[-1]), w1))
        stage = p2w_sum(preds, One())
    for _ in range(alpha.r):
        stage = p2w_sum((stage, stage), w1)
    return stage


def make_admissible(f: Family, ind_weight: Weight | None = None) -> Family:
    """Add the discrete-with-weight-1 and indiscrete members when absent.

    The indiscrete weight defaults to the pointwise minimum of the
    existing members' weights.  Never removes members, so the norm can
    only grow.
    """
    if is_admissible(f):
        return f
    have_discrete = has_discrete_one(f)
    try:
        indiscrete_weight(f)
        have_indiscrete = True
    except ValidationError:
        have_indiscrete = False
    extra: list[PairPW] = []
    if not have_discrete:
        extra.append(PairPW(Discrete(), One(), "discrete"))
    if not have_indiscrete:
        w = ind_weight if ind_weight is not None else _min_weight(f)
        extra.append(PairPW(Indiscrete(), w, "()"))
    if not extra:  # pragma: no cover - is_admissible would have been true
        return f
    return Family(f.p, f.arity, ExtendedMembers(f.members, tuple(extra)))


def _member_weights(src: MemberSource) -> list[Weight]:
    if isinstance(src, ExplicitMembers):
        ws = []
        for m in src.pairs:
            if not isinstance(m.weight, Weight):
                raise ValidationError(
                    "cannot take a pointwise-minimum default over explicit "
                    "per-point weights; pass an indiscrete weight"
                )
            ws.append(m.weight)
        return ws
    if isinstance(src, ExtendedMembers):
        return _member_weights(src.base) + _member_weights(ExplicitMembers(src.extra))
    if isinstance(src, TensorMembers):
        raise ValidationError(
            "pass an explicit indiscrete weight when extending a tensor family"
        )
    if isinstance(src, EnvelopeMembers):
        return _member_weights(src.inner.members)
    raise ValidationError("pass an explicit indiscrete weight for this family")


def _min_weight(f: Family) -> Weight:
    ws = _member_weights(f.members)
    if not ws:
        raise ValidationError("no member weights to take a minimum over")
    if len(ws) == 1:
        return ws[0]
    return Min(tuple(ws))


# ---------------------------------------------------------------------------
# classification

def classify_single(profile: SizeProfile) -> Classification:
    """Isomorphism type of a one-member family from its cell shape."""
    inf_cells = profile.count_infinite
    if inf_cells == INFINITELY_MANY or profile.finite_sizes == "unbounded":
        return Classification(
            IsoType.SUM_L2_LP,
            "unboundedly large cells produce a full p-sum of 2-sums",
        )
    if inf_cells == 0:
        # bounded (or singleton) cells, necessarily infinitely many
        return Classification(IsoType.LP, "bounded cells: p-sum behaviour")
    if profile.count_finite == INFINITELY_MANY:
        return Classification(
            IsoType.L2_PLUS_LP,
            f"{inf_cells} infinite cell(s) plus infinitely many bounded finite cells",
        )
    return Classification(
        IsoType.L2,
        f"{inf_cells} infinite cell(s); finitely many finite cells are absorbed",
    )


def classify_rosenthal(w: Weight, p: float) -> Classification:
    """Isomorphism type of the two-member family with indiscrete weight w,
    decided from the weight's symbolic tail behaviour."""
    if not (p > 2.0):
        raise ValidationError(f"exponent p must be > 2, got {p}")
    try:
        tail = symbolic_tail_queries(w, p)
    except UndecidableWeightError as exc:
        return Classification(IsoType.UNKNOWN, f"undecidable weight: {exc}")
    if tail.star:
        return Classification(
            IsoType.XP,
            "some branch keeps arbitrarily small weights with divergent power sum",
        )
    if tail.inf_positive:
        return Classification(IsoType.L2, "weights bounded below")
    if tail.power_sum_finite:
        return Classification(IsoType.LP, "summable weight powers")
    return Classification(
        IsoType.L2_PLUS_LP,
        "a bounded-below part alongside a power-summable part",
    )
