"""Weight descriptors.

A weight assigns every base-set index a value in (0, 1].  Weights are
described symbolically (constants, power decay, geometric decay, finite
overrides with a tail, interleavings, coordinate lifts, products,
pointwise minima) so that evaluation at arbitrary indices is cheap and so
that tail behaviour can be queried symbolically without summing series.

One-dimensional descriptors (PowerDecay, Geometric, Explicit, Interleave)
evaluate on single naturals; to use them on a higher-arity base set, lift
them onto a coordinate with :class:`CoordinateLift`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UndecidableWeightError, ValidationError
from .indices import Index

__all__ = [
    "Weight",
    "One",
    "Constant",
    "PowerDecay",
    "Geometric",
    "Explicit",
    "Interleave",
    "CoordinateLift",
    "Product",
    "Min",
    "TailQueries",
    "symbolic_tail_queries",
    "is_one",
]


class Weight:
    """Base class for weight descriptors."""

    def value_at(self, idx: Index) -> float:
        raise NotImplementedError

    def value_at_nat(self, s: int) -> float:
        """Evaluate a one-dimensional descriptor at the natural ``s``."""
        return self.value_at((s,))

    def depends_on(self, arity: int) -> frozenset[int]:
        """Coordinates (1-based) the value may depend on.

        Conservative upper bound; used to decide whether a run-length
        block is constant along its running coordinate.
        """
        raise NotImplementedError


def _check_unit_interval(c: float, what: str) -> float:
    c = float(c)
    if not (0.0 < c <= 1.0) or math.isnan(c):
        raise ValidationError(f"{what} must lie in (0, 1], got {c!r}")
    return c


def _one_dim(idx: Index, kind: str) -> int:
    if len(idx) != 1:
        raise ValidationError(
            f"{kind} is one-dimensional; lift it onto a coordinate for arity {len(idx)}"
        )
    return idx[0]


@dataclass(frozen=True)
class One(Weight):
    """The constant weight 1 on any base set."""

    def value_at(self, idx: Index) -> float:
        return 1.0

    def depends_on(self, arity: int) -> frozenset[int]:
        return frozenset()


@dataclass(frozen=True)
class Constant(Weight):
    c: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _check_unit_interval(self.c, "constant weight"))

    def value_at(self, idx: Index) -> float:
        return self.c

    def depends_on(self, arity: int) -> frozenset[int]:
        return frozenset()


@dataclass(frozen=True)
class PowerDecay(Weight):
    """w(s) = min(1, s**-alpha) for s = 1, 2, ...  Requires alpha > 0."""

    alpha: float

    def __post_init__(self) -> None:
        a = float(self.alpha)
        if not (a > 0.0) or math.isnan(a) or math.isinf(a):
            raise ValidationError(f"power decay exponent must be finite and > 0, got {a!r}")
        object.__setattr__(self, "alpha", a)

    def value_at(self, idx: Index) -> float:
        s = _one_dim(idx, "PowerDecay")
        v = float(s) ** (-self.alpha)
        if v == 0.0:
            raise ValidationError(f"weight {self!r} underflows to 0.0 at s = {s}")
        return min(1.0, v)

    def depends_on(self, arity: int) -> frozenset[int]:
        return frozenset({1})


@dataclass(frozen=True)
class Geometric(Weight):
    """w(s) = ratio**s with ratio in (0, 1)."""

    ratio: float

    def __post_init__(self) -> None:
        r = float(self.ratio)
        if not (0.0 < r < 1.0) or math.isnan(r):
            raise ValidationError(f"geometric ratio must lie in (0, 1), got {r!r}")
        object.__setattr__(self, "ratio", r)

    def value_at(self, idx: Index) -> float:
        s = _one_dim(idx, "Geometric")
        v = self.ratio**s
        if v == 0.0:
            raise ValidationError(f"weight {self!r} underflows to 0.0 at s = {s}")
        return v

    def depends_on(self, arity: int) -> frozenset[int]:
        return frozenset({1})


@dataclass(frozen=True)
class Explicit(Weight):
    """Finitely many explicit head values followed by a tail descriptor.

    w(s) = head[s-1] for s <= len(head), otherwise tail(s).
    """

    head: tuple[float, ...]
    tail: Weight

    def __post_init__(self) -> None:
        vals = tuple(_check_unit_interval(v, "explicit head value") for v in self.head)
        object.__setattr__(self, "head", vals)
        if not isinstance(self.tail, Weight):
            raise ValidationError("Explicit tail must be a weight descriptor")

    def value_at(self, idx: Index) -> float:
        s = _one_dim(idx, "Explicit")
        if s <= len(self.head):
            return self.head[s - 1]
        return self.tail.value_at_nat(s)

    def depends_on(self, arity: int) -> frozenset[int]:
        return frozenset({1})


@dataclass(frozen=True)
class Interleave(Weight):
    """Alternate two one-dimensional descriptors.

    Even positions take the ``even`` descriptor and odd positions the
    ``odd`` one: w(2k) = even(k) and w(2k-1) = odd(k).
    """

    even: Weight
    odd: Weight

    def value_at(self, idx: Index) -> float:
        s = _one_dim(idx, "Interleave")
        if s % 2 == 0:
            return self.even.value_at_nat(s // 2)
        return self.odd.value_at_nat((s + 1) // 2)

    def depends_on(self, arity: int) -> frozenset[int]:
        return frozenset({1})


@dataclass(frozen=True)
class CoordinateLift(Weight):
    """Evaluate ``inner`` on a selection of coordinates.

    ``positions`` is a tuple of distinct 1-based coordinate positions; the
    selected sub-index is passed to ``inner``.  A single position lifts a
    one-dimensional descriptor onto that coordinate.
    """

    positions: tuple[int, ...]
    inner: Weight

    def __post_init__(self) -> None:
        pos = self.positions
        if isinstance(pos, int):
            pos = (pos,)
        pos = tuple(int(q) for q in pos)
        if not pos or len(set(pos)) != len(pos) or any(q < 1 for q in pos):
            raise ValidationError(f"lift positions must be distinct and >= 1, got {pos}")
        object.__setattr__(self, "positions", pos)
        if not isinstance(self.inner, Weight):
            raise ValidationError("lift inner must be a weight descriptor")

    def value_at(self, idx: Index) -> float:
        n = len(idx)
        for q in self.positions:
            if q > n:
                raise ValidationError(f"lift position {q} exceeds arity {n}")
        return self.inner.value_at(tuple(idx[q - 1] for q in self.positions))

    def depends_on(self, arity: int) -> frozenset[int]:
        inner_deps = self.inner.depends_on(len(self.positions))
        return frozenset(self.positions[q - 1] for q in inner_deps)


@dataclass(frozen=True)
class Product(Weight):
    """Pointwise product of weight descriptors.  Values stay in (0, 1]."""

    factors: tuple[Weight, ...]

    def __post_init__(self) -> None:
        fs = tuple(self.factors)
        if not fs:
            raise ValidationError("Product needs at least one factor")
        for f in fs:
            if not isinstance(f, Weight):
                raise ValidationError("Product factors must be weight descriptors")
        object.__setattr__(self, "factors", fs)

    def value_at(self, idx: Index) -> float:
        v = 1.0
        for f in self.factors:
            v *= f.value_at(idx)
        return v

    def depends_on(self, arity: int) -> frozenset[int]:
        deps: frozenset[int] = frozenset()
        for f in self.factors:
            deps |= f.depends_on(arity)
        return deps


@dataclass(frozen=True)
class Min(Weight):
    """Pointwise minimum of weight descriptors."""

    factors: tuple[Weight, ...]

    def __post_init__(self) -> None:
        fs = tuple(self.factors)
        if not fs:
            raise ValidationError("Min needs at least one descriptor")
        for f in fs:
            if not isinstance(f, Weight):
                raise ValidationError("Min arguments must be weight descriptors")
        object.__setattr__(self, "factors", fs)

    def value_at(self, idx: Index) -> float:
        return min(f.value_at(idx) for f in self.factors)

    def depends_on(self, arity: int) -> frozenset[int]:
        deps: frozenset[int] = frozenset()
        for f in self.factors:
            deps |= f.depends_on(arity)
        return deps


def is_one(w: Weight) -> bool:
    """Whether the descriptor is syntactically the constant weight 1."""
    if isinstance(w, One):
        return True
    if isinstance(w, Constant):
        return w.c == 1.0
    if isinstance(w, (Product, Min)):
        return all(is_one(f) for f in w.factors)
    if isinstance(w, CoordinateLift):
        return is_one(w.inner)
    if isinstance(w, Explicit):
        return all(v == 1.0 for v in w.head) and is_one(w.tail)
    if isinstance(w, Interleave):
        return is_one(w.even) and is_one(w.odd)
    return False


# ---------------------------------------------------------------------------
# Symbolic tail queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailQueries:
    """Answers about the tail of a one-dimensional weight sequence.

    For exponent e = 2p/(p-2):
      inf_positive      inf_n w(n) > 0
      power_sum_finite  sum_n w(n)**e < infinity
      star              for every eps > 0, sum over {n : w(n) < eps} of
                        w(n)**e diverges
    """

    inf_positive: bool
    power_sum_finite: bool
    star: bool


_IP, _PSF, _STAR = "inf_positive", "power_sum_finite", "star"


def _leaf_verdict(alpha_total: float, has_geometric: bool, e: float) -> str:
    # Verdicts are invariant under positive constant scaling and under
    # bounded-ratio perturbation of the sequence, which is what lets
    # products and interleavings decompose into independent branches.
    if has_geometric:
        return _PSF
    if alpha_total > 0.0:
        return _PSF if alpha_total * e > 1.0 else _STAR
    return _IP


def _branches(w: Weight, e: float) -> list[str]:
    """Decompose a one-dimensional descriptor into tail branches.

    Each branch is an infinite subsequence whose verdict is one of the
    three leaf kinds.  Raises UndecidableWeightError if the descriptor
    falls outside the decidable fragment.
    """
    if isinstance(w, (One, Constant)):
        return [_IP]
    if isinstance(w, PowerDecay):
        return [_leaf_verdict(w.alpha, False, e)]
    if isinstance(w, Geometric):
        return [_PSF]
    if isinstance(w, Explicit):
        return _branches(w.tail, e)
    if isinstance(w, Interleave):
        return _branches(w.even, e) + _branches(w.odd, e)
    if isinstance(w, Product):
        return _product_branches(list(w.factors), e)
    raise UndecidableWeightError(
        f"symbolic tail queries are undecidable for {type(w).__name__}"
    )


def _product_branches(factors: list[Weight], e: float) -> list[str]:
    alpha = 0.0
    geometric = False
    composites: list[Weight] = []
    for f in factors:
        if isinstance(f, (One, Constant)):
            continue
        elif isinstance(f, PowerDecay):
            alpha += f.alpha
        elif isinstance(f, Geometric):
            geometric = True
        elif isinstance(f, Explicit):
            composites.append(f.tail)
        elif isinstance(f, (Interleave, Product)):
            composites.append(f)
        else:
            raise UndecidableWeightError(
                f"symbolic tail queries are undecidable for products over {type(f).__name__}"
            )
    if not composites:
        return [_leaf_verdict(alpha, geometric, e)]
    if len(composites) > 1:
        raise UndecidableWeightError(
            "symbolic tail queries support at most one interleaved factor per product"
        )
    comp = composites[0]
    scale: list[Weight] = []
    if alpha > 0.0:
        scale.append(PowerDecay(alpha))
    if geometric:
        scale.append(Geometric(0.5))
    if isinstance(comp, Interleave):
        # Distribute: the scaled interleave is, up to bounded ratios, the
        # interleave of the scaled halves, and verdicts only see tails.
        return _product_branches([comp.even] + scale, e) + _product_branches(
            [comp.odd] + scale, e
        )
    if isinstance(comp, Product):
        return _product_branches(list(comp.factors) + scale, e)
    return _product_branches([comp] + scale, e)


def symbolic_tail_queries(w: Weight, p: float) -> TailQueries:
    """Decide the three tail properties of a one-dimensional weight.

    The exponent used for the power sums is e = 2p/(p-2), the dual
    exponent governing which weighted-diagonal sequence spaces embed.
    """
    if not p > 2.0:
        raise ValidationError(f"tail queries need p > 2, got {p}")
    e = 2.0 * p / (p - 2.0)
    bs = _branches(w, e)
    return TailQueries(
        inf_positive=all(b == _IP for b in bs),
        power_sum_finite=all(b == _PSF for b in bs),
        star=any(b == _STAR for b in bs),
    )
