"""Partition descriptors and finite restrictions.

Global partitions of the base set are described intensionally: two
indices share a cell exactly when they agree on a fixed set of
coordinates.  Discrete (all coordinates fixed) and indiscrete (none) are
the extremes; grouping by consecutive coordinate pairs supports base sets
built from products of planes.

Arbitrary partitions exist only as :class:`RestrictedPartition` objects
on finite supports, in canonical form: cells sorted by their least
element, points sorted within each cell.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass
from typing import Mapping, Sequence, Union

from .errors import ArityError, SupportError, ValidationError
from .indices import Index, check_index
from .weights import Weight

__all__ = [
    "PartitionDescriptor",
    "Discrete",
    "Indiscrete",
    "CoordinateGrouping",
    "PairGrouping",
    "RestrictedPartition",
    "PairPW",
    "RestrictedPair",
    "restrict_pair",
    "check_weight_value",
    "canonical_cells",
]


class PartitionDescriptor:
    """Base class for intensional partition descriptions."""

    def fixed_coords(self, arity: int) -> frozenset[int]:
        raise NotImplementedError

    def cell_key(self, idx: Index, arity: int) -> tuple[int, ...]:
        fixed = sorted(self.fixed_coords(arity))
        return tuple(idx[q - 1] for q in fixed)


@dataclass(frozen=True)
class Discrete(PartitionDescriptor):
    """Every index is its own cell."""

    def fixed_coords(self, arity: int) -> frozenset[int]:
        return frozenset(range(1, arity + 1))


@dataclass(frozen=True)
class Indiscrete(PartitionDescriptor):
    """One cell containing the whole base set."""

    def fixed_coords(self, arity: int) -> frozenset[int]:
        return frozenset()


@dataclass(frozen=True)
class CoordinateGrouping(PartitionDescriptor):
    """Indices share a cell iff they agree on the given coordinates."""

    fixed: frozenset[int]

    def __post_init__(self) -> None:
        fs = frozenset(int(q) for q in self.fixed)
        if any(q < 1 for q in fs):
            raise ValidationError(f"fixed coordinates must be >= 1, got {sorted(fs)}")
        object.__setattr__(self, "fixed", fs)

    def fixed_coords(self, arity: int) -> frozenset[int]:
        if any(q > arity for q in self.fixed):
            raise ArityError(
                f"fixed coordinates {sorted(self.fixed)} exceed arity {arity}"
            )
        return self.fixed


@dataclass(frozen=True)
class PairGrouping(PartitionDescriptor):
    """Group by agreement on coordinate pairs (2k-1, 2k) for k in ``pairs``.

    Intended for even arity 2n where the base set is an n-fold product of
    planes; ``pairs`` is a subset of {1, .., n}.
    """

    pairs: frozenset[int]

    def __post_init__(self) -> None:
        ps = frozenset(int(k) for k in self.pairs)
        if any(k < 1 for k in ps):
            raise ValidationError(f"pair numbers must be >= 1, got {sorted(ps)}")
        object.__setattr__(self, "pairs", ps)

    def fixed_coords(self, arity: int) -> frozenset[int]:
        if arity % 2 != 0:
            raise ArityError(f"pair grouping needs even arity, got {arity}")
        n = arity // 2
        if any(k > n for k in self.pairs):
            raise ArityError(f"pair numbers {sorted(self.pairs)} exceed {n} pairs")
        return frozenset(
            c for k in self.pairs for c in (2 * k - 1, 2 * k)
        )


def check_weight_value(v: float, weight: Weight | None = None, at: Index | None = None) -> float:
    """A member's weight at a point must lie in (0, 1]; return it unchanged.

    The error names the descriptor and the point when they are given: a
    product of nonzero factors can still round to 0.0.
    """
    if not (0.0 < v <= 1.0):
        where = "" if weight is None else f": {weight!r} at {at}"
        raise ValidationError(f"restricted weight {v!r} outside (0, 1]{where}")
    return v


def canonical_cells(cells: Sequence[Sequence[Index]]) -> tuple[tuple[Index, ...], ...]:
    """Sort points within cells and cells by least point."""
    normed = [tuple(sorted(c)) for c in cells]
    if any(not c for c in normed):
        raise ValidationError("cells must be nonempty")
    return tuple(sorted(normed, key=lambda c: c[0]))


@dataclass(frozen=True)
class RestrictedPartition:
    """A partition of a finite support, in canonical form."""

    support: tuple[Index, ...]
    cells: tuple[tuple[Index, ...], ...]

    def __post_init__(self) -> None:
        cells = canonical_cells(self.cells)
        seen: set[Index] = set()
        for c in cells:
            for b in c:
                if b in seen:
                    raise ValidationError(f"point {b} appears in two cells")
                seen.add(b)
        support = tuple(sorted(self.support))
        if seen != set(support) or len(support) != len(seen):
            raise ValidationError("cells must partition the support exactly")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "cells", cells)


@dataclass(frozen=True)
class PairPW:
    """One family member: a partition together with a weight.

    The partition is either an intensional descriptor or an explicit
    :class:`RestrictedPartition`; the weight is either a descriptor or an
    explicit point-to-value mapping.  ``label`` names the member in norm
    reports.
    """

    partition: Union[PartitionDescriptor, RestrictedPartition]
    weight: Union[Weight, Mapping[Index, float]]
    label: str = ""


@dataclass(frozen=True)
class RestrictedPair:
    """A member restricted to a finite support: explicit cells and weights.

    ``support`` is sorted; ``weight_values`` aligns with it.  Each value
    is checked to lie in (0, 1] unless ``values_checked`` says the caller
    has done so.
    """

    support: tuple[Index, ...]
    cells: tuple[tuple[Index, ...], ...]
    weight_values: tuple[float, ...]
    label: str = ""
    values_checked: InitVar[bool] = False

    def __post_init__(self, values_checked: bool) -> None:
        if len(self.support) != len(self.weight_values):
            raise ValidationError("one weight value per support point required")
        if not values_checked:
            for v in self.weight_values:
                check_weight_value(v)

    def weight_at(self, b: Index) -> float:
        return self._weight_of[b]

    def weight_map(self) -> dict[Index, float]:
        return dict(zip(self.support, self.weight_values))

    def cell_of(self) -> dict[Index, int]:
        """Map each support point to the index of its cell; built once, do
        not modify."""
        return self._cell_index

    # for weight_at alone: the many pairs that are glued or normed once
    # read weight_map once, and would each keep a dict
    @functools.cached_property
    def _weight_of(self) -> dict[Index, float]:
        return self.weight_map()

    @functools.cached_property
    def _cell_index(self) -> dict[Index, int]:
        return {b: i for i, c in enumerate(self.cells) for b in c}

    def canonical_key(self) -> tuple:
        """Structural identity: cells plus weight values, label ignored."""
        return (self.cells, self.weight_values)

    def restrict_to(self, sub: Sequence[Index], label: str | None = None) -> "RestrictedPair":
        """Intersect with a subset of the support."""
        subset = sorted(set(sub))
        have = set(self.support)
        missing = [b for b in subset if b not in have]
        if missing:
            raise SupportError(f"points {missing} outside the restricted support")
        wmap = self.weight_map()
        keep = set(subset)
        cells = [tuple(b for b in c if b in keep) for c in self.cells]
        cells = [c for c in cells if c]
        return RestrictedPair(
            support=tuple(subset),
            cells=canonical_cells(cells),
            weight_values=tuple(wmap[b] for b in subset),
            label=self.label if label is None else label,
        )


def restrict_pair(pair: PairPW, support: Sequence[Index], arity: int) -> RestrictedPair:
    """Restrict one member to a finite support.

    Cells are the nonempty intersections of the member's cells with the
    support; weights are evaluated pointwise.  The result is canonical,
    so structurally equal restrictions compare equal.
    """
    pts = sorted(set(support))
    if not pts:
        raise ValidationError("support must be nonempty")
    for b in pts:
        check_index(b, arity)
    return restrict_sorted(pair, pts, arity)


def restrict_sorted(pair: PairPW, pts: Sequence[Index], arity: int) -> RestrictedPair:
    """:func:`restrict_pair` on points already sorted, distinct and
    checked against ``arity``, as a family's restriction passes them."""
    part = pair.partition
    if isinstance(part, RestrictedPartition):
        have = set(part.support)
        missing = [b for b in pts if b not in have]
        if missing:
            raise SupportError(
                f"support points {missing} not covered by the restricted partition"
            )
        keep = set(pts)
        cells = [tuple(b for b in c if b in keep) for c in part.cells]
        cells = [c for c in cells if c]
    else:
        fixed = [q - 1 for q in sorted(part.fixed_coords(arity))]
        groups: dict[tuple[int, ...], list[Index]] = {}
        for b in pts:
            groups.setdefault(tuple(b[q] for q in fixed), []).append(b)
        cells = [tuple(g) for g in groups.values()]

    w = pair.weight
    if isinstance(w, Weight):
        values = tuple(check_weight_value(w.value_at(b), w, b) for b in pts)
    else:
        try:
            values = tuple(float(w[b]) for b in pts)
        except KeyError as exc:
            raise SupportError(f"no weight value for point {exc.args[0]}") from exc

    return RestrictedPair(
        support=tuple(pts),
        cells=canonical_cells(cells),
        weight_values=values,
        label=pair.label,
        values_checked=isinstance(w, Weight),
    )
