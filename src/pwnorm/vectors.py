"""Finitely supported vectors on multi-index base sets.

A vector is a finite list of (index, coefficient) entries plus optional
*constant blocks*: runs of consecutive values along one coordinate that
all carry the same coefficient.  Blocks keep the huge supports of the
distortion witnesses representable without expansion; norm evaluation
treats them intensionally when the member weights permit.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, ValidationError
from .indices import Index, check_index

__all__ = [
    "ConstantBlock", "SparseVector", "blocks_overlap", "first_points_inside", "unit_vector"
]


@dataclass(frozen=True)
class ConstantBlock:
    """Coefficient ``coeff`` at ``template`` with coordinate ``running_coord``
    swept over ``lo..hi`` inclusive.

    The template's value at the running coordinate is ignored.
    """

    template: Index
    running_coord: int
    lo: int
    hi: int
    coeff: float

    def __post_init__(self) -> None:
        if not (1 <= self.running_coord <= len(self.template)):
            raise ValidationError(
                f"running coordinate {self.running_coord} outside template arity"
            )
        if not (1 <= self.lo <= self.hi):
            raise ValidationError(f"need 1 <= lo <= hi, got lo={self.lo} hi={self.hi}")
        if self.coeff == 0.0:
            raise ValidationError("block coefficient must be nonzero")
        tpl = tuple(self.template)
        check_index(tpl, len(tpl))
        if not math.isfinite(self.coeff):
            raise ValidationError(
                f"block at {tpl} (coordinate {self.running_coord} over "
                f"{self.lo}..{self.hi}): coefficient {self.coeff!r} is not finite"
            )
        object.__setattr__(self, "template", tpl)

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def point_at(self, s: int) -> Index:
        t = list(self.template)
        t[self.running_coord - 1] = s
        return tuple(t)

    def contains(self, idx: Index) -> bool:
        if len(idx) != len(self.template):
            return False
        rc = self.running_coord - 1
        for q, (a, b) in enumerate(zip(idx, self.template)):
            if q == rc:
                if not (self.lo <= a <= self.hi):
                    return False
            elif a != b:
                return False
        return True

    def points(self) -> Iterator[Index]:
        for s in range(self.lo, self.hi + 1):
            yield self.point_at(s)

    def key_profile(self) -> tuple:
        """Template with the running slot masked; equal profiles with the
        same running coordinate can only collide on overlapping ranges."""
        t = list(self.template)
        t[self.running_coord - 1] = -1
        return (self.running_coord, tuple(t))


def blocks_overlap(a: ConstantBlock, b: ConstantBlock) -> bool:
    """Whether two blocks share a point (decided without expanding them)."""
    if a.key_profile() == b.key_profile():
        return not (a.hi < b.lo or b.hi < a.lo)
    if a.running_coord == b.running_coord:
        return False
    # Different running coordinates: each fixes the other's running slot.
    ra, rb = a.running_coord - 1, b.running_coord - 1
    for q in range(len(a.template)):
        if q == ra and q == rb:
            if a.hi < b.lo or b.hi < a.lo:
                return False
        elif q == ra:
            if not (a.lo <= b.template[q] <= a.hi):
                return False
        elif q == rb:
            if not (b.lo <= a.template[q] <= b.hi):
                return False
        else:
            if a.template[q] != b.template[q]:
                return False
    return True


def first_points_inside(
    blocks: Sequence[ConstantBlock], points: Iterable[Index]
) -> list[Index | None]:
    """Per block, the first of the ascending ``points`` it contains, or
    None: a keyed lookup on the point masked as a block's ``key_profile``
    masks its template, then a bisection on the running value."""
    runs: dict[int, dict[tuple, list[int]]] = {blk.running_coord: {} for blk in blocks}
    for idx in points:
        for rc, groups in runs.items():
            groups.setdefault(idx[: rc - 1] + (-1,) + idx[rc:], []).append(idx[rc - 1])
    hits: list[Index | None] = []
    for blk in blocks:
        vals = runs[blk.running_coord].get(blk.key_profile()[1], [])
        j = bisect.bisect_left(vals, blk.lo)
        hits.append(blk.point_at(vals[j]) if j < len(vals) and vals[j] <= blk.hi else None)
    return hits


@dataclass(frozen=True)
class SparseVector:
    """Finitely supported vector: explicit entries + constant blocks.

    Entries are stored sorted by index.  Construction validates that no
    point is covered twice (entry/entry, entry/block, or block/block).
    Overlap checking is structural — blocks are never expanded.
    """

    arity: int
    entries: tuple[tuple[Index, float], ...] = ()
    blocks: tuple[ConstantBlock, ...] = ()

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValidationError(f"arity must be >= 1, got {self.arity}")
        ents = []
        for idx, c in self.entries:
            idx = tuple(idx)
            check_index(idx, self.arity)
            c = float(c)
            if not math.isfinite(c):
                raise ValidationError(f"entry {idx}: coefficient {c!r} is not finite")
            if c != 0.0:
                ents.append((idx, c))
        ents.sort()
        for (i1, _), (i2, _) in zip(ents, ents[1:]):
            if i1 == i2:
                raise ValidationError(f"duplicate entry at {i1}")
        for blk in self.blocks:
            if len(blk.template) != self.arity:
                raise ValidationError(
                    f"block template arity {len(blk.template)} != vector arity {self.arity}"
                )
        inside = first_points_inside(self.blocks, [idx for idx, _ in ents])
        for i, a in enumerate(self.blocks):
            for b in self.blocks[i + 1 :]:
                if blocks_overlap(a, b):
                    raise ValidationError(
                        f"blocks overlap: {a.key_profile()} [{a.lo},{a.hi}] and "
                        f"{b.key_profile()} [{b.lo},{b.hi}]"
                    )
            if inside[i] is not None:
                raise ValidationError(f"entry {inside[i]} lies inside a block")
        object.__setattr__(self, "entries", tuple(ents))

    @property
    def support_size(self) -> int:
        return len(self.entries) + sum(b.size for b in self.blocks)

    def support(self, cap: int | None = None) -> list[Index]:
        """All support points, sorted.  Raises if larger than ``cap``."""
        if cap is not None and self.support_size > cap:
            raise CapacityError(
                f"support size {self.support_size} exceeds cap {cap}"
            )
        pts = [idx for idx, _ in self.entries]
        for blk in self.blocks:
            pts.extend(blk.points())
        return sorted(pts)

    def expand(self, cap: int = 1 << 16) -> "SparseVector":
        """Replace blocks by explicit entries (bounded by ``cap`` points)."""
        if self.support_size > cap:
            raise CapacityError(
                f"support size {self.support_size} exceeds expansion cap {cap}"
            )
        ents = list(self.entries)
        for blk in self.blocks:
            ents.extend((b, blk.coeff) for b in blk.points())
        return SparseVector(self.arity, tuple(ents), ())

    def value_at(self, idx: Index) -> float:
        for i, c in self.entries:
            if i == idx:
                return c
        for blk in self.blocks:
            if blk.contains(idx):
                return blk.coeff
        return 0.0

    def items(self, cap: int | None = None) -> list[tuple[Index, float]]:
        if cap is not None and self.support_size > cap:
            raise CapacityError(
                f"support size {self.support_size} exceeds cap {cap}"
            )
        out = list(self.entries)
        for blk in self.blocks:
            out.extend((b, blk.coeff) for b in blk.points())
        out.sort()
        return out


def unit_vector(idx: Index) -> SparseVector:
    return SparseVector(len(idx), ((tuple(idx), 1.0),))
