"""Finitely supported vectors on multi-index base sets.

A vector is a finite list of (index, coefficient) entries plus optional
*constant blocks*: runs of consecutive values along one coordinate that
all carry the same coefficient.  Blocks keep the huge supports of the
distortion witnesses representable without expansion; norm evaluation
treats them intensionally when the member weights permit.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, ValidationError
from .indices import Index, check_index

__all__ = [
    "ConstantBlock",
    "SparseVector",
    "blocks_overlap",
    "first_overlap",
    "first_points_inside",
    "unit_vector",
]


def _index_matrix(rows: Sequence[Sequence[int]], arity: int) -> np.ndarray:
    """Indices as the rows of an integer matrix: int64, or Python ints
    (dtype object) when a coordinate does not fit, so none wraps."""
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), arity)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(len(rows), arity)


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

    def point_matrix(self) -> np.ndarray:
        """The block's points, in order, as the rows of an :func:`_index_matrix`."""
        ends = _index_matrix([self.point_at(self.lo), self.point_at(self.hi)], len(self.template))
        m = np.repeat(ends[:1], self.size, axis=0)
        m[:, self.running_coord - 1] = np.arange(self.lo, self.hi + 1, dtype=m.dtype)
        return m

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


def first_overlap(blocks: Sequence[ConstantBlock]) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, that a scan of all pairs in order
    finds sharing a point, or None; O(n log n) for n disjoint blocks.

    Blocks with the same ``key_profile`` meet iff their ranges overlap:
    sorted by ``lo``, a block meets an earlier one iff its ``lo`` is
    within the furthest reach before it, and a later one iff the next
    ``lo`` is within its range.  Blocks running along different
    coordinates ra and rb meet in at most one point: they agree off ra
    and rb, and there one is a segment along ra at a fixed rb value, the
    other a segment along rb at a fixed ra value.  A sweep along ra finds
    such crossings, keeping the segments open at the sweep position
    sorted by their rb value.  The least block met by any other is the
    scan's first i; its first partner is then found by direct tests.
    """
    met: set[int] = set()
    profiles: dict[tuple, list[tuple[int, int, int]]] = {}
    for i, blk in enumerate(blocks):
        profiles.setdefault(blk.key_profile(), []).append((blk.lo, blk.hi, i))
    for runs in profiles.values():
        runs.sort()
        reach, far = runs[0][1], runs[0][2]
        for (lo, hi, i), nxt in zip(runs, runs[1:] + [None]):
            if i != far and lo <= reach:
                met.update((i, far))
            if nxt is not None and nxt[0] <= hi:
                met.update((i, nxt[2]))
            if hi > reach:
                reach, far = hi, i
    coords = sorted({blk.running_coord for blk in blocks})
    for ra, rb in itertools.combinations(coords, 2):
        planes: dict[tuple, list[tuple]] = {}
        for i, blk in enumerate(blocks):
            rc = blk.running_coord
            if rc not in (ra, rb):
                continue
            rest = tuple(v for q, v in enumerate(blk.template, 1) if q not in (ra, rb))
            events = planes.setdefault(rest, [])
            if rc == ra:  # open over lo..hi, at height template[rb]
                events.append((blk.lo, 0, blk.template[rb - 1], i))
                events.append((blk.hi, 2, blk.template[rb - 1], i))
            else:  # crossing at template[ra], over heights lo..hi
                events.append((blk.template[ra - 1], 1, blk.lo, blk.hi, i))
        for events in planes.values():
            events.sort()
            open_at: list[tuple[int, int]] = []
            for ev in events:
                if ev[1] == 0:
                    bisect.insort(open_at, ev[2:])
                elif ev[1] == 2:
                    del open_at[bisect.bisect_left(open_at, ev[2:])]
                else:
                    _, _, lo, hi, i = ev
                    a, b = bisect.bisect_left(open_at, (lo,)), bisect.bisect_left(open_at, (hi + 1,))
                    hits = open_at[a:b]
                    if hits:
                        met.add(i)
                        met.update(j for _, j in hits)
    if not met:
        return None
    i = min(met)
    return i, next(j for j in range(i + 1, len(blocks)) if blocks_overlap(blocks[i], blocks[j]))


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
        overlap = first_overlap(self.blocks)
        for i, a in enumerate(self.blocks):
            if overlap is not None and overlap[0] == i:
                b = self.blocks[overlap[1]]
                raise ValidationError(
                    f"blocks overlap: {a.key_profile()} [{a.lo},{a.hi}] and "
                    f"{b.key_profile()} [{b.lo},{b.hi}]"
                )
            if inside[i] is not None:
                raise ValidationError(f"entry {inside[i]} lies inside a block")
        object.__setattr__(self, "entries", tuple(ents))

    @functools.cached_property
    def entry_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The entries as an :func:`_index_matrix` and a float column of
        their coefficients, in entry order; built once per vector."""
        return (
            _index_matrix([idx for idx, _ in self.entries], self.arity),
            np.array([c for _, c in self.entries], dtype=float),
        )

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
