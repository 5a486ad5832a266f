"""Families of (partition, weight) members and their finite restrictions.

A family is an exponent p > 2 together with a member source: an explicit
list, the subset lattice over coordinate pairs, a sum of child families,
a tensor product, or the refinement closure of an inner family.  Members
given by descriptors (:func:`descriptor_members`) are normed straight
from a vector's blocks; on finite supports every source also yields a
finite, canonical, deduplicated list of
:class:`~pwnorm.partitions.RestrictedPair`.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Union

from .errors import ArityError, CapacityError, SupportError, ValidationError
from .indices import Index, check_index
from .partitions import (
    CoordinateGrouping,
    PairGrouping,
    PairPW,
    PartitionDescriptor,
    RestrictedPair,
    canonical_cells,
    restrict_sorted,
)
from .vectors import ConstantBlock, SparseVector
from .weights import CoordinateLift, One, Product, Weight, is_one

__all__ = [
    "ExplicitMembers",
    "SubsetLattice",
    "SumMembers",
    "TensorMembers",
    "EnvelopeMembers",
    "ExtendedMembers",
    "MemberSource",
    "Family",
    "restrict_family",
    "descriptor_members",
    "is_admissible",
    "has_discrete_one",
    "indiscrete_weight",
    "subset_order",
    "subset_label",
    "lattice_member_weight",
    "glue_restrictions",
    "cell_choices",
    "set_partitions",
    "sum_embed",
    "sum_split_support",
    "sum_split_vector",
    "MAX_PAIRS",
]

MAX_PAIRS = 10**6  # members, combinations or refinements listed at most


@dataclass(frozen=True)
class ExplicitMembers:
    pairs: tuple[PairPW, ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValidationError("a family needs at least one member")


@dataclass(frozen=True)
class SubsetLattice:
    """One member per I ⊆ {1..n} on arity 2n: partition fixes the pairs
    in I, weight is the product over pairs outside I of ``base`` lifted
    to that pair's first coordinate."""

    n: int
    base: Weight

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"subset lattice needs n >= 1, got {self.n}")


@dataclass(frozen=True)
class SumMembers:
    """Members of a sum family: per-child member choices glued across the
    children's copies, plus the global single-cell member whose weight at
    a point of child a's copy is outer(a) times the child's distinguished
    single-cell weight there."""

    children: tuple["Family", ...]
    outer: Weight

    def __post_init__(self) -> None:
        if not self.children:
            raise ValidationError("sum needs at least one child")
        for i, ch in enumerate(self.children):
            if not is_admissible(ch):
                raise ValidationError(
                    f"child {i + 1} is not admissible (needs discrete-with-weight-1 "
                    "and an indiscrete member); wrap it with make_admissible"
                )
        p = self.children[0].p
        for ch in self.children:
            if ch.p != p:
                raise ValidationError("sum children must share the exponent p")
        for a in range(1, len(self.children) + 1):
            self.outer.value_at_nat(a)  # range-checked by the descriptor


@dataclass(frozen=True)
class TensorMembers:
    left: "Family"
    right: "Family"

    def __post_init__(self) -> None:
        if self.left.p != self.right.p:
            raise ValidationError("tensor factors must share the exponent p")


@dataclass(frozen=True)
class EnvelopeMembers:
    """Refinement closure of the inner family; enumerable on finite
    supports as all (partition, per-cell member choice) gluings."""

    inner: "Family"


@dataclass(frozen=True)
class ExtendedMembers:
    """A member source with finitely many extra explicit members appended."""

    base: "MemberSource"
    extra: tuple[PairPW, ...]


MemberSource = Union[
    ExplicitMembers,
    SubsetLattice,
    SumMembers,
    TensorMembers,
    EnvelopeMembers,
    ExtendedMembers,
]


@dataclass(frozen=True)
class Family:
    p: float
    arity: int
    members: MemberSource

    def __post_init__(self) -> None:
        if not (2.0 < self.p < math.inf):
            raise ValidationError(f"exponent p must be finite and > 2, got {self.p}")
        if self.arity < 1:
            raise ValidationError(f"arity must be >= 1, got {self.arity}")
        m = self.members
        if isinstance(m, SubsetLattice) and self.arity != 2 * m.n:
            raise ArityError(
                f"subset lattice over {m.n} pairs needs arity {2 * m.n}, got {self.arity}"
            )
        if isinstance(m, SumMembers):
            want = 1 + max(ch.arity for ch in m.children)
            if self.arity != want:
                raise ArityError(f"sum of these children needs arity {want}")
        if isinstance(m, TensorMembers):
            want = m.left.arity + m.right.arity
            if self.arity != want:
                raise ArityError(f"tensor of these factors needs arity {want}")
        if isinstance(m, EnvelopeMembers) and m.inner.arity != self.arity:
            raise ArityError("envelope closure keeps the inner arity")

    # xp_alpha shares each stage between a successor's two children, so a
    # walk over the fields meets a stage once per path, 2^depth times.  The
    # hash is cached and the last family found equal remembered, which
    # makes both linear in the number of distinct stages.

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.p, self.arity, self.members))
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Family):
            return NotImplemented
        if self.__dict__.get("_same") is other:
            return True
        if hash(self) != hash(other) or (self.p, self.arity, self.members) != (
            other.p, other.arity, other.members
        ):
            return False
        object.__setattr__(self, "_same", other)
        return True


# ---------------------------------------------------------------------------
# subset-lattice plumbing

def subset_order(n: int) -> list[tuple[int, ...]]:
    """All I ⊆ {1..n} sorted by (|I|, lexicographic) — the canonical
    member order used in reports."""
    out: list[tuple[int, ...]] = []
    for size in range(n + 1):
        out.extend(itertools.combinations(range(1, n + 1), size))
    return out


def subset_label(I: Sequence[int]) -> str:
    return "I={" + ",".join(str(k) for k in sorted(I)) + "}"


def lattice_member_weight(n: int, I: Sequence[int], base: Weight) -> Weight:
    outside = [k for k in range(1, n + 1) if k not in set(I)]
    if not outside:
        return One()
    return Product(tuple(CoordinateLift((2 * k - 1,), base) for k in outside))


def _lattice_pairs(src: SubsetLattice) -> list[PairPW]:
    return [
        PairPW(
            partition=PairGrouping(frozenset(I)),
            weight=lattice_member_weight(src.n, I, src.base),
            label=subset_label(I),
        )
        for I in subset_order(src.n)
    ]


# ---------------------------------------------------------------------------
# sum plumbing

def sum_embed(child_no: int, pt: Index, arity: int) -> Index:
    """Embed a child point into the sum's base set: child number first,
    then the child's coordinates, then padding 1s up to the sum arity."""
    out = (child_no,) + tuple(pt)
    return out + (1,) * (arity - len(out))


def _sum_point(children: Sequence["Family"], b: Index) -> tuple[int, Index]:
    """A point of the sum's base set as (child number, child point)."""
    a = b[0]
    if not (1 <= a <= len(children)):
        raise SupportError(f"point {b}: child number {a} outside 1..{len(children)}")
    ch = children[a - 1]
    rest = b[1:]
    if any(c != 1 for c in rest[ch.arity :]):
        raise SupportError(f"point {b}: padding beyond child arity {ch.arity} must be 1")
    return a, rest[: ch.arity]


def sum_split_support(
    members: SumMembers, arity: int, support: Sequence[Index]
) -> dict[int, list[Index]]:
    """Group support points by child number and strip the embedding."""
    by_child: dict[int, list[Index]] = {}
    for b in support:
        a, pt = _sum_point(members.children, b)
        by_child.setdefault(a, []).append(pt)
    return by_child


def sum_split_vector(members: SumMembers, x: SparseVector) -> dict[int, SparseVector]:
    """A vector on the sum's base set as one vector per touched child, in
    child order and in the child's own coordinates.

    Points are checked as :func:`sum_split_support` checks them, and the
    error raised is the one of the first failing point in sorted order.
    Blocks are not expanded: a block running along coordinate 1 gives one
    entry to each child it crosses, a block running inside a child's
    coordinates stays a block, and one running along the padding can hold
    a single point only, which becomes an entry.
    """
    children = members.children
    n, arity = len(children), x.arity
    ars = [0] + [ch.arity for ch in children]
    ones = [()] + [(1,) * (arity - 1 - ar) for ar in ars[1:]]

    def bad(b: Index) -> bool:
        return not (1 <= b[0] <= n) or b[1 + ars[b[0]] :] != ones[b[0]]

    first_bad: list[Index] = []
    entries: dict[int, list[tuple[Index, float]]] = {}
    start = 0
    for a in range(1, n + 1):  # entries are sorted: each child's are contiguous
        stop = bisect.bisect_left(x.entries, ((a + 1,),), start)
        run, start = x.entries[start:stop], stop
        if run:
            if ones[a]:
                first_bad += itertools.islice((b for b, _ in run if bad(b)), 1)
            entries[a] = [(b[1 : 1 + ars[a]], c) for b, c in run]
    first_bad += [b for b, _ in x.entries[start : start + 1]]  # child number past n
    blocks: dict[int, list[ConstantBlock]] = {}
    loose: dict[int, list[tuple[Index, float]]] = {}
    for blk in x.blocks:
        # along coordinate 1 each point has its own child; along another
        # coordinate only the first two points can differ in their checks
        last = max(blk.lo, n + 1) if blk.running_coord == 1 else blk.lo + 1
        pts = (blk.point_at(s) for s in range(blk.lo, min(blk.hi, last) + 1))
        first_bad += itertools.islice(filter(bad, pts), 1)
        if first_bad:
            continue
        if blk.running_coord == 1:
            for a in range(blk.lo, blk.hi + 1):
                loose.setdefault(a, []).append((blk.template[1 : 1 + ars[a]], blk.coeff))
            continue
        a = blk.template[0]
        if blk.running_coord - 1 <= ars[a]:
            blocks.setdefault(a, []).append(
                ConstantBlock(blk.template[1 : 1 + ars[a]], blk.running_coord - 1,
                              blk.lo, blk.hi, blk.coeff)
            )
        else:  # a single point, at 1 on the padding coordinate it runs along
            loose.setdefault(a, []).append((blk.template[1 : 1 + ars[a]], blk.coeff))
    if first_bad:
        _sum_point(children, min(first_bad))
    for a, more in loose.items():
        entries[a] = sorted(entries.get(a, []) + more)
    return {
        a: _split_vector(ars[a], entries.get(a, []), blocks.get(a, []))
        for a in range(1, n + 1)
        if a in entries or a in blocks
    }


def _split_vector(
    arity: int, entries: list[tuple[Index, float]], blocks: list[ConstantBlock]
) -> SparseVector:
    """A child's part of a checked sum vector, built without validating it
    again: stripping the child number and padding keeps the entries
    sorted, distinct, nonzero and finite, and the blocks disjoint from
    them and from each other."""
    v = object.__new__(SparseVector)
    object.__setattr__(v, "arity", arity)
    object.__setattr__(v, "entries", tuple(entries))
    object.__setattr__(v, "blocks", tuple(blocks))
    return v


@dataclass(frozen=True)
class _SumIndiscreteWeight(Weight):
    """Weight of the sum's single-cell member: outer(a)·w^{a,()}(child point)."""

    members: SumMembers

    @functools.cached_property
    def _child_ind(self) -> tuple[Weight, ...]:
        return tuple(indiscrete_weight(ch) for ch in self.members.children)

    def value_at(self, idx: Index) -> float:
        a = idx[0]
        if not (1 <= a <= len(self.members.children)):
            raise SupportError(f"child number {a} outside the sum")
        ch = self.members.children[a - 1]
        return self.members.outer.value_at_nat(a) * self._child_ind[a - 1].value_at(
            idx[1 : 1 + ch.arity]
        )

    def depends_on(self, arity: int) -> frozenset[int]:
        return frozenset(range(1, arity + 1))


def _embed(a: int, rp: RestrictedPair, arity: int) -> RestrictedPair:
    """Child a's restricted member, moved onto the sum's base set."""
    return RestrictedPair(
        support=tuple(sum_embed(a, b, arity) for b in rp.support),
        cells=tuple(tuple(sum_embed(a, b, arity) for b in cell) for cell in rp.cells),
        weight_values=rp.weight_values,
        label=f"{a}:{rp.label}",
        values_checked=True,
    )


def _restrict_sum(family: Family, src: SumMembers, support: list[Index]) -> list[RestrictedPair]:
    by_child = sum_split_support(src, family.arity, support)
    touched = sorted(by_child)
    per_child: list[list[RestrictedPair]] = []
    count = 1
    for a in touched:
        members = _restrict(src.children[a - 1], by_child[a])
        count *= len(members)
        if count > MAX_PAIRS:
            raise CapacityError(
                f"sum restriction would exceed {MAX_PAIRS} member combinations"
            )
        per_child.append([_embed(a, rp, family.arity) for rp in members])

    out = [
        glue_restrictions(support, combo, "prod(" + ",".join(rp.label for rp in combo) + ")")
        for combo in itertools.product(*per_child)
    ]
    ind = _SumIndiscreteWeight(src)
    pts = tuple(sorted(support))
    out.append(
        RestrictedPair(
            support=pts,
            cells=(pts,),
            weight_values=tuple(ind.value_at(b) for b in pts),
            label="()",
        )
    )
    return out


# ---------------------------------------------------------------------------
# tensor plumbing

def _restrict_tensor(
    family: Family, src: TensorMembers, support: list[Index]
) -> list[RestrictedPair]:
    la = src.left.arity
    lefts = _restrict(src.left, sorted({b[:la] for b in support}))
    rights = _restrict(src.right, sorted({b[la:] for b in support}))
    if len(lefts) * len(rights) > MAX_PAIRS:
        raise CapacityError(
            f"tensor restriction would exceed {MAX_PAIRS} member combinations"
        )
    pts = tuple(sorted(support))
    out: list[RestrictedPair] = []
    for lm, rm in itertools.product(lefts, rights):
        lcell = lm.cell_of()
        rcell = rm.cell_of()
        lw = lm.weight_map()
        rw = rm.weight_map()
        groups: dict[tuple[int, int], list[Index]] = {}
        for b in pts:
            groups.setdefault((lcell[b[:la]], rcell[b[la:]]), []).append(b)
        out.append(
            RestrictedPair(
                support=pts,
                cells=canonical_cells(list(groups.values())),
                weight_values=tuple(lw[b[:la]] * rw[b[la:]] for b in pts),
                label=f"({lm.label})x({rm.label})",
            )
        )
    return out


# ---------------------------------------------------------------------------
# envelope (refinement-closure) plumbing

def set_partitions(items: Sequence) -> Iterator[list[list]]:
    """All set partitions, by restricted growth: cell order is by least
    (i.e. first-seen) element."""
    items = list(items)
    if not items:
        yield []
        return

    def rec(i: int, cells: list[list]):
        if i == len(items):
            yield [list(c) for c in cells]
            return
        for c in cells:
            c.append(items[i])
            yield from rec(i + 1, cells)
            c.pop()
        cells.append([items[i]])
        yield from rec(i + 1, cells)
        cells.pop()

    yield from rec(0, [])


def glue_restrictions(
    support: Sequence[Index], parts: Sequence[RestrictedPair], label: str = ""
) -> RestrictedPair:
    """Combine member restrictions on disjoint cells into one pair."""
    cells: list[tuple[Index, ...]] = []
    wmap: dict[Index, float] = {}
    for rp in parts:
        cells.extend(rp.cells)
        wmap.update(rp.weight_map())
    pts = tuple(sorted(support))
    return RestrictedPair(
        support=pts,
        cells=canonical_cells(cells),
        weight_values=tuple(wmap[b] for b in pts),
        label=label,
    )


def cell_choices(
    members: Sequence[RestrictedPair],
) -> Callable[[tuple[Index, ...]], tuple[tuple[RestrictedPair, str], ...]]:
    """Per cell, memoised: the distinct restrictions of the members to
    the cell, each with the label of the first member (in the given
    order) that yields it.  Member choices on a cell matter only through
    these, so refinements are enumerated over them."""

    @functools.cache
    def choices(cell: tuple[Index, ...]) -> tuple[tuple[RestrictedPair, str], ...]:
        seen: dict[tuple, tuple[RestrictedPair, str]] = {}
        for rp in members:
            sub = rp.restrict_to(cell)
            seen.setdefault(sub.canonical_key(), (sub, rp.label))
        return tuple(seen.values())

    return choices


def _restrict_envelope(
    family: Family, src: EnvelopeMembers, support: list[Index]
) -> list[RestrictedPair]:
    pts = sorted(support)
    choices = cell_choices(_restrict(src.inner, pts))
    out: list[RestrictedPair] = []
    total = 0
    for cells in set_partitions(pts):
        per_cell = [choices(tuple(q)) for q in cells]
        total += math.prod(len(c) for c in per_cell)
        if total > MAX_PAIRS:
            raise CapacityError(
                f"envelope restriction would exceed {MAX_PAIRS} refinements"
            )
        for picks in itertools.product(*per_cell):
            lbl = "ref(" + ";".join(
                "{" + ",".join(str(b) for b in q) + "}:" + name
                for q, (_, name) in zip(cells, picks)
            ) + ")"
            out.append(glue_restrictions(pts, [sub for sub, _ in picks], lbl))
    return out


# ---------------------------------------------------------------------------
# restriction dispatch

def _dedup(pairs: Sequence[RestrictedPair]) -> list[RestrictedPair]:
    seen: dict[tuple, RestrictedPair] = {}
    for rp in pairs:
        seen.setdefault(rp.canonical_key(), rp)
    return list(seen.values())


def restrict_family(family: Family, support: Sequence[Index]) -> list[RestrictedPair]:
    """All distinct member restrictions to the support, in canonical
    member order with first-occurrence labels kept.

    Raises :class:`CapacityError` when the enumeration would exceed
    :data:`MAX_PAIRS` — never silently truncates.
    """
    pts = sorted(set(support))
    if not pts:
        raise ValidationError("support must be nonempty")
    for b in pts:
        check_index(b, family.arity)
    return _restrict(family, pts)


def _restrict(family: Family, pts: list[Index]) -> list[RestrictedPair]:
    """:func:`restrict_family` on points already sorted, distinct and
    checked against the family's arity; children, factors and bases are
    restricted through here, so each point is checked once."""
    src = family.members
    if isinstance(src, ExplicitMembers):
        raw = [restrict_sorted(m, pts, family.arity) for m in src.pairs]
    elif isinstance(src, SubsetLattice):
        raw = [restrict_sorted(m, pts, family.arity) for m in _lattice_pairs(src)]
    elif isinstance(src, SumMembers):
        raw = _restrict_sum(family, src, pts)
    elif isinstance(src, TensorMembers):
        raw = _restrict_tensor(family, src, pts)
    elif isinstance(src, EnvelopeMembers):
        raw = _restrict_envelope(family, src, pts)
    elif isinstance(src, ExtendedMembers):
        raw = _restrict(Family(family.p, family.arity, src.base), pts) + [
            restrict_sorted(m, pts, family.arity) for m in src.extra
        ]
    else:  # pragma: no cover
        raise ValidationError(f"unknown member source {type(src).__name__}")

    if len(raw) > MAX_PAIRS:
        raise CapacityError(f"{len(raw)} restricted pairs exceed the cap {MAX_PAIRS}")
    return _dedup(raw)


def descriptor_members(family: Family) -> list[PairPW] | None:
    """The members in canonical order when each is a partition descriptor
    with a weight descriptor, else None (sums, envelopes, restricted
    partitions, weights given by point values).  A tensor of two such
    families without subset lattices lists its products, left-major:
    the cells of (L)x(R) fix L's coordinates and R's shifted past them,
    and its weight is L's weight on the left coordinates times R's on
    the right.  More than :data:`MAX_PAIRS` members raise
    :class:`CapacityError` before any is built; a tensor over the cap
    gives None instead, as restriction deduplicates its factors' members
    before it counts them."""
    listing = _descriptor_listing(family.members)
    if listing is None:
        return None
    count, tensor, build = listing
    if count > MAX_PAIRS:
        if tensor:
            return None  # restriction deduplicates the factors' members first
        raise CapacityError(f"{count} members exceed the cap {MAX_PAIRS}")
    return build()


def _descriptor_listing(
    src: MemberSource, lattice: bool = True
) -> tuple[int, bool, Callable[[], list[PairPW]]] | None:
    """How many members :func:`descriptor_members` lists, whether a
    tensor lists them, and a builder that lists them; None when a member
    is not a descriptor.

    A tensor's factors may not hold a subset lattice: most of its 2^n
    members coincide on a small support, and restriction deduplicates
    them before it forms the products (a tensor of two 7-pair lattices
    on 3 points: 0.02 s restricted, 5.8 s as 16,384 listed products).
    """
    if isinstance(src, ExplicitMembers):
        if not all(map(_is_descriptor, src.pairs)):
            return None
        return len(src.pairs), False, lambda: list(src.pairs)
    if isinstance(src, SubsetLattice):
        return (2**src.n, False, lambda: _lattice_pairs(src)) if lattice else None
    if isinstance(src, ExtendedMembers):
        base = _descriptor_listing(src.base, lattice)
        if base is None or not all(map(_is_descriptor, src.extra)):
            return None
        count, tensor, build = base
        return count + len(src.extra), tensor, lambda: build() + list(src.extra)
    if isinstance(src, TensorMembers):
        left = _descriptor_listing(src.left.members, False)
        right = _descriptor_listing(src.right.members, False)
        if left is None or right is None:
            return None
        (lcount, _, lbuild), (rcount, _, rbuild) = left, right
        return lcount * rcount, True, lambda: _tensor_pairs(src, lbuild(), rbuild())
    return None


def _is_descriptor(m: PairPW) -> bool:
    return isinstance(m.partition, PartitionDescriptor) and isinstance(m.weight, Weight)


def _tensor_pairs(src: TensorMembers, left: list[PairPW], right: list[PairPW]) -> list[PairPW]:
    la, ra = src.left.arity, src.right.arity
    fixed_left = [(m.partition.fixed_coords(la), m) for m in left]
    fixed_right = [(frozenset(la + q for q in m.partition.fixed_coords(ra)), m) for m in right]
    return [
        PairPW(CoordinateGrouping(lf | rf), _tensor_weight(src, lm.weight, rm.weight),
               f"({lm.label})x({rm.label})")
        for (lf, lm), (rf, rm) in itertools.product(fixed_left, fixed_right)
    ]


def _tensor_weight(src: TensorMembers, left: Weight, right: Weight) -> Product:
    """The left factor's weight on the left coordinates times the right
    factor's on the coordinates shifted past them."""
    la, ra = src.left.arity, src.right.arity
    return Product((
        CoordinateLift(tuple(range(1, la + 1)), left),
        CoordinateLift(tuple(range(la + 1, la + ra + 1)), right),
    ))


# ---------------------------------------------------------------------------
# admissibility

def _listed_pairs(src: MemberSource) -> tuple[PairPW, ...]:
    """The members listed outright: explicit pairs and extras, at any depth."""
    if isinstance(src, ExplicitMembers):
        return src.pairs
    if isinstance(src, ExtendedMembers):
        return _listed_pairs(src.base) + src.extra
    return ()


def has_discrete_one(family: Family) -> bool:
    """True when a listed member (explicit, or an extra at any depth) is
    the discrete partition with weight 1."""
    full = frozenset(range(1, family.arity + 1))
    return any(
        isinstance(m.partition, PartitionDescriptor)
        and m.partition.fixed_coords(family.arity) == full
        and isinstance(m.weight, Weight)
        and is_one(m.weight)
        for m in _listed_pairs(family.members)
    )


def _has_indiscrete(family: Family) -> bool:
    return any(
        isinstance(m.partition, PartitionDescriptor)
        and m.partition.fixed_coords(family.arity) == frozenset()
        for m in _listed_pairs(family.members)
    )


def is_admissible(family: Family) -> bool:
    """True when the family contains the discrete partition with weight 1
    and the indiscrete partition with some weight."""
    src = family.members
    if isinstance(src, (SubsetLattice, SumMembers)):
        return True  # a sum's children are checked when it is built
    if isinstance(src, TensorMembers):
        return is_admissible(src.left) and is_admissible(src.right)
    if isinstance(src, EnvelopeMembers):
        return is_admissible(src.inner)
    if isinstance(src, ExtendedMembers):
        # extras may supply the members the base lacks
        return is_admissible(Family(family.p, family.arity, src.base)) or (
            has_discrete_one(family) and _has_indiscrete(family)
        )
    if isinstance(src, ExplicitMembers):
        return has_discrete_one(family) and _has_indiscrete(family)
    raise ValidationError(f"unknown member source {type(src).__name__}")  # pragma: no cover


def indiscrete_weight(family: Family) -> Weight:
    """The distinguished single-cell member's weight descriptor."""
    src = family.members
    if isinstance(src, ExtendedMembers):
        try:
            return indiscrete_weight(Family(family.p, family.arity, src.base))
        except ValidationError:
            src = ExplicitMembers(src.extra)
    if isinstance(src, ExplicitMembers):
        for m in src.pairs:
            part = m.partition
            if isinstance(part, PartitionDescriptor) and part.fixed_coords(family.arity) == frozenset():
                if not isinstance(m.weight, Weight):
                    raise ValidationError(
                        "indiscrete member needs a weight descriptor, not point values"
                    )
                return m.weight
        raise ValidationError("family has no indiscrete member")
    if isinstance(src, SubsetLattice):
        return lattice_member_weight(src.n, (), src.base)
    if isinstance(src, SumMembers):
        return _SumIndiscreteWeight(src)
    if isinstance(src, TensorMembers):
        return _tensor_weight(src, indiscrete_weight(src.left), indiscrete_weight(src.right))
    if isinstance(src, EnvelopeMembers):
        return indiscrete_weight(src.inner)
    raise ValidationError(f"unknown member source {type(src).__name__}")  # pragma: no cover
