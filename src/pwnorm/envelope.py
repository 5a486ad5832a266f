"""Envelope norms on finite supports.

The refinement closure of a family is searched as point-to-member
assignments: gluing, per cell of the assignment's level sets, the chosen
member's cells and weights.  The norm of an assignment's refined pair,
raised to the power p, is Σ S^{p/2} over the (member, cell) buckets the
points land in, S being the bucket's sum of terms c²w².

An exact branch and bound (Land & Doig) over the points finds every
assignment within a relative band of the maximum of that sum.  Its bound
rests on convexity: S ↦ S^{p/2} is convex and 0 at 0, so adding a mass R
to any number of buckets raises Σ S^{p/2} by at most (s+R)^{p/2} − s^{p/2},
where s is the largest bucket sum.  Nodes are cut with twice the band as
margin, so float rounding cannot cut a leaf inside the band.  The leaves
in the band are re-evaluated through the canonical fsum path of
:mod:`pwnorm.norms` in ascending assignment order, so values agree
bit-for-bit with every other route to the same refined pair and the
reported witness is the first maximizer full enumeration would find.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from . import norms
from .errors import CapacityError, NormOverflowError, ValidationError
from .families import EnvelopeMembers, Family, cell_choices, glue_restrictions, restrict_family
from .indices import Index
from .norms import ULP, NormResult, family_norm, pair_norm, term, ulps
from .partitions import PairPW, RestrictedPair, RestrictedPartition, restrict_pair
from .vectors import SparseVector

__all__ = [
    "Assignment",
    "EnvelopeCheck",
    "DistortionReport",
    "SubsetResult",
    "refine",
    "has_envelope_property",
    "envelope_norm_exact",
    "envelope_lower_bound",
    "xp_envelope_subset",
    "distortion_certificate",
    "assignment_pair",
]

CHECK_MAX_POINTS = 6  # points an exhaustive property check takes at most
DEFAULT_CHECK_MEMBERS = 8  # members an exhaustive property check takes by default

_NEAR_BAND = 1e-11  # relative slack for collecting re-evaluation candidates
_MAX_FINALISTS = 1 << 22  # near-maximal assignments re-evaluated at most
_MAX_NODES = 1 << 25  # search nodes visited at most
_MAX_POINTS = 256  # the search recurses once per point


@dataclass(frozen=True)
class Assignment:
    """A choice of one restricted member per support point."""

    points: tuple[Index, ...]
    member_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(self.member_labels):
            raise ValidationError("assignment needs one member label per point")

    def label(self) -> str:
        return "assign[" + ",".join(self.member_labels) + "]"


@dataclass(frozen=True)
class EnvelopeCheck:
    holds: bool
    exhaustive: bool
    checked: int
    counterexample: Optional[tuple[RestrictedPartition, tuple[str, ...]]] = None


@dataclass(frozen=True)
class DistortionReport:
    given_norm: float
    envelope_lb: float
    ratio: float
    distance_lb: float
    witness: Assignment


def refine(
    Q: RestrictedPartition,
    T: Mapping[tuple[Index, ...], Union[PairPW, RestrictedPair]],
    label: str = "",
) -> RestrictedPair:
    """Glue, per cell of Q, the chosen member's cells and weights."""
    arity = len(Q.support[0])
    parts = []
    for cell in Q.cells:
        if cell not in T:
            raise ValidationError(f"no member chosen for cell {cell}")
        member = T[cell]
        if isinstance(member, RestrictedPair):
            parts.append(member.restrict_to(cell))
        else:
            parts.append(restrict_pair(member, cell, arity))
    return glue_restrictions(Q.support, parts, label or "refined")


def _searched_members(f: Family, supp: Sequence[Index]) -> list[RestrictedPair]:
    """The members searched: the closure is idempotent, so envelope(F)
    is searched as F, its envelope layers stripped before restricting."""
    while isinstance(f.members, EnvelopeMembers):
        f = f.members.inner
    return restrict_family(f, supp)


def assignment_pair(
    supp: Sequence[Index], members: Sequence[RestrictedPair], choice: Sequence[int]
) -> RestrictedPair:
    """The refined pair induced by member choice[i] at support point i."""
    by_member: dict[int, list[Index]] = {}
    for b, r in zip(supp, choice):
        by_member.setdefault(r, []).append(b)
    parts = [members[r].restrict_to(pts) for r, pts in sorted(by_member.items())]
    lbl = "assign[" + ",".join(members[r].label for r in choice) + "]"
    return glue_restrictions(supp, parts, lbl)


# ---------------------------------------------------------------------------
# envelope property

def has_envelope_property(
    f: Family,
    support: Sequence[Index],
    *,
    max_members: int = DEFAULT_CHECK_MEMBERS,
    sample: int | None = None,
    seed: int = 0,
) -> EnvelopeCheck:
    """Is the family closed under refinement on this support?

    Two-cell refinements suffice.  Given Q = q1..qk and members T(qj),
    let g1 = T(q1) and let gj glue g(j−1) on q1∪..∪q(j−1) with T(qj) on
    the rest: each gj is a member by two-cell closure, and gk restricts
    to T(qj) on each qj, so it is the refinement.  A one-cell refinement
    is a member's own restriction, so it is never checked.

    The first point is in the first cell; the others' bits (in the
    second cell or not) run lexicographically, False first, all-False
    skipped: :func:`~pwnorm.families.set_partitions` order cut to two
    cells.  Per cell the choices are the distinct restrictions, in member
    order with the first member's label; ``checked`` counts the pairs of
    choices glued.

    Exhaustive within the caps, :data:`CHECK_MAX_POINTS` points and
    ``max_members`` (:data:`DEFAULT_CHECK_MEMBERS` by default) members;
    with no ``sample`` the point cap is checked before the family is
    restricted, the member cap after.
    Beyond them, ``sample=N`` glues N random two-cell refinements (a
    non-empty second cell, then a member per cell, drawn from
    ``random.Random(seed)``): a probabilistic verdict, marked
    non-exhaustive.  The closure is idempotent, so past the point cap
    ``envelope(F)`` holds without a draw; only F is restricted, for its
    point and weight checks, and ``checked`` is ``sample``.
    """
    opt_in = "pass sample=N to opt into randomized (probabilistic) checking"
    pts = sorted(set(support))
    n = len(pts)
    if sample is None and n > CHECK_MAX_POINTS:
        raise CapacityError(f"{n} points exceed the exhaustive cap {CHECK_MAX_POINTS}; {opt_in}")
    if n > CHECK_MAX_POINTS and isinstance(f.members, EnvelopeMembers):
        # the closure is idempotent, so every sampled refinement is a
        # member: restrict F alone for its point and weight checks
        _searched_members(f, pts)
        return EnvelopeCheck(True, False, sample)
    members = restrict_family(f, pts)
    member_keys = {rp.canonical_key() for rp in members}
    exhaustive = n <= CHECK_MAX_POINTS and len(members) <= max_members
    if not exhaustive and sample is None:
        raise CapacityError(f"{len(members)} members exceed the exhaustive cap {max_members}; {opt_in}")

    def split(mask: int) -> tuple[tuple[Index, ...], tuple[Index, ...]]:
        # pts[i] is in the second cell when bit n-1-i is set: masks below
        # 2^(n-1) keep pts[0] in the first, and rising masks run the bit
        # vectors lexicographically
        second = tuple(b for i, b in enumerate(pts) if mask >> (n - 1 - i) & 1)
        return tuple(b for b in pts if b not in second), second

    def refinements():
        if exhaustive:
            choices = cell_choices(members)
            for A, B in map(split, range(1, 1 << (n - 1))):
                for picks in itertools.product(choices(A), choices(B)):
                    yield A, B, picks
        else:
            rng = random.Random(seed)
            for _ in range(sample if n > 1 else 0):
                A, B = split(rng.randrange(1, 1 << (n - 1)))
                a, b = rng.choice(members), rng.choice(members)
                yield A, B, ((a.restrict_to(A), a.label), (b.restrict_to(B), b.label))

    checked = 0
    for A, B, picks in refinements():
        checked += 1
        if glue_restrictions(pts, [sub for sub, _ in picks]).canonical_key() not in member_keys:
            Q = RestrictedPartition(tuple(pts), (A, B))
            return EnvelopeCheck(False, exhaustive, checked, (Q, tuple(lbl for _, lbl in picks)))
    return EnvelopeCheck(True, exhaustive, checked)


# ---------------------------------------------------------------------------
# exact envelope norm by assignment search

def envelope_norm_exact(x: SparseVector, f: Family) -> tuple[NormResult, Assignment]:
    """Maximize the refined-pair norm over all point→member assignments.

    Returns the canonical value and the lexicographically smallest
    maximizing assignment (points in sorted order, members in restricted
    order).  Past _MAX_NODES search nodes (inner nodes and leaves) it
    raises ``CapacityError``, never approximates.  The full tree over n
    points and k ≥ 2 members has Σ_{d≤n} k^d ≤ 2·k^n nodes, so k^n ≤ 2^24
    fits the budget of 2^25 unpruned.  It recurses once per point, so
    supports past _MAX_POINTS points are refused before restricting.

    The search is a depth-first branch and bound over the points, heaviest
    first.  The objective is Σ S^{p/2} over the (member, cell) buckets,
    where S sums the chosen terms c²w² of the points put into the bucket.
    Since S^{p/2} is convex and 0 at 0, spreading the remaining terms
    (each point's largest, R in total) over any buckets raises the
    objective by at most (s+R)^{p/2} − s^{p/2}, with s the largest bucket
    sum so far.  A node is cut only when that bound falls below the best
    leaf times 1 − 2·_NEAR_BAND: float rounding is many orders smaller
    than the band, so no leaf within _NEAR_BAND of the final best is ever
    cut.  Those leaves are re-evaluated canonically in ascending order, so
    the winner is the one full enumeration would report.
    ``candidates_evaluated`` counts the |members|^|support| assignments
    the search certifies, pruned or not.
    """
    supp = x.support(cap=_MAX_POINTS)
    members = _searched_members(f, supp)
    k = len(members)

    items = dict(x.items())
    wmaps = [rp.weight_map() for rp in members]
    cell_of = [rp.cell_of() for rp in members]
    offs = [0] * k
    for r in range(1, k):
        offs[r] = offs[r - 1] + len(members[r - 1].cells)
    terms = [[term(items[b], wmaps[r][b]) for r in range(k)] for b in supp]
    buckets = [[offs[r] + cell_of[r][b] for r in range(k)] for b in supp]
    nb = offs[-1] + len(members[-1].cells)

    try:
        finalists = _near_maximal(terms, buckets, nb, f.p / 2.0)
    except OverflowError as exc:
        raise NormOverflowError(
            "envelope evaluation overflowed (a cell sum to the power p/2)"
        ) from exc
    best_val = -1.0
    best_choice: tuple[int, ...] | None = None
    for choice in finalists:
        v = pair_norm(x, assignment_pair(supp, members, choice), f.p)
        if v > best_val:
            best_val, best_choice = v, choice

    assert best_choice is not None
    assignment = Assignment(
        tuple(supp), tuple(members[r].label for r in best_choice)
    )
    result = NormResult(
        value=best_val, argmax_member=assignment.label(), candidates_evaluated=k ** len(supp)
    )
    return result, assignment


def _near_maximal(
    terms: list[list[float]], buckets: list[list[int]], nb: int, hp: float
) -> list[tuple[int, ...]]:
    """All assignments whose objective Σ_buckets S^hp lies within
    _NEAR_BAND of the maximum, in ascending order.

    ``terms[i][r]`` and ``buckets[i][r]`` are point i's term and bucket
    under member r.  The objective is tracked incrementally, so its value
    may differ from a fresh sum by rounding; the band absorbs that.
    """
    n = len(terms)
    k = len(terms[0])
    # the best single-member assignment is the first incumbent
    best = 0.0
    for r in range(k):
        sums: dict[int, float] = {}
        for i in range(n):
            b = buckets[i][r]
            sums[b] = sums.get(b, 0.0) + terms[i][r]
        best = max(best, sum(s**hp for s in sums.values()))
    if best == math.inf:
        # a bucket sum of the search is at most its single-member cell sum,
        # so only here can S^hp reach inf (and inf - inf give nan)
        raise OverflowError("a single-member assignment overflows")

    # (s+R)^hp overflows from here on; such a bound never prunes
    huge = sys.float_info.max ** (1.0 / hp)
    order = sorted(range(n), key=lambda i: -max(terms[i]))
    rest = [0.0] * (n + 1)  # rest[d]: Σ of the largest terms at depths >= d
    for d in range(n - 1, -1, -1):
        rest[d] = rest[d + 1] + max(terms[order[d]])
    place = [k ** (n - 1 - i) for i in range(n)]
    S = [0.0] * nb  # bucket sums
    P = [0.0] * nb  # bucket sums to the power hp
    cut = best * (1.0 - 2.0 * _NEAR_BAND)
    ids: list[int] = []  # assignment ids, of any size: base-k digits, first point first
    vals: list[float] = []
    limit = _MAX_FINALISTS
    budget = _MAX_NODES
    nodes = 0  # past the root: one per visit call, k per leaves call

    def leaves(i: int, cur: float, step: int) -> None:
        nonlocal best, cut, ids, vals, limit
        for r in range(k):
            b = buckets[i][r]
            v = cur + (S[b] + terms[i][r]) ** hp - P[b]
            if v < cut:
                continue
            if v > best:
                if best < v * (1.0 - _NEAR_BAND):
                    # every leaf kept so far is at most best: all out of the band
                    del ids[:], vals[:]
                best = v
                cut = best * (1.0 - 2.0 * _NEAR_BAND)
            if v >= best * (1.0 - _NEAR_BAND):
                ids.append(step + r * place[i])
                vals.append(v)
        if len(ids) > limit:
            ids, vals = _within_band(ids, vals, best)
            limit = len(ids) + _MAX_FINALISTS // 2

    def visit(d: int, cur: float, smax: float, smax_h: float, step: int) -> None:
        nonlocal nodes
        i = order[d]
        R = rest[d + 1]
        last = d + 2 == n
        for r in range(k):
            b = buckets[i][r]
            s0 = S[b]
            s = s0 + terms[i][r]
            sh = s**hp
            v = cur + sh - P[b]
            if s > smax:
                m, mh = s, sh
            else:
                m, mh = smax, smax_h
            t = m + R
            if t < huge and v + t**hp - mh < cut:
                continue
            nodes += k if last else 1
            if nodes > budget:
                raise CapacityError(f"the envelope search passed its budget of {budget} nodes")
            p0 = P[b]
            S[b] = s
            P[b] = sh
            if last:
                leaves(order[d + 1], v, step + r * place[i])
            else:
                visit(d + 1, v, m, mh, step + r * place[i])
            S[b] = s0
            P[b] = p0

    if n == 1:
        leaves(order[0], 0.0, 0)
    else:
        visit(0, 0.0, 0.0, 0.0, 0)

    ids, _ = _within_band(ids, vals, best)
    return [tuple(a // place[i] % k for i in range(n)) for a in sorted(ids)]


def _within_band(ids: list[int], vals: list[float], best: float) -> tuple[list, list]:
    """The (id, value) entries within _NEAR_BAND of ``best``; a hard error
    when more than _MAX_FINALISTS of them would need re-evaluation."""
    keep = best * (1.0 - _NEAR_BAND)
    kept = [j for j, v in enumerate(vals) if v >= keep]
    if len(kept) > _MAX_FINALISTS:
        raise CapacityError(
            "too many near-maximal assignments to certify a canonical winner"
        )
    return [ids[j] for j in kept], [vals[j] for j in kept]


def envelope_lower_bound(x: SparseVector, f: Family, assignment: Assignment) -> float:
    """Norm of the single refined pair induced by the assignment —
    always a lower bound for the envelope norm.  The support may hold
    up to :data:`pwnorm.norms.MAX_SUPPORT` points."""
    supp = x.support(cap=norms.MAX_SUPPORT)
    members = _searched_members(f, supp)
    by_label: dict[str, int] = {}
    for i, rp in enumerate(members):
        by_label.setdefault(rp.label, i)
    label_at: dict[Index, str] = {}
    for b, lbl in zip(assignment.points, assignment.member_labels):
        label_at.setdefault(b, lbl)  # the first occurrence, as tuple.index finds
    missing = [b for b in supp if b not in label_at]
    if missing:
        raise ValidationError(f"assignment lacks members for points {missing[:3]}")
    choice = []
    for b in supp:
        lbl = label_at[b]
        if lbl not in by_label:
            raise ValidationError(
                f"assignment references member {lbl!r} absent from the restricted family"
            )
        choice.append(by_label[lbl])
    return pair_norm(x, assignment_pair(supp, members, choice), f.p)


# ---------------------------------------------------------------------------
# two-member closed form: subset selection

@dataclass(frozen=True)
class SubsetResult:
    value: float
    subset: tuple[int, ...]  # 1-based positions put into the ℓ_p part
    candidates_evaluated: int


def xp_envelope_subset(a: Sequence[float], w: Sequence[float], p: float) -> SubsetResult:
    """Exact envelope norm of the two-member family (all points singleton
    with weight 1 / one cell with the given weights):
    max over subsets q of (Σ_{i∈q}|a_i|^p + (Σ_{i∉q}a_i²w_i²)^{p/2})^{1/p}.

    The m nonzero coordinates are sorted by |a_i|^{p-2}/w_i² descending
    (stably, so ties keep index order) and the m+1 prefixes of that order
    are evaluated canonically; ``candidates_evaluated`` counts them.  Two
    running exact sums, of the chosen cells' |a_i|^p and of the pooled
    cell's terms, give each prefix the floats that
    :func:`~pwnorm.norms.canonical_value` builds, in linear time.

    The best prefix is the best subset.  Relax q to t ∈ [0,1]^n and fix
    the mass T = Σ t_i a_i²w_i² moved out of the pooled cell.  The best
    Σ t_i|a_i|^p at that mass is a fractional knapsack whose value per
    unit mass is the sort key, so greedy filling in key order solves it
    (Dantzig, Oper. Res. 1957): its value g(T) is concave and piecewise
    linear with breakpoints at the prefix masses.  On each piece
    g(T) + (S−T)^{p/2} is linear plus strictly convex, so its maximum
    sits at a breakpoint, where the greedy t is the indicator of a
    prefix.  Zero coordinates carry no mass and no value either way.

    Ties: the value is the canonical value of the best prefix, and the
    subset is the first prefix that attains it (the shortest), so it
    never holds a zero coordinate.  Subsets whose real values lie within
    a few units in the last place of the maximum can round either way;
    there a non-prefix subset could in principle evaluate a last bit
    higher, and the prefix is still what is reported.
    """
    a = [float(v) for v in a]
    w = [float(v) for v in w]
    n = len(a)
    if n == 0 or len(w) != n:
        raise ValidationError("need equally many coefficients and weights, at least one")
    if not (p > 2.0):
        raise ValidationError(f"exponent p must be > 2, got {p}")
    for v in a:
        if not math.isfinite(v):
            raise ValidationError(f"coefficient {v!r} is not finite")
    for v in w:
        if not (0.0 < v <= 1.0):
            raise ValidationError(f"weight {v!r} outside (0, 1]")

    def ratio(i: int) -> float:
        ww = w[i] * w[i]
        try:
            # w_i² underflows to 0 only where the pooled term a_i²w_i² is 0
            # as well; overflow means |a_i| > 1 and |a_i|^p overflows too
            return abs(a[i]) ** (p - 2) / ww if ww > 0.0 else math.inf
        except OverflowError as exc:
            raise NormOverflowError(f"coefficient {a[i]!r} to the power p overflows") from exc

    order = sorted((i for i in range(n) if a[i] != 0.0), key=ratio, reverse=True)
    m = len(order)
    hp = p / 2.0
    best_val = -1.0
    best_len = 0
    try:
        # pooled[j]: the cell value (Σ_{i ∈ order[j:]} a_i²w_i²)^{p/2}, 0 for no cell
        pooled = [0.0] * (m + 1)
        rest = 0
        for j in range(m - 1, -1, -1):
            rest += ulps(term(a[order[j]], w[order[j]]))
            pooled[j] = pow(rest / ULP, hp)
        chosen = 0  # Σ_{i ∈ order[:j]} |a_i|^p in ulps
        for j in range(m + 1):
            if j:
                chosen += ulps(pow(term(a[order[j - 1]], 1.0), hp))
            v = pow((chosen + ulps(pooled[j])) / ULP, 1.0 / p)
            if v > best_val:
                best_val, best_len = v, j
    except OverflowError as exc:
        raise NormOverflowError(f"norm evaluation overflowed ({exc})") from exc
    subset = tuple(sorted(i + 1 for i in order[:best_len]))
    return SubsetResult(value=best_val, subset=subset, candidates_evaluated=m + 1)


# ---------------------------------------------------------------------------
# certificates

def distortion_certificate(
    x: SparseVector,
    f: Family,
    assignment: Assignment | None = None,
) -> DistortionReport:
    """Certified distortion: envelope bound over given norm.

    With an assignment, the bound is that single refinement's norm
    (cheap, any support size); without one, the exact envelope norm (a
    search with a node budget).  Any embedding of the given-norm space
    into an envelope-normed superspace has distance at least sqrt(ratio).
    The given norm on ``envelope(F)`` is that same search's value, so
    there the node budget, not the closure's listing, caps it, and the
    ratio is 1.
    """
    res = None
    if assignment is None and isinstance(f.members, EnvelopeMembers):
        res, assignment = envelope_norm_exact(x, f)
    given = res.value if res is not None else family_norm(x, f).value
    if given <= 0.0:
        raise ValidationError("distortion certificate needs a nonzero vector")
    if assignment is None:
        res, assignment = envelope_norm_exact(x, f)
    if res is not None:
        env = res.value
    else:
        env = envelope_lower_bound(x, f, assignment)
    ratio = env / given
    return DistortionReport(
        given_norm=given,
        envelope_lb=env,
        ratio=ratio,
        distance_lb=math.sqrt(ratio),
        witness=assignment,
    )
