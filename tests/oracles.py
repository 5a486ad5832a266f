"""Independent reference implementations used to cross-check pwnorm.

These oracles are written straight from the definitions and share as little
code with the package as possible.  Family *semantics* (which restricted
members exist on a support) necessarily go through ``restrict_family``; the
search and the arithmetic here are separate implementations.

Where a test demands bit-exact agreement, the oracle funnels its final
candidates through the same canonical evaluation order the package documents
(per-cell ``math.fsum`` of ``(c*c)*(w*w)`` terms, one power per cell, one
outer ``fsum``, one root).  ``fsum`` is correctly rounded, so any two
evaluations seeing the same multiset of cell terms produce the same float;
that is what makes exact equality a meaningful assertion rather than luck.
"""

from __future__ import annotations

import itertools
import math

from pwnorm.families import restrict_family, set_partitions
from pwnorm.partitions import RestrictedPair

# ---------------------------------------------------------------------------
# canonical float evaluation (replicated, not imported)


def canonical_term(c: float, w: float) -> float:
    return (c * c) * (w * w)


def canonical_norm(cells, p: float) -> float:
    """cells: iterable of iterables of (value, weight) pairs."""
    pows = []
    for cell in cells:
        s = math.fsum(canonical_term(c, w) for c, w in cell)
        if s:
            pows.append(s ** (p / 2.0))
    if not pows:
        return 0.0
    return math.fsum(pows) ** (1.0 / p)


def member_cells(items, member: RestrictedPair):
    """Group (point, value) items into the member's cells, carrying weights."""
    where = member.cell_of()
    cells = {}
    for pt, v in items:
        cells.setdefault(where[pt], []).append((v, member.weight_at(pt)))
    return list(cells.values())


def member_value(items, member: RestrictedPair, p: float) -> float:
    return canonical_norm(member_cells(items, member), p)


def family_norm_direct(x, family, p: float) -> float:
    """Max of member values, each evaluated with the local canonical kernel."""
    items = list(x.items())
    supp = [pt for pt, _ in items]
    return max(member_value(items, m, p) for m in restrict_family(family, supp))


# ---------------------------------------------------------------------------
# (Q, T) refinement enumeration — the envelope-norm oracle

_QT_BAND = 1e-9
_QT_COMBO_CAP = 200_000


def _glue_value(items_by_pt, cells_members, p: float) -> float:
    """Canonically evaluate a refinement: per Q-cell, the chosen member's
    cells restricted to that Q-cell, with the member's own weights."""
    all_cells = []
    for pts, member in cells_members:
        where = member.cell_of()
        grouped = {}
        for pt in pts:
            grouped.setdefault(where[pt], []).append(
                (items_by_pt[pt], member.weight_at(pt))
            )
        all_cells.extend(grouped.values())
    return canonical_norm(all_cells, p)


def qt_norm_exact(x, family, p: float) -> float:
    """Exact envelope norm: max over set partitions Q of the support and a
    member choice per Q-cell of the glued refined pair's norm.

    Strategy: tabulate each member's value^p on every subset mask, scan all
    partitions with the table (a partition's value^p is the sum over its
    cells of the best per-cell member), then re-evaluate every near-best
    (Q, T) candidate canonically and take the float max.
    """
    items = list(x.items())
    supp = [pt for pt, _ in items]
    n = len(supp)
    members = restrict_family(family, supp)
    items_by_pt = dict(items)

    # vp[mask][r] = member r's value^p on the points selected by mask
    vp = [[0.0] * len(members) for _ in range(1 << n)]
    for mask in range(1, 1 << n):
        pts = [supp[i] for i in range(n) if mask >> i & 1]
        sub = [(pt, items_by_pt[pt]) for pt in pts]
        for r, m in enumerate(members):
            cells = member_cells(sub, m)
            vp[mask][r] = math.fsum(
                math.fsum(canonical_term(c, w) for c, w in cell) ** (p / 2.0)
                for cell in cells
            )
    best = [max(row) if any(row) else 0.0 for row in vp]
    best[0] = 0.0

    def cell_masks(partition):
        out = []
        for cell in partition:
            mask = 0
            for i in cell:
                mask |= 1 << i
            out.append(mask)
        return out

    scored = []
    top = 0.0
    for part in set_partitions(list(range(n))):
        masks = cell_masks(part)
        v = math.fsum(best[m] for m in masks)
        scored.append((v, masks))
        if v > top:
            top = v

    # near-best partitions -> near-best member choices per cell -> re-evaluate
    result = 0.0
    combos = 0
    for v, masks in scored:
        if v < top * (1.0 - _QT_BAND):
            continue
        per_cell = []
        for mask in masks:
            row = vp[mask]
            b = max(row)
            keep = [r for r, val in enumerate(row) if val >= b * (1.0 - _QT_BAND)]
            per_cell.append(keep)
        pts_of = [
            [supp[i] for i in range(n) if mask >> i & 1] for mask in masks
        ]
        for choice in itertools.product(*per_cell):
            combos += 1
            if combos > _QT_COMBO_CAP:
                raise RuntimeError("qt oracle candidate explosion")
            val = _glue_value(
                items_by_pt,
                [(pts_of[j], members[r]) for j, r in enumerate(choice)],
                p,
            )
            if val > result:
                result = val
    return result


def qt_norm_dumb(x, family, p: float) -> float:
    """Tiny literal version: enumerate every (Q, T) outright.  Only viable
    for ~5 points and ~3 members; cross-checks qt_norm_exact."""
    items = list(x.items())
    supp = [pt for pt, _ in items]
    members = restrict_family(family, supp)
    items_by_pt = dict(items)
    result = 0.0
    for part in set_partitions(supp):
        for choice in itertools.product(members, repeat=len(part)):
            val = _glue_value(items_by_pt, list(zip(part, choice)), p)
            if val > result:
                result = val
    return result


# ---------------------------------------------------------------------------
# refinement closure — the envelope-property oracle


def closure_check_literal(family, support):
    """Is the family closed under refinement on the support?  Literally:
    every set partition Q of the support and every choice of one member
    per cell (members in restricted order, repeats allowed), glued and
    looked up among the members.  Returns (holds, counterexample), the
    counterexample being the first failing (cells, member labels) in
    that order, or None."""
    supp = sorted(set(support))
    members = restrict_family(family, supp)

    def key(cells, weight):
        return frozenset(frozenset(c) for c in cells), tuple(weight[b] for b in supp)

    member_keys = {key(m.cells, m.weight_map()) for m in members}
    for part in set_partitions(supp):
        for choice in itertools.product(members, repeat=len(part)):
            cells, weight = [], {}
            for q, m in zip(part, choice):
                where = m.cell_of()
                grouped = {}
                for b in q:
                    grouped.setdefault(where[b], []).append(b)
                    weight[b] = m.weight_at(b)
                cells.extend(grouped.values())
            if key(cells, weight) not in member_keys:
                return False, (
                    tuple(tuple(q) for q in part),
                    tuple(m.label for m in choice),
                )
    return True, None


# ---------------------------------------------------------------------------
# direct sum-space norm (the "one max over product choices + global l2" form)


def sum_norm_direct(x, children, W, p: float) -> float:
    """Norm of x in the (p,2,W)-sum of `children`, computed from the
    two-branch definition: the l_p-sum of per-child best member norms versus
    the W-weighted global l_2 term with each child's indiscrete weight.

    Points of x must be valid embeddings (a, coords..., 1-padding).
    """
    from pwnorm.families import indiscrete_weight

    arity = 1 + max(f.arity for f in children)
    per_child: dict[int, list] = {}
    for pt, v in x.items():
        a = pt[0]
        if not 1 <= a <= len(children):
            raise ValueError(f"point {pt} addresses no child")
        m = children[a - 1].arity
        rest = pt[1 : 1 + m]
        if any(c != 1 for c in pt[1 + m :]) or len(pt) != arity:
            raise ValueError(f"point {pt} is not 1-padded for child {a}")
        per_child.setdefault(a, []).append((rest, v))

    # branch 1: best product choice == sum of per-child best member norms^p
    lp_parts = []
    for a, sub in per_child.items():
        supp = [pt for pt, _ in sub]
        vals = [
            member_value(sub, m, p) for m in restrict_family(children[a - 1], supp)
        ]
        lp_parts.append(max(vals) ** p)
    branch_products = math.fsum(lp_parts) ** (1.0 / p)

    # branch 2: global l_2 with weight W(a) * (child a's indiscrete weight)
    sq = []
    for a, sub in per_child.items():
        wa = W.value_at_nat(a)
        ind = indiscrete_weight(children[a - 1])
        for pt, v in sub:
            sq.append((v * wa * ind.value_at(pt)) ** 2)
    branch_global = math.fsum(sq) ** 0.5

    return max(branch_products, branch_global)


# ---------------------------------------------------------------------------
# subset brute force for two-member (discrete + weighted indiscrete) families


def xp_subset_bruteforce(a, w, p: float) -> tuple[float, tuple[int, ...]]:
    """Try all 2^n splits: complement points are own cells at weight 1, the
    chosen subset is one cell under w.  Returns (value, 1-based subset),
    ties resolved toward the lexicographically smallest subset."""
    n = len(a)
    best = -1.0
    best_subset: tuple[int, ...] = ()
    for mask in range(1 << n):
        subset = tuple(i + 1 for i in range(n) if mask >> i & 1)
        cells = [[(a[i], 1.0)] for i in range(n) if not mask >> i & 1]
        pooled = [(a[i - 1], w[i - 1]) for i in subset]
        if pooled:
            cells.append(pooled)
        val = canonical_norm(cells, p)
        if val > best:
            best = val
            best_subset = subset
    return best, best_subset


# ---------------------------------------------------------------------------
# closed-form subset sums for the lattice witness


def yn_expected_sums(params) -> list[float]:
    """S_I for every I in subset order, straight from the witness formulas.

    Block b (points where pair b's first coordinate is m_b, all other pairs
    frozen) contributes, under member I:
      - b in I: the block shatters into K_b singleton cells,
      - b not in I: the block stays one cell and its matched l_2-mass is
        K_b * coeff_b^2 * w(m_b)^2 (= 1 up to rounding).
    For I != {} distinct blocks land in distinct cells (blocks differ at
    every pair, in particular at pairs in I); the empty member is indiscrete
    and merges everything into a single cell.
    """
    from pwnorm.families import subset_order

    p, n = params.p, params.n
    wm = [params.w.value_at_nat(params.m[b]) for b in range(n)]
    coeff = [1.0 / (wm[b] * math.sqrt(params.K[b])) for b in range(n)]
    out = []
    for I in subset_order(n):
        inside = set(I)
        masses = []  # one per block, used only when the block stays whole
        pows = []
        for b in range(n):
            others = math.prod(
                wm[k] * wm[k] for k in range(n) if k + 1 not in inside and k != b
            )
            if b + 1 in inside:
                t = canonical_term(coeff[b], math.sqrt(others))
                pows.append(params.K[b] * t ** (p / 2.0))
            else:
                mass = params.K[b] * canonical_term(coeff[b], wm[b] * math.sqrt(others))
                masses.append(mass)
                pows.append(mass ** (p / 2.0))
        if not inside:
            out.append(math.fsum(masses) ** 0.5)
        else:
            out.append(math.fsum(pows) ** (1.0 / p))
    return out


def rademacher_fourth_moment(n: int) -> float:
    """E | sum of n independent signs |^4 = 3n^2 - 2n."""
    return float(3 * n * n - 2 * n)
