"""Independent reference computations for the benchmark's output checks.

Everything here is written from the definitions and imports nothing of
pwnorm.  A vector is an integer array ``P`` of points (one row per
point) with a float array ``c`` of coefficients.  A space is described
by a small spec object that renders the config text the program reads
and, separately, lists its members as ``(label, cell_id, weight)``:
``cell_id(P)`` numbers the cells the points fall in and ``weight(P)``
gives their weights.  A member norms a vector by

    ( sum over cells of ( sum of c^2 w^2 over the cell ) ^ (p/2) ) ^ (1/p)

and a family norm is the largest member norm.  ``self_test`` checks each
computation against values worked out by hand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Member = tuple[str, Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]


# ---------------------------------------------------------------------------
# weights: config text and values at points


@dataclass(frozen=True)
class One:
    def text(self) -> str:
        return "one"

    def __call__(self, P: np.ndarray) -> np.ndarray:
        return np.ones(len(P))


@dataclass(frozen=True)
class Const:
    c: float

    def text(self) -> str:
        return f"const({self.c!r})"

    def __call__(self, P: np.ndarray) -> np.ndarray:
        return np.full(len(P), self.c)


@dataclass(frozen=True)
class PowerDecay:
    """w(s) = min(1, s^-alpha) on one coordinate."""

    alpha: float

    def text(self) -> str:
        return f"power_decay({self.alpha!r})"

    def __call__(self, P: np.ndarray) -> np.ndarray:
        return np.minimum(1.0, P[:, 0].astype(float) ** -self.alpha)


@dataclass(frozen=True)
class Geometric:
    """w(s) = ratio^s on one coordinate."""

    ratio: float

    def text(self) -> str:
        return f"geometric({self.ratio!r})"

    def __call__(self, P: np.ndarray) -> np.ndarray:
        return self.ratio ** P[:, 0].astype(float)


@dataclass(frozen=True)
class Lift:
    """``inner`` evaluated on the listed 1-based coordinates."""

    positions: tuple[int, ...]
    inner: object

    def text(self) -> str:
        return f"lift([{', '.join(map(str, self.positions))}], {self.inner.text()})"

    def __call__(self, P: np.ndarray) -> np.ndarray:
        return self.inner(P[:, [q - 1 for q in self.positions]])


# ---------------------------------------------------------------------------
# spaces: config text, arity and members


def cell_ids(cols: np.ndarray) -> np.ndarray:
    """Number the distinct rows of ``cols``: points agreeing on these
    coordinates share a cell."""
    if cols.shape[1] == 0 or len(cols) == 0:
        return np.zeros(len(cols), dtype=np.int64)
    flat = np.ravel_multi_index(cols.T, cols.max(axis=0) + 1)
    return np.unique(flat, return_inverse=True)[1].reshape(-1)


def _discrete(P: np.ndarray) -> np.ndarray:
    return cell_ids(P)


def _single(P: np.ndarray) -> np.ndarray:
    return np.zeros(len(P), dtype=np.int64)


def _one(P: np.ndarray) -> np.ndarray:
    return np.ones(len(P))


@dataclass(frozen=True)
class Lp:
    arity = 1

    def text(self) -> str:
        return "lp"

    def members(self, p: float) -> list[Member]:
        return [("discrete", _discrete, _one)]


@dataclass(frozen=True)
class XP:
    """Two members: singletons with weight 1, one cell with weight w."""

    w: object
    arity = 1

    def text(self) -> str:
        return f"xp({self.w.text()})"

    def members(self, p: float) -> list[Member]:
        return [("discrete", _discrete, _one), ("()", _single, self.w)]


@dataclass(frozen=True)
class SumL2Lp:
    """One member on pairs: cells are the rows {i} x N, weight w."""

    w: object
    arity = 2

    def text(self) -> str:
        return f"sum_l2_lp({self.w.text()})"

    def members(self, p: float) -> list[Member]:
        return [("rows", lambda P: cell_ids(P[:, :1]), self.w)]


@dataclass(frozen=True)
class Tensor:
    """Pairwise products of members: product cells, product weights.
    ``node`` names the config node that builds it, if not ``tensor``."""

    left: object
    right: object
    node: str = ""

    @property
    def arity(self) -> int:
        return self.left.arity + self.right.arity

    def text(self) -> str:
        if self.node == "schechtman":
            return f"schechtman({self.left.w.text()}, {self.right.w.text()})"
        return f"tensor({self.left.text()}, {self.right.text()})"

    def members(self, p: float) -> list[Member]:
        la = self.left.arity
        out = []
        for (ll, lk, lw), (rl, rk, rw) in itertools.product(
            self.left.members(p), self.right.members(p)
        ):
            out.append(
                (
                    f"({ll})x({rl})",
                    lambda P, lk=lk, rk=rk: cell_ids(
                        np.stack((lk(P[:, :la]), rk(P[:, la:])), axis=1)
                    ),
                    lambda P, lw=lw, rw=rw: lw(P[:, :la]) * rw(P[:, la:]),
                )
            )
        return out


def schechtman(w, w2) -> Tensor:
    """The tensor product of the two-member families xp(w) and xp(w2)."""
    return Tensor(XP(w), XP(w2), "schechtman")


def subset_order(n: int) -> list[tuple[int, ...]]:
    """Subsets of {1..n} by size, then lexicographically."""
    return [I for k in range(n + 1) for I in itertools.combinations(range(1, n + 1), k)]


@dataclass(frozen=True)
class Yn:
    """One member per I in {1..n} on n coordinate pairs: cells agree on
    the pairs in I, the weight is the product of w(first coordinate of
    pair k) over the pairs k outside I."""

    n: int
    w: object

    @property
    def arity(self) -> int:
        return 2 * self.n

    def text(self) -> str:
        return f"yn({self.n}, {self.w.text()})"

    def members(self, p: float) -> list[Member]:
        out = []
        for I in subset_order(self.n):
            cols = [q for k in I for q in (2 * k - 2, 2 * k - 1)]
            outside = [2 * k - 2 for k in range(1, self.n + 1) if k not in I]
            out.append(
                (
                    "I={" + ",".join(map(str, I)) + "}",
                    lambda P, cols=cols: cell_ids(P[:, cols]),
                    lambda P, outside=outside: np.prod(
                        [self.w(P[:, [q]]) for q in outside] or [np.ones(len(P))], axis=0
                    ),
                )
            )
        return out


@dataclass(frozen=True)
class Admissible:
    """Adds the discrete weight-1 member and a single-cell member where
    missing.  Defined for the two inner spaces the workloads use: xp,
    which already has both, and lp, which gains a single cell of weight 1
    (the minimum of its one member's weights)."""

    inner: object

    @property
    def arity(self) -> int:
        return self.inner.arity

    def text(self) -> str:
        return f"admissible({self.inner.text()})"

    def members(self, p: float) -> list[Member]:
        ms = self.inner.members(p)
        if isinstance(self.inner, XP):
            return ms
        if isinstance(self.inner, Lp):
            return ms + [("()", _single, _one)]
        raise ValueError(f"no reference members for admissible({self.inner.text()})")


def _single_cell_weight(child, p: float):
    return [w for lbl, _, w in child.members(p) if lbl == "()"][0]


@dataclass(frozen=True)
class P2WSum:
    """Sum of admissible children on (child number, child point, padding):
    every choice of one member per child, plus one global cell weighted
    W(a) times child a's single-cell weight.  Without ``W`` this is
    ``lp_sum``, whose outer weight is W(a) = 2^(-a(p-2)/(2p))."""

    children: tuple
    W: object = None

    @property
    def arity(self) -> int:
        return 1 + max(ch.arity for ch in self.children)

    def text(self) -> str:
        kids = ", ".join(ch.text() for ch in self.children)
        if self.W is None:
            return f"lp_sum([{kids}])"
        return f"p2w_sum([{kids}], {self.W.text()})"

    def _per_child(self, P: np.ndarray, fns) -> list[tuple[np.ndarray, np.ndarray]]:
        """(mask of child a's points, fn_a on their child coordinates)."""
        out = []
        for a, (ch, fn) in enumerate(zip(self.children, fns), 1):
            mask = P[:, 0] == a
            out.append((mask, fn(P[mask, 1 : 1 + ch.arity])))
        return out

    def members(self, p: float) -> list[Member]:
        def glue_ids(P, keys):
            ids = np.zeros(len(P), dtype=np.int64)
            offset = 0
            for mask, sub in self._per_child(P, keys):
                ids[mask] = sub + offset
                offset += int(sub.max()) + 1 if len(sub) else 0
            return ids

        def glue_weights(P, ws):
            out = np.zeros(len(P))
            for mask, sub in self._per_child(P, ws):
                out[mask] = sub
            return out

        out = []
        for combo in itertools.product(*(ch.members(p) for ch in self.children)):
            keys = [k for _, k, _ in combo]
            ws = [w for _, _, w in combo]
            out.append(
                (
                    "prod",
                    lambda P, keys=keys: glue_ids(P, keys),
                    lambda P, ws=ws: glue_weights(P, ws),
                )
            )
        W = self.W if self.W is not None else Geometric(2.0 ** (-(p - 2.0) / (2.0 * p)))
        singles = [_single_cell_weight(ch, p) for ch in self.children]
        out.append(("()", _single, lambda P: W(P[:, :1]) * glue_weights(P, singles)))
        return out


@dataclass(frozen=True)
class Envelope:
    """The refinement closure of ``inner``."""

    inner: object

    @property
    def arity(self) -> int:
        return self.inner.arity

    def text(self) -> str:
        return f"envelope({self.inner.text()})"


def config_text(p: float, space) -> str:
    return f"p = {p!r}\nspace = {space.text()}\n"


# ---------------------------------------------------------------------------
# norms

EXACT_CELL = 64  # cells with more points than this are summed exactly


def member_power(P: np.ndarray, c: np.ndarray, cell_id, weight, p: float) -> float:
    """The member norm raised to the p-th power."""
    if len(P) == 0:
        return 0.0
    ids = cell_id(P)
    terms = (c * c) * weight(P) ** 2
    sums = np.bincount(ids, weights=terms)
    for g in np.flatnonzero(np.bincount(ids) > EXACT_CELL):
        sums[g] = math.fsum(terms[ids == g].tolist())
    return math.fsum((sums ** (p / 2.0)).tolist())


def family_norm(P: np.ndarray, c: np.ndarray, members: Sequence[Member], p: float) -> float:
    return max(member_power(P, c, k, w, p) for _, k, w in members) ** (1.0 / p)


def lp_norm(c: np.ndarray, p: float) -> float:
    return math.fsum((np.abs(c) ** p).tolist()) ** (1.0 / p)


def l2_norm(c: np.ndarray) -> float:
    return math.sqrt(math.fsum((c * c).tolist()))


def assignment_norm(
    P: np.ndarray, c: np.ndarray, members: Sequence[Member], labels: Sequence[str], p: float
) -> float:
    """Norm of the refined pair that uses member ``labels[i]`` at the i-th
    point: each member's cells, cut down to the points assigned to it."""
    labels = np.array(labels)
    total = math.fsum(
        member_power(P[labels == lbl], c[labels == lbl], k, w, p) for lbl, k, w in members
    )
    return total ** (1.0 / p)


def _restriction(P: np.ndarray, cell_id, weight) -> tuple:
    """A member cut down to the points ``P``, as comparable data: its
    cells and its weights (to 12 significant digits)."""
    pts = [tuple(row) for row in P.tolist()]
    cells: dict[int, set] = {}
    for pt, g in zip(pts, cell_id(P).tolist()):
        cells.setdefault(g, set()).add(pt)
    weights = {pt: float(f"{w:.12g}") for pt, w in zip(pts, weight(P).tolist())}
    return frozenset(frozenset(cell) for cell in cells.values()), weights


def distinct_members(P: np.ndarray, members: Sequence[Member]) -> int:
    """How many members stay distinct once cut down to the points ``P``."""
    keys = {(cells, tuple(sorted(ws.items()))) for cells, ws in
            (_restriction(P, k, w) for _, k, w in members)}
    return len(keys)


def refinement_is_member(
    P: np.ndarray, pieces: Sequence[tuple[np.ndarray, str]], members: Sequence[Member]
) -> bool:
    """Whether gluing, on each piece of points, the named member's cells
    and weights gives one of the members cut down to ``P``."""
    by_label = {lbl: (k, w) for lbl, k, w in members}
    cells: set = set()
    weights: dict = {}
    for piece, lbl in pieces:
        part_cells, part_weights = _restriction(piece, *by_label[lbl])
        cells |= part_cells
        weights.update(part_weights)
    glued = (frozenset(cells), weights)
    return any(_restriction(P, k, w) == glued for _, k, w in members)


def set_partitions(n: int):
    """Set partitions of range(n) as lists of bitmasks."""
    if n == 0:
        yield []
        return
    for part in set_partitions(n - 1):
        bit = 1 << (n - 1)
        for i in range(len(part)):
            yield part[:i] + [part[i] | bit] + part[i + 1 :]
        yield part + [bit]


def envelope_by_partitions(
    P: np.ndarray, c: np.ndarray, members: Sequence[Member], p: float
) -> float:
    """Envelope norm by enumerating every partition Q of the support and
    every choice T of one member per cell of Q.  The choices of different
    cells add independently, so each cell takes its best member."""
    n = len(P)
    best: dict[int, float] = {}

    def cell_best(mask: int) -> float:
        if mask not in best:
            rows = [i for i in range(n) if mask >> i & 1]
            best[mask] = max(member_power(P[rows], c[rows], k, w, p) for _, k, w in members)
        return best[mask]

    top = max(math.fsum(cell_best(m) for m in part) for part in set_partitions(n))
    return top ** (1.0 / p)


def _subset_sums(v: np.ndarray) -> np.ndarray:
    """Entry ``mask`` holds the sum of v[i] over the bits i of mask."""
    out = np.zeros(1)
    for x in v:
        out = np.concatenate((out, out + x))
    return out


def subset_max(ap: Sequence[float], s2: Sequence[float], p: float) -> float:
    """max over subsets Q of (sum_{i in Q} ap_i + (sum_{i not in Q} s2_i)^(p/2))^(1/p),
    over all 2^n subsets (split in two halves that are combined in full)."""
    ap = np.asarray(ap, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    h = len(ap) // 2
    p_lo, p_hi = _subset_sums(ap[:h]), _subset_sums(ap[h:])
    s_lo, s_hi = _subset_sums(s2[:h])[::-1], _subset_sums(s2[h:])[::-1]
    vals = (p_lo[:, None] + p_hi[None, :]) + (s_lo[:, None] + s_hi[None, :]) ** (p / 2.0)
    return float(vals.max()) ** (1.0 / p)


def xp_envelope(P: np.ndarray, c: np.ndarray, w, p: float) -> float:
    """Envelope norm of the two-member family xp(w): the subset maximum
    with |c|^p inside the subset and c^2 w^2 outside it."""
    return subset_max(np.abs(c) ** p, (c * w(P)) ** 2, p)


# ---------------------------------------------------------------------------
# experiments


def yn_sums_closed(p: float, w, m: Sequence[int], K: Sequence[int]) -> list[float]:
    """Norms of the n-block witness under each subset member, in subset
    order, from the block masses K_b c_b^2 W_I^2.

    Block b runs K_b points along pair b with coefficient
    c_b = 1/(w(m_b) sqrt(K_b)); W_I is the product of w(m_k) over k not
    in I.  A block whose pair lies outside a nonempty I is one cell; a
    block whose pair lies in I is K_b singleton cells; with I empty all
    blocks share one cell.
    """
    n = len(m)
    hp = p / 2.0
    wm = w(np.array([[v] for v in m])).tolist()
    c2 = [1.0 / (wm[b] ** 2 * K[b]) for b in range(n)]
    out = []
    for I in subset_order(n):
        W2 = math.prod(wm[k - 1] for k in range(1, n + 1) if k not in I) ** 2
        mass = [K[b] * c2[b] * W2 for b in range(n)]
        if not I:
            total = math.fsum(mass) ** hp
        else:
            total = math.fsum(
                K[b] * (c2[b] * W2) ** hp if b + 1 in I else mass[b] ** hp for b in range(n)
            )
        out.append(total ** (1.0 / p))
    return out


def _outcomes(variables) -> tuple[np.ndarray, np.ndarray]:
    vals, probs = np.zeros(1), np.ones(1)
    for a, q in variables:
        vals = np.concatenate((vals + a, vals - a, vals))
        probs = np.concatenate((probs * (q / 2.0), probs * (q / 2.0), probs * (1.0 - q)))
    return vals, probs


def exact_moment(variables: Sequence[tuple[float, float]], p: float) -> float:
    """E|sum f_i|^p over all 3^N outcomes of f_i in {+a_i, -a_i, 0} with
    probabilities q_i/2, q_i/2, 1-q_i (the halves are enumerated apart and
    every pair of half-outcomes is combined)."""
    if len(variables) > 12:
        raise ValueError("exact moments are enumerated for at most 12 variables")
    h = len(variables) // 2
    v_lo, p_lo = _outcomes(variables[:h])
    v_hi, p_hi = _outcomes(variables[h:])
    terms = (p_lo[:, None] * p_hi[None, :]) * np.abs(v_lo[:, None] + v_hi[None, :]) ** p
    return math.fsum(terms.ravel().tolist())


def rosenthal_rhs(variables: Sequence[tuple[float, float]], p: float) -> float:
    """max over subsets Q of (sum_Q E|f_i|^p + (sum_{not Q} E f_i^2)^(p/2))^(1/p)."""
    return subset_max(
        [abs(a) ** p * q for a, q in variables], [a * a * q for a, q in variables], p
    )


def sign_fourth_moment(n: int) -> float:
    """E(e_1 + ... + e_n)^4 for independent random signs."""
    return 3.0 * n * n - 2.0 * n


# ---------------------------------------------------------------------------
# self-test against hand-computed values


def _close(a: float, b: float, tol: float = 1e-13) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def self_test() -> None:
    """Raise ValueError if any reference disagrees with a value worked
    out by hand."""
    checks: list[tuple[str, float, float]] = []
    P, c = np.array([[1], [2]]), np.array([3.0, 4.0])
    # one cell of weight 1: ((9 + 16)^2)^(1/4) = 5; singletons: (81 + 256)^(1/4)
    checks.append(("single cell", family_norm(P, c, [("()", _single, _one)], 4.0), 5.0))
    checks.append(("discrete", family_norm(P, c, Lp().members(4.0), 4.0), 337.0 ** 0.25))
    checks.append(("lp norm", lp_norm(c, 4.0), 337.0 ** 0.25))
    checks.append(("l2 norm", l2_norm(c), 5.0))
    # rows: (1,1),(1,2) share a cell with weight 1/2 at column 2: 1/2 squared,
    # plus the cell of (2,1): (4/4)^2
    rows = SumL2Lp(Lift((2,), Const(0.5)))
    Y, y = np.array([[1, 1], [1, 2], [2, 1]]), np.array([1.0, 1.0, 2.0])
    checks.append(("rows", family_norm(Y, y, rows.members(4.0), 4.0), 1.25 ** 0.25))
    # tensor of xp(1/2) and lp on the same points: the member that groups
    # by the second coordinate (weight 1/2) meets (1,1) and (2,1):
    # (1/4 + 4/4)^2 + (1/4)^2 = 1.625, below the discrete 1 + 1 + 16
    ten = Tensor(XP(Const(0.5)), Lp())
    checks.append(("tensor", member_power(Y, y, *ten.members(4.0)[1][1:], 4.0), 1.625))
    # p2w_sum of xp(1/2) and admissible(lp) with W = 1/2: the global cell
    # gives (1/4 * 1/4 * 1 + 1/4 * 1 * 4)^2 for points (1,5) and (2,5)
    s2 = P2WSum((XP(Const(0.5)), Admissible(Lp())), Const(0.5))
    S, sc = np.array([[1, 5], [2, 5]]), np.array([1.0, 2.0])
    checks.append(("p2w global", member_power(S, sc, *s2.members(4.0)[-1][1:], 4.0),
                   (1 / 16 + 1.0) ** 2))
    checks.append(("p2w", family_norm(S, sc, s2.members(4.0), 4.0), 17.0 ** 0.25))
    # subsets of a = (1, 1), w = (1, 1) at p = 4: the empty subset gives 2^2
    checks.append(("subset max", subset_max([1.0, 1.0], [1.0, 1.0], 4.0), 2.0 ** 0.5))
    # xp with w = 1/2 at both points, c = (1, 1): both singletons give 1 + 1
    two, ones = np.array([[2], [3]]), np.array([1.0, 1.0])
    half = Const(0.5)
    xp_half = XP(half).members(4.0)
    checks.append(("xp envelope", xp_envelope(two, ones, half, 4.0), 2.0 ** 0.25))
    checks.append(("partitions", envelope_by_partitions(two, ones, xp_half, 4.0), 2.0 ** 0.25))
    checks.append(("assignment", assignment_norm(two, ones, xp_half, ["()", "discrete"], 4.0),
                   (1.0 + 0.25 ** 2) ** 0.25))
    # n = 2, w(m) = 1/2, K = (4, 4), p = 4, so c = 1: the sums are
    # I={}: (1/4 + 1/4)^2 = 1/4; I={1}: 1^2 + 4 (1/4)^2 = 5/4; I={1,2}: 8
    sums = yn_sums_closed(4.0, Const(0.5), (16, 16), (4, 4))
    for got, want in zip(sums, (0.25, 1.25, 1.25, 8.0)):
        checks.append(("yn sums", got, want ** 0.25))
    # the witness itself, expanded: blocks (16, 1..4, 16, 1) and
    # (16, 5, 16, 2..5) with c = 1, under the yn(2, 1/2) members
    W = np.array([[16, s, 16, 1] for s in range(1, 5)] + [[16, 5, 16, s] for s in range(2, 6)])
    yn2 = Yn(2, half).members(4.0)
    for (_, k, w), want in zip(yn2, (0.25, 1.25, 1.25, 8.0)):
        checks.append(("yn members", member_power(W, np.ones(8), k, w, 4.0), want))
    # one variable +-2 with probability 1: E|f|^3 = 8; two signs: E S^4 = 8
    checks.append(("moment", exact_moment([(2.0, 1.0)], 3.0), 8.0))
    checks.append(("signs", exact_moment([(1.0, 1.0), (1.0, 1.0)], 4.0), sign_fourth_moment(2)))
    # f in {+-1 w.p. 1/4 each, 0}: E f^4 = 1/2; rhs = max(1/2 + 0, (1/2)^2)^(1/4)
    checks.append(("rhs", rosenthal_rhs([(1.0, 0.5)], 4.0), 0.5 ** 0.25))
    # xp cut to two points keeps both members; two singletons that each
    # take the single-cell weight 1/2 are not a member
    checks.append(("distinct", float(distinct_members(two, xp_half)), 2.0))
    checks.append(("glued member", float(refinement_is_member(two, [(two, "()")], xp_half)), 1.0))
    glued = [(two[:1], "()"), (two[1:], "()")]
    checks.append(("glued refinement", float(refinement_is_member(two, glued, xp_half)), 0.0))
    bad = [f"{name}: {got!r} != {want!r}" for name, got, want in checks if not _close(got, want)]
    if bad:
        raise ValueError("reference self-test failed: " + "; ".join(bad))


if __name__ == "__main__":
    self_test()
    print("reference self-test passed")
