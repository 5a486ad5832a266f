"""The benchmark's workloads: inputs made from the seed, and output checks.

A workload is a fixed list of operation slots.  Each slot always has the
same command, space shape, support size and exponent, so every round
costs about the same whatever the seed; the seed and the round number
choose the coefficients, indices and weight parameters.  Every round
gets fresh inputs, so no result can be reused from an earlier round.

Each batch has 25 slots in three groups by cost: ten cheap ones, five of
one shape at the median, and ten dear ones whose top five hold the 90th
percentile among slots of similar cost.  A percentile that fell between
two slots of different cost would jump with every small change in
either, and the run-to-run spread would hide real changes.

An operation is made by a factory from its own random generator, so the
runner can make it once to write its files and again, after timing, to
check its output without keeping the inputs in memory meanwhile.
"""

from __future__ import annotations

import math
import random
import re
from ast import literal_eval
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

REL = 1e-12  # relative agreement required of every value the program prints
Z_MC = 6.0  # Monte Carlo estimates must lie within this many standard errors


@dataclass
class Case:
    """One CLI command: its arguments (file names relative to the work
    directory), the files it reads, and the check of its CSV row."""

    argv: list[str]
    files: dict[str, str]
    check: Callable[[dict[str, str]], list[str]]


@dataclass(frozen=True)
class Slot:
    label: str
    factory: Callable[[random.Random], Case]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _agree(problems: list[str], what: str, got: float, want: float) -> None:
    if not _rel(got, want) <= REL:
        problems.append(f"{what} {got!r} != reference {want!r}")


def _coeff(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 1.0)


def _alpha(rng: random.Random) -> float:
    return round(rng.uniform(0.15, 0.45), 3)


def _vector_text(points: np.ndarray, coeffs: np.ndarray, runs) -> str:
    lines = [" ".join(map(str, idx)) + f" : {c!r}"
             for idx, c in zip(points.tolist(), coeffs.tolist())]
    arity = points.shape[1]
    for prefix, lo, hi, c in runs:
        template = " ".join(map(str, prefix + (lo,)))
        lines.append(f"block {template} {arity} {lo} {hi} : {c!r}")
    return "\n".join(lines) + "\n"


def rows_vector(rng: random.Random, n: int, rows: list[tuple], blocks: int = 0,
                block_len: int = 0):
    """n points spread evenly over ``rows`` (index prefixes), the last
    coordinate running from 2.  ``blocks`` runs of ``block_len`` points,
    dealt over the first rows, are written as ``block`` lines; the other
    points are explicit, scattered over three times their number of
    columns after the runs.  Block count and length are fixed per slot
    because the program checks every block against every entry.

    Returns the file text and the expanded vector (points, coefficients).
    """
    gen = np.random.default_rng(rng.getrandbits(64))
    runs, explicit, run_pts, run_coeffs = [], [], [], []
    for r, prefix in enumerate(rows):
        m = n // len(rows) + (1 if r < n % len(rows) else 0)
        col = 2
        for _ in range(r, blocks, len(rows)):
            c = _coeff(rng)
            runs.append((prefix, col, col + block_len - 1, c))
            run_pts.extend(prefix + (s,) for s in range(col, col + block_len))
            run_coeffs.extend([c] * block_len)
            col += block_len + 1
            m -= block_len
        cols = np.sort(gen.choice(3 * m, size=m, replace=False)) + col
        explicit.append(np.column_stack((np.tile(np.array(prefix, dtype=np.int64), (m, 1)), cols)))
    points = np.concatenate(explicit)
    coeffs = gen.uniform(0.05, 1.0, len(points)) * gen.choice((-1.0, 1.0), len(points))
    text = _vector_text(points, coeffs, runs)
    if run_pts:
        points = np.concatenate((points, np.array(run_pts, dtype=np.int64)))
        coeffs = np.concatenate((coeffs, run_coeffs))
    return text, (points, coeffs)


def explicit_vector(rng: random.Random, pool: Callable[[], tuple], n: int):
    """n distinct points drawn from ``pool``, in sorted order, written one
    per line."""
    pts: set = set()
    while len(pts) < n:
        pts.add(pool())
    points = np.array(sorted(pts), dtype=np.int64)
    coeffs = np.array([_coeff(rng) for _ in range(n)])
    return _vector_text(points, coeffs, []), (points, coeffs)


# ---------------------------------------------------------------------------
# norm-wide: the norm command on large supports


GRID_ROWS = [(i,) for i in range(2, 52)]


def _norm_space(rng: random.Random, kind: str):
    """The space of a norm-wide slot, with weight parameters from the seed,
    the rows its points spread over, and whether it is admissible."""
    def pd():
        return ref.PowerDecay(_alpha(rng))

    if kind == "xp":
        return ref.XP(pd()), [()], True
    if kind == "sum_l2_lp":
        return ref.SumL2Lp(ref.Lift((2,), pd())), GRID_ROWS, False
    if kind == "schechtman":
        return ref.schechtman(pd(), pd()), GRID_ROWS, True
    if kind == "tensor":
        return ref.Tensor(ref.XP(pd()), ref.Admissible(ref.Lp())), GRID_ROWS, True
    if kind == "p2w_sum":
        W = ref.Const(round(rng.uniform(0.3, 0.9), 3))
        return ref.P2WSum((ref.Admissible(ref.XP(pd())), ref.Admissible(ref.Lp())), W), \
            [(1,), (2,)], True
    if kind == "lp_sum":
        return ref.P2WSum((ref.XP(pd()), ref.Admissible(ref.Lp()), ref.XP(pd()))), \
            [(1,), (2,), (3,)], True
    if kind == "yn":
        return ref.Yn(3, pd()), None, True
    raise ValueError(kind)


def norm_slot(kind: str, n: int, p: float, blocks: int = 0, block_len: int = 0) -> Slot:
    """``norm`` on an n-point vector; yn points are drawn from a small grid
    of 6-tuples so that its members have cells of several points."""

    def make(rng):
        space, rows, admissible = _norm_space(rng, kind)
        if rows is None:
            def pool():
                return tuple(rng.randint(2, 5) if q % 2 == 0 else rng.randint(1, 8)
                             for q in range(6))

            text, (P, c) = explicit_vector(rng, pool, n)
        else:
            text, (P, c) = rows_vector(rng, n, rows, blocks, block_len)

        def check(row: dict[str, str]) -> list[str]:
            problems: list[str] = []
            got = float(row["norm"])
            _agree(problems, "norm", got, ref.family_norm(P, c, space.members(p), p))
            if got > ref.l2_norm(c) * (1 + REL):
                problems.append(f"norm {got!r} exceeds the l2 norm")
            if admissible and got < ref.lp_norm(c, p) * (1 - REL):
                problems.append(f"norm {got!r} is below the lp norm")
            return problems

        return Case(
            ["--command", "norm", "--config", "space.cfg", "--vector", "x.vec"],
            {"space.cfg": ref.config_text(p, space), "x.vec": text},
            check,
        )

    return Slot(f"norm {kind} {n} p={p:g}", make)


NORM_WIDE = [
    norm_slot("xp", 1000, 4.0),
    norm_slot("sum_l2_lp", 1000, 4.0),
    norm_slot("schechtman", 1000, 5.0),
    norm_slot("tensor", 1000, 3.0),
    norm_slot("xp", 2000, 3.0),
    norm_slot("p2w_sum", 1000, 4.0),
    norm_slot("xp", 3000, 5.0),
    norm_slot("sum_l2_lp", 5000, 5.0, blocks=5, block_len=100),
    norm_slot("yn", 1000, 4.0),
    norm_slot("lp_sum", 2000, 5.0),
] + [norm_slot("schechtman", 5000, 4.0)] * 5 + [
    norm_slot("p2w_sum", 5000, 3.0, blocks=2, block_len=250),
    norm_slot("xp", 10000, 3.0, blocks=4, block_len=250),
    norm_slot("schechtman", 10000, 3.0),
    norm_slot("lp_sum", 5000, 4.0),
    norm_slot("yn", 3000, 4.0),
    norm_slot("sum_l2_lp", 20000, 3.0, blocks=5, block_len=200),
    norm_slot("p2w_sum", 10000, 4.0),
    norm_slot("xp", 20000, 4.0, blocks=4, block_len=500),
    norm_slot("schechtman", 20000, 4.0),
    norm_slot("tensor", 20000, 5.0),
]


# ---------------------------------------------------------------------------
# envelope-search: assignment searches and refinement checks on small supports

QT_MAX_POINTS = 7  # supports checked against the direct (Q, T) enumeration


def _small_points(rng: random.Random, space, n: int):
    """n points on which every member of ``space`` stays distinct, so the
    search always has the same size."""
    if isinstance(space, ref.Yn):
        def pool():
            return tuple(rng.randint(2, 3) if q % 2 == 0 else rng.randint(1, 2) for q in range(6))
    elif space.arity == 2:
        def pool():
            return (rng.randint(2, 6), rng.randint(2, 6))
    else:
        def pool():
            return (rng.randint(2, 400),)
    want = len(space.members(4.0)) if not isinstance(space, ref.Envelope) else 0
    while True:
        text, (P, c) = explicit_vector(rng, pool, n)
        if not want or ref.distinct_members(P, space.members(4.0)) == want:
            return text, (P, c)


def _parse_assignment(label: str, labels: list[str]) -> list[str] | None:
    """Split ``assign[l1,l2,...]`` into member labels (labels may hold commas)."""
    m = re.fullmatch(r"assign\[(.*)\]", label)
    if not m:
        return None
    body = m.group(1)
    order = sorted(labels, key=len, reverse=True)

    def split(pos: int) -> list[str] | None:
        for lbl in order:
            if body.startswith(lbl, pos):
                end = pos + len(lbl)
                if end == len(body):
                    return [lbl]
                if body[end] == ",":
                    rest = split(end + 1)
                    if rest is not None:
                        return [lbl] + rest
        return None

    return split(0)


def _envelope_reference(space, P, c, p: float) -> tuple[list[float], list]:
    """The exact envelope norms the benchmark computes itself, with the
    members of the (inner) family: the subset maximum for two-member xp,
    and the (Q, T) enumeration on small supports."""
    inner = space.inner if isinstance(space, ref.Envelope) else space
    members = inner.members(p)
    values = []
    if isinstance(inner, ref.XP):
        values.append(ref.xp_envelope(P, c, inner.w, p))
    if len(P) <= QT_MAX_POINTS:
        values.append(ref.envelope_by_partitions(P, c, members, p))
    return values, members


def _envelope_bounds(problems, what: str, got: float, P, c, members, p: float) -> None:
    given = ref.family_norm(P, c, members, p)
    if got < given * (1 - REL):
        problems.append(f"{what} {got!r} is below the family norm {given!r}")
    if got > ref.l2_norm(c) * (1 + REL):
        problems.append(f"{what} {got!r} exceeds the l2 norm")


def envelope_slot(kind: str, n: int, p: float = 4.0):
    def make(rng):
        space = _envelope_space(rng, kind)
        text, (P, c) = _small_points(rng, space, n)

        def check(row):
            problems: list[str] = []
            got = float(row["norm"])
            exact, members = _envelope_reference(space, P, c, p)
            for want in exact:
                _agree(problems, "envelope norm", got, want)
            _envelope_bounds(problems, "envelope norm", got, P, c, members, p)
            labels = _parse_assignment(row["argmax_member"], [m[0] for m in members])
            if labels is None or len(labels) != len(P):
                problems.append(f"unreadable assignment {row['argmax_member']!r}")
            else:
                _agree(problems, "assignment norm", got,
                       ref.assignment_norm(P, c, members, labels, p))
            return problems

        return Case(
            ["--command", "envelope", "--config", "space.cfg", "--vector", "x.vec"],
            {"space.cfg": ref.config_text(p, space), "x.vec": text},
            check,
        )

    return Slot(f"envelope {kind} {n} p={p:g}", make)


def envelope_norm_slot(n: int, p: float = 4.0):
    """``norm`` on envelope(xp): the family of all refinements."""

    def make(rng):
        space = ref.Envelope(_envelope_space(rng, "xp"))
        text, (P, c) = _small_points(rng, space, n)

        def check(row):
            problems: list[str] = []
            got = float(row["norm"])
            exact, members = _envelope_reference(space, P, c, p)
            for want in exact:
                _agree(problems, "envelope(xp) norm", got, want)
            _envelope_bounds(problems, "envelope(xp) norm", got, P, c, members, p)
            return problems

        return Case(
            ["--command", "norm", "--config", "space.cfg", "--vector", "x.vec"],
            {"space.cfg": ref.config_text(p, space), "x.vec": text},
            check,
        )

    return Slot(f"norm envelope(xp) {n} p={p:g}", make)


def distortion_slot(kind: str, n: int, p: float = 4.0):
    def make(rng):
        space = _envelope_space(rng, kind)
        text, (P, c) = _small_points(rng, space, n)

        def check(row):
            problems: list[str] = []
            given, env = float(row["given_norm"]), float(row["envelope_lb"])
            ratio, dist = float(row["ratio"]), float(row["distance_lb"])
            exact, members = _envelope_reference(space, P, c, p)
            _agree(problems, "given norm", given, ref.family_norm(P, c, members, p))
            for want in exact:
                _agree(problems, "envelope bound", env, want)
            _envelope_bounds(problems, "envelope bound", env, P, c, members, p)
            if not ratio >= 1.0:
                problems.append(f"ratio {ratio!r} < 1")
            _agree(problems, "ratio", ratio, env / given)
            _agree(problems, "distance bound", dist, math.sqrt(ratio))
            return problems

        return Case(
            ["--command", "distortion", "--config", "space.cfg", "--vector", "x.vec"],
            {"space.cfg": ref.config_text(p, space), "x.vec": text},
            check,
        )

    return Slot(f"distortion {kind} {n} p={p:g}", make)


def property_slot(kind: str, n: int, p: float = 4.0):
    """check-envelope-property: it holds for lp and envelope(...) and fails
    for xp and schechtman, whose counterexample must be a refinement that
    is no member."""
    holds = kind in ("lp", "envelope")

    def make(rng):
        space = ref.Envelope(_envelope_space(rng, "xp")) if kind == "envelope" else (
            _envelope_space(rng, kind)
        )
        text, (P, c) = _small_points(rng, space, n)
        argv = ["--command", "check-envelope-property", "--config", "space.cfg",
                "--vector", "x.vec"]
        if kind == "envelope":
            argv += ["--cap-members", "64"]  # every refinement of xp is a member

        def check(row):
            problems: list[str] = []
            if row["holds"] != str(holds).lower():
                problems.append(f"property holds={row['holds']} on {kind}")
            if row["exhaustive"] != "true" or not int(row["checked"]) >= 1:
                problems.append("check was not exhaustive")
            if not holds:
                parts = row["counterexample"].split(" | ")
                pieces = [(literal_eval(cells), lbl)
                          for cells, lbl in (part.split("<-") for part in parts)]
                pts = sorted(map(tuple, P.tolist()))
                if sorted(b for cells, _ in pieces for b in cells) != pts:
                    problems.append("counterexample cells do not partition the support")
                elif ref.refinement_is_member(
                    P, [(np.array(cells), lbl) for cells, lbl in pieces], space.members(p)
                ):
                    problems.append("counterexample refinement is a member")
            return problems

        return Case(argv, {"space.cfg": ref.config_text(p, space), "x.vec": text}, check)

    return Slot(f"check-envelope-property {kind} {n} p={p:g}", make)


def _envelope_space(rng: random.Random, kind: str):
    if kind == "xp":
        return ref.XP(ref.PowerDecay(_alpha(rng)))
    if kind == "schechtman":
        return ref.schechtman(ref.PowerDecay(_alpha(rng)), ref.PowerDecay(_alpha(rng)))
    if kind == "yn":
        return ref.Yn(3, ref.PowerDecay(_alpha(rng)))
    if kind == "lp":
        return ref.Lp()
    raise ValueError(kind)


# The exponent is fixed per slot: numpy squares for p = 4 and calls pow
# otherwise, which makes the same search two to three times slower.
ENVELOPE_SEARCH = [
    property_slot("xp", 6, 5.0),
    property_slot("schechtman", 5),
    envelope_slot("xp", 10),
    property_slot("envelope", 3),
    envelope_norm_slot(4),
    envelope_slot("xp", 12, 3.0),
    envelope_slot("xp", 14),
    property_slot("lp", 6, 3.0),
    envelope_norm_slot(5, 3.0),
    envelope_slot("yn", 5, 5.0),
    envelope_slot("xp", 16),
    envelope_slot("xp", 16),
    distortion_slot("xp", 16),
    property_slot("envelope", 4),
    envelope_slot("schechtman", 8, 3.0),
    envelope_slot("yn", 6),
    distortion_slot("yn", 6),
    distortion_slot("schechtman", 9),
    envelope_norm_slot(6),
    envelope_slot("schechtman", 10),
    envelope_slot("yn", 7),
    envelope_slot("yn", 7),
    envelope_slot("schechtman", 10, 5.0),
    envelope_norm_slot(7),
    envelope_slot("schechtman", 11),
]


# ---------------------------------------------------------------------------
# experiments: the Y_n witness and the Rosenthal-type moment check

YN_WEIGHT = ref.PowerDecay(0.25)


def yn_slot(n: int, eps: float):
    """experiment-yn with the default witness parameters; below the
    program's extensional cutoff for n=3, eps=1 and n=4, above it for
    n=3, eps=0.1.  These inputs do not depend on the seed."""

    def make(rng):
        p = 4.0

        def check(row):
            problems: list[str] = []
            m = [int(v) for v in row["m"].split(";")]
            K = [int(v) for v in row["K"].split(";")]
            if int(row["n"]) != n or len(m) != n or len(K) != n:
                problems.append(f"witness has the wrong number of blocks: {row['n']}")
                return problems
            for mb, Kb, wm in zip(m, K, YN_WEIGHT(np.array([[v] for v in m])).tolist()):
                long_enough = wm * Kb ** (0.5 - 1 / p) > (n / eps) ** (1 / p)
                if not (wm < math.sqrt(eps / n) and long_enough):
                    problems.append(f"block parameters m={mb} K={Kb} are not valid")
            sums = [float(row[f"S_{i}"]) for i in range(2**n)]
            for i, (got, want) in enumerate(zip(sums, ref.yn_sums_closed(p, YN_WEIGHT, m, K))):
                _agree(problems, f"S_{i}", got, want)
            given, lb = float(row["given_norm"]), float(row["envelope_lb"])
            _agree(problems, "given norm", given, max(sums))
            _agree(problems, "envelope bound", lb, n ** (1 / p))
            _agree(problems, "ratio", float(row["ratio"]), lb / given)
            _agree(problems, "distance bound", float(row["distance_lb"]),
                   math.sqrt(float(row["ratio"])))
            return problems

        cfg = ref.config_text(p, ref.Yn(n, YN_WEIGHT))
        return Case(
            ["--command", "experiment-yn", "--config", "space.cfg", "--eps", repr(eps)],
            {"space.cfg": cfg},
            check,
        )

    return Slot(f"experiment-yn n={n} eps={eps}", make)


ROSENTHAL_SAMPLES = 100_000


def rosenthal_slot(N: int, p: float, signs: bool = False):
    """experiment-rosenthal on N variables.  Up to 12 general three-point
    variables are checked against the exact moment over all 3^N outcomes;
    longer sums use scaled random signs at p = 4, whose fourth moment is
    c^4 (3N^2 - 2N)."""

    def make(rng):
        if signs:
            c = round(rng.uniform(0.5, 2.0), 4)
            variables = [(c, 1.0)] * N
        else:
            variables = [(round(rng.uniform(0.5, 2.0), 4), round(rng.uniform(0.1, 1.0), 4))
                         for _ in range(N)]
        seed = rng.randrange(2**31)

        def check(row):
            problems: list[str] = []
            lhs, se, rhs = float(row["lhs_est"]), float(row["stderr"]), float(row["rhs"])
            _agree(problems, "rhs", rhs, ref.rosenthal_rhs(variables, p))
            _agree(problems, "ratio", float(row["ratio"]), lhs / rhs)
            if signs:
                exact = variables[0][0] * ref.sign_fourth_moment(N) ** 0.25
            else:
                exact = ref.exact_moment(variables, p) ** (1 / p)
            if not (se > 0 and abs(lhs - exact) <= Z_MC * se):
                problems.append(
                    f"lhs {lhs!r} is not within {Z_MC} standard errors ({se!r}) of {exact!r}"
                )
            return problems

        return Case(
            ["--command", "experiment-rosenthal", "--config", "p.cfg", "--vector", "vars.txt",
             "--samples", str(ROSENTHAL_SAMPLES), "--seed", str(seed)],
            {"p.cfg": ref.config_text(p, ref.Lp()),
             "vars.txt": "".join(f"{a!r} {q!r}\n" for a, q in variables)},
            check,
        )

    return Slot(f"experiment-rosenthal N={N} p={p:g}{' signs' if signs else ''}", make)


EXPERIMENTS = (
    [yn_slot(3, 0.1), yn_slot(3, 1.0)]
    + [rosenthal_slot(10, 3.0)] * 4
    + [rosenthal_slot(11, 4.0)] * 4
    + [rosenthal_slot(12, 5.0)] * 5
    + [rosenthal_slot(N, 4.0, signs=True) for N in (14, 16, 18, 20, 20)]
    + [yn_slot(4, eps) for eps in (1.0, 0.9, 0.9, 0.8, 0.5)]
)


WORKLOADS = {
    "norm-wide": NORM_WIDE,
    "envelope-search": ENVELOPE_SEARCH,
    "experiments": EXPERIMENTS,
}


def op_rng(seed: int, round_no: int, slot_no: int) -> random.Random:
    """The generator for one slot of one round of one seed."""
    return random.Random(f"{seed}/{round_no}/{slot_no}")
