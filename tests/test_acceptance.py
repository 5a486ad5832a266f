"""Acceptance suite: ten end-to-end criteria, one test (and one printed
PASS/FAIL line) per criterion.

Each criterion exercises a full slice of the package -- golden experiment
values, oracle equivalence on randomized instances, decision procedures,
norm axioms, Monte Carlo reproduction, and compressed-representation
equivalence -- with the runtime budgets asserted where they are part of
the contract.  Run with ``-s`` to see the summary lines as they pass.
"""

import csv
import functools
import math
import random
import time

import oracles
from conftest import lp_norm_of, rel_err
from pwnorm.cli import main
from pwnorm.envelope import (
    distortion_certificate,
    envelope_norm_exact,
    has_envelope_property,
    xp_envelope_subset,
)
from pwnorm.experiments import (
    YnParams,
    rosenthal_mc,
    yn_default_params,
    yn_envelope_lb,
    yn_sums,
    yn_witness,
)
from pwnorm.families import ExplicitMembers, Family, PairPW, subset_order
from pwnorm.norms import family_norm
from pwnorm.partitions import Discrete, Indiscrete
from pwnorm.spaces import (
    INFINITELY_MANY,
    IsoType,
    SizeProfile,
    classify_rosenthal,
    classify_single,
    envelope_family,
    make_rosenthal_xp,
    make_Yn,
    p2w_sum,
    tensor_family,
)
from pwnorm.vectors import SparseVector
from pwnorm.weights import Constant, Explicit, Geometric, Interleave, One, PowerDecay


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} FAIL  {title}")
                raise
            print(f"criterion {num:2d} PASS  {title}")

        return wrapper

    return deco


def _xp_explicit_family(ws, labels=None):
    members = [PairPW(Discrete(), One(), "discrete")]
    for j, w in enumerate(ws):
        lbl = labels[j] if labels else f"m{j}"
        members.append(PairPW(Indiscrete(), Explicit(tuple(w), One()), lbl))
    return Family(4.0, 1, ExplicitMembers(tuple(members)))


def _line_vector(values):
    return SparseVector(1, entries=tuple(((i,), v) for i, v in enumerate(values, 1)))


@criterion(1, "golden three-block experiment")
def test_criterion_01_golden_experiment(tmp_path):
    t0 = time.monotonic()
    out = str(tmp_path / "yn.csv")
    assert main(["--command", "experiment-yn", "--out", out]) == 0
    with open(out, newline="") as fh:
        header, row = list(csv.reader(fh))
    rec = dict(zip(header, row))
    lb = float(rec["envelope_lb"])
    given = float(rec["given_norm"])
    assert rel_err(lb, 3.0 ** 0.25) < 1e-12
    expected_given = (1.0 + 2.0 * (0.5 * 49.0 ** 0.25) ** -4 / 16.0) ** 0.25
    assert rel_err(given, expected_given) < 1e-9
    assert float(rec["ratio"]) >= 1.30
    assert time.monotonic() - t0 < 1.0


@criterion(2, "witness inequality suite over random valid parameters")
def test_criterion_02_inequality_suite():
    t0 = time.monotonic()
    rng = random.Random(20260814)
    for _ in range(100):
        n = rng.choice((2, 3, 4))
        eps = rng.uniform(0.05, 1.0)
        base = yn_default_params(n=n, eps=eps)
        m, K = list(base.m), list(base.K)
        for b in range(n):
            if rng.random() < 0.3:
                # scale both so the per-block mass constraint stays tight
                m[b] *= 16
                K[b] *= 16
            if rng.random() < 0.5:
                K[b] *= rng.choice((2, 3))
        prm = YnParams(p=4.0, n=n, w=base.w, m=tuple(m), K=tuple(K), eps=eps)
        sums = yn_sums(yn_witness(prm), make_Yn(prm.p, prm.n, prm.w))
        for I, s in zip(subset_order(n), sums):
            if len(I) == 0:
                assert s < eps ** 0.5
            elif len(I) == n - 1:
                assert s < (1.0 + eps) ** 0.25
            else:
                assert s < eps ** 0.25
        assert rel_err(yn_envelope_lb(prm), n ** 0.25) < 1e-12
    assert time.monotonic() - t0 < 30.0


@criterion(3, "envelope oracle equivalence on randomized instances")
def test_criterion_03_envelope_oracles():
    t0 = time.monotonic()
    rng = random.Random(3)
    for i in range(500):
        if i < 150:
            # two-member families: exact agreement with the subset search too
            npts = rng.randint(2, 10)
            a = [rng.uniform(0.1, 3.0) * rng.choice((-1, 1)) for _ in range(npts)]
            w = tuple(rng.uniform(0.05, 1.0) for _ in range(npts))
            fam = _xp_explicit_family([w], labels=["()"])
            x = _line_vector(a)
            res, _ = envelope_norm_exact(x, fam)
            assert res.value == oracles.qt_norm_exact(x, fam, 4.0)
            assert res.value == xp_envelope_subset(a, list(w), 4.0).value
        else:
            big = i % 16 == 0
            npts = rng.randint(8, 10) if big else rng.randint(2, 7)
            nmem = rng.randint(2, 3) if big else rng.randint(2, 4)
            ws = [
                tuple(rng.uniform(0.05, 1.0) for _ in range(npts))
                for _ in range(nmem - 1)
            ]
            fam = _xp_explicit_family(ws)
            x = _line_vector(
                [rng.uniform(0.1, 3.0) * rng.choice((-1, 1)) for _ in range(npts)]
            )
            res, _ = envelope_norm_exact(x, fam)
            assert res.value == oracles.qt_norm_exact(x, fam, 4.0)
    assert time.monotonic() - t0 < 120.0


@criterion(4, "two-member gap example and its distortion certificate")
def test_criterion_04_gap_example():
    fam = _xp_explicit_family([(1.0, 1.0, 0.01, 0.01)], labels=["()"])
    x = _line_vector([1.0, 1.0, 1.0, 1.0])
    rep = distortion_certificate(x, fam)
    assert rel_err(rep.given_norm, math.sqrt(2.0002)) < 1e-9
    assert rel_err(rep.envelope_lb, 6.0 ** 0.25) < 1e-9
    assert rep.distance_lb == math.sqrt(rep.ratio)
    assert abs(rep.distance_lb - 1.052) < 1e-3


@criterion(5, "sum-space norms match the direct two-branch evaluation")
def test_criterion_05_sum_oracle():
    rng = random.Random(5)

    def rand_weight():
        kind = rng.randint(0, 2)
        if kind == 0:
            return Constant(round(rng.uniform(0.2, 1.0), 3))
        if kind == 1:
            return PowerDecay(rng.choice((0.25, 0.5, 1.0)))
        return Explicit(tuple(rng.uniform(0.1, 1.0) for _ in range(4)), One())

    cases = 0
    while cases < 200:
        k = rng.randint(2, 4)
        children = [make_rosenthal_xp(4.0, rand_weight()) for _ in range(k)]
        outer = rng.choice((One(), Constant(0.7), PowerDecay(0.5)))
        fam = p2w_sum(children, outer)
        points = {}
        for _ in range(rng.randint(1, 8)):
            points[(rng.randint(1, k), rng.randint(1, 4))] = rng.uniform(-2.0, 2.0)
        x = SparseVector(fam.arity, entries=tuple(points.items()))
        if not x.entries:
            continue
        got = family_norm(x, fam).value
        want = oracles.sum_norm_direct(x, children, outer, 4.0)
        assert rel_err(got, want) < 1e-12
        cases += 1


@criterion(6, "envelope-property decisions: failure, closure, sums")
def test_criterion_06_envelope_property():
    xp = make_rosenthal_xp(4.0, Constant(0.5))
    chk = has_envelope_property(xp, ((1,), (2,)))
    assert not chk.holds and chk.exhaustive and chk.counterexample is not None

    env = envelope_family(make_rosenthal_xp(4.0, PowerDecay(0.25)))
    for n in (2, 3, 4):
        pts = tuple((i,) for i in range(1, n + 1))
        chk = has_envelope_property(env, pts, max_members=64)
        assert chk.holds and chk.exhaustive

    ef = envelope_family(make_rosenthal_xp(4.0, PowerDecay(0.25)))
    sfam = p2w_sum([ef, ef], One())
    for child in (1, 2):
        for n in (2, 3, 4):
            pts = tuple((child, i) for i in range(1, n + 1))
            chk = has_envelope_property(sfam, pts, max_members=300)
            assert chk.holds and chk.exhaustive


@criterion(7, "classification tables")
def test_criterion_07_classification():
    rosenthal_cases = [
        (One(), IsoType.L2),
        (Constant(0.5), IsoType.L2),
        (Geometric(0.5), IsoType.LP),
        (PowerDecay(0.5), IsoType.LP),
        (PowerDecay(0.25), IsoType.XP),
        (Interleave(Constant(0.5), Geometric(0.5)), IsoType.L2_PLUS_LP),
    ]
    for w, tag in rosenthal_cases:
        assert classify_rosenthal(w, 4.0).tag is tag, w

    single_cases = [
        (SizeProfile(INFINITELY_MANY, "none", 0), IsoType.SUM_L2_LP),
        (SizeProfile(2, "unbounded", INFINITELY_MANY), IsoType.SUM_L2_LP),
        (SizeProfile(0, "all_singletons", INFINITELY_MANY), IsoType.LP),
        (SizeProfile(0, "bounded", INFINITELY_MANY, bound=9), IsoType.LP),
        (SizeProfile(3, "bounded", INFINITELY_MANY, bound=7), IsoType.L2_PLUS_LP),
        (SizeProfile(3, "bounded", 4, bound=2), IsoType.L2),
        (SizeProfile(1, "none", 0), IsoType.L2),
    ]
    for prof, tag in single_cases:
        assert classify_single(prof).tag is tag, prof


@criterion(8, "norm axioms and admissibility structure, 1000 cases each")
def test_criterion_08_norm_axioms():
    t0 = time.monotonic()
    rng = random.Random(8)

    def rand_family(npts):
        ws = [
            tuple(rng.uniform(0.05, 1.0) for _ in range(npts))
            for _ in range(rng.randint(1, 2))
        ]
        return _xp_explicit_family(ws)

    def rand_values(npts):
        return [rng.uniform(0.1, 2.0) * rng.choice((-1, 1)) for _ in range(npts)]

    for _ in range(1000):
        npts = rng.randint(1, 5)
        fam = rand_family(npts)
        vals = rand_values(npts)
        flipped = [v * rng.choice((-1, 1)) for v in vals]
        assert (
            family_norm(_line_vector(vals), fam).value
            == family_norm(_line_vector([abs(v) for v in flipped]), fam).value
        )

    for _ in range(1000):
        npts = rng.randint(1, 5)
        fam = rand_family(npts)
        xs, ys = rand_values(npts), rand_values(npts)
        nx = family_norm(_line_vector(xs), fam).value
        ny = family_norm(_line_vector(ys), fam).value
        sums = [a + b for a, b in zip(xs, ys)]
        if all(v == 0.0 for v in sums):
            continue
        nsum = family_norm(_line_vector(sums), fam).value
        assert nsum <= (nx + ny) * (1.0 + 1e-9)

    for _ in range(1000):
        npts = rng.randint(1, 5)
        fam = rand_family(npts)  # admissible: discrete weight-1 plus indiscrete
        vals = rand_values(npts)
        x = _line_vector(vals)
        assert family_norm(x, fam).value >= lp_norm_of(x.entries, 4.0)

    for _ in range(1000):
        na, nb = rng.randint(1, 3), rng.randint(1, 3)
        fa, fb = rand_family(na), rand_family(nb)
        tf = tensor_family(fa, fb)
        xs, ys = rand_values(na), rand_values(nb)
        prod = SparseVector(
            2,
            entries=tuple(
                ((i, j), xv * yv)
                for i, xv in enumerate(xs, 1)
                for j, yv in enumerate(ys, 1)
            ),
        )
        lhs = family_norm(prod, tf).value
        rhs = (
            family_norm(_line_vector(xs), fa).value
            * family_norm(_line_vector(ys), fb).value
        )
        assert rel_err(lhs, rhs) < 1e-9

    from pwnorm.spaces import make_admissible

    for _ in range(1000):
        npts = rng.randint(1, 4)
        fam = rand_family(npts)
        if rng.random() < 0.5:
            fam = Family(4.0, 1, ExplicitMembers(fam.members.pairs[1:]))
        made = make_admissible(fam)
        assert make_admissible(made) is made
    assert time.monotonic() - t0 < 60.0


@criterion(9, "sign-sum Monte Carlo reproduces the exact fourth moment")
def test_criterion_09_monte_carlo():
    t0 = time.monotonic()
    res = rosenthal_mc([(1.0, 1.0)] * 10, 4.0, 10**6, 0)
    again = rosenthal_mc([(1.0, 1.0)] * 10, 4.0, 10**6, 0)
    assert res == again
    exact = oracles.rademacher_fourth_moment(10) ** 0.25
    assert abs(res.lhs_est - exact) <= 3.0 * res.stderr
    assert res.rhs == math.sqrt(10.0)
    assert 1.25 <= res.ratio <= 1.34
    assert time.monotonic() - t0 < 30.0


@criterion(10, "block-compressed and expanded vectors agree")
def test_criterion_10_compressed_equivalence():
    cases = [
        yn_default_params(),
        yn_default_params(n=2, eps=0.8),
        YnParams(
            p=4.0, n=3, w=PowerDecay(0.25), m=(16, 256, 16), K=(49, 1200, 60), eps=1.0
        ),
    ]
    for prm in cases:
        fam = make_Yn(prm.p, prm.n, prm.w)
        x = yn_witness(prm)
        flat = x.expand()
        assert flat.blocks == ()
        assert yn_sums(x, fam) == yn_sums(flat, fam)
        assert family_norm(x, fam) == family_norm(flat, fam)

    fam = _xp_explicit_family([(1.0, 1.0, 0.01, 0.01)], labels=["()"])
    from pwnorm.vectors import ConstantBlock

    xb = SparseVector(
        1, blocks=(ConstantBlock(template=(1,), running_coord=1, lo=1, hi=4, coeff=1.0),)
    )
    rep_b = distortion_certificate(xb, fam)
    rep_f = distortion_certificate(xb.expand(), fam)
    assert rel_err(rep_b.given_norm, rep_f.given_norm) < 1e-12
    assert rel_err(rep_b.envelope_lb, rep_f.envelope_lb) < 1e-12
