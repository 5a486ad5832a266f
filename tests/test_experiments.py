import math
import warnings
from dataclasses import replace

import pytest

import oracles
from conftest import rel_err
from pwnorm.envelope import Assignment, envelope_lower_bound
from pwnorm.errors import ValidationError
from pwnorm.experiments import (
    RosenthalResult,
    YnParams,
    rosenthal_mc,
    yn_default_params,
    yn_envelope_lb,
    yn_report,
    yn_sums,
    yn_witness,
)
from pwnorm.families import subset_label, sum_embed
from pwnorm.norms import family_norm
from pwnorm.spaces import make_admissible, make_lp, make_Yn, p2w_sum
from pwnorm.vectors import SparseVector
from pwnorm.weights import Constant, PowerDecay

W = PowerDecay(0.25)

GOLDEN_SUMS = [
    0.4330127018922193,
    0.5961146333630026,
    0.5961146333630026,
    0.5961146333630026,
    1.0100515141419308,
    1.0100515141419308,
    1.0100515141419308,
    0.9948584414934554,
]


# --- parameter validation ----------------------------------------------------


def test_default_params_golden():
    prm = yn_default_params()
    assert (prm.p, prm.n, prm.eps) == (4.0, 3, 1.0)
    assert prm.m == (16, 16, 16)
    assert prm.K == (49, 49, 49)


@pytest.mark.parametrize(
    "kwargs,snippet",
    [
        (dict(p=2.0), "p must be > 2"),
        (dict(n=1, m=(16,), K=(49,)), "at least two blocks"),
        (dict(eps=4.0), "(0, 3]"),
        (dict(m=(16, 16)), "3 naturals"),
        (dict(m=(4, 16, 16)), "is not <"),
        (dict(K=(48, 49, 49)), "is not >"),
    ],
)
def test_params_validation(kwargs, snippet):
    base = dict(p=4.0, n=3, w=W, m=(16,) * 3, K=(49,) * 3, eps=1.0)
    base.update(kwargs)
    with pytest.raises(ValidationError, match=__import__("re").escape(snippet)):
        YnParams(**base)


def test_default_params_respect_smaller_eps():
    prm = yn_default_params(n=2, eps=0.5)
    assert prm.m == (256, 256)
    assert prm.K == (1025, 1025)


@pytest.mark.parametrize(
    "kwargs,snippet",
    [
        (dict(p=2.0), "p must be > 2"),
        (dict(n=1), "at least two blocks"),
        (dict(eps=0.0), "(0, 3]"),
        (dict(eps=-0.5), "(0, 3]"),
    ],
)
def test_default_params_reject_bad_scalars(kwargs, snippet):
    # must raise before any sqrt/power on the invalid value
    with pytest.raises(ValidationError, match=__import__("re").escape(snippet)):
        yn_default_params(**kwargs)


# --- witness structure --------------------------------------------------------


def test_witness_blocks():
    prm = yn_default_params()
    x = yn_witness(prm)
    assert x.arity == 6
    assert x.entries == ()
    assert len(x.blocks) == 3
    wm = prm.w.value_at_nat(16)
    for b, blk in enumerate(x.blocks, start=1):
        assert blk.size == prm.K[b - 1]
        assert blk.running_coord == 2 * b
        assert blk.template[2 * b - 2] == prm.m[b - 1]
        # each block carries unit matched l_2 mass (up to one rounding)
        mass = blk.size * (blk.coeff * blk.coeff) * (wm * wm)
        assert abs(mass - 1.0) < 4e-16


def test_witness_blocks_pairwise_disjoint_at_every_pair():
    prm = yn_default_params()
    x = yn_witness(prm)
    reps = [blk.point_at(blk.lo) for blk in x.blocks]
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(3):
                pair_i = reps[i][2 * k : 2 * k + 2]
                pair_j = reps[j][2 * k : 2 * k + 2]
                assert pair_i != pair_j


# --- subset sums ---------------------------------------------------------------


def test_sums_golden():
    prm = yn_default_params()
    s = yn_sums(yn_witness(prm), make_Yn(prm.p, prm.n, prm.w))
    assert s == GOLDEN_SUMS


def test_sums_match_closed_form_oracle():
    for prm in [
        yn_default_params(),
        yn_default_params(n=2, eps=0.5),
        YnParams(p=4.0, n=3, w=W, m=(16, 256, 16), K=(49, 1200, 60), eps=1.0),
    ]:
        s = yn_sums(yn_witness(prm), make_Yn(prm.p, prm.n, prm.w))
        o = oracles.yn_expected_sums(prm)
        assert all(rel_err(a, b) < 1e-12 for a, b in zip(s, o))


def test_max_sum_is_exactly_the_family_norm():
    prm = yn_default_params()
    x = yn_witness(prm)
    fam = make_Yn(prm.p, prm.n, prm.w)
    assert max(yn_sums(x, fam)) == family_norm(x, fam).value


def test_max_sum_is_the_family_norm_on_a_large_witness():
    # 368,643 points: more than family_norm's default cap on expanded points
    prm = yn_default_params(n=3, eps=0.1)
    x = yn_witness(prm)
    fam = make_Yn(4.0, 3, PowerDecay(0.25))
    assert x.support_size == 368_643
    s = yn_sums(x, fam)
    assert max(s) == family_norm(x, fam).value
    o = oracles.yn_expected_sums(prm)
    assert all(rel_err(a, b) < 1e-12 for a, b in zip(s, o))


@pytest.mark.parametrize("n, eps", [(2, 3.0), (3, 3.0), (2, 1.0)])
def test_witness_keeps_its_norms_inside_a_p2_sum(n, eps):
    # stability under (p,2) sums: the witness lifted into one child of a
    # sum has that child's norm and envelope bound, bit for bit
    prm = yn_default_params(n=n, eps=eps)
    x = yn_witness(prm)
    fam = p2w_sum([make_admissible(make_lp(4.0)), make_Yn(4.0, n, W)], Constant(0.7))
    blocks = tuple(
        replace(b, template=sum_embed(2, b.template, fam.arity), running_coord=b.running_coord + 1)
        for b in x.blocks
    )
    lifted = SparseVector(arity=fam.arity, blocks=blocks)
    assert family_norm(lifted, fam).value == family_norm(x, make_Yn(4.0, n, W)).value
    points, labels = [], []
    for b, blk in enumerate(blocks, 1):
        others = subset_label([k for k in range(1, n + 1) if k != b])
        points += blk.points()
        labels += [f"prod(2:{others})"] * blk.size
    assignment = Assignment(tuple(points), tuple(labels))
    assert envelope_lower_bound(lifted, fam, assignment) == yn_envelope_lb(prm)


# --- the report -----------------------------------------------------------------


def test_report_golden():
    rep = yn_report(yn_default_params())
    assert rep.sums == tuple(GOLDEN_SUMS)
    assert rep.labels == (
        "I={}",
        "I={1}",
        "I={2}",
        "I={3}",
        "I={1,2}",
        "I={1,3}",
        "I={2,3}",
        "I={1,2,3}",
    )
    assert rep.given_norm == 1.0100515141419308
    assert rep.envelope_lb == 3.0 ** 0.25
    assert rep.ratio == 1.3029771200041582
    assert rep.distance_lb == math.sqrt(rep.ratio)


def test_envelope_lb_equals_block_count_root():
    for n in (2, 3, 4):
        prm = yn_default_params(n=n)
        lb = yn_envelope_lb(prm)
        assert rel_err(lb, n ** 0.25) < 1e-12
        assert lb >= n ** 0.25 * (1 - 1e-9)


def test_eps_trend():
    reports = [yn_report(yn_default_params(eps=e)) for e in (1.0, 0.5, 0.1)]
    givens = [r.given_norm for r in reports]
    ratios = [r.ratio for r in reports]
    assert givens[0] > givens[1] > givens[2] > 1.0
    assert ratios[0] < ratios[1] < ratios[2] < 3.0 ** 0.25
    assert givens[2] == pytest.approx(1.0, rel=1e-5)


def test_inequality_pattern_for_defaults():
    prm = yn_default_params()
    rep = yn_report(prm)
    eps, p, n = prm.eps, prm.p, prm.n
    s = rep.sums
    assert s[0] < eps ** 0.5
    for i in (1, 2, 3):
        assert s[i] < eps ** (1 / p)
    for i in (4, 5, 6):  # singleton complements carry the unit block
        assert s[i] < (1 + eps) ** (1 / p)
    assert s[7] < eps ** (1 / p)


# --- the moment-inequality Monte Carlo -------------------------------------------


def test_mc_is_deterministic():
    a = rosenthal_mc([(1.0, 1.0)] * 10, 4.0, 10**5, 0)
    b = rosenthal_mc([(1.0, 1.0)] * 10, 4.0, 10**5, 0)
    assert a == b
    c = rosenthal_mc([(1.0, 1.0)] * 10, 4.0, 10**5, 1)
    assert c.lhs_est != a.lhs_est


def test_mc_sign_sum_fourth_moment():
    n = 10
    res = rosenthal_mc([(1.0, 1.0)] * n, 4.0, 10**5, 0)
    exact = oracles.rademacher_fourth_moment(n) ** 0.25
    assert abs(res.lhs_est - exact) <= 3 * res.stderr
    assert res.rhs == math.sqrt(10.0)
    assert res.samples == 10**5


def test_mc_stderr_scales_with_samples():
    base = rosenthal_mc([(1.0, 1.0)] * 10, 4.0, 10**5, 0)
    more = rosenthal_mc([(1.0, 1.0)] * 10, 4.0, 4 * 10**5, 0)
    assert 0.35 < more.stderr / base.stderr < 0.65


def test_mc_stderr_survives_huge_amplitudes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = rosenthal_mc([(1e40, 0.5), (1.0, 0.5)], 4.0, 10_000, 0)
    assert math.isfinite(res.stderr) and res.stderr > 0.0
    assert abs(res.lhs_est - res.rhs) <= 3 * res.stderr


def test_mc_single_variable_ratio_near_one():
    res = rosenthal_mc([(2.0, 0.25)], 4.0, 10**5, 5)
    assert abs(res.lhs_est - res.rhs) <= 3 * res.stderr


def test_mc_validation():
    with pytest.raises(ValidationError, match="at most 64 variables .* sampling chunk"):
        rosenthal_mc([(1.0, 1.0)] * 65, 4.0, 10**5, 0)
    with pytest.raises(ValidationError, match="10000 samples"):
        rosenthal_mc([(1.0, 1.0)], 4.0, 10**3, 0)
    with pytest.raises(ValidationError, match="outside"):
        rosenthal_mc([(1.0, 1.5)], 4.0, 10**5, 0)
    with pytest.raises(ValidationError, match="degenerate"):
        rosenthal_mc([(0.0, 0.5)], 4.0, 10**5, 0)


def test_mc_runs_at_the_variable_cap():
    res = rosenthal_mc([(1.0, 0.5)] * 64, 4.0, 10**4, 0)
    assert res.samples == 10**4
    assert rel_err(res.rhs, 32.0 ** 0.5) < 1e-15  # all 64 pooled: (64 · 0.5)^{1/2}
    assert 0.5 < res.ratio < 2.0


def test_mc_ratio_band_randomized():
    import random

    rng = random.Random(42)
    for _ in range(3):
        n = rng.randint(2, 6)
        vars_ = [(rng.uniform(0.2, 2.0), rng.uniform(0.1, 1.0)) for _ in range(n)]
        res = rosenthal_mc(vars_, 4.0, 5 * 10**4, 7)
        assert 0.2 < res.ratio < 5.0
