import itertools
import math
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import rel_err, small_families, sparse_vectors
from pwnorm.envelope import (
    Assignment,
    EnvelopeCheck,
    assignment_pair,
    distortion_certificate,
    envelope_lower_bound,
    envelope_norm_exact,
    has_envelope_property,
    refine,
    xp_envelope_subset,
)
from pwnorm.errors import CapacityError, NormOverflowError, ValidationError
from pwnorm.families import ExplicitMembers, Family, restrict_family
from pwnorm.norms import canonical_value, family_norm, pair_norm, term
from pwnorm.partitions import Discrete, Indiscrete, PairPW, RestrictedPartition
from pwnorm.spaces import (
    envelope_family,
    make_lp,
    make_rosenthal_xp,
    make_schechtman,
    p2w_sum,
)
from pwnorm.vectors import SparseVector
from pwnorm.weights import Constant, Explicit, Geometric, One, PowerDecay


XP_HALF = make_rosenthal_xp(4.0, Constant(0.5))

GAP_FAMILY = Family(
    4.0,
    1,
    ExplicitMembers(
        (
            PairPW(Discrete(), One(), "discrete"),
            PairPW(Indiscrete(), Explicit((1.0, 1.0, 0.01, 0.01), One()), "()"),
        )
    ),
)
GAP_X = SparseVector(1, entries=tuple(((i,), 1.0) for i in (1, 2, 3, 4)))


def ones(n):
    return SparseVector(1, entries=tuple(((i,), 1.0) for i in range(1, n + 1)))


# --- refinement property ----------------------------------------------------


def test_two_member_family_fails_refinement_closure():
    chk = has_envelope_property(XP_HALF, ((1,), (2,)))
    assert not chk.holds
    assert chk.exhaustive
    assert chk.checked == 2
    Q, labels = chk.counterexample
    assert Q.cells == (((1,),), ((2,),))
    assert labels == ("discrete", "()")


def test_envelope_family_is_refinement_closed():
    ef = envelope_family(make_rosenthal_xp(4.0, PowerDecay(0.25)))
    for n, expected_checked in [(2, 2), (3, 17), (4, 120)]:
        chk = has_envelope_property(ef, tuple((i,) for i in range(1, n + 1)), max_members=40)
        assert chk.holds and chk.exhaustive
        assert chk.checked == expected_checked


def test_property_check_caps_and_sampling():
    ef = envelope_family(make_rosenthal_xp(4.0, PowerDecay(0.25)))
    pts8 = tuple((i,) for i in range(1, 9))
    with pytest.raises(CapacityError, match="sample=N"):
        has_envelope_property(ef, pts8)
    chk = has_envelope_property(ef, pts8, sample=60, seed=3, max_members=300)
    assert chk.holds
    assert not chk.exhaustive  # probabilistic run never certifies
    assert chk.checked == 60
    # past the point cap only F is restricted, and its checks still run
    underflowing = envelope_family(make_rosenthal_xp(4.0, Geometric(0.5)))
    with pytest.raises(ValidationError, match="underflows to 0.0 at s = 1100"):
        has_envelope_property(underflowing, pts8[:7] + ((1100,),), sample=5)


def test_point_cap_is_checked_before_restricting(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the family was restricted before the point cap was checked")

    monkeypatch.setattr("pwnorm.envelope.restrict_family", refuse)
    ef = envelope_family(make_rosenthal_xp(4.0, PowerDecay(0.25)))
    with pytest.raises(CapacityError, match="8 points exceed the exhaustive cap 6"):
        has_envelope_property(ef, tuple((i,) for i in range(1, 9)))


def test_member_cap_names_the_member_count():
    ef = envelope_family(make_rosenthal_xp(4.0, PowerDecay(0.25)))
    with pytest.raises(CapacityError, match="10 members exceed the exhaustive cap 8"):
        has_envelope_property(ef, ((1,), (2,), (3,)))


def test_sampling_is_seeded():
    xp = make_rosenthal_xp(4.0, PowerDecay(0.25))
    pts8 = tuple((i,) for i in range(1, 9))
    # xp is not closed, so the draws decide which counterexample comes first
    a, b, c = (has_envelope_property(xp, pts8, sample=25, seed=s) for s in (7, 7, 8))
    assert a == b and not a.holds and not a.exhaustive
    assert c.counterexample != a.counterexample
    # the closure is idempotent, so envelope(xp) holds on every draw
    ef = envelope_family(xp)
    a, b = (has_envelope_property(ef, pts8, sample=25, seed=7, max_members=300) for _ in range(2))
    assert a == b == EnvelopeCheck(True, False, 25)


def _explicit_family(rng, p, base):
    pairs = tuple(
        PairPW(
            RestrictedPartition(base, _random_partition(rng, base)),
            {b: rng.choice((1.0, 0.5, 0.25)) for b in base},
            f"m{i}",
        )
        for i in range(rng.randint(1, 4))
    )
    return Family(p, 1, ExplicitMembers(pairs))


def _random_partition(rng, pts):
    cells = []
    for b in pts:
        j = rng.randrange(len(cells) + 1)
        if j == len(cells):
            cells.append([b])
        else:
            cells[j].append(b)
    return tuple(tuple(c) for c in cells)


def _closure_instance(rng):
    """A random family and support of one of several kinds; supports of
    closed families stay small, since the oracle tries every member
    choice on every partition."""
    kind = rng.choice(["plain", "envelope", "closed_minus_one", "schechtman", "lp", "sum"])
    p = rng.choice((3.0, 4.0, 5.0))
    w = rng.choice((PowerDecay(round(rng.uniform(0.1, 0.5), 3)), Constant(0.5), One()))
    base = tuple((i,) for i in range(1, 7))
    n = rng.randint(2, 5)
    if kind == "schechtman":
        grid = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        return make_schechtman(p, w, PowerDecay(0.3)), rng.sample(grid, n)
    if kind == "sum":
        child = make_rosenthal_xp(p, w)
        if rng.random() < 0.5:
            child, n = envelope_family(child), min(n, 3)
        fam = p2w_sum([child, child], rng.choice((One(), Constant(0.5))))
        return fam, rng.sample([(a, i) for a in (1, 2) for i in range(1, 5)], n)
    if kind == "lp":
        return make_lp(p), rng.sample(base, n)
    inner = _explicit_family(rng, p, base) if rng.random() < 0.5 else make_rosenthal_xp(p, w)
    if kind == "plain":
        return inner, rng.sample(base, n)
    supp = sorted(rng.sample(base, min(n, 3)))
    if kind == "envelope":
        return envelope_family(inner), supp
    rps = restrict_family(envelope_family(inner), supp)
    if len(rps) > 1:
        del rps[rng.randrange(1, len(rps))]
    pairs = tuple(
        PairPW(RestrictedPartition(rp.support, rp.cells), rp.weight_map(), rp.label)
        for rp in rps
    )
    return Family(p, 1, ExplicitMembers(pairs)), supp


def test_two_cell_check_matches_the_literal_closure_check():
    rng = random.Random(2024)
    closed = two_cell = 0
    for _ in range(150):
        fam, supp = _closure_instance(rng)
        chk = has_envelope_property(fam, supp, max_members=10**6)
        holds, counterexample = oracles.closure_check_literal(fam, supp)
        assert chk.holds == holds and chk.exhaustive
        closed += holds
        if counterexample is not None and len(counterexample[0]) == 2:
            two_cell += 1
            Q, labels = chk.counterexample
            assert (Q.cells, labels) == counterexample
    assert closed >= 40 and two_cell >= 40


def test_refine_and_assignment_pair_agree():
    pts = ((1,), (2,), (3,))
    members = restrict_family(XP_HALF, pts)
    choice = (0, 1, 1)
    glued = assignment_pair(pts, members, choice)
    Q = RestrictedPartition(pts, (((1,),), ((2,), (3,))))
    T = {((1,),): members[0], ((2,), (3,)): members[1]}
    refd = refine(Q, T)
    assert glued.canonical_key() == refd.canonical_key()


# --- exact envelope norm ----------------------------------------------------


def test_envelope_norm_golden_gap_example():
    res, asg = envelope_norm_exact(GAP_X, GAP_FAMILY)
    assert res.value == 1.5650845800732873
    assert rel_err(res.value, 6.0 ** 0.25) < 1e-15
    assert asg.label() == "assign[(),(),discrete,discrete]"
    assert res.candidates_evaluated == 16


def test_envelope_norm_ties_resolve_to_first_assignment():
    fam = make_rosenthal_xp(4.0, Explicit((0.5, 1.0), One()))
    x = SparseVector(1, entries=(((1,), 1.0), ((2,), 1.0)))
    res, asg = envelope_norm_exact(x, fam)
    # (discrete, discrete) and (discrete, ()) produce the identical float;
    # the earliest assignment in enumeration order is reported
    assert res.value == 2.0 ** 0.25
    assert asg.label() == "assign[discrete,discrete]"


def test_envelope_norm_two_way_tie_on_equal_coefficients():
    # all-discrete and all-() both give 16 = 2^4; every mixed assignment is
    # smaller, so the search must keep both ends and report the first
    res, asg = envelope_norm_exact(ones(16), XP_HALF)
    assert res.value == 2.0
    assert asg.member_labels == ("discrete",) * 16
    assert res.candidates_evaluated == 2**16


@settings(max_examples=80)
@given(small_families(admissible=True), sparse_vectors(max_points=5))
def test_envelope_witness_is_first_maximizer(fam, x):
    supp = x.support()
    members = restrict_family(fam, supp)
    assume(len(members) <= 4)
    res, asg = envelope_norm_exact(x, fam)
    best, first = -1.0, None
    for choice in itertools.product(range(len(members)), repeat=len(supp)):
        v = pair_norm(x, assignment_pair(supp, members, choice), fam.p)
        if v > best:
            best, first = v, choice
    assert res.value == best
    assert asg.member_labels == tuple(members[r].label for r in first)


def test_envelope_norm_caps(monkeypatch):
    # 17 points were past the old point cap; the all-pooled member wins
    res, asg = envelope_norm_exact(ones(17), XP_HALF)
    assert res.value == family_norm(ones(17), XP_HALF).value
    assert set(asg.member_labels) == {"()"}
    with pytest.raises(CapacityError, match="support size 257 exceeds cap 256"):
        envelope_norm_exact(ones(257), XP_HALF)
    # the two-way tie on 16 points visits 65,776 nodes below the root
    monkeypatch.setattr("pwnorm.envelope._MAX_NODES", 65_776)
    res, _ = envelope_norm_exact(ones(16), XP_HALF)
    assert res.candidates_evaluated == 2**16
    monkeypatch.setattr("pwnorm.envelope._MAX_NODES", 65_775)
    with pytest.raises(CapacityError, match="budget of 65775 nodes"):
        envelope_norm_exact(ones(16), XP_HALF)


def test_points_limit_keeps_the_recursion_bounded():
    lp = make_lp(4.0)
    with pytest.raises(CapacityError, match="support size 2000"):
        envelope_norm_exact(ones(2000), lp)  # not a RecursionError
    x = SparseVector(1, entries=tuple(((i,), 1.0 / i) for i in range(1, 257)))
    res, asg = envelope_norm_exact(x, lp)
    assert res.value == family_norm(x, lp).value
    assert res.candidates_evaluated == 1
    assert len(asg.points) == 256


def test_assignment_ids_past_64_bits():
    # the winner, all points on the second member, has id 2^70 - 1
    fam = Family(
        4.0,
        1,
        ExplicitMembers(
            (PairPW(Discrete(), One(), "discrete"), PairPW(Indiscrete(), One(), "()"))
        ),
    )
    res, asg = envelope_norm_exact(ones(70), fam)  # not an OverflowError
    assert res.value == family_norm(ones(70), fam).value
    assert asg.member_labels == ("()",) * 70
    assert res.candidates_evaluated == 2**70


def _xp_instance(rng, n, p=4.0):
    a = [rng.uniform(-4, 4) for _ in range(n)]
    w = tuple(rng.uniform(0.05, 1.0) for _ in a)
    fam = Family(
        p,
        1,
        ExplicitMembers(
            (
                PairPW(Discrete(), One(), "discrete"),
                PairPW(Indiscrete(), Explicit(w, One()), "()"),
            )
        ),
    )
    x = SparseVector(1, entries=tuple(((i,), v) for i, v in enumerate(a, start=1)))
    return a, w, fam, x


def test_xp_envelope_beyond_the_old_caps_matches_the_prefix_rule():
    # one seed for every size: the search's cost varies widely between
    # instances (0.08 s to 10 s at 40 points on a 2-core VM); this seed
    # keeps the whole test to a few seconds
    for n in (24, 28, 32, 36, 40):
        a, w, fam, x = _xp_instance(random.Random(1), n)
        res, _ = envelope_norm_exact(x, fam)
        assert res.value == xp_envelope_subset(a, list(w), 4.0).value
        assert res.candidates_evaluated == 2**n


def test_three_members_at_twenty_points():
    rng = random.Random(20)
    a = [rng.uniform(-4, 4) for _ in range(20)]
    pairs = [PairPW(Discrete(), One(), "discrete")] + [
        PairPW(Indiscrete(), Explicit(tuple(rng.uniform(0.05, 1.0) for _ in a), One()), f"ind{r}")
        for r in range(2)
    ]
    fam = Family(4.0, 1, ExplicitMembers(tuple(pairs)))
    x = SparseVector(1, entries=tuple(((i,), v) for i, v in enumerate(a, start=1)))
    res, asg = envelope_norm_exact(x, fam)
    assert res.candidates_evaluated == 3**20
    assert res.value == envelope_lower_bound(x, fam, asg)
    assert res.value >= family_norm(x, fam).value


def test_envelope_norm_overflow_is_reported():
    for c in (1e200, 1e77):  # c*c overflows / (4·c²)² overflows
        x = SparseVector(1, entries=tuple(((i,), c) for i in range(1, 5)))
        with pytest.raises(NormOverflowError):
            envelope_norm_exact(x, XP_HALF)


def test_envelope_lower_bound_matches_argmax():
    res, asg = envelope_norm_exact(GAP_X, GAP_FAMILY)
    lb = envelope_lower_bound(GAP_X, GAP_FAMILY, asg)
    assert lb == res.value
    other = Assignment(points=asg.points, member_labels=("discrete",) * 4)
    assert envelope_lower_bound(GAP_X, GAP_FAMILY, other) <= res.value


def test_envelope_lower_bound_validates_assignment():
    x = SparseVector(1, entries=(((1,), 1.0), ((2,), 1.0)))
    with pytest.raises(ValidationError, match="absent"):
        envelope_lower_bound(x, XP_HALF, Assignment(((1,), (2,)), ("nope", "discrete")))
    with pytest.raises(ValidationError, match="lacks members"):
        envelope_lower_bound(x, XP_HALF, Assignment(((1,),), ("discrete",)))


def test_envelope_lower_bound_is_linear_in_the_support():
    # 30,000 points listed in reverse, then the first point again with the
    # other member: its first occurrence decides, as tuple.index would
    n = 30_000
    x = SparseVector(1, entries=tuple(((i,), 1.0 / i) for i in range(1, n + 1)))
    supp = x.support()
    members = restrict_family(XP_HALF, supp)
    choice = [i % 3 % 2 for i in range(n)]
    points = tuple(reversed(supp)) + (supp[0],)
    labels = tuple(members[r].label for r in reversed(choice)) + (members[1 - choice[0]].label,)
    t0 = time.process_time()
    lb = envelope_lower_bound(x, XP_HALF, Assignment(points, labels))
    assert time.process_time() - t0 < 5.0  # about 0.4 s; a scan per point takes 15 s
    assert lb == pair_norm(x, assignment_pair(supp, members, choice), 4.0)


def test_distortion_certificate_golden():
    rep = distortion_certificate(GAP_X, GAP_FAMILY)
    assert rep.given_norm == 1.414284271283535
    assert rep.envelope_lb == 1.5650845800732873
    assert rep.ratio == 1.106626589754048
    assert rep.distance_lb == 1.0519632074146168
    assert rep.distance_lb == math.sqrt(rep.ratio)
    assert rep.witness.label() == "assign[(),(),discrete,discrete]"


def test_distortion_accepts_precomputed_assignment():
    asg = Assignment(GAP_X.support(), ("()", "()", "discrete", "discrete"))
    rep = distortion_certificate(GAP_X, GAP_FAMILY, assignment=asg)
    assert rep.envelope_lb == 1.5650845800732873


@pytest.mark.parametrize("n", [5, 6, 7])
def test_distortion_on_a_closure_searches_once(n, monkeypatch):
    # the given norm on envelope(F) is the search's value, the closure's
    # listing is never built, and it equals the listing's norm
    x = SparseVector(1, tuple(((i,), (-1.0) ** i / i) for i in range(1, n + 1)))
    fam = envelope_family(GAP_FAMILY)
    listed = family_norm(x, fam).value
    searches = []
    monkeypatch.setattr("pwnorm.envelope.family_norm", None)
    monkeypatch.setattr(
        "pwnorm.envelope.envelope_norm_exact",
        lambda *a: searches.append(a) or envelope_norm_exact(*a),
    )
    rep = distortion_certificate(x, fam)
    assert rep.given_norm == rep.envelope_lb == listed
    assert rep.ratio == 1.0 and len(searches) == 1


# --- subset machinery -------------------------------------------------------


def test_xp_subset_golden():
    # ratio order 3, 4, 1, 2: the best prefix is the gap optimum
    sub = xp_envelope_subset([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.01, 0.01], 4.0)
    assert sub.value == 1.5650845800732873
    assert sub.subset == (3, 4)  # small-weight points go to the l_p part
    assert sub.candidates_evaluated == 5  # n+1 prefixes


def test_threshold_is_a_lower_bound_and_finds_gap_optimum():
    # the ratio threshold (best prefix) never exceeds the envelope over all
    # subsets, and on the gap example it reaches it with the same subset
    a, w = [1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.01, 0.01]
    sub = xp_envelope_subset(a, w, 4.0)
    bf_value, _ = oracles.xp_subset_bruteforce(a, w, 4.0)
    res, _ = envelope_norm_exact(GAP_X, GAP_FAMILY)
    assert sub.value <= bf_value
    assert sub.value == bf_value == res.value
    assert sub.subset == (3, 4)  # the small-weight points go to the l_p part
    assert sub.candidates_evaluated == 5  # n+1 prefixes


def test_xp_subset_strips_zeros_and_remaps():
    sub = xp_envelope_subset([0.0, 2.0, 0.0, 1.0], [0.5, 0.5, 0.5, 0.5], 4.0)
    assert sub.subset == (2, 4)
    assert rel_err(sub.value, 17.0 ** 0.25) < 1e-15
    assert sub.candidates_evaluated == 3  # zeros are left out of the order


def test_xp_subset_all_zero():
    sub = xp_envelope_subset([0.0, 0.0], [0.5, 0.5], 4.0)
    assert sub.value == 0.0
    assert sub.subset == ()


def test_xp_subset_forty_coordinates_in_four_classes():
    # equal (a, w) points are interchangeable, so enumerating how many of
    # each class go to the l_p part covers every subset
    classes = [(3.0, 0.2, 7), (-1.5, 0.9, 12), (0.7, 0.05, 10), (2.2, 0.6, 11)]
    a = [c for c, _, k in classes for _ in range(k)]
    w = [v for _, v, k in classes for _ in range(k)]
    best = max(
        oracles.canonical_norm(
            [[(c, 1.0)] for (c, _, _), m in zip(classes, counts) for _ in range(m)]
            + [[(c, v) for (c, v, k), m in zip(classes, counts) for _ in range(k - m)]],
            4.0,
        )
        for counts in itertools.product(*(range(k + 1) for _, _, k in classes))
    )
    sub = xp_envelope_subset(a, w, 4.0)
    assert len(a) == 40
    assert sub.value == best
    assert sub.candidates_evaluated == 41


def _prefix_rule_per_prefix(a, w, p):
    """The prefix rule evaluated afresh at every prefix through
    canonical_value: the first best prefix, as (value, subset)."""
    nz = [i for i in range(len(a)) if a[i] != 0.0]
    order = sorted(
        nz,
        key=lambda i: abs(a[i]) ** (p - 2) / (w[i] * w[i]) if w[i] * w[i] > 0.0 else math.inf,
        reverse=True,
    )
    best, best_len = -1.0, 0
    for j in range(len(order) + 1):
        cells = [[term(a[i], 1.0)] for i in order[:j]]
        if order[j:]:
            cells.append([term(a[i], w[i]) for i in order[j:]])
        v = canonical_value(cells, p)
        if v > best:
            best, best_len = v, j
    return best, tuple(sorted(i + 1 for i in order[:best_len]))


def test_xp_subset_matches_per_prefix_evaluation():
    rng = random.Random(11)
    for case in range(120):
        n = rng.randint(1, 60)
        p = rng.uniform(2.1, 7.3)
        # a few distinct (a, w) values, so ratios and cell terms tie
        pool = [(rng.choice([0.0, rng.uniform(-5, 5), 10 ** rng.uniform(-3, 3)]),
                 rng.choice([1.0, rng.uniform(0.01, 1.0)])) for _ in range(rng.randint(1, 6))]
        a, w = map(list, zip(*(rng.choice(pool) for _ in range(n))))
        sub = xp_envelope_subset(a, w, p)
        assert (sub.value, sub.subset) == _prefix_rule_per_prefix(a, w, p), case
        assert sub.candidates_evaluated == sum(v != 0.0 for v in a) + 1


def test_xp_subset_is_linear():
    rng = random.Random(5)
    a = [rng.uniform(-3, 3) for _ in range(20_000)]
    w = [rng.uniform(0.01, 1.0) for _ in a]
    start = time.process_time()
    sub = xp_envelope_subset(a, w, 4.0)
    # evaluating all 20,001 prefixes afresh would take minutes
    assert time.process_time() - start < 5.0
    chosen = set(sub.subset)
    cells = [[term(a[i - 1], 1.0)] for i in sorted(chosen)]
    cells.append([term(a[i], w[i]) for i in range(len(a)) if i + 1 not in chosen])
    assert sub.value == canonical_value(cells, 4.0)
    assert sub.candidates_evaluated == 20_001


def test_xp_subset_rejects_bad_arguments():
    with pytest.raises(ValidationError, match="not finite"):
        xp_envelope_subset([1.0, math.nan], [0.5, 0.5], 4.0)
    with pytest.raises(ValidationError, match="outside"):
        xp_envelope_subset([1.0], [0.0], 4.0)
    with pytest.raises(NormOverflowError):
        xp_envelope_subset([1e200, 1.0], [0.5, 0.5], 4.0)


@given(
    st.lists(st.floats(min_value=-4, max_value=4).filter(lambda v: abs(v) > 1e-3), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([2.5, 3.0, 4.0, 6.0]),
)
def test_xp_subset_against_bruteforce(a, seed, p):
    import random

    rng = random.Random(seed)
    w = [rng.uniform(0.05, 1.0) for _ in a]
    sub = xp_envelope_subset(a, w, p)
    bf_value, bf_pool = oracles.xp_subset_bruteforce(a, w, p)
    assert sub.value == bf_value


@given(
    st.lists(st.floats(min_value=-4, max_value=4).filter(lambda v: abs(v) > 1e-3), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=10_000),
)
def test_xp_subset_matches_envelope(a, seed):
    import random

    rng = random.Random(seed)
    w = tuple(rng.uniform(0.05, 1.0) for _ in a)
    fam = Family(
        4.0,
        1,
        ExplicitMembers(
            (
                PairPW(Discrete(), One(), "discrete"),
                PairPW(Indiscrete(), Explicit(w, One()), "()"),
            )
        ),
    )
    x = SparseVector(1, entries=tuple(((i,), v) for i, v in enumerate(a, start=1)))
    res, _ = envelope_norm_exact(x, fam)
    sub = xp_envelope_subset(a, list(w), 4.0)
    assert res.value == sub.value


# --- oracle equivalence -----------------------------------------------------


@settings(max_examples=40)
@given(small_families(admissible=True), sparse_vectors(max_points=4))
def test_envelope_matches_dumb_qt_oracle(fam, x):
    res, _ = envelope_norm_exact(x, fam)
    assert res.value == oracles.qt_norm_dumb(x, fam, fam.p)


@settings(max_examples=60)
@given(small_families(admissible=True), sparse_vectors(max_points=7))
def test_envelope_matches_qt_oracle(fam, x):
    res, _ = envelope_norm_exact(x, fam)
    assert res.value == oracles.qt_norm_exact(x, fam, fam.p)


@given(small_families(admissible=True), sparse_vectors(max_points=5))
def test_envelope_dominates_family_norm(fam, x):
    res, _ = envelope_norm_exact(x, fam)
    assert res.value >= family_norm(x, fam).value * (1 - 1e-15)
