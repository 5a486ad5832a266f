"""(p,2) sums are normed child by child; these tests hold that path to the
restricted members it no longer lists."""

import math
import time
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pwnorm.errors import CapacityError, SupportError, ValidationError
from pwnorm.experiments import yn_default_params, yn_witness
from pwnorm.families import SumMembers, restrict_family, sum_embed
from pwnorm.norms import MAX_SUPPORT, family_norm, pair_norm
from pwnorm.spaces import (
    OrdinalDesc,
    envelope_family,
    make_admissible,
    make_l2,
    make_lp,
    make_rosenthal_xp,
    make_Yn,
    p2w_sum,
    tensor_family,
    xp_alpha,
)
from pwnorm.vectors import ConstantBlock, SparseVector
from pwnorm.weights import Constant, Geometric, One, PowerDecay


def restricted_norm(x, fam):
    """The first maximiser over the restricted members, as family_norm
    reported it for every sum before sums were normed child by child."""
    best, label = -1.0, ""
    for rp in restrict_family(fam, x.support()):
        v = pair_norm(x, rp, fam.p)
        if v > best:
            best, label = v, rp.label
    return best, label


def outcome(fn):
    try:
        return fn()
    except (SupportError, CapacityError) as exc:
        return type(exc).__name__, str(exc)


# --- families and vectors ---------------------------------------------------------

tie_weights = st.sampled_from([One(), Constant(0.5), Constant(0.25)])
weights = st.one_of(
    tie_weights,
    st.builds(PowerDecay, st.sampled_from([0.2, 0.5, 1.0])),
    st.builds(Geometric, st.sampled_from([0.6, 0.9])),
)


@st.composite
def leaves(draw, p):
    w = draw(weights)
    kind = draw(st.sampled_from(["lp", "xp", "l2", "yn", "envelope", "tensor"]))
    if kind == "lp":
        return make_admissible(make_lp(p))
    if kind == "xp":
        return make_rosenthal_xp(p, w)
    if kind == "l2":
        return make_admissible(make_l2(p, w))
    if kind == "yn":
        return make_Yn(p, 1, w)
    if kind == "envelope":  # restricted, not listed by descriptors
        return envelope_family(make_rosenthal_xp(p, w))
    return tensor_family(make_rosenthal_xp(p, w), make_Yn(p, 1, One()))  # likewise


@st.composite
def sums(draw, p, depth):
    """A sum of 2-4 children at the top; below it a child is a sum again
    (at most ``depth`` levels in all) or a leaf."""
    n = draw(st.integers(2, 4))
    kids = [
        draw(sums(p, depth - 1)) if depth > 1 and draw(st.booleans()) else draw(leaves(p))
        for _ in range(n)
    ]
    return p2w_sum(kids, draw(st.sampled_from([One(), Constant(0.5), Geometric(0.7)])))


@st.composite
def points_of(draw, fam):
    """A point of the family's base set: child numbers in range, padding 1."""
    if isinstance(fam.members, SumMembers):
        a = draw(st.integers(1, len(fam.members.children)))
        return sum_embed(a, draw(points_of(fam.members.children[a - 1])), fam.arity)
    return tuple(draw(st.lists(st.integers(1, 3), min_size=fam.arity, max_size=fam.arity)))


@st.composite
def vectors_on(draw, fam, max_points=7):
    pts = draw(st.lists(points_of(fam), min_size=1, max_size=max_points, unique=True))
    if draw(st.booleans()):  # equal coefficients force exact ties
        coeffs = [1.0] * len(pts)
    else:
        coeffs = draw(st.lists(st.sampled_from([1.0, -0.5, 0.3, 2.0, 0.71]),
                               min_size=len(pts), max_size=len(pts)))
    return SparseVector(fam.arity, tuple(zip(pts, coeffs)))


@st.composite
def sum_cases(draw):
    p = draw(st.sampled_from([2.5, 3.0, 4.0]))
    fam = draw(sums(p, draw(st.integers(1, 3))))
    return fam, draw(vectors_on(fam))


@st.composite
def xp_alpha_cases(draw):
    p = draw(st.sampled_from([3.0, 4.0]))
    fam = xp_alpha(p, OrdinalDesc(0, draw(st.integers(0, 5)), 1))
    return fam, draw(vectors_on(fam))


@settings(max_examples=150)
@given(sum_cases())
def test_sums_match_the_restricted_members(case):
    fam, x = case
    res = family_norm(x, fam)
    assert (res.value, res.argmax_member) == restricted_norm(x, fam)


@settings(max_examples=60)
@given(xp_alpha_cases())
def test_xp_alpha_matches_the_restricted_members(case):
    fam, x = case
    res = family_norm(x, fam)
    assert (res.value, res.argmax_member) == restricted_norm(x, fam)


@settings(max_examples=80)
@given(sum_cases(), st.data())
def test_blocks_and_bad_points_fail_as_restriction_does(case, data):
    fam, x = case
    # a block along any coordinate, and points that may leave the sum's
    # base set: a child number past the last child, padding other than 1
    a = fam.arity
    t = tuple(data.draw(st.lists(st.integers(1, 5), min_size=a, max_size=a)))
    rc = data.draw(st.integers(1, a))
    lo = data.draw(st.integers(1, 3))
    block = ConstantBlock(t, rc, lo, lo + data.draw(st.integers(0, 3)), 0.5)
    bad = data.draw(st.lists(st.lists(st.integers(1, 5), min_size=a, max_size=a),
                             max_size=2))
    try:
        y = SparseVector(a, x.entries + tuple((tuple(b), 0.25) for b in bad), (block,))
    except ValueError:
        assume(False)
    got = outcome(lambda: (lambda r: (r.value, r.argmax_member))(family_norm(y, fam)))
    assert got == outcome(lambda: restricted_norm(y, fam))


XP = make_rosenthal_xp(4.0, PowerDecay(0.5))
TWO = p2w_sum([XP, make_admissible(make_l2(4.0, One()))], Constant(0.5))  # arity 2
PADDED = p2w_sum([XP, make_Yn(4.0, 1, One())], Constant(0.5))  # arity 3


@pytest.mark.parametrize(
    "fam, entries, blocks, message",
    [
        (TWO, [((3, 1), 1.0)], [], "point (3, 1): child number 3 outside 1..2"),
        (PADDED, [((1, 1, 2), 1.0)], [], "point (1, 1, 2): padding beyond child arity 1 must be 1"),
        # two failing points: the first in sorted order is reported
        (PADDED, [((1, 2, 1), 1.0), ((1, 1, 5), 1.0), ((4, 1, 1), 1.0)], [],
         "point (1, 1, 5): padding beyond child arity 1 must be 1"),
        (PADDED, [((3, 1, 1), 1.0), ((2, 1, 1), 1.0)], [],
         "point (3, 1, 1): child number 3 outside 1..2"),
        # a block along coordinate 1 crossing past the last child
        (TWO, [((1, 1), 1.0)], [ConstantBlock((1, 2), 1, 1, 3, 1.0)],
         "point (3, 2): child number 3 outside 1..2"),
        # a block along the padding: its second point fails
        (PADDED, [((2, 1, 1), 1.0)], [ConstantBlock((1, 4, 1), 3, 1, 3, 1.0)],
         "point (1, 4, 2): padding beyond child arity 1 must be 1"),
    ],
    ids=["child", "padding", "two-padding-first", "two-children", "block-1", "block-padding"],
)
def test_split_errors_are_the_restrictions(fam, entries, blocks, message):
    x = SparseVector(fam.arity, tuple(entries), tuple(blocks))
    for norm in (family_norm, restricted_norm):
        with pytest.raises(SupportError) as err:
            norm(x, fam)
        assert str(err.value) == message


def test_weight_errors_in_a_child_are_the_childs():
    # a weight failing at several points of a descriptor child is reported
    # as the child's own norm reports it, at its first failing point in
    # row order (entries, then block points); restriction named the least
    child = make_rosenthal_xp(4.0, Geometric(0.5))
    fam = p2w_sum([child, make_admissible(make_lp(4.0))], Constant(0.5))
    x = SparseVector(2, (((1, 1100), 0.5), ((2, 3), 1.0)),
                     (ConstantBlock((1, 1080), 2, 1080, 1090, 0.3),))
    y = SparseVector(1, (((1100,), 0.5),), (ConstantBlock((1080,), 1, 1080, 1090, 0.3),))
    message = "weight Geometric(ratio=0.5) underflows to 0.0 at s = "
    for norm, v, f, at in ((family_norm, x, fam, 1100), (family_norm, y, child, 1100),
                           (restricted_norm, x, fam, 1080)):
        with pytest.raises(ValidationError) as err:
            norm(v, f)
        assert str(err.value) == message + str(at)


def test_coinciding_members_are_counted_each_time():
    # on one point per child the discrete and single-cell members of
    # xp(1) coincide: restriction kept 1 x 1 combinations, the count is 2 x 2
    fam = p2w_sum([make_rosenthal_xp(4.0, One())] * 2, One())
    x = SparseVector(2, (((1, 1), 1.0), ((2, 1), 1.0)))
    res = family_norm(x, fam)
    assert len(restrict_family(fam, x.support())) == 2
    assert (res.value, res.argmax_member, res.candidates_evaluated) == (
        *restricted_norm(x, fam), 2 * 2 + 1,
    )


def test_xp_alpha_16_on_16_points_is_quick():
    fam = xp_alpha(4.0, OrdinalDesc(0, 16, 1))
    pts = [tuple((i >> k & 1) + 1 for k in range(16)) + (i % 3 + 1,) for i in range(16)]
    x = SparseVector(fam.arity, tuple((b, 1.0 / (i + 1)) for i, b in enumerate(pts)))
    t0 = time.process_time()
    res = family_norm(x, fam)
    assert time.process_time() - t0 < 1.0
    assert res.candidates_evaluated > 2**16
    # the points differ in their first four coordinates only, so below
    # level 4 every sum touches one child, whose best member it keeps
    assert res.argmax_member.startswith("prod(1:prod(1:prod(1:prod(1:prod(1:")
    assert res.value >= math.fsum(c**4 for _, c in x.entries) ** 0.25


def test_yn_witnesses_inside_a_p2w_sum():
    kids = [make_admissible(make_Yn(4.0, j, PowerDecay(0.25))) for j in range(2, 7)]
    fam = p2w_sum(kids, Constant(0.5))
    blocks, alone = [], []
    for a, j in enumerate(range(2, 7), 1):
        w = yn_witness(yn_default_params(p=4.0, n=j, eps=3.0))
        alone.append(family_norm(w, kids[a - 1]))
        blocks += [replace(b, template=sum_embed(a, b.template, fam.arity),
                           running_coord=b.running_coord + 1) for b in w.blocks]
    res = family_norm(SparseVector(fam.arity, blocks=tuple(blocks)), fam)
    assert res.candidates_evaluated == 2 ** (2 + 3 + 4 + 5 + 6) + 1
    # the children's best members separate: each is the child's own maximiser
    assert res.argmax_member == "prod(" + ",".join(
        f"{a}:{r.argmax_member}" for a, r in enumerate(alone, 1)) + ")"
    want = math.fsum(r.value**4 for r in alone) ** 0.25
    assert res.value == pytest.approx(want, rel=1e-14)


def test_sums_past_the_support_cap_are_normed(monkeypatch):
    assert MAX_SUPPORT == 1 << 16
    fam = p2w_sum([make_rosenthal_xp(4.0, Constant(0.5))] * 2, Constant(0.5))
    x = SparseVector(2, blocks=(ConstantBlock((1, 1), 2, 1, 50, 1.0),
                                ConstantBlock((2, 1), 2, 1, 50, 0.5)))
    want = restricted_norm(x, fam)
    monkeypatch.setattr("pwnorm.norms.MAX_SUPPORT", 99)
    res = family_norm(x, fam)
    assert (res.value, res.argmax_member) == want
    # and at the real cap: 80,000 block points, each child's run kept whole
    monkeypatch.undo()
    big = SparseVector(2, blocks=(ConstantBlock((1, 1), 2, 1, 40_000, 1.0),
                                  ConstantBlock((2, 1), 2, 1, 40_000, 0.5)))
    assert big.support_size > MAX_SUPPORT
    res = family_norm(big, fam)
    # each child's single cell (40,000 · c² · 0.5², squared) beats its
    # 40,000 singletons, and together they beat the global cell
    assert res.argmax_member == "prod(1:(),2:())"
    want = ((40_000 * 0.5**2) ** 2 + (40_000 * 0.5**4) ** 2) ** 0.25
    assert res.value == pytest.approx(want, rel=1e-14)
