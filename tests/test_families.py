"""Family member semantics: lattice, sum, tensor, envelope, restriction."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import small_families
from pwnorm.errors import ArityError, CapacityError, ValidationError
from pwnorm.families import (
    MAX_PAIRS,
    ExplicitMembers,
    ExtendedMembers,
    Family,
    indiscrete_weight,
    is_admissible,
    lattice_member_weight,
    restrict_family,
    set_partitions,
    subset_label,
    subset_order,
    sum_embed,
    sum_split_support,
)
from pwnorm.partitions import Discrete, Indiscrete, PairPW
from pwnorm.spaces import (
    envelope_family,
    make_admissible,
    make_lp,
    make_rosenthal_xp,
    make_Yn,
    p2w_sum,
    tensor_family,
)
from pwnorm.weights import Constant, One, PowerDecay


XP = make_rosenthal_xp(4.0, PowerDecay(0.25))


def test_family_validates_p_and_arity():
    with pytest.raises(ValidationError, match="p"):
        Family(2.0, 1, ExplicitMembers((PairPW(Discrete(), One(), "d"),)))
    for p in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="finite"):
            Family(p, 1, ExplicitMembers((PairPW(Discrete(), One(), "d"),)))
    with pytest.raises(ValidationError, match="finite"):
        make_lp(math.inf)
    # a one-dimensional weight in a wider family surfaces at restriction time
    fam = Family(4.0, 2, ExplicitMembers((PairPW(Discrete(), PowerDecay(0.5), "d"),)))
    with pytest.raises((ValidationError, ArityError)):
        restrict_family(fam, ((1, 2),))


def test_subset_order_is_by_size_then_lex():
    assert subset_order(3) == [
        (),
        (1,),
        (2,),
        (3,),
        (1, 2),
        (1, 3),
        (2, 3),
        (1, 2, 3),
    ]
    assert [subset_label(I) for I in subset_order(2)] == ["I={}", "I={1}", "I={2}", "I={1,2}"]


def test_lattice_member_weight_touches_only_outside_pairs():
    w = lattice_member_weight(3, (1, 3), PowerDecay(0.25))
    # only pair 2's first coordinate (position 3) matters
    assert w.value_at((2, 5, 16, 1, 3, 2)) == 0.5
    assert w.value_at((9, 9, 16, 7, 9, 9)) == 0.5
    full = lattice_member_weight(3, (1, 2, 3), PowerDecay(0.25))
    assert full.value_at((2, 5, 16, 1, 3, 2)) == 1.0


def test_lattice_family_member_count():
    fam = make_Yn(4.0, 3, PowerDecay(0.25))
    assert fam.arity == 6
    # two points separated by every pair but sharing most first coordinates:
    # all nonempty subsets shatter them, so members collapse by weight only
    labels = {m.label for m in restrict_family(fam, ((1, 1, 2, 1, 1, 2), (1, 2, 2, 2, 1, 1)))}
    assert labels == {"I={}", "I={1}", "I={2}"}
    # distinct first coordinates at every pair keep all 8 members apart
    ms = restrict_family(fam, ((1, 1, 2, 1, 4, 1), (2, 1, 3, 1, 5, 1)))
    assert len(ms) == 8


def test_sum_embed_pads_with_ones():
    assert sum_embed(1, (3,), 3) == (1, 3, 1)
    assert sum_embed(2, (5,), 3) == (2, 5, 1)


def test_sum_split_support_and_bad_points():
    fam = p2w_sum([make_admissible(make_lp(4.0)), XP], Constant(0.7))
    split = sum_split_support(fam.members, fam.arity, ((1, 1), (1, 2), (2, 1)))
    # points come back in each child's own coordinates, padding stripped
    assert split == {1: [(1,), (2,)], 2: [(1,)]}
    with pytest.raises(ValidationError):
        sum_split_support(fam.members, fam.arity, ((3, 1),))


def test_sum_restriction_members_and_labels():
    fam = p2w_sum([make_admissible(make_lp(4.0)), XP], Constant(0.7))
    ms = restrict_family(fam, ((1, 1), (1, 2), (2, 1)))
    labels = [m.label for m in ms]
    assert labels == ["prod(1:discrete,2:discrete)", "prod(1:(),2:discrete)", "()"]
    # the global member's weight at an embedded point is W(child) * child's
    # indiscrete weight there
    glob = ms[-1]
    assert glob.weight_at((2, 1)) == pytest.approx(0.7 * 1.0)
    assert glob.weight_at((1, 2)) == pytest.approx(0.7 * 1.0)


def test_sum_global_weight_uses_child_indiscrete():
    fam = p2w_sum([XP, XP], One())
    ms = restrict_family(fam, ((1, 16), (2, 16)))
    glob = [m for m in ms if m.label == "()"][0]
    assert glob.weight_at((1, 16)) == 0.5
    assert glob.weight_at((2, 16)) == 0.5


def test_tensor_members_are_products():
    tf = tensor_family(XP, make_rosenthal_xp(4.0, Constant(0.5)))
    pts = tuple((i, j) for i in (1, 2) for j in (1, 2))
    ms = restrict_family(tf, pts)
    assert [m.label for m in ms] == [
        "(discrete)x(discrete)",
        "(discrete)x(())",
        "(())x(discrete)",
        "(())x(())",
    ]
    mixed = ms[1]  # rows discrete, columns pooled
    assert mixed.cells == (((1, 1), (1, 2)), ((2, 1), (2, 2)))
    assert mixed.weight_at((2, 1)) == 0.5


def test_envelope_members_are_refinement_closure():
    pts = tuple((i,) for i in (1, 2, 3, 4))
    ms = restrict_family(envelope_family(XP), pts)
    assert len(ms) == 37
    assert ms[0].label.startswith("ref(")
    base = {m.canonical_key() for m in restrict_family(XP, pts)}
    keys = {m.canonical_key() for m in ms}
    assert base <= keys


def test_restriction_dedups_by_canonical_key():
    fam = Family(
        4.0,
        1,
        ExplicitMembers(
            (
                PairPW(Discrete(), One(), "a"),
                PairPW(Discrete(), One(), "b"),
                PairPW(Indiscrete(), Constant(0.5), "c"),
            )
        ),
    )
    ms = restrict_family(fam, ((1,), (2,)))
    assert [m.label for m in ms] == ["a", "c"]  # first label wins


def test_restrict_family_capacity(monkeypatch):
    assert MAX_PAIRS == 10**6
    fam = make_Yn(4.0, 3, PowerDecay(0.25))
    pts = ((1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1, 1))
    monkeypatch.setattr("pwnorm.families.MAX_PAIRS", 2)
    with pytest.raises(CapacityError, match="^8 restricted pairs exceed the cap 2$"):
        restrict_family(fam, pts)


@pytest.mark.parametrize(
    "fam, pts, message",
    [
        # each child keeps both xp members: 2 x 2 combinations
        (p2w_sum([XP, XP], One()), ((1, 1), (1, 2), (2, 1), (2, 2)),
         "sum restriction would exceed 3 member combinations"),
        # each factor keeps both xp members: 2 x 2 products
        (tensor_family(XP, XP), ((1, 1), (2, 2)),
         "tensor restriction would exceed 3 member combinations"),
        # one cell alone offers 2 choices, the first two-cell split 4 more
        (envelope_family(XP), ((1,), (2,), (3,)),
         "envelope restriction would exceed 3 refinements"),
    ],
    ids=["sum", "tensor", "envelope"],
)
def test_each_listing_cap_raises_at_the_constant(fam, pts, message, monkeypatch):
    restrict_family(fam, pts)  # within the default cap
    monkeypatch.setattr("pwnorm.families.MAX_PAIRS", 3)
    with pytest.raises(CapacityError) as err:
        restrict_family(fam, pts)
    assert str(err.value) == message


def test_is_admissible():
    assert is_admissible(XP)
    assert not is_admissible(make_lp(4.0))
    assert is_admissible(make_admissible(make_lp(4.0)))
    assert is_admissible(make_Yn(4.0, 2, PowerDecay(0.25)))
    # discrete with non-unit weight does not qualify
    fam = Family(
        4.0,
        1,
        ExplicitMembers(
            (PairPW(Discrete(), Constant(0.5), "d"), PairPW(Indiscrete(), One(), "()"))
        ),
    )
    assert not is_admissible(fam)


def test_indiscrete_weight_lookup():
    assert indiscrete_weight(XP) == PowerDecay(0.25)
    yw = indiscrete_weight(make_Yn(4.0, 2, PowerDecay(0.25)))
    assert yw.value_at((16, 1, 16, 2)) == 0.25
    with pytest.raises(ValidationError):
        indiscrete_weight(make_lp(4.0))
    tw = indiscrete_weight(tensor_family(XP, XP))
    assert tw.value_at((16, 16)) == 0.25
    # a sum's weight is equal, and hashes equal, by its members alone
    sw = indiscrete_weight(p2w_sum([XP, XP], Constant(0.5)))
    assert sw.value_at((2, 16)) == 0.5 * 0.5
    assert sw == indiscrete_weight(p2w_sum([XP, XP], Constant(0.5)))
    assert hash(sw) == hash(indiscrete_weight(p2w_sum([XP, XP], Constant(0.5))))
    assert sw != indiscrete_weight(p2w_sum([XP, XP], Constant(0.25)))


def test_extended_members_append():
    base = make_lp(4.0)
    ext = Family(4.0, 1, ExtendedMembers(base.members, (PairPW(Indiscrete(), One(), "()"),)))
    assert is_admissible(ext)
    assert [m.label for m in restrict_family(ext, ((1,), (2,)))] == ["discrete", "()"]


def test_set_partitions_counts():
    bell = [1, 1, 2, 5, 15, 52, 203, 877]
    for n in range(1, 8):
        assert sum(1 for _ in set_partitions(list(range(n)))) == bell[n]


def test_set_partitions_cover_exactly():
    items = ["a", "b", "c", "d"]
    seen = set()
    for part in set_partitions(items):
        flat = sorted(x for cell in part for x in cell)
        assert flat == sorted(items)
        key = frozenset(frozenset(c) for c in part)
        assert key not in seen
        seen.add(key)


@given(small_families(), st.integers(min_value=1, max_value=6))
def test_restposition_weights_in_unit_interval(fam, npts):
    pts = tuple((i,) for i in range(1, npts + 1))
    for m in restrict_family(fam, pts):
        for b in pts:
            assert 0.0 < m.weight_at(b) <= 1.0
