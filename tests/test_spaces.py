"""Space builders, the ordinal hierarchy, and the classification tables."""

import time

import pytest

from conftest import rel_err
from pwnorm.envelope import has_envelope_property
from pwnorm.errors import ValidationError
from pwnorm.families import indiscrete_weight, is_admissible, restrict_family
from pwnorm.norms import family_norm
from pwnorm.spaces import (
    INFINITELY_MANY,
    IsoType,
    OrdinalDesc,
    SizeProfile,
    classify_rosenthal,
    classify_single,
    envelope_family,
    lp_sum,
    make_admissible,
    make_l2,
    make_lp,
    make_rosenthal_xp,
    make_schechtman,
    make_sum_l2_lp,
    make_Yn,
    p2w_sum,
    tensor_family,
    xp_alpha,
)
from pwnorm.vectors import SparseVector, unit_vector
from pwnorm.weights import (
    Constant,
    Explicit,
    Geometric,
    Interleave,
    Min,
    One,
    PowerDecay,
    Product,
)


XP = make_rosenthal_xp(4.0, PowerDecay(0.25))


def test_builder_member_labels():
    assert [m.label for m in restrict_family(make_lp(4.0), ((1,),))] == ["discrete"]
    assert [m.label for m in restrict_family(make_l2(4.0, One()), ((1,),))] == ["()"]
    assert [m.label for m in restrict_family(XP, ((1,), (2,)))] == ["discrete", "()"]
    rows = restrict_family(make_sum_l2_lp(4.0, One()), ((1, 1), (1, 2), (2, 1)))
    assert [m.label for m in rows] == ["rows"]
    assert rows[0].cells == (((1, 1), (1, 2)), ((2, 1),))


def test_schechtman_is_a_tensor_of_two_rosenthal_spaces():
    sch = make_schechtman(4.0, PowerDecay(0.25), Constant(0.5))
    pts = tuple((i, j) for i in (1, 2) for j in (1, 2))
    assert [m.label for m in restrict_family(sch, pts)] == [
        "(discrete)x(discrete)",
        "(discrete)x(())",
        "(())x(discrete)",
        "(())x(())",
    ]


def test_p2w_sum_requires_admissible_children():
    with pytest.raises(ValidationError, match="child 2 is not admissible"):
        p2w_sum([XP, make_lp(4.0)], One())


def test_p2w_sum_arity():
    fam = p2w_sum([XP, XP], One())
    assert fam.arity == 2
    nested = p2w_sum([fam if is_admissible(fam) else make_admissible(fam), XP], One())
    assert nested.arity == 3


def test_lp_sum_uses_geometric_outer_weight():
    fam = lp_sum([XP, XP])
    W = fam.members.outer
    assert W == Geometric(2.0 ** (-(4.0 - 2.0) / (2.0 * 4.0)))
    assert W.value_at_nat(2) == W.value_at_nat(1) ** 2


def test_lp_sum_of_units_is_lp_like():
    fam = lp_sum([XP, XP])
    x = SparseVector(2, entries=(((1, 1), 1.0), ((2, 1), 1.0)))
    assert family_norm(x, fam).value == 2.0 ** 0.25


# --- ordinal hierarchy -------------------------------------------------------


def test_base_stage_is_single_coordinate():
    fam = xp_alpha(4.0, OrdinalDesc(0, 0))
    assert fam.arity == 1
    assert is_admissible(fam)
    assert family_norm(unit_vector((7,)), fam).value == 1.0


def test_successor_stage_golden():
    fam = xp_alpha(4.0, OrdinalDesc(0, 1))
    assert fam.arity == 2
    x = SparseVector(2, entries=(((1, 1), 1.0), ((2, 1), 1.0)))
    res = family_norm(x, fam)
    assert res.value == 2.0 ** 0.25
    assert res.argmax_member == "prod(1:discrete,2:discrete)"


def test_limit_stage_golden():
    # two-term truncation of the first limit ordinal: the global member
    # carries weight W(a) * (child indiscrete weight) = 1, and the unit
    # two-point vector evaluates to (1 + 2^{-1/2})^{1/2}
    fam = xp_alpha(4.0, OrdinalDesc(1, 0, 2))
    assert fam.arity == 3
    x = SparseVector(3, entries=(((1, 1, 1), 1.0), ((2, 1, 1), 1.0)))
    res = family_norm(x, fam)
    assert res.value == (1.0 + 2.0 ** -0.5) ** 0.5
    assert res.argmax_member == "()"


def test_stage_member_counts_monotone():
    def count(k):
        fam = xp_alpha(4.0, OrdinalDesc(0, k))
        pts = tuple(tuple([c] + [1] * (fam.arity - 1)) for c in (1, 2))
        return len(restrict_family(fam, pts))

    counts = [count(k) for k in range(4)]
    assert counts == [2, 2, 5, 10]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_all_stages_admissible():
    for desc in [OrdinalDesc(0, 0), OrdinalDesc(0, 2), OrdinalDesc(1, 0, 2), OrdinalDesc(1, 1, 3)]:
        assert is_admissible(xp_alpha(4.0, desc))


def _successors(stage, r):
    """r successor stages on top of ``stage``, as xp_alpha builds them."""
    w1 = xp_alpha(4.0, OrdinalDesc(0, 1)).members.outer
    for _ in range(r):
        stage = p2w_sum((stage, stage), w1)
    return stage


def test_deep_stages_compare_and_hash_in_linear_time():
    # each stage is both children of the next, so a walk over the fields
    # would visit the base 2^64 times
    t0 = time.process_time()
    a, b = (xp_alpha(4.0, OrdinalDesc(0, 64, 1)) for _ in range(2))
    assert a == b and hash(a) == hash(b)
    assert _successors(xp_alpha(4.0, OrdinalDesc(0, 0)), 64) == a
    other_base = _successors(make_admissible(make_l2(4.0, Constant(0.5))), 64)
    assert other_base != a and a != other_base
    assert time.process_time() - t0 < 1.0


# --- admissibility patching --------------------------------------------------


def test_make_admissible_adds_missing_members():
    adm = make_admissible(make_lp(4.0))
    labels = [m.label for m in restrict_family(adm, ((1,), (2,)))]
    assert labels == ["discrete", "()"]
    assert is_admissible(adm)
    assert indiscrete_weight(adm) == One()


def test_make_admissible_is_idempotent():
    adm = make_admissible(make_lp(4.0))
    assert make_admissible(adm) is adm
    assert make_admissible(XP) is XP


def test_make_admissible_uses_min_weight():
    fam = make_l2(4.0, Constant(0.5))  # indiscrete present, discrete missing
    adm = make_admissible(fam)
    assert is_admissible(adm)
    ms = restrict_family(adm, ((1,), (2,)))
    assert {m.label for m in ms} >= {"()", "discrete"}


def test_make_admissible_explicit_weight_override():
    adm = make_admissible(make_lp(4.0), ind_weight=Constant(0.25))
    glob = [m for m in restrict_family(adm, ((1,), (2,)))if m.label == "()"][0]
    assert glob.weight_at((1,)) == 0.25


# --- envelope property at the space level ------------------------------------


def test_sum_of_envelope_closed_children_on_lifted_supports():
    ef = envelope_family(XP)
    fam = p2w_sum([ef, ef], One())
    for child in (1, 2):
        for n in (2, 3, 4):
            pts = tuple((child, i) for i in range(1, n + 1))
            chk = has_envelope_property(fam, pts, max_members=300)
            assert chk.holds and chk.exhaustive


def test_sum_envelope_property_sharp_cross_child_counterexample():
    ef = envelope_family(XP)
    fam = p2w_sum([ef, ef], One())
    assert has_envelope_property(fam, ((1, 1), (2, 1)), max_members=300).holds
    chk = has_envelope_property(fam, ((1, 1), (1, 2), (2, 1)), max_members=300)
    assert not chk.holds
    Q, labels = chk.counterexample
    assert Q.cells == (((1, 1), (2, 1)), ((1, 2),))
    assert labels[0] == "()"


def test_sum_envelope_property_fails_for_nonunit_outer_weight():
    ef = envelope_family(XP)
    fam = p2w_sum([ef, ef], Constant(0.5))
    chk = has_envelope_property(fam, ((1, 1), (1, 2)), max_members=300)
    assert not chk.holds
    assert chk.counterexample[1][-1] == "()"


# --- classification ----------------------------------------------------------


def test_iso_type_values():
    assert {t.value for t in IsoType} == {
        "l_p",
        "l_2",
        "l_2+l_p",
        "(sum_l2)_p",
        "X_p",
        "unknown",
    }


def test_classify_rosenthal_table():
    cases = [
        (One(), IsoType.L2),
        (Constant(0.5), IsoType.L2),
        (Geometric(0.5), IsoType.LP),
        (PowerDecay(0.5), IsoType.LP),
        (PowerDecay(0.25), IsoType.XP),
        (Interleave(Constant(0.5), Geometric(0.5)), IsoType.L2_PLUS_LP),
    ]
    for w, tag in cases:
        assert classify_rosenthal(w, 4.0).tag is tag, w


def test_classify_rosenthal_depends_on_p():
    # alpha * 2p/(p-2) crosses 1 as p moves
    assert classify_rosenthal(PowerDecay(0.25), 4.0).tag is IsoType.XP
    assert classify_rosenthal(PowerDecay(0.25), 3.0).tag is IsoType.LP


def test_classify_rosenthal_ignores_explicit_head():
    w = Explicit((1.0, 0.007, 0.3), PowerDecay(0.25))
    assert classify_rosenthal(w, 4.0).tag is IsoType.XP


def test_classify_rosenthal_undecidable():
    w = Product((Explicit((0.5,), One()), Explicit((0.5,), One())))
    c = classify_rosenthal(w, 4.0)
    assert c.tag is IsoType.UNKNOWN
    assert c.detail.startswith("undecidable weight")


def test_classify_single_table():
    cases = [
        (SizeProfile(INFINITELY_MANY, "none", 0), IsoType.SUM_L2_LP),
        (SizeProfile(2, "unbounded", INFINITELY_MANY), IsoType.SUM_L2_LP),
        (SizeProfile(0, "all_singletons", INFINITELY_MANY), IsoType.LP),
        (SizeProfile(0, "bounded", INFINITELY_MANY, bound=9), IsoType.LP),
        (SizeProfile(3, "bounded", INFINITELY_MANY, bound=7), IsoType.L2_PLUS_LP),
        (SizeProfile(3, "bounded", 4, bound=2), IsoType.L2),
        (SizeProfile(1, "none", 0), IsoType.L2),
    ]
    for prof, tag in cases:
        assert classify_single(prof).tag is tag, prof


def test_size_profile_validation():
    with pytest.raises(ValidationError, match="cannot cover"):
        SizeProfile(0, "bounded", 5, bound=3)
    with pytest.raises(ValidationError, match="iff"):
        SizeProfile(1, "none", 2)
    with pytest.raises(ValidationError, match="bound"):
        SizeProfile(1, "bounded", INFINITELY_MANY)
    with pytest.raises(ValidationError):
        SizeProfile(0, "none", 0)  # no cells at all
    with pytest.raises(ValidationError):
        SizeProfile(1, "unbounded", 12)  # unbounded needs infinitely many


def test_classify_min_weight_is_out_of_scope():
    # Min exists for admissibility plumbing; tail analysis declines it
    w = Min((Constant(0.5), PowerDecay(0.25)))
    c = classify_rosenthal(w, 4.0)
    assert c.tag is IsoType.UNKNOWN
    assert "Min" in c.detail
