import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import naturals, weights_1d
from pwnorm.errors import UndecidableWeightError, ValidationError
from pwnorm.weights import (
    Constant,
    CoordinateLift,
    Explicit,
    Geometric,
    Interleave,
    Min,
    One,
    PowerDecay,
    Product,
    is_one,
    symbolic_tail_queries,
)


def test_basic_values():
    assert One().value_at_nat(7) == 1.0
    assert Constant(0.5).value_at_nat(3) == 0.5
    assert PowerDecay(0.25).value_at((16,)) == 0.5
    assert PowerDecay(0.25).value_at_nat(1) == 1.0
    assert Geometric(0.5).value_at_nat(3) == 0.125


def test_explicit_head_then_tail_at_global_index():
    w = Explicit((0.9, 0.2), PowerDecay(1.0))
    assert w.value_at_nat(1) == 0.9
    assert w.value_at_nat(2) == 0.2
    # past the head the tail is evaluated at the original index, not shifted
    assert w.value_at_nat(3) == pytest.approx(1.0 / 3.0, abs=0)


def test_interleave_routes_even_and_odd_positions():
    w = Interleave(Constant(0.5), Geometric(0.5))
    assert w.value_at_nat(4) == 0.5  # even slot 2k -> even weight at k
    assert w.value_at_nat(3) == 0.25  # odd slot 2k-1 -> odd weight at k


def test_lift_and_product_and_min():
    lifted = CoordinateLift((2,), PowerDecay(0.25))
    assert lifted.value_at((3, 16)) == 0.5
    prod = Product((CoordinateLift((1,), Constant(0.5)), CoordinateLift((2,), Constant(0.5))))
    assert prod.value_at((1, 1)) == 0.25
    m = Min((Constant(0.5), PowerDecay(1.0)))
    assert m.value_at_nat(1) == 0.5
    assert m.value_at_nat(4) == 0.25


def test_validation():
    with pytest.raises(ValidationError, match=r"\(0, 1\]"):
        Constant(1.5)
    with pytest.raises(ValidationError):
        Constant(0.0)
    with pytest.raises(ValidationError):
        PowerDecay(0.0)
    with pytest.raises(ValidationError):
        Geometric(1.0)
    with pytest.raises(ValidationError):
        Explicit((0.5,), 0.25)  # tail must be a descriptor
    with pytest.raises(ValidationError):
        CoordinateLift((1, 1), One())
    with pytest.raises(ValidationError):
        Product(())


def test_decay_underflow_is_refused_with_descriptor_and_s():
    assert Geometric(0.5).value_at((1074,)) == 5e-324  # the least subnormal
    with pytest.raises(ValidationError, match=r"^weight Geometric\(ratio=0.5\) underflows to 0.0 at s = 1100$"):
        Geometric(0.5).value_at((1100,))
    with pytest.raises(ValidationError, match=r"^weight PowerDecay\(alpha=400.0\) underflows to 0.0 at s = 10$"):
        PowerDecay(400.0).value_at_nat(10)


def test_one_dimensional_weight_rejects_wide_index():
    with pytest.raises(ValidationError, match="lift"):
        PowerDecay(0.25).value_at((1, 2))


def test_lift_position_checked_against_arity():
    with pytest.raises(ValidationError, match="exceeds arity"):
        CoordinateLift((3,), One()).value_at((1, 2))


def test_is_one():
    assert is_one(One())
    assert is_one(Constant(1.0))
    assert is_one(CoordinateLift((1,), One()))
    assert not is_one(Constant(0.5))


def test_depends_on():
    assert One().depends_on(2) == frozenset()
    assert PowerDecay(0.25).depends_on(1) == frozenset({1})
    assert CoordinateLift((2,), PowerDecay(0.25)).depends_on(3) == frozenset({2})
    both = Product((CoordinateLift((1,), Geometric(0.5)), CoordinateLift((3,), Geometric(0.5))))
    assert both.depends_on(4) == frozenset({1, 3})


# --- tail queries (the three regimes for the 2p/(p-2) exponent) -----------


def test_tail_query_table():
    p = 4.0  # exponent 2p/(p-2) = 4
    cases = [
        (One(), (True, False, False)),
        (Constant(0.5), (True, False, False)),
        (PowerDecay(0.25), (False, False, True)),  # alpha * 4 == 1: divergent but vanishing
        (PowerDecay(0.5), (False, True, False)),
        (Geometric(0.5), (False, True, False)),
        (Explicit((0.9, 0.2), PowerDecay(0.25)), (False, False, True)),
        (Interleave(Constant(0.5), Geometric(0.5)), (False, False, False)),  # mixed
        (Product((Constant(0.8), PowerDecay(0.125), PowerDecay(0.125))), (False, False, True)),
    ]
    for w, (ip, psf, star) in cases:
        tq = symbolic_tail_queries(w, p)
        assert (tq.inf_positive, tq.power_sum_finite, tq.star) == (ip, psf, star), w


def test_tail_query_boundary_alpha():
    # alpha * e > 1 flips the divergent regime to summable
    assert symbolic_tail_queries(PowerDecay(0.26), 4.0).power_sum_finite
    assert symbolic_tail_queries(PowerDecay(0.25), 4.0).star


def test_tail_query_ignores_explicit_head():
    p = 4.0
    tail = Geometric(0.5)
    for head in [(1.0,), (0.1, 0.2, 0.3), (0.5,) * 6]:
        assert symbolic_tail_queries(Explicit(head, tail), p) == symbolic_tail_queries(tail, p)


def test_tail_query_needs_p_above_2():
    with pytest.raises(ValidationError, match="p > 2"):
        symbolic_tail_queries(One(), 2.0)


def test_tail_query_undecidable_product():
    w = Product((Explicit((0.5,), One()), Explicit((0.5,), One())))
    with pytest.raises(UndecidableWeightError):
        symbolic_tail_queries(w, 4.0)


# --- properties ------------------------------------------------------------


@given(weights_1d(), naturals)
def test_values_always_in_unit_interval(w, s):
    v = w.value_at_nat(s)
    assert 0.0 < v <= 1.0


@given(weights_1d(), naturals)
def test_value_at_matches_value_at_nat(w, s):
    assert w.value_at((s,)) == w.value_at_nat(s)


@given(st.floats(min_value=0.05, max_value=2.0), naturals)
def test_power_decay_formula(alpha, s):
    assert PowerDecay(alpha).value_at_nat(s) == min(1.0, float(s) ** -alpha)


@given(weights_1d(), st.integers(min_value=1, max_value=4), naturals)
def test_lift_reads_only_its_position(w, pos, s):
    lifted = CoordinateLift((pos,), w)
    idx = tuple(99 if q != pos else s for q in range(1, 5))
    assert lifted.value_at(idx) == w.value_at_nat(s)
