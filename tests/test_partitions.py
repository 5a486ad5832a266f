import pytest
from hypothesis import given
from hypothesis import strategies as st

from pwnorm.errors import ArityError, SupportError, ValidationError
from pwnorm.partitions import (
    CoordinateGrouping,
    Discrete,
    Indiscrete,
    PairGrouping,
    PairPW,
    RestrictedPartition,
    canonical_cells,
    restrict_pair,
)
from pwnorm.weights import Constant, CoordinateLift, One, PowerDecay


PTS = ((1, 1), (1, 2), (2, 1), (2, 2))


def test_cell_keys():
    assert Discrete().cell_key((3, 4), 2) == (3, 4)
    assert Indiscrete().cell_key((3, 4), 2) == ()
    assert CoordinateGrouping(frozenset({1})).cell_key((3, 4), 2) == (3,)
    # pair grouping fixes both coordinates of each listed pair
    pg = PairGrouping(frozenset({2}))
    assert pg.cell_key((9, 9, 3, 4), 4) == (3, 4)


def test_fixed_coords():
    assert Discrete().fixed_coords(3) == frozenset({1, 2, 3})
    assert Indiscrete().fixed_coords(3) == frozenset()
    assert CoordinateGrouping(frozenset({2})).fixed_coords(3) == frozenset({2})
    assert PairGrouping(frozenset({1})).fixed_coords(4) == frozenset({1, 2})


def test_descriptor_validation():
    with pytest.raises(ValidationError):
        CoordinateGrouping(frozenset({0}))
    with pytest.raises(ArityError):
        CoordinateGrouping(frozenset({3})).cell_key((1, 2), 2)
    with pytest.raises(ArityError, match="even"):
        PairGrouping(frozenset({1})).cell_key((1, 2, 3), 3)
    with pytest.raises(ArityError):
        PairGrouping(frozenset({3})).cell_key((1, 2, 3, 4), 4)


def test_canonical_cells_sorts_points_and_cells():
    cells = canonical_cells([[(2, 2), (2, 1)], [(1, 2), (1, 1)]])
    assert cells == (((1, 1), (1, 2)), ((2, 1), (2, 2)))
    with pytest.raises(ValidationError, match="nonempty"):
        canonical_cells([[], [(1, 1)]])


def test_restriction_groups_by_cell_key():
    rows = restrict_pair(PairPW(CoordinateGrouping(frozenset({1})), One(), "rows"), PTS, 2)
    assert rows.cells == (((1, 1), (1, 2)), ((2, 1), (2, 2)))
    ind = restrict_pair(PairPW(Indiscrete(), One(), "()"), PTS, 2)
    assert ind.cells == (PTS,)
    disc = restrict_pair(PairPW(Discrete(), One(), "d"), PTS, 2)
    assert disc.cells == tuple((b,) for b in PTS)


def test_restricted_partition_validation():
    RestrictedPartition(PTS, (PTS[:2], PTS[2:]))
    with pytest.raises(ValidationError, match="two cells"):
        RestrictedPartition(PTS, (PTS[:3], PTS[2:]))
    with pytest.raises(ValidationError, match="partition the support"):
        RestrictedPartition(PTS, (PTS[:2],))
    with pytest.raises(ValidationError, match="nonempty"):
        RestrictedPartition(PTS, (PTS, ()))


def test_restrict_pair_from_descriptor_and_weight():
    pair = PairPW(CoordinateGrouping(frozenset({1})), CoordinateLift((1,), PowerDecay(1.0)), "rows")
    rp = restrict_pair(pair, PTS, 2)
    assert rp.cells == (((1, 1), (1, 2)), ((2, 1), (2, 2)))
    assert rp.weight_at((2, 2)) == 0.5
    assert rp.label == "rows"


def test_restrict_pair_from_mapping_weight():
    pair = PairPW(Indiscrete(), {b: 0.5 for b in PTS}, "halves")
    rp = restrict_pair(pair, PTS, 2)
    assert rp.weight_map() == {b: 0.5 for b in PTS}
    with pytest.raises(SupportError, match="no weight value"):
        restrict_pair(PairPW(Indiscrete(), {PTS[0]: 0.5}, "partial"), PTS, 2)
    with pytest.raises(ValidationError, match=r"restricted weight 1.5 outside \(0, 1\]$"):
        restrict_pair(PairPW(Indiscrete(), {b: 1.5 for b in PTS}, "heavy"), PTS, 2)


def test_restricted_pair_weight_validation():
    from pwnorm.partitions import RestrictedPair

    with pytest.raises(ValidationError, match="outside"):
        RestrictedPair(PTS[:1], (PTS[:1],), (1.5,), "bad")
    with pytest.raises(ValidationError, match="one weight value"):
        RestrictedPair(PTS[:2], (PTS[:2],), (0.5,), "short")


def test_restrict_to_subsupport():
    pair = PairPW(CoordinateGrouping(frozenset({1})), One(), "rows")
    rp = restrict_pair(pair, PTS, 2)
    sub = rp.restrict_to(PTS[:3], "rows|sub")
    assert sub.cells == (((1, 1), (1, 2)), ((2, 1),))
    assert sub.label == "rows|sub"
    with pytest.raises(SupportError):
        rp.restrict_to(((9, 9),), "outside")


def test_restrict_pair_empty_support_rejected():
    with pytest.raises(ValidationError, match="nonempty"):
        restrict_pair(PairPW(Discrete(), One(), "d"), (), 1)


def test_canonical_key_identifies_equal_pairs():
    a = restrict_pair(PairPW(Discrete(), One(), "first"), PTS, 2)
    b = restrict_pair(PairPW(PairGrouping(frozenset({1})), One(), "second"), PTS, 2)
    # on these points fixing pair 1 separates every point: same restriction
    assert a.canonical_key() == b.canonical_key()
    c = restrict_pair(PairPW(Discrete(), Constant(0.5), "third"), PTS, 2)
    assert a.canonical_key() != c.canonical_key()


@given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=8, unique=True))
def test_cells_partition_support(pts):
    for desc in [Discrete(), Indiscrete(), CoordinateGrouping(frozenset({2}))]:
        rp = restrict_pair(PairPW(desc, One(), "x"), tuple(pts), 2)
        flat = [b for c in rp.cells for b in c]
        assert sorted(flat) == sorted(pts)
        assert len(flat) == len(set(flat))
