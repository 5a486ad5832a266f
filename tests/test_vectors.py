import math
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pwnorm.errors import CapacityError, ValidationError
from pwnorm.vectors import (
    ConstantBlock,
    SparseVector,
    blocks_overlap,
    first_overlap,
    first_points_inside,
    unit_vector,
)


def blk(template=(5, 1), rc=2, lo=1, hi=4, coeff=1.0):
    return ConstantBlock(template=template, running_coord=rc, lo=lo, hi=hi, coeff=coeff)


def test_block_points_and_lookup():
    b = blk()
    assert b.size == 4
    assert b.point_at(2) == (5, 2)
    assert list(b.points()) == [(5, 1), (5, 2), (5, 3), (5, 4)]
    assert b.contains((5, 3))
    assert not b.contains((5, 5))
    assert not b.contains((4, 2))


def test_block_validation():
    with pytest.raises(ValidationError):
        blk(lo=3, hi=2)
    with pytest.raises(ValidationError):
        blk(lo=0)
    with pytest.raises(ValidationError, match="nonzero"):
        blk(coeff=0.0)
    with pytest.raises(ValidationError):
        ConstantBlock(template=(5, 1), running_coord=3, lo=1, hi=2, coeff=1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match=r"block at \(5, 1\).*not finite"):
            blk(coeff=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_vector_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValidationError, match=r"entry \(2, 3\).*not finite"):
        SparseVector(2, entries=(((1, 1), 1.0), ((2, 3), bad)))


def test_vector_drops_zeros_and_sorts():
    x = SparseVector(1, entries=(((3,), 0.0), ((2,), 1.0), ((1,), -1.0)))
    assert x.entries == (((1,), -1.0), ((2,), 1.0))
    assert x.support_size == 2
    assert x.value_at((3,)) == 0.0
    assert x.value_at((2,)) == 1.0


def test_vector_validation():
    with pytest.raises(ValidationError, match="duplicate"):
        SparseVector(1, entries=(((1,), 1.0), ((1,), 2.0)))
    with pytest.raises(ValidationError):
        SparseVector(0)
    with pytest.raises(ValidationError, match="inside a block"):
        SparseVector(2, entries=(((5, 2), 1.0),), blocks=(blk(),))
    with pytest.raises(ValidationError):
        SparseVector(2, blocks=(blk(), blk(lo=4, hi=6)))  # overlap at (5,4)
    SparseVector(2, blocks=(blk(), blk(lo=5, hi=6)))  # disjoint ranges are fine
    SparseVector(2, blocks=(blk(), blk(template=(6, 1))))  # different templates too


def test_entry_inside_the_last_of_many_blocks():
    # 30 blocks along coordinate 2, then 30 along coordinate 1, with
    # entries right next to both ends of every block
    blocks = tuple(blk(template=(k, 1), lo=10 * k, hi=10 * k + 4) for k in range(1, 31))
    blocks += tuple(blk(template=(1, 100 + k), rc=1, lo=50, hi=60) for k in range(1, 31))
    near = [((k, 10 * k - 1), 1.0) for k in range(1, 31)]
    near += [((k, 10 * k + 5), 1.0) for k in range(1, 31)]
    near += [((b, 100 + k), 1.0) for k in range(1, 31) for b in (49, 61)]
    x = SparseVector(2, entries=tuple(near), blocks=blocks)
    assert x.support_size == 120 + 30 * 5 + 30 * 11
    inside = (((55, 130), 1.0), ((52, 130), 1.0))  # both in the last block
    with pytest.raises(ValidationError, match=r"^entry \(52, 130\) lies inside a block$"):
        SparseVector(2, entries=tuple(near) + inside, blocks=blocks)


def _random_blocks(rng, arity, count):
    return [
        ConstantBlock(
            tuple(rng.randint(1, 4) for _ in range(arity)),
            rng.randint(1, arity),
            lo,
            lo + rng.randint(0, 6),
            1.0,
        )
        for lo in (rng.randint(1, 8) for _ in range(count))
    ]


def test_first_points_inside_matches_a_scan():
    rng = random.Random(4)
    for _ in range(200):
        arity = rng.randint(1, 3)
        blocks = _random_blocks(rng, arity, rng.randint(1, 25))
        points = sorted(tuple(rng.randint(1, 12) for _ in range(arity)) for _ in range(rng.randint(0, 40)))
        expected = [
            min((b for b in points if blk.contains(b)), key=lambda b: b[blk.running_coord - 1], default=None)
            for blk in blocks
        ]
        assert first_points_inside(blocks, points) == expected


def test_vector_reports_the_first_offender_of_a_scan():
    # blocks in order; for each, an overlap with a later block comes
    # before an entry inside it, and the entry found is the lowest one
    rng = random.Random(9)
    raised = 0
    for _ in range(300):
        blocks = _random_blocks(rng, 2, rng.randint(1, 8))
        pts = {(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(rng.randint(0, 30))}
        entries = [(b, 1.0) for b in sorted(pts)]
        expected = None
        for i, a in enumerate(blocks):
            later = [b for b in blocks[i + 1 :] if blocks_overlap(a, b)]
            inside = [b for b, _ in entries if a.contains(b)]
            if later:
                b = later[0]
                expected = (
                    f"blocks overlap: {a.key_profile()} [{a.lo},{a.hi}] and "
                    f"{b.key_profile()} [{b.lo},{b.hi}]"
                )
            elif inside:
                expected = f"entry {min(inside, key=lambda b: b[a.running_coord - 1])} lies inside a block"
            if expected:
                break
        if expected is None:
            SparseVector(2, tuple(entries), tuple(blocks))
        else:
            raised += 1
            with pytest.raises(ValidationError) as err:
                SparseVector(2, tuple(entries), tuple(blocks))
            assert str(err.value) == expected
    assert 50 < raised < 250


def test_construction_matches_a_pairwise_scan_of_many_blocks():
    # up to 150 blocks on arity 1-4, crossing along every pair of
    # coordinates: the constructor refuses exactly what a scan of all
    # pairs finds, with the scan's first offending pair
    rng = random.Random(12)
    raised = 0
    for _ in range(150):
        arity = rng.randint(1, 4)
        blocks = []
        for _ in range(rng.randint(2, 150)):
            lo = rng.randint(1, 80)
            blocks.append(
                ConstantBlock(
                    tuple(rng.randint(1, 40) for _ in range(arity)),
                    rng.randint(1, arity),
                    lo,
                    lo + rng.randint(0, 12),
                    1.0,
                )
            )
        pairs = [
            (i, j)
            for i, a in enumerate(blocks)
            for j in range(i + 1, len(blocks))
            if blocks_overlap(a, blocks[j])
        ]
        assert first_overlap(blocks) == (pairs[0] if pairs else None)
        if not pairs:
            SparseVector(arity, (), tuple(blocks))
            continue
        raised += 1
        a, b = (blocks[k] for k in pairs[0])
        with pytest.raises(ValidationError) as err:
            SparseVector(arity, (), tuple(blocks))
        assert str(err.value) == (
            f"blocks overlap: {a.key_profile()} [{a.lo},{a.hi}] and "
            f"{b.key_profile()} [{b.lo},{b.hi}]"
        )
    assert 30 < raised < 120


def test_many_disjoint_blocks_are_checked_fast():
    # 2,000 runs along coordinate 2 and 2,000 crossing them along
    # coordinate 1 between the rows; a pairwise scan took seconds
    along = [ConstantBlock((k, 1), 2, 1, 500, 1.0) for k in range(2, 4002, 2)]
    across = [ConstantBlock((1, k), 1, 1, 4001, 1.0) for k in range(501, 2501)]
    t0 = time.process_time()
    x = SparseVector(2, (((3, 1), 1.0),), tuple(along + across))
    assert time.process_time() - t0 < 1.0
    assert x.support_size == 1 + 2000 * 500 + 2000 * 4001
    with pytest.raises(ValidationError, match="blocks overlap"):
        SparseVector(2, (), tuple(along + across + [ConstantBlock((1, 400), 1, 3000, 3001, 1.0)]))


def test_blocks_layout_and_support():
    x = SparseVector(2, entries=(((9, 9), 2.0),), blocks=(blk(coeff=0.5),))
    assert x.support_size == 5
    assert x.value_at((5, 2)) == 0.5
    assert x.value_at((9, 9)) == 2.0
    assert x.value_at((8, 8)) == 0.0
    assert sorted(x.support()) == [(5, 1), (5, 2), (5, 3), (5, 4), (9, 9)]


def test_expand_flattens_blocks():
    x = SparseVector(2, entries=(((9, 9), 2.0),), blocks=(blk(coeff=0.5),))
    e = x.expand()
    assert e.blocks == ()
    assert e.support_size == x.support_size
    assert dict(e.items()) == dict(x.items())


def test_expand_cap():
    wide = ConstantBlock(template=(1, 1), running_coord=2, lo=1, hi=10_000, coeff=1.0)
    x = SparseVector(2, blocks=(wide,))
    with pytest.raises(CapacityError):
        x.expand(cap=100)
    assert x.expand(cap=10_001).support_size == 10_000


def test_items_cap():
    wide = ConstantBlock(template=(1, 1), running_coord=2, lo=1, hi=10_000, coeff=1.0)
    x = SparseVector(2, blocks=(wide,))
    with pytest.raises(CapacityError):
        list(x.items(cap=100))
    assert sum(1 for _ in x.items(cap=None)) == 10_000


def test_unit_vector():
    e = unit_vector((3, 1))
    assert e.arity == 2
    assert e.entries == (((3, 1), 1.0),)


def test_key_profile_masks_running_coordinate():
    a = blk(template=(5, 1), rc=2)
    b = blk(template=(5, 7), rc=2)
    assert a.key_profile() == b.key_profile()
    c = blk(template=(6, 1), rc=2)
    assert a.key_profile() != c.key_profile()


@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.1, max_value=2.0),
)
def test_block_expand_roundtrip(lo, size, coeff):
    b = ConstantBlock(template=(2, 1, 3), running_coord=2, lo=lo, hi=lo + size - 1, coeff=coeff)
    x = SparseVector(3, blocks=(b,))
    e = x.expand()
    assert e.support_size == size
    for pt, v in e.items():
        assert v == coeff
        assert x.value_at(pt) == coeff
