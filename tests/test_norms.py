import math
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from conftest import lp_norm_of, p_values, rel_err, small_families, sparse_vectors
from pwnorm.cli import main
from pwnorm.errors import (
    ArityError,
    CapacityError,
    NormOverflowError,
    SupportError,
    ValidationError,
)
from pwnorm.families import Family, descriptor_members, lattice_member_weight, restrict_family
from pwnorm.norms import (
    MAX_SUPPORT,
    _clash,
    canonical_value,
    family_norm,
    member_norm_intensional,
    pair_norm,
    term,
)
from pwnorm.partitions import (
    CoordinateGrouping,
    Discrete,
    Indiscrete,
    PairGrouping,
    PairPW,
    RestrictedPair,
    restrict_pair,
)
from pwnorm.spaces import (
    envelope_family,
    make_l2,
    make_lp,
    make_rosenthal_xp,
    make_sum_l2_lp,
    make_admissible,
    make_Yn,
    tensor_family,
)
from pwnorm.vectors import ConstantBlock, SparseVector, blocks_overlap, unit_vector
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
    Weight,
)
from pwnorm.experiments import yn_default_params, yn_witness


def test_term_is_squared_product():
    assert term(3.0, 0.5) == (3.0 * 3.0) * (0.5 * 0.5)
    assert term(-2.0, 1.0) == 4.0


def test_two_point_rosenthal_value():
    fam = make_rosenthal_xp(4.0, Constant(0.5))
    x = SparseVector(1, entries=(((1,), 1.0), ((2,), 1.0)))
    res = family_norm(x, fam)
    assert res.value == 1.189207115002721  # 2^(1/4), discrete member wins
    assert res.argmax_member == "discrete"
    assert res.candidates_evaluated == 2


def test_pair_norm_golden():
    # the {{1,2},{3}} restriction with unit weights
    pts = ((1,), (2,), (3,))
    rp = RestrictedPair(pts, (((1,), (2,)), ((3,),)), (1.0, 1.0, 1.0), "grp")
    x = SparseVector(1, entries=(((1,), 3.0), ((2,), 4.0), ((3,), 2.0)))
    v = pair_norm(x, rp, 4.0)
    assert v == 5.0316973082990915  # (25^2 + 4^2)^(1/4) = 641^(1/4)
    assert v == pytest.approx(641.0 ** 0.25, rel=1e-15)


def test_pair_norm_requires_support_cover():
    rp = RestrictedPair(((1,),), (((1,),),), (1.0,), "d")
    x = SparseVector(1, entries=(((1,), 1.0), ((2,), 1.0)))
    with pytest.raises(SupportError):
        pair_norm(x, rp, 4.0)


def test_pair_norm_skips_untouched_cells():
    rp = RestrictedPair(
        ((1,), (2,)), (((1,),), ((2,),)), (1.0, 1.0), "d"
    )
    x = SparseVector(1, entries=(((1,), 2.0),))
    assert pair_norm(x, rp, 4.0) == 2.0


def test_l2_family_is_weighted_euclidean():
    fam = make_l2(4.0, One())
    x = SparseVector(1, entries=(((1,), 3.0), ((2,), 4.0)))
    assert family_norm(x, fam).value == 5.0


def test_sum_l2_lp_units():
    fam = make_sum_l2_lp(4.0, One())
    x = SparseVector(2, entries=(((1, 1), 1.0), ((2, 1), 1.0)))
    assert family_norm(x, fam).value == 2.0 ** 0.25


def test_family_norm_first_max_wins():
    # two members tie on symmetric input; the earlier label is reported
    fam = make_rosenthal_xp(4.0, One())
    x = unit_vector((1,))
    res = family_norm(x, fam)
    assert res.value == 1.0
    assert res.argmax_member == "discrete"


def test_canonical_value_overflow():
    with pytest.raises(NormOverflowError):
        canonical_value([[1e308, 1e308]], 4.0)


def test_canonical_value_empty():
    assert canonical_value([], 4.0) == 0.0
    assert canonical_value([[0.0]], 4.0) == 0.0


# --- intensional block evaluation ------------------------------------------


def witness_and_member(I):
    prm = yn_default_params()
    x = yn_witness(prm)
    n = prm.n
    part = PairGrouping(frozenset(I))
    w = lattice_member_weight(n, tuple(sorted(I)), prm.w)
    return x, part, w, prm


@pytest.mark.parametrize("I", [(), (1,), (1, 2), (1, 2, 3)])
def test_intensional_matches_expansion_bitwise(I):
    x, part, w, prm = witness_and_member(I)
    arity = 2 * prm.n
    lazy = member_norm_intensional(x, part, w, prm.p, arity)
    flat = member_norm_intensional(x.expand(), part, w, prm.p, arity)
    assert lazy == flat


def test_intensional_split_block():
    # running coordinate fixed by the partition: the block splits into
    # singleton cells via the closed form
    b = ConstantBlock(template=(3, 1), running_coord=2, lo=1, hi=64, coeff=0.25)
    x = SparseVector(2, blocks=(b,))
    v = member_norm_intensional(x, Discrete(), One(), 4.0, 2)
    expected = (64 * (0.25 ** 4.0)) ** 0.25
    assert v == expected
    flat = member_norm_intensional(x.expand(), Discrete(), One(), 4.0, 2)
    assert v == flat


def test_intensional_lump_block_bitwise():
    # running coordinate not fixed: the whole block lands in one cell and
    # the closed form reproduces fsum exactly (K equal terms)
    b = ConstantBlock(template=(3, 1), running_coord=2, lo=1, hi=64, coeff=0.25)
    x = SparseVector(2, blocks=(b,))
    v = member_norm_intensional(x, Indiscrete(), Constant(0.5), 4.0, 2)
    flat = member_norm_intensional(x.expand(), Indiscrete(), Constant(0.5), 4.0, 2)
    assert v == flat
    # entries in the lump's cell and beside it: the lump's terms join its cell
    x = SparseVector(2, (((3, 70), 0.5), ((2, 70), -0.75), ((3, 90), 0.125)), (b,))
    for part in (Indiscrete(), CoordinateGrouping(frozenset({1}))):
        v = member_norm_intensional(x, part, Constant(0.5), 4.0, 2)
        assert v == member_norm_intensional(x.expand(), part, Constant(0.5), 4.0, 2)
        assert v == pair_norm(x, restrict_pair(PairPW(part, Constant(0.5)), x.support(), 2), 4.0)


def test_intensional_weight_depending_on_running_coord_expands():
    # weight varies along the run; no closed form applies but the value
    # must still match the expansion
    b = ConstantBlock(template=(3, 1), running_coord=2, lo=1, hi=50, coeff=0.5)
    x = SparseVector(2, blocks=(b,))
    from pwnorm.weights import CoordinateLift

    w = CoordinateLift((2,), PowerDecay(0.5))
    v = member_norm_intensional(x, Indiscrete(), w, 4.0, 2)
    flat = member_norm_intensional(x.expand(), Indiscrete(), w, 4.0, 2)
    assert v == flat


def test_family_norm_on_blocks_matches_expanded():
    prm = yn_default_params()
    x = yn_witness(prm)
    from pwnorm.spaces import make_Yn

    fam = make_Yn(prm.p, prm.n, prm.w)
    lazy = family_norm(x, fam)
    flat = family_norm(x.expand(), fam)
    assert lazy.value == flat.value
    assert lazy.argmax_member == flat.argmax_member == "I={1,2}"


def test_intensional_lump_meeting_a_split_block():
    # the lump block's one cell {first coordinate 3} is also a cell of the
    # split block: 4 + 1 unit terms there, 1 in each of three more cells
    x = SparseVector(
        2,
        blocks=(
            ConstantBlock((3, 1), 2, 1, 4, 1.0),
            ConstantBlock((1, 6), 1, 2, 5, 1.0),
        ),
    )
    part = CoordinateGrouping(frozenset({1}))
    v = member_norm_intensional(x, part, One(), 4.0, 2)
    assert v == pair_norm(x, restrict_pair(PairPW(part, One()), x.support(), 2), 4.0)
    assert v == 28.0 ** 0.25


def test_intensional_overflow_is_a_norm_overflow_error(tmp_path, capsys):
    x = SparseVector(1, (((1,), 1e150),))
    with pytest.raises(NormOverflowError):
        member_norm_intensional(x, Discrete(), One(), 4.0, 1)
    with pytest.raises(NormOverflowError):
        family_norm(x, make_lp(4.0))
    block = SparseVector(1, blocks=(ConstantBlock((1,), 1, 1, 4, 1e77),))
    for part in (Indiscrete(), Discrete()):  # a lump and a split block
        with pytest.raises(NormOverflowError):
            member_norm_intensional(block, part, One(), 4.0, 1)
    cfg = tmp_path / "space.cfg"
    cfg.write_text("p = 4\nspace = lp\n")
    vec = tmp_path / "x.vec"
    vec.write_text("1 : 1e150\n")
    assert main(["--command", "norm", "--config", str(cfg), "--vector", str(vec)]) == 2
    assert "overflowed" in capsys.readouterr().err


def test_descriptor_path_keeps_the_restriction_checks(monkeypatch):
    prm = yn_default_params()
    x = yn_witness(prm)
    fam = make_Yn(4.0, 3, prm.w)
    with monkeypatch.context() as m:
        m.setattr("pwnorm.families.MAX_PAIRS", 2)
        with pytest.raises(CapacityError):
            family_norm(x, fam)
    with pytest.raises(ArityError):
        family_norm(unit_vector((1, 1)), fam)
    with pytest.raises(SupportError):
        member_norm_intensional(SparseVector(1), Discrete(), One(), 4.0, 1)
    # geometric decay underflows to 0.0 at 1100, and is refused there
    far = SparseVector(1, (((1100,), 1.0),))
    with pytest.raises(ValidationError, match=r"Geometric\(ratio=0.5\) underflows to 0.0 at s = 1100"):
        family_norm(far, make_l2(4.0, Geometric(0.5)))
    # a product of two nonzero factors still can, outside (0, 1]; both
    # paths name the descriptor and the point
    half = Geometric(0.5)
    prod = Product((half, half))
    named = "restricted weight 0.0 outside (0, 1]: " + repr(prod) + " at (600,)"
    with pytest.raises(ValidationError, match="restricted weight 0.0") as err:
        family_norm(SparseVector(1, (((600,), 1.0),)), make_l2(4.0, prod))
    assert str(err.value) == named
    with pytest.raises(ValidationError) as err:
        restrict_pair(PairPW(Indiscrete(), prod), [(600,)], 1)
    assert str(err.value) == named
    # a weight varying along the run forces expansion, capped by MAX_SUPPORT
    run = SparseVector(1, blocks=(ConstantBlock((1,), 1, 1, 100, 1.0),))
    monkeypatch.setattr("pwnorm.norms.MAX_SUPPORT", 99)
    with pytest.raises(CapacityError) as err:
        family_norm(run, make_l2(4.0, PowerDecay(0.5)))
    assert str(err.value) == "100 block points need expanding here, more than the cap 99"
    monkeypatch.setattr("pwnorm.norms.MAX_SUPPORT", 100)
    assert family_norm(run, make_l2(4.0, PowerDecay(0.5))).value > 0


def test_restriction_support_cap_is_checked_before_restricting(monkeypatch):
    assert MAX_SUPPORT == 1 << 16
    fam = envelope_family(make_rosenthal_xp(4.0, PowerDecay(0.5)))
    x = SparseVector(1, blocks=(ConstantBlock((1,), 1, 1, 2, 1.0),
                                ConstantBlock((4,), 1, 4, 5, 0.5)))
    monkeypatch.setattr("pwnorm.norms.MAX_SUPPORT", 4)
    assert family_norm(x, fam).value > 0
    monkeypatch.setattr("pwnorm.norms.MAX_SUPPORT", 3)
    monkeypatch.setattr("pwnorm.norms.restrict_family", None)
    with pytest.raises(CapacityError) as err:
        family_norm(x, fam)
    assert str(err.value) == "support size 4 exceeds cap 3"


def test_the_first_failing_point_is_reported():
    # the columns would evaluate Geometric(0.5) at s = 1100 first; a walk
    # over the points meets Geometric(0.25) at s = 600 first
    w = Product((CoordinateLift((1,), Geometric(0.5)), CoordinateLift((2,), Geometric(0.25))))
    x = SparseVector(2, (((1, 600), 1.0), ((1100, 1), 1.0)))
    with pytest.raises(ValidationError, match=r"Geometric\(ratio=0.25\) underflows to 0.0 at s = 600"):
        member_norm_intensional(x, Discrete(), w, 4.0, 2)
    # a weight rounding to 0.0 at the first point, an underflow at the next
    half = Geometric(0.5)
    w = Product((CoordinateLift((1,), Product((half, half))), CoordinateLift((2,), Geometric(0.25))))
    x = SparseVector(2, (((600, 1), 1.0), ((700, 600), 1.0)))
    named = "restricted weight 0.0 outside (0, 1]: " + repr(w) + " at (600, 1)"
    for part in (Discrete(), Indiscrete(), CoordinateGrouping(frozenset({2}))):
        with pytest.raises(ValidationError) as err:
            member_norm_intensional(x, part, w, 4.0, 2)
        assert str(err.value) == named
    with pytest.raises(ValidationError) as err:
        restrict_pair(PairPW(Discrete(), w), x.support(), 2)
    assert str(err.value) == named


def test_tensors_of_lattices_and_past_the_cap_are_restricted(monkeypatch):
    p = 4.0
    xp = make_rosenthal_xp(p, PowerDecay(1.0))
    yn = make_Yn(p, 2, PowerDecay(1.0))
    for fam in (tensor_family(xp, yn), tensor_family(make_admissible(yn), xp)):
        assert descriptor_members(fam) is None
    # the factors' two members coincide at s = 1, so restriction leaves
    # one product where four are listed
    sch = tensor_family(xp, make_rosenthal_xp(p, PowerDecay(2.0)))
    assert len(descriptor_members(sch)) == 4
    x = SparseVector(2, (((1, 1), 2.0),))
    listed = family_norm(x, sch)
    monkeypatch.setattr("pwnorm.families.MAX_PAIRS", 2)
    assert descriptor_members(sch) is None
    restricted = family_norm(x, sch)
    assert (listed.value, listed.argmax_member) == (restricted.value, restricted.argmax_member)
    assert (listed.candidates_evaluated, restricted.candidates_evaluated) == (4, 1)
    monkeypatch.setattr("pwnorm.families.MAX_PAIRS", 3)
    with pytest.raises(CapacityError, match="^4 members exceed the cap 3$"):
        descriptor_members(yn)


WEIGHTS_2D = [
    One(),
    Constant(0.3),
    CoordinateLift((1,), PowerDecay(0.7)),
    CoordinateLift((2,), PowerDecay(0.4)),
    Product((Constant(0.9), CoordinateLift((2,), Geometric(0.8)))),
    Product(
        (
            CoordinateLift((1,), Interleave(PowerDecay(0.1), Constant(0.6))),
            CoordinateLift((2,), PowerDecay(0.05)),
            Constant(0.7),
        )
    ),
    Min(
        (
            CoordinateLift((1,), PowerDecay(0.3)),
            CoordinateLift((2,), Explicit((0.5, 0.9), PowerDecay(0.2))),
        )
    ),
    CoordinateLift((2,), Interleave(Constant(0.6), Geometric(0.9))),
    CoordinateLift((2, 1), Product((CoordinateLift((1,), PowerDecay(0.2)), Constant(0.8)))),
]
PARTITIONS_2D = [
    Discrete(),
    Indiscrete(),
    CoordinateGrouping(frozenset({1})),
    CoordinateGrouping(frozenset({2})),
]
block_coeffs = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def blocked_vectors(draw):
    """Arity-2 vectors with a few entries and lump or split blocks, their
    coordinates shifted past int64 in some draws."""
    shift = draw(st.sampled_from([0, 0, 2**63 - 12, 2**64]))
    coord = st.integers(min_value=1 + shift, max_value=9 + shift)
    pts = draw(st.lists(st.tuples(coord, coord), max_size=5, unique=True))
    entries = tuple((b, draw(block_coeffs)) for b in pts)
    blocks = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lo = draw(coord)
        blocks.append(
            ConstantBlock(
                (draw(coord), draw(coord)),
                draw(st.integers(min_value=1, max_value=2)),
                lo,
                lo + draw(st.integers(min_value=0, max_value=40)),
                draw(block_coeffs),
            )
        )
    kept: list[ConstantBlock] = []
    for blk in blocks:
        if not any(blocks_overlap(blk, k) for k in kept):
            kept.append(blk)
    entries = tuple((b, c) for b, c in entries if not any(k.contains(b) for k in kept))
    assume(entries or kept)
    return SparseVector(2, entries, tuple(kept))


@given(
    blocked_vectors(),
    st.sampled_from(PARTITIONS_2D),
    st.sampled_from(WEIGHTS_2D),
    st.sampled_from([2.5, 3.0, 4.0, 5.5]),
)
def test_closed_form_equals_restricted_pair_norm(x, part, w, p):
    try:
        rp = restrict_pair(PairPW(part, w), x.support(), 2)
    except ValidationError:  # a geometric factor underflows past 2**63
        with pytest.raises(ValidationError, match="underflows to 0.0"):
            member_norm_intensional(x, part, w, p, 2)
        return
    assert member_norm_intensional(x, part, w, p, 2) == pair_norm(x, rp, p)


@st.composite
def tensor_cases(draw):
    """A tensor of admissible one-dimensional families (some admissible(lp)),
    nested on either side in some draws, and a vector on its arity."""
    p = draw(p_values)

    def factor():
        if draw(st.booleans()):
            return make_admissible(make_lp(p))
        return Family(p, 1, draw(small_families(admissible=True)).members)

    fam = tensor_family(factor(), factor())
    nest = draw(st.sampled_from(["none", "left", "right"]))
    if nest == "left":
        fam = tensor_family(fam, factor())
    elif nest == "right":
        fam = tensor_family(factor(), fam)
    return fam, draw(sparse_vectors(arity=fam.arity, max_points=7))


@given(tensor_cases())
def test_tensor_descriptors_match_the_restriction(case):
    fam, x = case
    assert descriptor_members(fam) is not None
    got = family_norm(x, fam)
    scored = [(pair_norm(x, rp, fam.p), rp.label) for rp in restrict_family(fam, x.support())]
    best = max(v for v, _ in scored)
    assert got.value == best
    assert got.argmax_member == next(label for v, label in scored if v == best)


class CountingWeight(Weight):
    """1/s on one coordinate, recording every evaluation."""

    def __init__(self) -> None:
        self.seen: list = []

    def value_at(self, idx):
        self.seen.append(idx)
        return 1.0 / idx[0]

    def depends_on(self, arity):
        return frozenset({1})


def test_weights_are_evaluated_once_per_distinct_value():
    counting = CountingWeight()
    w = CoordinateLift((2,), counting)
    x = SparseVector(
        2, tuple(((i, j), 1.0 / (i + j)) for i in range(1, 21) for j in range(1, 31)), ()
    )
    part = CoordinateGrouping(frozenset({1}))
    v = member_norm_intensional(x, part, w, 4.0, 2)
    assert sorted(counting.seen) == [(j,) for j in range(1, 31)]
    assert v == pair_norm(x, restrict_pair(PairPW(part, w), x.support(), 2), 4.0)
    assert len(counting.seen) == 30 + 600


def test_clash_matches_a_contains_scan():
    rng = random.Random(6)
    verdicts = set()
    for _ in range(300):
        arity = rng.randint(1, 3)
        cells_of = []
        for _ in range(rng.randint(1, 40)):
            lo = rng.randint(1, 30)
            cells_of.append(
                ConstantBlock(
                    tuple(rng.randint(1, 3) for _ in range(arity)),
                    rng.randint(1, arity),
                    lo,
                    lo + rng.randint(0, 3),
                    1.0,
                )
            )
        keys = [tuple(rng.randint(1, 30) for _ in range(arity)) for _ in range(rng.randint(0, 30))]
        scan = any(
            blocks_overlap(a, b) for i, a in enumerate(cells_of) for b in cells_of[i + 1 :]
        ) or any(a.contains(k) for a in cells_of for k in keys)
        # the same blocks without overlaps among them, so keys decide
        apart = [b for i, b in enumerate(cells_of) if not any(blocks_overlap(b, c) for c in cells_of[:i])]
        apart_scan = any(a.contains(k) for a in apart for k in keys)
        assert _clash(cells_of, keys) == scan
        assert _clash(apart, keys) == apart_scan
        verdicts.add(apart_scan)
    assert verdicts == {True, False}
    # sparser layouts of up to 120 cells, crossing along every pair of
    # coordinates, where most draws are disjoint
    verdicts = set()
    for _ in range(200):
        arity = rng.randint(2, 4)
        cells_of = []
        for _ in range(rng.randint(2, 120)):
            lo = rng.randint(1, 60)
            cells_of.append(
                ConstantBlock(
                    tuple(rng.randint(1, 60) for _ in range(arity)),
                    rng.randint(1, arity),
                    lo,
                    lo + rng.randint(0, 10),
                    1.0,
                )
            )
        scan = any(
            blocks_overlap(a, b) for i, a in enumerate(cells_of) for b in cells_of[i + 1 :]
        )
        assert _clash(cells_of, []) == scan
        verdicts.add(scan)
    assert verdicts == {True, False}


# --- axioms ------------------------------------------------------------------


@given(small_families(admissible=True), sparse_vectors())
def test_unconditionality(fam, x):
    flipped = SparseVector(1, entries=tuple((pt, -v) for pt, v in x.entries))
    assert family_norm(x, fam).value == family_norm(flipped, fam).value


@given(small_families(admissible=True), sparse_vectors(), sparse_vectors())
def test_triangle_inequality(fam, x, y):
    merged = dict(x.entries)
    for pt, v in y.entries:
        merged[pt] = merged.get(pt, 0.0) + v
    s = SparseVector(1, entries=tuple(merged.items()))
    lhs = family_norm(s, fam).value if s.entries else 0.0
    rhs = family_norm(x, fam).value + family_norm(y, fam).value
    assert lhs <= rhs * (1 + 1e-9)


@given(small_families(admissible=True), sparse_vectors())
def test_admissible_lower_lp_bound(fam, x):
    # the discrete member evaluates to exactly the canonical l_p norm, so >=
    # is exact against that form; the naive |v|^p form differs by rounding
    v = family_norm(x, fam).value
    assert v >= lp_norm_of(x.entries, fam.p)
    naive = math.fsum(abs(val) ** fam.p for _, val in x.entries) ** (1.0 / fam.p)
    assert v >= naive * (1 - 1e-12)


@given(small_families(admissible=True), sparse_vectors())
def test_norm_against_direct_oracle(fam, x):
    res = family_norm(x, fam)
    assert res.value == oracles.family_norm_direct(x, fam, fam.p)


@given(
    sparse_vectors(),
    sparse_vectors(),
    st.sampled_from([2.5, 3.0, 4.0]),
)
def test_elementary_tensor_multiplicativity(xa, xb, p):
    fam_a = make_rosenthal_xp(p, PowerDecay(0.25))
    fam_b = make_rosenthal_xp(p, Constant(0.5))
    tf = tensor_family(fam_a, fam_b)
    prod_entries = tuple(
        ((ia[0], ib[0]), va * vb) for ia, va in xa.entries for ib, vb in xb.entries
    )
    xt = SparseVector(2, entries=prod_entries)
    if not xt.entries:
        return
    lhs = family_norm(xt, tf).value
    rhs = family_norm(xa, fam_a).value * family_norm(xb, fam_b).value
    assert rel_err(lhs, rhs) < 1e-9


def test_scaling_homogeneity():
    fam = make_rosenthal_xp(4.0, PowerDecay(0.25))
    x = SparseVector(1, entries=(((1,), 1.0), ((3,), -2.0)))
    v1 = family_norm(x, fam).value
    x2 = SparseVector(1, entries=tuple((pt, 3.0 * v) for pt, v in x.entries))
    assert rel_err(family_norm(x2, fam).value, 3.0 * v1) < 1e-15
