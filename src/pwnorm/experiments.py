"""Reproducible distortion and moment-inequality experiments.

Two experiments live here.  The first builds the n-block witness vector
on the subset-lattice family, evaluates its norm under every lattice
member from the blocks in closed form (the parameters put millions of
points into each block), the same evaluation ``family_norm`` runs, and
certifies an envelope lower bound of n^{1/p} — so the family norm and
the envelope norm drift apart as n grows.  The second estimates the
p-th moment of a sum of independent symmetric three-point variables by
Monte Carlo and compares it against the exact subset maximum that the
moment is classically equivalent to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .envelope import xp_envelope_subset
from .errors import ValidationError
from .families import (
    Family,
    SubsetLattice,
    descriptor_members,
    subset_label,
    subset_order,
)
from .norms import member_norm_intensional, term
from .vectors import ConstantBlock, SparseVector
from .weights import PowerDecay, Weight

__all__ = [
    "YnParams",
    "YnReport",
    "yn_witness",
    "yn_sums",
    "yn_envelope_lb",
    "yn_report",
    "yn_default_params",
    "RosenthalResult",
    "rosenthal_mc",
    "MIN_MC_SAMPLES",
]

MIN_MC_SAMPLES = 10_000


@dataclass(frozen=True)
class YnParams:
    """Witness parameters for the n-block distortion computation.

    ``w`` is the lattice base weight (evaluated on first coordinates of
    pairs); ``m`` and ``K`` give, per block, the fixed first coordinate
    and the run length.  Validity means both defining inequalities hold
    strictly:

        w(m_l) < (eps/n)^{1/2}          (blocks are small in the 2-sum)
        w(m_l)·K_l^{1/2-1/p} > (n/eps)^{1/p}   (runs are long enough)
    """

    p: float
    n: int
    w: Weight
    m: tuple[int, ...]
    K: tuple[int, ...]
    eps: float

    def __post_init__(self) -> None:
        if not (self.p > 2.0):
            raise ValidationError(f"exponent p must be > 2, got {self.p}")
        if self.n < 2:
            raise ValidationError(f"need at least two blocks, got n={self.n}")
        if not (0.0 < self.eps <= 3.0):
            raise ValidationError(f"eps must lie in (0, 3], got {self.eps}")
        m = tuple(int(v) for v in self.m)
        K = tuple(int(v) for v in self.K)
        if len(m) != self.n or len(K) != self.n:
            raise ValidationError(f"m and K must each list {self.n} naturals")
        if any(v < 1 for v in m) or any(v < 1 for v in K):
            raise ValidationError("m and K entries must be >= 1")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "K", K)
        small = math.sqrt(self.eps / self.n)
        big = (self.n / self.eps) ** (1.0 / self.p)
        for l in range(self.n):
            wv = self.w.value_at((m[l],))
            if not wv < small:
                raise ValidationError(
                    f"block {l + 1}: w(m)={wv!r} is not < (eps/n)^(1/2)={small!r}"
                )
            if not wv * K[l] ** (0.5 - 1.0 / self.p) > big:
                raise ValidationError(
                    f"block {l + 1}: w(m)·K^(1/2-1/p)="
                    f"{wv * K[l] ** (0.5 - 1.0 / self.p)!r} is not > (n/eps)^(1/p)={big!r}"
                )

    def weight_at_m(self, b: int) -> float:
        """w(m_b) for the 1-based block number b."""
        return self.w.value_at((self.m[b - 1],))


@dataclass(frozen=True)
class YnReport:
    params: YnParams
    labels: tuple[str, ...]
    sums: tuple[float, ...]
    given_norm: float
    envelope_lb: float
    ratio: float
    distance_lb: float


def yn_witness(params: YnParams) -> SparseVector:
    """The n disjoint constant blocks, one per coordinate pair.

    Block b runs over the second coordinate of pair b (length K_b) with
    coefficient 1/(w(m_b)·K_b^{1/2}), normalizing its 2-sum mass under
    the weight w(m_b) to exactly 1.  Fixed pairs k sit at second
    coordinate K_k+b-1 for k < b and b for k > b, so distinct blocks
    disagree on every pair.
    """
    n = params.n
    blocks = []
    for b in range(1, n + 1):
        tmpl = []
        for k in range(1, n + 1):
            if k < b:
                tmpl += [params.m[k - 1], params.K[k - 1] + b - 1]
            elif k == b:
                tmpl += [params.m[b - 1], b]
            else:
                tmpl += [params.m[k - 1], b]
        coeff = 1.0 / (params.weight_at_m(b) * math.sqrt(params.K[b - 1]))
        blocks.append(
            ConstantBlock(
                template=tuple(tmpl),
                running_coord=2 * b,
                lo=b,
                hi=b - 1 + params.K[b - 1],
                coeff=coeff,
            )
        )
    return SparseVector(arity=2 * n, blocks=tuple(blocks))


def _lattice_of(family: Family) -> SubsetLattice:
    if not isinstance(family.members, SubsetLattice):
        raise ValidationError("per-subset sums need a subset-lattice family")
    return family.members


def yn_sums(x: SparseVector, family: Family) -> list[float]:
    """Norm of ``x`` under each subset member, in canonical subset order.

    Each comes from :func:`~pwnorm.norms.member_norm_intensional`, the
    closed block form that ``family_norm`` uses too, so the largest sum
    is the family norm bit for bit.
    """
    _lattice_of(family)
    return [
        member_norm_intensional(x, m.partition, m.weight, family.p, family.arity)
        for m in descriptor_members(family)
    ]


def yn_envelope_lb(params: YnParams) -> float:
    """Certified envelope lower bound from the block-matched assignment.

    Sending block b to the member that groups every pair except b puts
    the whole block into one cell weighted w(m_b); its squared mass is
    exactly the normalization 1, so the bound is n^{1/p} up to rounding.
    The closed form K·c²w² is bit-identical to summing the K equal
    terms, so this matches the generic envelope evaluator on expanded
    vectors.
    """
    hp = params.p / 2.0
    outer = []
    for b in range(1, params.n + 1):
        wv = params.weight_at_m(b)
        coeff = 1.0 / (wv * math.sqrt(params.K[b - 1]))
        outer.append(pow(params.K[b - 1] * term(coeff, wv), hp))
    return pow(math.fsum(outer), 1.0 / params.p)


def yn_report(params: YnParams) -> YnReport:
    from .spaces import make_Yn

    family = make_Yn(params.p, params.n, params.w)
    x = yn_witness(params)
    sums = yn_sums(x, family)
    labels = tuple(subset_label(I) for I in subset_order(params.n))
    given = max(sums)
    lb = yn_envelope_lb(params)
    ratio = lb / given
    return YnReport(
        params=params,
        labels=labels,
        sums=tuple(sums),
        given_norm=given,
        envelope_lb=lb,
        ratio=ratio,
        distance_lb=math.sqrt(ratio),
    )


def yn_default_params(
    p: float = 4.0, n: int = 3, eps: float = 1.0, w: Weight | None = None
) -> YnParams:
    """Smallest symmetric parameters valid for (p, n, eps).

    The first coordinate is the least power of 16 satisfying the
    smallness constraint (for the default quartic decay this makes
    w(m) an exact power of two); the run length is the least K
    strictly satisfying the length constraint.
    """
    if not (p > 2.0):
        raise ValidationError(f"exponent p must be > 2, got {p}")
    if n < 2:
        raise ValidationError(f"need at least two blocks, got n={n}")
    if not (0.0 < eps <= 3.0):
        raise ValidationError(f"eps must lie in (0, 3], got {eps}")
    if w is None:
        w = PowerDecay(0.25)
    small = math.sqrt(eps / n)
    m = None
    s = 16
    for _ in range(15):
        if w.value_at((s,)) < small:
            m = s
            break
        s *= 16
    if m is None:
        raise ValidationError(
            "weight does not decay below (eps/n)^(1/2) on powers of 16 up to 16^15"
        )
    wm = w.value_at((m,))
    big = (n / eps) ** (1.0 / p)
    B = (big / wm) ** (2.0 * p / (p - 2.0))
    if not math.isfinite(B) or B > 2.0**53:
        raise ValidationError(f"required run length {B!r} is out of range")
    K = math.floor(B * (1.0 + 1e-12)) + 1
    while not wm * K ** (0.5 - 1.0 / p) > big:
        K += max(1, K // 10**6)
    return YnParams(p=p, n=n, w=w, m=(m,) * n, K=(K,) * n, eps=eps)


# ---------------------------------------------------------------------------
# Monte Carlo check of the subset-maximum moment equivalence

@dataclass(frozen=True)
class RosenthalResult:
    lhs_est: float
    stderr: float
    rhs: float
    ratio: float
    samples: int
    seed: int


_MC_CHUNK = 1 << 16
_MC_MAX_VARIABLES = 64  # 65,536 x 64 float64 draws are 32 MiB per array


def rosenthal_mc(
    variables: Sequence[tuple[float, float]],
    p: float,
    samples: int,
    seed: int,
) -> RosenthalResult:
    """Estimate (E|Σ f_i|^p)^{1/p} for independent symmetric three-point
    variables f_i ∈ {±a_i, 0} (P[f_i = ±a_i] = q_i/2 each) and compare it
    with the exact subset maximum

        max_q (Σ_{i∈q} E|f_i|^p + (Σ_{i∉q} E f_i²)^{p/2})^{1/p},

    which reduces to the two-member envelope with coefficients a·q^{1/p}
    and weights q^{1/2-1/p}; :func:`~pwnorm.envelope.xp_envelope_subset`
    computes it exactly from n+1 ratio-sorted prefixes.  Sampling is
    chunked with independently seeded generators per chunk and the chunk
    sums are combined exactly, so the estimate is reproducible and
    independent of chunk order.  Each chunk draws 65,536 × N uniforms and
    builds arrays of that shape, so N is capped at 64 variables.
    """
    if not (p > 2.0):
        raise ValidationError(f"exponent p must be > 2, got {p}")
    if samples < MIN_MC_SAMPLES:
        raise ValidationError(f"need at least {MIN_MC_SAMPLES} samples, got {samples}")
    pairs = [(float(a), float(q)) for a, q in variables]
    if not pairs:
        raise ValidationError("need at least one variable")
    if len(pairs) > _MC_MAX_VARIABLES:
        raise ValidationError(
            f"at most {_MC_MAX_VARIABLES} variables are supported: each sampling "
            f"chunk holds {_MC_CHUNK} x N floats per array"
        )
    for a, q in pairs:
        if not math.isfinite(a):
            raise ValidationError(f"amplitude {a!r} is not finite")
        if not (0.0 < q <= 1.0):
            raise ValidationError(f"probability {q!r} outside (0, 1]")
    if all(a == 0.0 for a, _ in pairs):
        raise ValidationError("all amplitudes are zero; the sum is degenerate")

    rhs = xp_envelope_subset(
        [abs(a) * q ** (1.0 / p) for a, q in pairs],
        [q ** (0.5 - 1.0 / p) for _, q in pairs],
        p,
    ).value

    # |Σ f_i|^p is sampled in units of scale^p, so neither it nor its
    # square overflows; the scale comes back only after the square root
    scale = max(abs(a) for a, _ in pairs)
    amp = np.array([a / scale for a, _ in pairs])
    prob = np.array([q for _, q in pairs])
    n_chunks = (samples + _MC_CHUNK - 1) // _MC_CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    chunk_pow = []
    mean, m2 = 0.0, 0.0
    done = 0
    for i in range(n_chunks):
        size = min(_MC_CHUNK, samples - done)
        rng = np.random.default_rng(children[i])
        u = rng.random((size, len(pairs)))
        draws = np.where(u < prob / 2.0, amp, np.where(u < prob, -amp, 0.0))
        s = np.abs(draws.sum(axis=1)) ** p
        chunk_pow.append(float(s.sum()))
        # merge the chunk's mean and M2 (Chan, Golub & LeVeque)
        c_mean = float(s.mean())
        delta = c_mean - mean
        mean += delta * size / (done + size)
        m2 += float(((s - c_mean) ** 2).sum()) + delta * delta * done * size / (done + size)
        done += size
    lhs = scale * (math.fsum(chunk_pow) / samples) ** (1.0 / p)
    se_mean = math.sqrt(m2 / (samples - 1) / samples)
    if mean > 0.0:
        stderr = scale * (se_mean / (p * mean ** ((p - 1.0) / p)))
    else:
        stderr = 0.0
    return RosenthalResult(
        lhs_est=lhs,
        stderr=stderr,
        rhs=rhs,
        ratio=lhs / rhs,
        samples=samples,
        seed=seed,
    )
