"""Partition-weight norms on sparse vectors: evaluation, envelopes,
classification, and reproducible experiments."""

from .envelope import (
    Assignment,
    DistortionReport,
    EnvelopeCheck,
    SubsetResult,
    distortion_certificate,
    envelope_lower_bound,
    envelope_norm_exact,
    has_envelope_property,
    refine,
    xp_envelope_subset,
)
from .errors import (
    ArityError,
    CapacityError,
    NormOverflowError,
    ParseError,
    PwnormError,
    SupportError,
    UndecidableWeightError,
    ValidationError,
)
from .experiments import (
    RosenthalResult,
    YnParams,
    YnReport,
    rosenthal_mc,
    yn_default_params,
    yn_report,
    yn_sums,
    yn_witness,
)
from .families import (
    EnvelopeMembers,
    ExplicitMembers,
    ExtendedMembers,
    Family,
    SubsetLattice,
    SumMembers,
    TensorMembers,
    indiscrete_weight,
    is_admissible,
    restrict_family,
)
from .config import parse_config, print_config, build_space, build_weight
from .norms import NormResult, family_norm, pair_norm
from .partitions import (
    CoordinateGrouping,
    Discrete,
    Indiscrete,
    PairGrouping,
    PairPW,
    RestrictedPair,
    RestrictedPartition,
    restrict_pair,
)
from .spaces import (
    Classification,
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
from .vectors import ConstantBlock, SparseVector, unit_vector
from .weights import (
    Constant,
    CoordinateLift,
    Explicit,
    Geometric,
    Interleave,
    Min,
    One,
    PowerDecay,
    Product,
    TailQueries,
    Weight,
    symbolic_tail_queries,
)

__version__ = "0.1.0"
