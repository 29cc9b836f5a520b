"""congcert: certify infinite families of partition congruences from a
finite number of coefficient checks, discover new families by bounded
search, and cross-validate every generating function against independent
brute-force enumerators."""

from .decompose import Decomposition, GFKind, build_spec, split_AB
from .errors import (
    ComplexityGuard,
    CongcertError,
    EmptyMultiset,
    InvalidParameter,
    InvalidWindow,
    NonUnitConstantTerm,
    NoPeriodFound,
    ParseError,
    RuleValidationFailed,
    SemanticError,
    SpaceTooLarge,
    SplitFailed,
)
from .oracles import (
    count_overpartitions,
    count_partitions,
    count_partitions_max_part,
    count_partitions_multiset,
    count_plane_overpartitions,
    count_plane_overpartitions_rowed,
    count_plane_partitions,
    count_plane_partitions_rowed,
)
from .periods import (
    PartMultiset,
    PeriodInfo,
    b_ell,
    ell_free_part,
    empirical_min_period,
    kwong_period,
    m_ell,
    ord_prime,
    verify_period_prefix,
)
from .prover import (
    COUNTEREXAMPLE,
    INAPPLICABLE,
    PROVED,
    Certificate,
    CongruenceFamily,
    Plan,
    SpotCheckResult,
    certify,
    certify_all,
    default_validation_length,
    spot_check,
    validate_B_certificate,
)
from .search import SearchSpace, enumerate_candidates, search_certified
from .series import (
    BinomialFactor,
    Modulus,
    ProductSpec,
    TailFamily,
    is_prime,
    series_from_spec,
    series_mul,
)

__version__ = "0.1.0"
