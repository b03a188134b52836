"""recdiff: exact counting and certified growth analysis for differences of
integer linear recurrence sequences U_n - V_m."""

from .asymptotics import (
    AsymptoticReport,
    LemmaCheckResult,
    LowerBoundGrid,
    auxiliary_inequality_check,
    lower_bound_grid,
    main_term,
    main_term_value,
    ratio_table,
)
from .counting import (
    CollisionRecord,
    CollisionScan,
    CountResult,
    RealPowerCount,
    brute_force_oracle,
    count_T_S,
    count_real_power_pairs,
    find_collisions,
)
from .errors import (
    CutoffUnsafe,
    InvalidBelowThreshold,
    InvalidParameters,
    InvalidRecurrence,
    MalformedConfig,
    NoDominantRoot,
    PrecisionExhausted,
    RecdiffError,
    RootNotLargerThanOne,
    UnsupportedDegree,
)
from .heights import (
    AlgebraicNumber,
    HeightProbeResult,
    height_constant_probe,
    log_height,
)
from .independence import IndependenceResult, multiplicative_independence
from .matveev import (
    EffectiveBounds,
    LinearFormSample,
    MatveevInput,
    effective_upper_bounds,
    lambda_value,
    matveev_lower_bound,
)
from .quadratic import QuadraticElement, quadratic_roots
from .recurrences import (
    BUILTIN_SEQUENCES,
    LinearRecurrence,
    load_sequence,
    parse_sequence_config,
    serialize_sequence_config,
)
from .spectral import (
    BinetDecomposition,
    CharacteristicSpectrum,
    DominantRootCertificate,
    GrowthEnvelope,
    SequenceAnalysis,
    analyze_sequence,
)

__version__ = "0.1.0"
