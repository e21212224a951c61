"""seqchaos: ergodic averages along integer sequences, close-pair density
profiles, and mean Li-Yorke chaos experiments on explicit symbolic systems."""

__version__ = "0.1.0"

from .averaging import disintegration_consistency, ergodic_average, max_deviation
from .chaos import (
    ScrambledFamilyCertificate,
    ScrambledVerification,
    TupleChaosReport,
    build_scrambled_family,
    random_tuple_scan,
    tuple_distance_averages,
    verify_scrambled,
)
from .errors import ConfigError, DomainError, SequenceOverflowError
from .observables import (
    Constant,
    CylinderIndicator,
    Observable,
    ProductOf,
    TrigOnRotation,
)
from .pinsker import (
    FiberReport,
    LacunaryContrastReport,
    fiber_constancy_report,
    kolmogorov_limit_check,
    lacunary_contrast_report,
    lacunary_dispersion_contrast,
)
from .seqgen import (
    MAX_TERM,
    ClosePairProfile,
    SequenceSpec,
    close_pair_count,
    close_pair_profile,
    times_array,
)
from .systems import (
    GOLDEN_CONJUGATE,
    BlockScheduledPoint,
    FullShift,
    PeriodicPoint,
    ProductSystem,
    Rotation,
    SeededRandomPoint,
    distance,
    distance_series,
    metric_error_bound,
    sample_point,
)
