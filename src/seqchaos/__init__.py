"""seqchaos: ergodic averages along integer sequences, close-pair density
profiles, and mean Li-Yorke chaos experiments on explicit symbolic systems."""

__version__ = "0.1.0"

from .averaging import (
    ArcCell,
    AverageTrace,
    CylinderCell,
    EmpiricalMeasure,
    average_trace,
    cylinder_partition,
    disintegration_consistency,
    dyadic_arcs,
    empirical_measure,
    ergodic_average,
    geometric_checkpoints,
    very_good_deviation,
)
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
    LinearCombination,
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
    generate_prefix,
    is_lacunary,
    thue_morse_return_times,
    times_array,
)
from .systems import (
    GOLDEN_CONJUGATE,
    BlockScheduledPoint,
    ExtendedPoint,
    FullShift,
    NaturalExtension,
    PeriodicPoint,
    ProductSystem,
    Rotation,
    SeededRandomPoint,
    distance,
    distance_series,
    iterate,
    metric_error_bound,
    natural_extension_lift,
    project,
    sample_point,
    shift_point,
)
