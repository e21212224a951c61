"""Averaged pairwise-distance statistics of orbit tuples, and explicit
construction of finite scrambled families in full shifts.

For an n-tuple (x_1..x_n) and a time sequence {a_k}, two quantities are
tracked along a checkpoint ladder:

    max-average(N) = (1/N) sum_{k<=N} max_{i<j} d(T**(a_k) x_i, T**(a_k) x_j)
    min-average(N) = (1/N) sum_{k<=N} min_{i<j} d(T**(a_k) x_i, T**(a_k) x_j)

Each block of times is one :func:`systems.distance_series` call with the
pairs i < j as rows, so each point reads its tape once for all of its
pairs; the block's max and min over the rows are the two rows that
:func:`averaging.checkpoint_sums` sums exactly, and no array as long as
the run is built.

A tuple behaves chaotically in the mean sense when the running minimum
of the max-average (the liminf proxy) is near zero while the running
maximum of the min-average (the limsup proxy) stays above a positive
constant.  :func:`build_scrambled_family` manufactures such tuples in a
full shift by alternating coalescence phases (all points carry symbol 0
on a coordinate block covering the phase's sampling times plus the
metric window) with separation phases (point i carries constant symbol
i), and returns a certificate of per-phase bounds in exact rational
arithmetic; :func:`verify_scrambled` re-measures the averages and
checks every certified inequality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import ge, le
from typing import Sequence

import numpy as np

from . import systems as sy
from .averaging import SUM_ERROR_BOUND, checkpoint_sums
from .errors import ConfigError, DomainError, SequenceOverflowError
from .pool import parallel_map
from .prf import child_seed
from .seqgen import MAX_TERM, SequenceSpec, _validate_checkpoints, times_array
from .systems import distance_series

# ---------------------------------------------------------------------------
# tuple reports (written as their fields, in order: each is a key of result.json)


@dataclass(frozen=True)
class TupleCheckpoint:
    N: int
    max_average: float
    min_average: float


@dataclass(frozen=True)
class TupleChaosReport:
    tuple_size: int
    liminf_proxy: float  # min over checkpoints of the max-average
    limsup_proxy: float  # max over checkpoints of the min-average
    eta: float | None  # constructor's claimed lower bound for the limsup proxy
    err_bound: float
    checkpoints: tuple[TupleCheckpoint, ...]

    CSV_HEADER = ["N", "max_average", "min_average", "err_bound"]

    def csv_rows(self) -> list[list]:
        return [[c.N, c.max_average, c.min_average, self.err_bound] for c in self.checkpoints]


def tuple_distance_averages(
    system, points: Sequence, seq: SequenceSpec, checkpoints: Sequence[int], eta: float | None = None
) -> TupleChaosReport:
    """One pass over k <= max(checkpoints) recording both averages.

    The pairs' rows are built once, so their membership checks and
    toggles are found once, not once a block of times.
    """
    if len(points) < 2:
        raise DomainError("need at least two points")
    cps = _validate_checkpoints(checkpoints)
    ts = times_array(seq, cps[-1])
    xs, ys = map(sy.Rows, zip(*itertools.combinations(points, 2)))

    def extremes(lo: int, hi: int) -> np.ndarray:
        pairs = distance_series(system, xs, ys, ts[lo:hi])
        return np.stack([pairs.max(axis=0), pairs.min(axis=0)])

    highs, lows = checkpoint_sums(extremes, 2, cps)
    entries = [TupleCheckpoint(n, high / n, low / n) for n, high, low in zip(cps, highs, lows)]
    return TupleChaosReport(
        tuple_size=len(points),
        liminf_proxy=min(e.max_average for e in entries),
        limsup_proxy=max(e.min_average for e in entries),
        eta=eta,
        err_bound=sy.metric_error_bound(system) + SUM_ERROR_BOUND,
        checkpoints=tuple(entries),
    )


# ---------------------------------------------------------------------------
# scrambled families


@dataclass(frozen=True)
class ScrambledFamilyCertificate:
    """Analytic per-phase guarantees for a constructed family.

    Phases alternate starting with coalescence: phase t (1-based) ends at
    checkpoint N_t = growth**t and owns coordinates up to M_t = a_{N_t} +
    window + 1.  ``coalescence_bounds[j]`` bounds the max-average at
    N_{2j+1} from above; ``separation_bounds[j]`` bounds the min-average
    at N_{2j+2} from below, discounting the ``in_zone_counts`` sampling
    times whose metric window still overlaps the previous phase's block.
    ``c_star`` is the family's claimed lower bound for the limsup proxy.
    All bounds are exact rationals.
    """

    tuple_size: int
    alphabet_size: int
    growth: int
    phase_pairs: int
    window: int
    sequence: str
    checkpoint_indices: tuple[int, ...]  # N_1 .. N_{2J}
    sequence_at_checkpoints: tuple[int, ...]  # a_{N_1} .. a_{N_{2J}}
    coordinate_boundaries: tuple[int, ...]  # M_1 .. M_{2J}
    coalescence_bounds: tuple[Fraction, ...]
    separation_bounds: tuple[Fraction, ...]
    in_zone_counts: tuple[int, ...]
    c_star: Fraction


def _separation_zones(cert: ScrambledFamilyCertificate) -> list[tuple[int, int]]:
    """Coordinate ranges carrying the distinct per-point symbols.

    A separation phase t = 2, 4, ... writes on [M_{t-1}, a_{N_t} + 1); the rest
    stays at symbol 0, so a coalescence window never straddles into
    separation content.
    """
    ends = zip(cert.coordinate_boundaries[0::2], cert.sequence_at_checkpoints[1::2])
    return [(lo, top + 1) for lo, top in ends if top + 1 > lo]


def _family_points(cert: ScrambledFamilyCertificate) -> list[sy.BlockScheduledPoint]:
    """Point i carries symbol i on every separation zone and 0 elsewhere."""
    zones = _separation_zones(cert)
    boundaries = tuple(edge for zone in zones for edge in zone)
    return [sy.BlockScheduledPoint(boundaries, (0, *(i, 0) * len(zones)), cert.alphabet_size)
            for i in range(cert.tuple_size)]


def build_scrambled_family(
    seq: SequenceSpec,
    tuple_size: int,
    growth: int,
    phase_pairs: int,
    window: int = sy.DEFAULT_WINDOW,
    alphabet_size: int | None = None,
) -> tuple[list[sy.BlockScheduledPoint], ScrambledFamilyCertificate]:
    """Construct n block-scheduled points that are mean-chaotic along ``seq``.

    Checkpoints follow N_t = growth**t for t = 1..2*phase_pairs.  The
    sequence prefix is streamed ahead of construction and must be
    strictly increasing.
    """
    if tuple_size < 2:
        raise ConfigError("tuple_size must be >= 2")
    if growth < 2:
        raise ConfigError("growth must be >= 2")
    if phase_pairs < 1:
        raise ConfigError("phase_pairs must be >= 1")
    if window < 1:
        raise ConfigError("window must be >= 1")
    s = tuple_size if alphabet_size is None else alphabet_size
    if s < tuple_size:
        raise ConfigError("alphabet_size must be >= tuple_size")

    if 2 * phase_pairs * (growth.bit_length() - 1) >= 63 or growth ** (2 * phase_pairs) > MAX_TERM:
        raise ConfigError(f"the last checkpoint growth**{2 * phase_pairs} passes 2**63 - 1 terms")
    n_checkpoints = [growth**t for t in range(1, 2 * phase_pairs + 1)]
    n_max = n_checkpoints[-1]
    a = times_array(seq, n_max)
    if not bool(np.all(a[1:] > a[:-1])):
        raise ConfigError(f"{seq.describe()} prefix is not strictly increasing")

    a_at = [int(a[n - 1]) for n in n_checkpoints]
    if a_at[-1] > MAX_TERM - window - 1:
        raise SequenceOverflowError(n_max, "coordinate boundary would leave the 64-bit range")
    m_bounds = [v + window + 1 for v in a_at]

    tail = Fraction(1, 1 << window)
    coalescence = []
    separation = []
    in_zone = []
    for t in range(1, 2 * phase_pairs + 1):
        n_prev = 1 if t == 1 else n_checkpoints[t - 2]
        n_t = n_checkpoints[t - 1]
        if t % 2 == 1:
            coalescence.append(Fraction(n_prev, n_t) + tail)
        else:
            zone_lo = m_bounds[t - 2]
            # sampling times of the phase whose whole window sits in the zone era
            lo_idx = int(np.searchsorted(a[:n_t], zone_lo, side="left"))
            count = max(n_t - max(lo_idx, n_prev), 0)
            in_zone.append(count)
            separation.append(Fraction(count, 2 * n_t))

    cert = ScrambledFamilyCertificate(
        tuple_size=tuple_size,
        alphabet_size=s,
        growth=growth,
        phase_pairs=phase_pairs,
        window=window,
        sequence=seq.describe(),
        checkpoint_indices=tuple(n_checkpoints),
        sequence_at_checkpoints=tuple(a_at),
        coordinate_boundaries=tuple(m_bounds),
        coalescence_bounds=tuple(coalescence),
        separation_bounds=tuple(separation),
        in_zone_counts=tuple(in_zone),
        c_star=Fraction(growth - 1, 2 * growth),
    )
    return _family_points(cert), cert


@dataclass(frozen=True)
class BoundCheck:
    name: str
    claimed: str
    measured: float
    passed: bool


@dataclass(frozen=True)
class ScrambledVerification:
    passed: bool
    schedule_valid: bool
    checks: tuple[BoundCheck, ...]
    report: TupleChaosReport


def verify_scrambled(
    points: Sequence, cert: ScrambledFamilyCertificate, system: sy.FullShift, seq: SequenceSpec
) -> ScrambledVerification:
    """Measure the constructed family and check every certified bound.

    Value-level mismatches (a perturbed coordinate boundary, a bound that
    the measurements violate) are reported as failed checks, never as
    exceptions; structural mismatches (wrong point count, incompatible
    system) raise ConfigError.
    """
    if len(points) != cert.tuple_size:
        raise ConfigError("point count does not match the certificate")
    if not isinstance(system, sy.FullShift) or system.side != sy.ONE_SIDED:
        raise ConfigError("scrambled families live in one-sided full shifts")
    if system.window != cert.window:
        raise ConfigError("system metric window does not match the certificate")
    if system.alphabet_size < cert.alphabet_size:
        raise ConfigError("system alphabet too small for the certificate")
    if len(cert.checkpoint_indices) != 2 * cert.phase_pairs:
        raise ConfigError("certificate checkpoint schedule is malformed")

    a = times_array(seq, cert.checkpoint_indices[-1])
    schedule_valid = True
    checks: list[BoundCheck] = []
    for t, (n_t, m_t) in enumerate(zip(cert.checkpoint_indices, cert.coordinate_boundaries), 1):
        expected = int(a[n_t - 1]) + cert.window + 1
        ok = m_t == expected
        schedule_valid &= ok
        if not ok:
            checks.append(BoundCheck(f"schedule/M_{t}", f"{expected}", float(m_t), False))

    report = tuple_distance_averages(
        system, points, seq, cert.checkpoint_indices, eta=float(cert.c_star)
    )

    entries = report.checkpoints
    claims = [
        *((f"coalescence/{j + 1}/max_average<=B", entries[2 * j].max_average, le, bound)
          for j, bound in enumerate(cert.coalescence_bounds)),
        *((f"separation/{j + 1}/min_average>=C", entries[2 * j + 1].min_average, ge, bound)
          for j, bound in enumerate(cert.separation_bounds)),
        ("limsup_proxy>=c_star", report.limsup_proxy, ge, cert.c_star),
        ("liminf_proxy<=min_B", report.liminf_proxy, le, min(cert.coalescence_bounds)),
    ]
    checks += [BoundCheck(name, str(bound), measured, op(Fraction(measured), bound))
               for name, measured, op, bound in claims]
    passed = schedule_valid and all(c.passed for c in checks)
    return ScrambledVerification(
        passed=passed, schedule_valid=schedule_valid, checks=tuple(checks), report=report
    )


# ---------------------------------------------------------------------------
# random tuple scans


def _scan(system, seq: SequenceSpec, n_terms: int, tuples) -> list[TupleChaosReport]:
    points = ([sy.sample_point(system, s) for s in seeds] for seeds in tuples)
    return [tuple_distance_averages(system, pts, seq, [n_terms]) for pts in points]


def random_tuple_scan(
    system,
    seq: SequenceSpec,
    tuple_size: int,
    tuple_count: int,
    n_terms: int,
    seed: int,
    workers: int = 1,
) -> list[TupleChaosReport]:
    """The report at N of each of ``tuple_count`` independently sampled tuples.

    Point i of tuple t is sampled from the seed labelled
    ``tuple/{t}/point/{i}`` under ``seed``.
    """
    if tuple_size < 2:
        raise ConfigError("tuple_size must be >= 2")
    if tuple_count < 1:
        raise ConfigError("tuple_count must be >= 1")
    tuples = [
        [child_seed(seed, f"tuple/{t}/point/{i}") for i in range(tuple_size)]
        for t in range(tuple_count)
    ]
    return parallel_map(partial(_scan, system, seq, n_terms), tuples, workers=workers)
