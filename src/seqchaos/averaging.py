"""Ergodic averages along integer sequences.

The core quantity is A_N f(x) = (1/N) * sum_{k<=N} f(T**(a_k) x) for a
sequence spec {a_k}.  Every sum is exactly rounded: it is the float
math.fsum returns, bit for bit, so the average of up to 10**7 bounded
terms carries well below 1e-12 of summation error; the only other error
sources are the declared per-evaluation bounds of the observable, and
they are reported on every trace.  One routine, :func:`checkpoint_sums`,
sums every average along a sequence: it reads a block source row by row
into a row-wise superaccumulator (:class:`_RowSums`; the design follows
Neal, "Fast exact summation using small and large superaccumulators",
arXiv:1505.05571), where a block of 0/1 values (indicators) adds its
count of ones and any other block its mantissas per binary exponent, and
rounds each row's sum once at each checkpoint.  It is the only summing
path: an average whose observable's declared bounds, times N, could
reach 2**1020 is refused before any work, so no partial sum overflows.

Sampled points are rows: :func:`ergodic_average` evaluates all of its
points in one :meth:`Observable.series` call per block of times, so the
PRF's counter mix and a rotation's products m * alpha are computed once
per block for every point, and no points x N array is ever built;
:func:`average_trace` and the tuple averages of :mod:`seqchaos.chaos`
read their series in blocks too.  A single point is the length-1 case.
Each row's sum is exact, so the averages never depend on how the points
are cut into blocks or chunks, nor on the worker count of
:func:`sampled_averages`.

Checkpointed traces record running extrema across the checkpoint
ladder; the running minimum and maximum at the final checkpoint are the
finite-N stand-ins for liminf / limsup of the averages.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import systems as sy
from .errors import ConfigError, DomainError
from .observables import CylinderIndicator, Observable
from .pool import parallel_map
from .prf import MASK64, child_seed
from .seqgen import SequenceSpec, _validate_checkpoints, times_array

SUM_ERROR_BOUND = 2.0**-50  # sums are exactly rounded; this is a generous blanket


# Cells (rows x values) per step of the superaccumulator on a block that
# is not 0/1, and per block that :func:`checkpoint_sums` asks of its
# source.  Steps and blocks keep their temporaries in cache.  Blocks of
# 2**16 cells and more, or steps as large as them, measured slower on
# Linux/glibc: their temporaries pass the heap-trim threshold, so every
# block faults its pages in again.
_STEP_CELLS = 1 << 14
_CELLS = 1 << 15

# frexp writes a finite float as m * 2**e with 2**53 * m an integer and
# -1073 <= e <= 1024, so every float is an integer number of 2**-1126.
_UNIT_BITS = 1126
_LOW_BITS = 27
_ROUNDER = 1.5 * 2.0**52  # x + _ROUNDER - _ROUNDER rounds |x| < 2**51 to an integer
# Below this, n * max|x| bounds every partial sum of fsum as well as the
# total, so neither can overflow and the total divides into a finite float.
_SAFE_SUM = 2.0**1020
# Per-exponent int64 sums stay exact for this many values between folds.
_FOLD_EVERY = 1 << 36
# fsum's exact zero: +0.0, but an all -0.0 row may sum to -0.0 on some
# Pythons; any other zero-sum row takes +0.0 everywhere.
_NEG_ZERO_SUM = math.fsum([-0.0, -0.0])


def _is_indicator(vals: np.ndarray) -> bool:
    """True when every value is 0.0 or 1.0."""
    return np.count_nonzero(vals == 1.0) + np.count_nonzero(vals == 0.0) == vals.size


class _RowSums:
    """Exact running sums of the rows of a stream of blocks: a row-wise
    superaccumulator.

    A block that holds only 0.0 and 1.0 adds each row's count of ones.
    In any other block each mantissa, scaled to a 53-bit integer and
    split into a high half of 26 bits and a low half of 27, is summed per
    row and binary exponent by ``np.bincount``, in steps of at most
    _STEP_CELLS cells, exactly: a row's partial sums over a step need
    fewer than 53 bits.  The int64 per-exponent sums ``parts`` (high and
    low) cover only the exponents ``first``, ``first + 1``, ... seen so
    far, and widen when a block brings new ones.  :meth:`totals` folds
    every row into one int in units of 2**-1126.  A block that holds a
    non-finite value, or where n * max|x| reaches _SAFE_SUM, raises
    :class:`DomainError`: its values break the bounds that were checked
    before the sum began.  ``neg_zero`` stays set on a row while every value
    added to it is -0.0, the one case where fsum's zero may be -0.0; it is
    checked only while some row still has it.
    """

    def __init__(self, rows: int):
        self.ones = np.zeros(rows, dtype=np.int64)
        self.parts = np.zeros((2, rows, 0), dtype=np.int64)
        self.first = 0
        self.neg_zero = np.ones(rows, dtype=bool)
        self.folded = [0] * rows
        self.pending = 0

    def add(self, block: np.ndarray, n: int) -> None:
        """Add the next columns of every row; no row holds more than n values."""
        if self.neg_zero.any():
            self.neg_zero &= ((block == 0.0) & np.signbit(block)).all(axis=1)
        if _is_indicator(block):
            self.ones += block.sum(axis=1).astype(np.int64)  # exact: below 2**53 ones
            return
        step = max(1, _STEP_CELLS // len(block))
        for lo in range(0, block.shape[1], step):
            self._add_exact(block[:, lo : lo + step], n)

    def _add_exact(self, block: np.ndarray, n: int) -> None:
        with np.errstate(over="ignore"):
            if not np.max(np.abs(block)) * n < _SAFE_SUM:  # NaN fails too
                raise DomainError("a value is not finite or could overflow the sum")
        if self.pending + block.shape[1] > _FOLD_EVERY:
            self._fold()
        self.pending += block.shape[1]
        mantissas, exponents = np.frexp(block)
        self._widen(int(exponents.min()), int(exponents.max()) + 1)
        rows, width = self.parts.shape[1:]
        bins = exponents.astype(np.intp)
        bins += (np.arange(rows) * width - self.first)[:, None]
        # 2**53 * m = 2**27 * h + 2**27 * t: h the integer nearest
        # 2**26 * m (26 bits and a sign), t the rest, a multiple of
        # 2**-27 in [-1/2, 1/2]; every step is exact
        rest = mantissas * 2.0**26
        nearest = rest + _ROUNDER
        nearest -= _ROUNDER
        rest -= nearest
        high = np.bincount(bins.ravel(), nearest.ravel(), rows * width)
        low = np.bincount(bins.ravel(), rest.ravel(), rows * width) * 2.0**_LOW_BITS
        self.parts[0] += high.reshape(rows, width).astype(np.int64)
        self.parts[1] += low.reshape(rows, width).astype(np.int64)

    def _widen(self, lo: int, hi: int) -> None:
        """Make ``parts`` cover the exponents lo <= e < hi too."""
        width = self.parts.shape[2]
        if width:
            lo, hi = min(lo, self.first), max(hi, self.first + width)
        if hi - lo > width:
            parts = np.zeros(self.parts.shape[:2] + (hi - lo,), dtype=np.int64)
            parts[:, :, self.first - lo : self.first - lo + width] = self.parts
            self.parts, self.first = parts, lo

    def _fold(self) -> None:
        exps = np.flatnonzero(self.parts.any(axis=(0, 1)))
        # m * 2**e is the integer 2**53 * m in units of 2**(e - 53)
        shifts = (exps + self.first + _UNIT_BITS - 53).tolist()
        highs, lows = self.parts[:, :, exps].tolist()
        for r, (hs, ls) in enumerate(zip(highs, lows)):
            for e, h, lo in zip(shifts, hs, ls):
                self.folded[r] += ((h << _LOW_BITS) + lo) << e
        self.parts[:] = 0
        self.pending = 0

    def totals(self) -> list[int]:
        """Every row's exact sum so far, in units of 2**-1126."""
        self._fold()
        return [t + (k << _UNIT_BITS) for t, k in zip(self.folded, self.ones.tolist())]


def checkpoint_sums(block, rows: int, ends: Sequence[int]) -> list[list[float]]:
    """Every row's exactly rounded sum at each of the increasing ``ends``.

    ``block(lo, hi)`` gives columns lo..hi-1 of every row as a rows x
    (hi - lo) array.  The columns go once through :class:`_RowSums`, in
    blocks of about _CELLS cells cut at every end, so no source is ever
    held whole.  At each end n CPython's correctly rounded int division
    turns a row's exact sum into the float ``math.fsum`` returns, bit for
    bit; an exact sum of 0 is fsum's -0.0 sum on a row of -0.0 only, and
    +0.0 otherwise.  A non-finite value, or one whose magnitude times
    ends[-1] reaches _SAFE_SUM, raises :class:`DomainError`.  Returns one
    list of sums per row.
    """
    acc = _RowSums(rows)
    step = max(1, _CELLS // max(1, rows))
    sums: list[list[float]] = [[] for _ in range(rows)]
    start = 0
    for n in ends:
        for lo in range(start, n, step):
            acc.add(block(lo, min(lo + step, n)), ends[-1])
        start = n
        for row, total, neg_zero in zip(sums, acc.totals(), acc.neg_zero.tolist()):
            if total:
                row.append(total / (1 << _UNIT_BITS))
            else:
                row.append(_NEG_ZERO_SUM if neg_zero else 0.0)
    return sums


def _sums(system, points: Sequence, f: Observable, seq: SequenceSpec, ends: Sequence[int]):
    """:func:`checkpoint_sums` of f along ``seq``, the points as rows; refused
    before any work when a bound of f times the last end reaches _SAFE_SUM."""
    cap = int(_SAFE_SUM) / ends[-1]  # int / int: no OverflowError; a NaN bound fails too
    if not all(abs(b) < cap for b in f.bounds()):
        raise ConfigError(f"{f.describe()}: bounds {f.bounds()} times {ends[-1]} could overflow")
    ts = times_array(seq, ends[-1])
    return checkpoint_sums(lambda lo, hi: f.series(system, points, ts[lo:hi]), len(points), ends)


def geometric_checkpoints(start: int, stop: int, factor: int = 2) -> list[int]:
    """start, start*factor, ... capped at stop (stop always included)."""
    if start < 1 or factor < 2 or stop < start:
        raise ConfigError("need 1 <= start <= stop and factor >= 2")
    out = []
    n = start
    while n < stop:
        out.append(n)
        n *= factor
    out.append(stop)
    return out


def ergodic_average(
    system, points: Sequence, f: Observable, seq: SequenceSpec, n_terms: int
) -> list[float]:
    """(1/N) sum_{k=1}^{N} f(T**(a_k) x) for every x of ``points``, exactly summed.

    The points are the rows of one :meth:`Observable.series` call per
    block of times, summed by :func:`checkpoint_sums`; no points x N array
    is built.
    """
    if n_terms < 1:
        raise ConfigError("n_terms must be >= 1")
    return [total / n_terms for (total,) in _sums(system, points, f, seq, [n_terms])]


@dataclass(frozen=True)
class TraceCheckpoint:
    n: int
    value: float
    running_min: float
    running_max: float


@dataclass(frozen=True)
class AverageTrace:
    sequence: str
    point: str
    observable: str
    checkpoints: tuple[TraceCheckpoint, ...]
    err_bound: float

    @property
    def liminf_proxy(self) -> float:
        return self.checkpoints[-1].running_min

    @property
    def limsup_proxy(self) -> float:
        return self.checkpoints[-1].running_max

    def csv_rows(self) -> list[list]:
        return [
            [c.n, c.value, c.running_min, c.running_max, self.err_bound]
            for c in self.checkpoints
        ]

    CSV_HEADER = ["N", "value", "running_min", "running_max", "err_bound"]

    def to_json_dict(self) -> dict:
        return {
            "sequence": self.sequence,
            "point": self.point,
            "observable": self.observable,
            "err_bound": self.err_bound,
            "checkpoints": [
                {
                    "N": c.n,
                    "value": c.value,
                    "running_min": c.running_min,
                    "running_max": c.running_max,
                }
                for c in self.checkpoints
            ],
        }


def average_trace(
    system, x, f: Observable, seq: SequenceSpec, checkpoints: Sequence[int]
) -> AverageTrace:
    """Single pass producing A_N at each checkpoint plus running extrema.

    The value at each checkpoint equals a fresh :func:`ergodic_average`
    at the same N to the last bit (same values, same exact summation).
    """
    cps = _validate_checkpoints(checkpoints)
    (sums,) = _sums(system, [x], f, seq, cps)
    entries = []
    run_min = math.inf
    run_max = -math.inf
    for n, total in zip(cps, sums):
        a = total / n
        run_min = min(run_min, a)
        run_max = max(run_max, a)
        entries.append(TraceCheckpoint(n, a, run_min, run_max))
    try:
        point_desc = x.describe()
    except AttributeError:
        point_desc = repr(x) if not isinstance(x, int) else f"fraction:0x{x:032x}"
    return AverageTrace(
        sequence=seq.describe(),
        point=point_desc,
        observable=f.describe(),
        checkpoints=tuple(entries),
        err_bound=f.error_bound() + SUM_ERROR_BOUND,
    )


def _averages(system, f: Observable, seq: SequenceSpec, n_terms: int, points) -> list[float]:
    return ergodic_average(system, points, f, seq, n_terms)


def sampled_averages(
    system, points: Sequence, f: Observable, seq: SequenceSpec, n_terms: int, workers: int = 1
) -> list[float]:
    """A_N f(x) for every x of ``points``, in order, whatever the worker count.

    :func:`ergodic_average` takes each chunk that :func:`parallel_map`
    cuts as rows; every row's sum is exact, so no average depends on how
    the points were cut.
    """
    return parallel_map(partial(_averages, system, f, seq, n_terms), points, workers=workers)


def sample_seeds(seed: int, count: int) -> list[int]:
    """The seeds labelled ``sample/{j}``, j < count, under ``seed``."""
    return [child_seed(seed, f"sample/{j}") for j in range(count)]


def _integral(system, f: Observable) -> float:
    target = f.integral(system)
    if target is None:
        raise ConfigError(f"observable {f.describe()} declares no exact integral")
    return target


def very_good_deviation(
    system,
    seeds: Sequence[int],
    f: Observable,
    seq: SequenceSpec,
    n_terms: int,
    workers: int = 1,
) -> float:
    """max over sampled points of |A_N f(x) - integral(f)|."""
    target = _integral(system, f)
    points = [sy.sample_point(system, s) for s in seeds]
    averages = sampled_averages(system, points, f, seq, n_terms, workers)
    return max(abs(a - target) for a in averages)


def disintegration_consistency(
    system,
    f: Observable,
    seq: SequenceSpec,
    n_terms: int,
    sample_count: int,
    seed: int,
    workers: int = 1,
) -> float:
    """|mean_j A_N f(x_j) - integral(f)| over sample_count sampled points.

    Monte-Carlo form of the identity that averaging the per-point limits
    against the invariant measure recovers the space average.
    """
    target = _integral(system, f)
    if sample_count < 1:
        raise ConfigError("sample_count must be >= 1")
    points = [sy.sample_point(system, s) for s in sample_seeds(seed, sample_count)]
    averages = sampled_averages(system, points, f, seq, n_terms, workers)
    return abs(math.fsum(averages) / sample_count - target)


# ---------------------------------------------------------------------------
# empirical measures


@dataclass(frozen=True)
class CylinderCell:
    constraints: tuple[tuple[int, int], ...]

    def describe(self) -> str:
        return "cyl[" + ";".join(f"{c}:{s}" for c, s in self.constraints) + "]"


@dataclass(frozen=True)
class ArcCell:
    """Half-open arc [lo, hi) on the 2**-128 circle grid."""

    lo: int
    hi: int

    def __post_init__(self):
        if not (0 <= self.lo < self.hi <= sy.FRACTION_MOD):
            raise ConfigError("arc must satisfy 0 <= lo < hi <= 1")

    def describe(self) -> str:
        return f"arc[{self.lo / sy.FRACTION_MOD:.6g};{self.hi / sy.FRACTION_MOD:.6g})"


def dyadic_arcs(level: int) -> list[ArcCell]:
    """The 2**level equal dyadic arcs tiling the circle."""
    if level < 0 or level > 60:
        raise ConfigError("level must be in [0, 60]")
    step = sy.FRACTION_MOD >> level
    return [ArcCell(i * step, (i + 1) * step) for i in range(1 << level)]


def cylinder_partition(alphabet_size: int, coordinates: Sequence[int]) -> list[CylinderCell]:
    """All symbol patterns over the given coordinates (a genuine partition)."""
    coords = tuple(coordinates)
    cells = [CylinderCell(())]
    for c in coords:
        cells = [
            CylinderCell(cell.constraints + ((c, s),))
            for cell in cells
            for s in range(alphabet_size)
        ]
    return cells


@dataclass(frozen=True)
class EmpiricalMeasure:
    cells: tuple[str, ...]
    counts: tuple[int, ...]
    total: int

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(c / self.total for c in self.counts)

    CSV_HEADER = ["cell", "count", "weight"]

    def csv_rows(self) -> list[list]:
        return [[c, k, k / self.total] for c, k in zip(self.cells, self.counts)]

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "cells": list(self.cells),
            "counts": list(self.counts),
            "weights": list(self.weights),
        }


def _validate_partition(system, cells: Sequence) -> None:
    if not cells:
        raise ConfigError("partition must be non-empty")
    kinds = {type(c) for c in cells}
    if len(kinds) != 1:
        raise ConfigError("partition cells must all be of the same kind")
    if isinstance(cells[0], ArcCell):
        if not isinstance(system, sy.Rotation):
            raise DomainError("arc cells partition rotation spaces")
        ordered = sorted(cells, key=lambda c: c.lo)
        if ordered[0].lo != 0 or ordered[-1].hi != sy.FRACTION_MOD:
            raise ConfigError("arcs must tile the full circle")
        for a, b in zip(ordered, ordered[1:]):
            if a.hi > b.lo:
                raise ConfigError("arcs overlap")
            if a.hi < b.lo:
                raise ConfigError("arcs leave a gap")
    elif isinstance(cells[0], CylinderCell):
        if not isinstance(system, sy.FullShift):
            raise DomainError("cylinder cells partition shift spaces")
        coord_sets = {tuple(sorted(c for c, _ in cell.constraints)) for cell in cells}
        if len(coord_sets) != 1:
            raise ConfigError("cylinder cells must share one coordinate set")
        coords = next(iter(coord_sets))
        if any(not 0 <= s < system.alphabet_size for cell in cells for _, s in cell.constraints):
            raise ConfigError("cylinder symbol outside the alphabet")
        expected = system.alphabet_size ** len(coords)
        patterns = {tuple(sorted(cell.constraints)) for cell in cells}
        if len(patterns) != len(cells):
            raise ConfigError("duplicate cylinder cells")
        if len(cells) != expected:
            raise ConfigError(
                f"cylinder partition over coordinates {coords} needs {expected} cells"
            )
    else:
        raise ConfigError(f"unknown cell type {type(cells[0]).__name__}")


def _arc_visits(starts: list[int], alpha_num: int, x: int, ts: np.ndarray) -> np.ndarray:
    """Visit counts of the orbit points in the arcs with sorted ``starts``.

    A point v lies in arc j = #{starts <= v} - 1, compared exactly as
    128-bit (hi, lo) words: starts whose high word is below v's all count,
    and among those sharing v's high word (sorted by low word) the ones
    with low word <= v's count too.
    """
    starts_hi = np.array([s >> 64 for s in starts], dtype=np.uint64)
    starts_lo = np.array([s & MASK64 for s in starts], dtype=np.uint64)
    widest_tie = max(Counter(starts_hi.tolist()).values())
    last = len(starts) - 1
    visits = np.zeros(len(starts), dtype=np.int64)
    for _, hi, lo in sy.rotation_grid(alpha_num, x, ts):
        first = np.searchsorted(starts_hi, hi, side="left")
        end = np.searchsorted(starts_hi, hi, side="right")
        arc = first - 1
        for j in range(widest_tie):
            k = first + j
            arc += (k < end) & (starts_lo[np.minimum(k, last)] <= lo)
        visits += np.bincount(arc, minlength=len(starts))
    return visits


def empirical_measure(
    system, x, partition: Sequence, seq: SequenceSpec, n_terms: int
) -> EmpiricalMeasure:
    """Visit frequencies of T**(a_k) x across the partition cells, k <= N.

    Membership tests are exact: symbol comparisons for cylinders, full
    128-bit grid comparisons for arcs.
    """
    _validate_partition(system, partition)
    if n_terms < 1:
        raise ConfigError("n_terms must be >= 1")
    ts = times_array(seq, n_terms)
    counts = [0] * len(partition)
    if isinstance(partition[0], ArcCell):
        ordered = sorted(range(len(partition)), key=lambda i: partition[i].lo)
        visits = _arc_visits([partition[i].lo for i in ordered], system.alpha_num, x, ts)
        for i, v in zip(ordered, visits.tolist()):
            counts[i] = v
    else:
        for i, cell in enumerate(partition):
            inside = CylinderIndicator(cell.constraints).series(system, [x], ts)
            counts[i] = int(np.count_nonzero(inside))
    return EmpiricalMeasure(
        cells=tuple(c.describe() for c in partition),
        counts=tuple(counts),
        total=n_terms,
    )
