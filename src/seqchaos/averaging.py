"""Ergodic averages along integer sequences.

The core quantity is A_N f(x) = (1/N) * sum_{k<=N} f(T**(a_k) x) for a
sequence spec {a_k}.  Every sum is exactly rounded: it is the float
math.fsum returns, bit for bit, so the average of up to 10**7 bounded
terms carries well below 1e-12 of summation error; the only other error
sources are the per-evaluation bounds the observable declares
(:meth:`Observable.error_bound`).  One routine, :func:`checkpoint_sums`,
sums every average along a sequence: it reads a block source row by row
into a row-wise superaccumulator (:class:`_RowSums`; the design follows
Neal, "Fast exact summation using small and large superaccumulators",
arXiv:1505.05571), where a block of 0/1 values (indicators) adds its
count of ones, a block on the 2**-53 grid of [0, 1] (shift distances)
its values as integers, any other block in [-1, 1] (cosines) its values
as three 26-bit fixed-point limbs, and any other block, or the bits of a
[-1, 1] block below the limbs, its mantissas per binary exponent, and
rounds each row's sum once at each checkpoint.  It is the
only summing path: an average whose observable's declared bounds, times
N, could reach 2**1020 is refused before any work, so no partial sum
overflows.

Sampled points are rows: :func:`ergodic_average` evaluates all of its
points in one :meth:`Observable.series` call per block of times, so the
PRF's counter mix and a rotation's products m * alpha are computed once
per block for every point, and no points x N array is ever built; the
tuple averages of :mod:`seqchaos.chaos` read their series in blocks too.
A single point is the length-1 case.  Each row's sum is exact, so the
averages never depend on how the points are cut into blocks or chunks,
nor on the worker count of :func:`sampled_averages`.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Sequence

import numpy as np

from . import systems as sy
from .errors import ConfigError, DomainError
from .observables import Observable
from .pool import parallel_map
from .prf import child_seed
from .seqgen import SequenceSpec, times_array

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
# Per-exponent int64 sums stay exact for this many values between folds:
# each adds less than 2**27 in magnitude.
_FOLD_EVERY = 1 << 36
# fsum's exact zero: +0.0, but an all -0.0 row may sum to -0.0 on some
# Pythons; any other zero-sum row takes +0.0 everywhere.
_NEG_ZERO_SUM = math.fsum([-0.0, -0.0])


def _is_indicator(vals: np.ndarray) -> bool:
    """True when every value is 0.0 or 1.0.  The first value is tested alone
    first, so a block of other values mostly gives up after one read."""
    return vals.item(0) in (0.0, 1.0) and (
        np.count_nonzero(vals == 1.0) + np.count_nonzero(vals == 0.0) == vals.size)


def _grid_integers(block: np.ndarray) -> np.ndarray | None:
    """2**53 * block as int64 when every value lies in [0, 1] on the 2**-53
    grid, else None.  The first column is tested alone first, so that a
    block off the grid mostly gives up after one column; the range is
    checked before the scaling, which then neither overflows nor rounds."""
    for part in (block[:, :1], block):
        if not (part.min() >= 0.0 and part.max() <= 1.0):  # NaN fails too
            return None
        scaled = part * 2.0**53
        ints = scaled.astype(np.int64)
        if not (ints == scaled).all():
            return None
    return ints


class _RowSums:
    """Exact running sums of the rows of a stream of blocks: a row-wise
    superaccumulator.

    A block that holds only 0.0 and 1.0 adds each row's count of ones.
    A block whose values all lie in [0, 1] on the 2**-53 grid (shift
    distances at windows up to 53) is the integers k = 2**53 * v, whose
    high 26 bits and low 27 bits are summed per row as int64 into the
    exponent-0 sums below (v = k * 2**-53 is m * 2**0 with 2**53 * m = k).
    A block whose values all lie in [-1, 1] is cut into limbs: three times
    the integer nearest 2**26 times what is left, each at most 2**26 in
    magnitude, so a row of at most 2**15 of them sums exactly as a float;
    the sums join the low halves at exponents 27, 1 and -25 (units of
    2**-26, 2**-52 and 2**-78).  A value of at least 2**-26 in magnitude
    has no bits below 2**-78, so only smaller ones leave a remainder,
    which is exact and is summed as any other block.
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
        grid = _grid_integers(block)
        if grid is not None:
            self._count(grid.shape[1])
            self._widen(0, 1)
            self.parts[0, :, -self.first] += (grid >> _LOW_BITS).sum(axis=1)
            self.parts[1, :, -self.first] += (grid & ((1 << _LOW_BITS) - 1)).sum(axis=1)
            return
        if block.min() >= -1.0 and block.max() <= 1.0:  # NaN fails too
            self._count(block.shape[1])
            self._widen(-25, 28)
            rest = block * 2.0**26
            limb = np.empty_like(rest)  # one buffer: a third temporary faults its pages in
            for e in (27, 1, -25):  # limbs in units of 2**-26, 2**-52, 2**-78
                np.rint(rest, out=limb)
                rest -= limb
                self.parts[1, :, e - self.first] += limb.sum(axis=1).astype(np.int64)
                rest *= 2.0**26
            if not rest.any():
                return
            block = rest * 2.0**-104  # the bits below 2**-78 of values below 2**-26
        step = max(1, _STEP_CELLS // len(block))
        for lo in range(0, block.shape[1], step):
            self._add_exact(block[:, lo : lo + step], n)

    def _count(self, columns: int) -> None:
        """Fold first if ``columns`` more values could overflow an int64 sum."""
        if self.pending + columns > _FOLD_EVERY:
            self._fold()
        self.pending += columns

    def _add_exact(self, block: np.ndarray, n: int) -> None:
        with np.errstate(over="ignore"):
            if not np.max(np.abs(block)) * n < _SAFE_SUM:  # NaN fails too
                raise DomainError("a value is not finite or could overflow the sum")
        self._count(block.shape[1])
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


def ergodic_average(
    system, points: Sequence, f: Observable, seq: SequenceSpec, n_terms: int
) -> list[float]:
    """(1/N) sum_{k=1}^{N} f(T**(a_k) x) for every x of ``points``, exactly summed.

    The points are the rows of one :meth:`Observable.series` call per
    block of times, summed by :func:`checkpoint_sums`; no points x N array
    is built.  They are wrapped as :class:`systems.Rows` once, so the
    checks that do not depend on the times run once, not once a block.
    Refused before any work when a bound of f times N reaches _SAFE_SUM.
    """
    if n_terms < 1:
        raise ConfigError("n_terms must be >= 1")
    cap = int(_SAFE_SUM) / n_terms  # int / int: no OverflowError; a NaN bound fails too
    if not all(abs(b) < cap for b in f.bounds()):
        raise ConfigError(f"{f.describe()}: bounds {f.bounds()} times {n_terms} could overflow")
    ts = times_array(seq, n_terms)
    rows = sy.Rows.of(points)
    sums = checkpoint_sums(lambda lo, hi: f.series(system, rows, ts[lo:hi]), len(rows), [n_terms])
    return [total / n_terms for (total,) in sums]


def _averages(system, f: Observable, seq: SequenceSpec, n_terms: int, points) -> list[float]:
    return ergodic_average(system, points, f, seq, n_terms)


def sampled_averages(
    system, points: Sequence, f: Observable, seq: SequenceSpec, n_terms: int, workers: int = 1
) -> list[float]:
    """A_N f(x) for every x of ``points``, in order, whatever the worker count.

    :func:`ergodic_average` takes each chunk that :func:`parallel_map`
    cuts as rows; every row's sum is exact, so no average depends on how
    the points were cut.  An empty ``points`` is refused.
    """
    if not points:
        raise ConfigError("need at least one point")
    return parallel_map(partial(_averages, system, f, seq, n_terms), points, workers=workers)


def sample_points(system, seed: int, count: int) -> list:
    """The points of ``system`` sampled from the seeds labelled ``sample/{j}``,
    j < count, under ``seed``."""
    return [sy.sample_point(system, child_seed(seed, f"sample/{j}")) for j in range(count)]


def _integral(system, f: Observable) -> float:
    target = f.integral(system)
    if target is None:
        raise ConfigError(f"observable {f.describe()} declares no exact integral")
    return target


def max_deviation(
    system, points: Sequence, f: Observable, seq: SequenceSpec, n_terms: int, workers: int = 1
) -> float:
    """max over ``points`` of |A_N f(x) - integral(f)|."""
    target = _integral(system, f)
    averages = sampled_averages(system, points, f, seq, n_terms, workers)
    return max(abs(a - target) for a in averages)


def disintegration_consistency(
    system, points: Sequence, f: Observable, seq: SequenceSpec, n_terms: int, workers: int = 1
) -> float:
    """|mean_j A_N f(x_j) - integral(f)| over the sampled ``points``.

    Monte-Carlo form of the identity that averaging the per-point limits
    against the invariant measure recovers the space average.
    """
    target = _integral(system, f)
    averages = sampled_averages(system, points, f, seq, n_terms, workers)
    return abs(math.fsum(averages) / len(points) - target)
