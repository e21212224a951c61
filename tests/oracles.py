"""Scalar oracles: the metric and the coordinate reads written per class,
one coordinate at a time, independent of the vectorized code under test;
the action T**m on one point; the ergodic average of one point at a
time; and a sequence prefix as a list of ints, freshly generated.

Also the test-only point kinds and observable that the library does not
ship: shifted views of a point, two-sided tapes joined from two one-sided
points, their one-sided components, and linear combinations of
observables.  They define only ``_read`` (or ``series``), so the library
reads them through its general paths."""

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

import seqchaos.systems as sy
from seqchaos.errors import ConfigError, DomainError
from seqchaos.observables import Observable
from seqchaos.prf import prf64
from seqchaos.seqgen import _prefix, times_array


@dataclass(frozen=True)
class ShiftedPoint(sy.SymbolicPoint):
    base: sy.SymbolicPoint
    offset: int

    @property
    def alphabet_size(self) -> int:
        return self.base.alphabet_size

    @property
    def side(self) -> str:
        return self.base.side

    def _read(self, idx: np.ndarray) -> np.ndarray:
        return self.base.coordinates(sy._offset(idx, self.offset))


def shift_point(point, offset):
    """Shifted view of a point; nested shifts collapse to one offset, and
    shifts that cancel give the point back."""
    if point.side == sy.ONE_SIDED and offset < 0:
        raise DomainError("cannot shift a one-sided point backwards")
    if isinstance(point, ShiftedPoint):
        point, offset = point.base, point.offset + offset
    return point if offset == 0 else ShiftedPoint(point, offset)


@dataclass(frozen=True)
class ExtendedPoint(sy.SymbolicPoint):
    """A two-sided tape: the one-sided ``base`` on coordinates >= 0 and the
    one-sided ``past`` on negative ones (past index 0 is coordinate -1)."""

    base: sy.SymbolicPoint
    past: sy.SymbolicPoint
    side = sy.TWO_SIDED

    @property
    def alphabet_size(self) -> int:
        return self.base.alphabet_size

    def _read(self, idx: np.ndarray) -> np.ndarray:
        out = np.empty(idx.shape, dtype=np.int64)
        ahead = idx >= 0
        for mask, point, jj in ((ahead, self.base, idx), (~ahead, self.past, -1 - idx)):
            if mask.any():
                out[mask] = point.coordinates(jj[mask])
        return out


@dataclass(frozen=True)
class TapeView(sy.SymbolicPoint):
    ext: sy.SymbolicPoint  # two-sided
    depth: int
    side: str = sy.ONE_SIDED

    @property
    def alphabet_size(self) -> int:
        return self.ext.alphabet_size

    def _read(self, idx: np.ndarray) -> np.ndarray:
        return self.ext.coordinates(sy._offset(idx, 1 - self.depth))


def component(ext, depth):
    """The one-sided point x_depth (depth >= 1) of the backward orbit of the
    two-sided point ``ext``."""
    if depth < 1:
        raise DomainError("component depth starts at 1")
    return TapeView(ext, depth)


@dataclass(frozen=True)
class LinearCombination(Observable):
    """sum of coef * observable, to exercise linearity and the averaging engine."""

    parts: tuple[tuple[float, Observable], ...]

    def series(self, system, points, times) -> np.ndarray:
        out = np.zeros((len(points), len(times)), dtype=np.float64)
        for c, f in self.parts:
            out += c * f.series(system, points, times)
        return out

    def integral(self, system) -> float | None:
        vals = [f.integral(system) for _, f in self.parts]
        if any(v is None for v in vals):
            return None
        return math.fsum(c * v for (c, _), v in zip(self.parts, vals))

    def bounds(self) -> tuple[float, float]:
        lo = hi = 0.0
        for c, f in self.parts:
            a, b = f.bounds()
            pa, pb = c * a, c * b
            lo += min(pa, pb)
            hi += max(pa, pb)
        return lo, hi

    def error_bound(self) -> float:
        return math.fsum(abs(c) * f.error_bound() for c, f in self.parts) + 2.0**-50

    def describe(self) -> str:
        return " + ".join(f"{c}*{f.describe()}" for c, f in self.parts)


def iterate(system, point, m):
    """T**m applied to ``point``, in O(polylog m)."""
    if m < 0 and getattr(system, "side", None) == sy.ONE_SIDED:
        raise DomainError("negative iteration on a non-invertible system")
    if isinstance(system, sy.FullShift):
        if getattr(point, "side", None) != system.side:
            raise DomainError("point side does not match the shift")
        return shift_point(point, m)
    if isinstance(system, sy.Rotation):
        return (point + m * system.alpha_num) % sy.FRACTION_MOD
    if isinstance(system, sy.ProductSystem):
        if len(point) != len(system.components):
            raise DomainError("component count mismatch")
        return tuple(iterate(c, x, m) for c, x in zip(system.components, point))
    raise ConfigError(f"unknown system {system!r}")


@lru_cache(maxsize=None)
def oracle_separators(weights):
    cum, seps = Fraction(0), []
    for w in weights[:-1]:
        cum += w
        seps.append((cum.numerator << 64) // cum.denominator)
    return tuple(seps)


def oracle_coordinate(point, i):
    if point.side == sy.ONE_SIDED and i < 0:
        raise DomainError("negative coordinate")
    if isinstance(point, sy.PeriodicPoint):
        return point.word[i % len(point.word)]
    if isinstance(point, sy.SeededRandomPoint):
        return bisect_right(oracle_separators(point.weights), prf64(point.seed, i))
    if isinstance(point, sy.BlockScheduledPoint):
        c = point.contents[bisect_right(point.boundaries, i)]
        return c if isinstance(c, int) else oracle_coordinate(c, i)
    if isinstance(point, ShiftedPoint):
        return oracle_coordinate(point.base, i + point.offset)
    if isinstance(point, ExtendedPoint):
        return oracle_tape(point, i)
    assert isinstance(point, TapeView)
    return oracle_coordinate(point.ext, i - (point.depth - 1))


def oracle_tape(ext, j):
    return oracle_coordinate(ext.base, j) if j >= 0 else oracle_coordinate(ext.past, -1 - j)


def oracle_shift_distance(x, y, window, side):
    if side == sy.ONE_SIDED:
        return math.fsum(
            2.0 ** (-(i + 1))
            for i in range(window)
            if oracle_coordinate(x, i) != oracle_coordinate(y, i)
        )
    parts = [0.5] if oracle_coordinate(x, 0) != oracle_coordinate(y, 0) else []
    for i in range(1, window):
        for j in (i, -i):
            if oracle_coordinate(x, j) != oracle_coordinate(y, j):
                parts.append(2.0 ** (-(i + 1)))
    return math.fsum(parts) / 2.0


def oracle_distance(system, x, y):
    if isinstance(system, sy.FullShift):
        return oracle_shift_distance(x, y, system.window, system.side)
    if isinstance(system, sy.Rotation):
        delta = abs(x - y)
        return min(delta, sy.FRACTION_MOD - delta) / sy.FRACTION_MOD
    if isinstance(system, sy.ProductSystem):
        return max(oracle_distance(c, xc, yc) for c, xc, yc in zip(system.components, x, y))
    raise ConfigError(f"unknown system {system!r}")


def oracle_series(system, x, y, times):
    """The oracle distance of the iterates T**m x, T**m y at every time m."""
    return [
        oracle_distance(system, iterate(system, x, int(m)), iterate(system, y, int(m)))
        for m in times
    ]


def generate_prefix(spec, count):
    """First ``count`` terms a_1..a_count as ints, generated again on every
    call, outside the ``times_array`` cache."""
    return _prefix(spec, count).tolist()


def oracle_average(system, x, f, seq, n_terms):
    """A_N f(x) of one point: its whole series at once, summed by fsum."""
    vals = f.series(system, [x], times_array(seq, n_terms))[0]
    return math.fsum(vals) / n_terms
