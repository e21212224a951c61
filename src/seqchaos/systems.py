"""Explicitly computable dynamical systems.

Phase spaces come in four kinds:

* full shifts over a finite alphabet with a Bernoulli measure, whose
  points are lazy symbol tapes with O(1) coordinate access (periodic,
  counter-PRF-seeded, or block-scheduled).  Each point kind defines one
  vectorized read, ``coordinates(indices)``; a single ``coordinate(i)``
  is its length-1 case;
* circle rotations stored as exact 128-bit binary fractions, iterated
  by exact modular arithmetic so that T**m at m up to 2**63 loses no
  precision;
* finite products of the above;
* natural extensions of one-sided full shifts (two-sided tapes whose
  negative coordinates are filled by a seeded past rule).

Iteration at time m costs O(polylog m): shifts return a shifted view,
rotations a single multiply-reduce.  Every metric is truncated at a
configurable coordinate window ``w`` and the truncation error bound
(2**-w style) is available alongside via :func:`metric_error_bound`.
:func:`distance_series` evaluates d(T**m x, T**m y) for a list of pairs
(x, y), one row each, and a whole array of times without iterating: a
shift-type metric is one reduction of the windows of a difference tape,
and each distinct point reads its tape once for all of its pairs.
:func:`distance` is the one-pair, one-time case.

Nothing here mutates after construction; points and systems are safe to
share across any number of workers.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DomainError, SequenceOverflowError
from .prf import MASK64, child_seed, prf64, prf64_np

ONE_SIDED = "one_sided"
TWO_SIDED = "two_sided"

FRACTION_BITS = 128
FRACTION_MOD = 1 << FRACTION_BITS
_INT64 = range(-(1 << 63), 1 << 63)

DEFAULT_WINDOW = 48
# Widest metric window.  Up to 53 coordinates the one-sided window distance,
# a sum of distinct powers 2**-(i+1), is exact in float64, so the windowed
# distance series and :func:`distance` give the same bits.
MAX_WINDOW = 53

METRIC_SUMMED = "summed"
METRIC_FIRST_DIFFERENCE = "first_difference"


def golden_conjugate_fraction() -> int:
    """floor(((sqrt(5) - 1) / 2) * 2**128), exact to the last bit.

    Derived from the integer square root of 5 * 2**256; equals
    0x9e3779b97f4a7c15f39cc0605cedc834.
    """
    return (math.isqrt(5 << (2 * FRACTION_BITS)) - FRACTION_MOD) // 2


GOLDEN_CONJUGATE = golden_conjugate_fraction()


def _weights_to_separators(weights: tuple[Fraction, ...]) -> np.ndarray:
    # Cumulative thresholds on the 2**64 grid; symbol(h) = #separators <= h.
    cum = Fraction(0)
    seps = []
    for w in weights[:-1]:
        cum += w
        seps.append((cum.numerator << 64) // cum.denominator)
    return np.array(seps, dtype=np.uint64)


# ---------------------------------------------------------------------------
# symbolic points


class SymbolicPoint:
    """A point of a shift space: a deterministic map index -> symbol."""

    alphabet_size: int
    side: str

    def coordinates(self, indices: np.ndarray) -> np.ndarray:
        """The symbols at every index of ``indices``, as int64."""
        raise NotImplementedError

    def coordinate(self, i: int) -> int:
        """The symbol at index ``i``: the length-1 case of :meth:`coordinates`."""
        if self.side == ONE_SIDED and i < 0:
            raise DomainError(f"coordinate {i} < 0 on a one-sided point")
        return int(self.coordinates(np.array([i], dtype=np.int64))[0])

    def describe(self) -> str:
        return type(self).__name__


def _offset(indices, offset: int) -> np.ndarray:
    """int64 ``indices + offset``; DomainError where an index would leave int64."""
    idx = np.asarray(indices, dtype=np.int64)
    if not all(int(e) + int(offset) in _INT64 for e in (idx.min(initial=0), idx.max(initial=0))):
        raise DomainError("coordinate outside the 64-bit range")
    return idx + offset


@dataclass(frozen=True)
class PeriodicPoint(SymbolicPoint):
    word: tuple[int, ...]
    alphabet_size: int
    side: str = ONE_SIDED

    def __post_init__(self):
        if not self.word:
            raise ConfigError("periodic word must be non-empty")
        if any(not (0 <= s < self.alphabet_size) for s in self.word):
            raise ConfigError("periodic word symbol out of range")

    def coordinates(self, indices: np.ndarray) -> np.ndarray:
        w = np.array(self.word, dtype=np.int64)
        return w[np.asarray(indices, dtype=np.int64) % len(self.word)]

    def describe(self) -> str:
        return f"Periodic[{''.join(map(str, self.word))}]"


@dataclass(frozen=True)
class SeededRandomPoint(SymbolicPoint):
    """Coordinates drawn i.i.d. from ``weights`` via the counter PRF.

    Symbol at index i is a pure function of (seed, i); there is no tape.
    """

    seed: int
    weights: tuple[Fraction, ...]
    side: str = ONE_SIDED

    @property
    def alphabet_size(self) -> int:
        return len(self.weights)

    @cached_property
    def _separators(self) -> np.ndarray:
        return _weights_to_separators(self.weights)

    def coordinates(self, indices: np.ndarray) -> np.ndarray:
        return self._symbols(prf64_np(self.seed, np.asarray(indices, dtype=np.int64)))

    def _symbols(self, h: np.ndarray) -> np.ndarray:
        """The symbols that the PRF words ``h`` select under these weights."""
        if len(self._separators) == 1:
            return (h >= self._separators[0]).astype(np.int64)
        return np.searchsorted(self._separators, h, side="right").astype(np.int64)

    def describe(self) -> str:
        return f"SeededRandom[seed={self.seed}]"


def coordinates_of(points: Sequence[SymbolicPoint], indices) -> np.ndarray:
    """The symbols of each point at every index of ``indices``, one row per point.

    Row r is ``points[r].coordinates(indices)``.  When every point is a
    seeded random point on one weights tuple, the rows come from one
    :func:`prf64_np` table, which mixes each index once for all seeds.
    """
    idx = np.asarray(indices, dtype=np.int64)
    shape = (len(points), len(idx))
    if points and all(
        type(p) is SeededRandomPoint and p.weights is points[0].weights for p in points
    ):
        return points[0]._symbols(prf64_np([p.seed for p in points], idx)).reshape(shape)
    return np.array([p.coordinates(idx) for p in points], dtype=np.int64).reshape(shape)


BlockContent = Union[int, SymbolicPoint]


@dataclass(frozen=True)
class BlockScheduledPoint(SymbolicPoint):
    """Piecewise content on coordinate blocks.

    ``boundaries[k]`` is the first index of block k+1; block 0 covers
    everything below ``boundaries[0]``.  Each block holds either a
    constant symbol or a view onto another point.
    """

    boundaries: tuple[int, ...]
    contents: tuple[BlockContent, ...]
    alphabet_size: int
    side: str = ONE_SIDED

    def __post_init__(self):
        if len(self.contents) != len(self.boundaries) + 1:
            raise ConfigError("need exactly one block content per boundary gap")
        if any(b >= c for b, c in zip(self.boundaries, self.boundaries[1:])):
            raise ConfigError("block boundaries must be strictly increasing")
        for c in self.contents:
            if isinstance(c, int) and not (0 <= c < self.alphabet_size):
                raise ConfigError("block symbol out of range")

    def coordinates(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        out = np.empty(idx.shape, dtype=np.int64)
        block = np.searchsorted(np.array(self.boundaries, dtype=np.int64), idx, side="right")
        for k, c in enumerate(self.contents):
            mask = block == k
            if not mask.any():
                continue
            out[mask] = c if isinstance(c, int) else c.coordinates(idx[mask])
        return out

    def describe(self) -> str:
        return f"BlockScheduled[{len(self.contents)} blocks]"


@dataclass(frozen=True)
class ShiftedPoint(SymbolicPoint):
    base: SymbolicPoint
    offset: int

    @property
    def alphabet_size(self) -> int:
        return self.base.alphabet_size

    @property
    def side(self) -> str:
        return self.base.side

    def coordinates(self, indices: np.ndarray) -> np.ndarray:
        return self.base.coordinates(_offset(indices, self.offset))

    def describe(self) -> str:
        return f"Shifted[{self.base.describe()}, {self.offset}]"


def shift_point(point: SymbolicPoint, offset: int) -> SymbolicPoint:
    """Shifted view of a point; nested shifts collapse to one offset."""
    if point.side == ONE_SIDED and offset < 0:
        raise DomainError("cannot shift a one-sided point backwards")
    if offset == 0:
        return point
    if isinstance(point, ShiftedPoint):
        return ShiftedPoint(point.base, point.offset + offset)
    return ShiftedPoint(point, offset)


# ---------------------------------------------------------------------------
# natural-extension points


@dataclass(frozen=True)
class ExtendedPoint:
    """A point of the natural extension of a one-sided shift.

    The two-sided tape reads ``base`` on coordinates >= 0 and the ``past``
    rule on negative coordinates (past index 0 is tape coordinate -1).
    ``offset`` tracks how often the extension's shift has been applied.
    """

    base: SymbolicPoint
    past: SymbolicPoint
    offset: int = 0

    @property
    def alphabet_size(self) -> int:
        return self.base.alphabet_size

    def coordinates(self, indices: np.ndarray) -> np.ndarray:
        """Tape symbols at every coordinate of ``indices``, negative ones included."""
        jj = _offset(indices, self.offset)
        out = np.empty(jj.shape, dtype=np.int64)
        ahead = jj >= 0
        for mask, point, idx in ((ahead, self.base, jj), (~ahead, self.past, -1 - jj)):
            if mask.any():
                out[mask] = point.coordinates(idx[mask])
        return out

    def component(self, depth: int) -> SymbolicPoint:
        """The one-sided point x_depth (depth >= 1) of the backward orbit."""
        if depth < 1:
            raise DomainError("component depth starts at 1")
        return _TapeView(self, depth)

    def describe(self) -> str:
        return (
            f"Extended[base={self.base.describe()}, past={self.past.describe()},"
            f" offset={self.offset}]"
        )


@dataclass(frozen=True)
class _TapeView(SymbolicPoint):
    ext: ExtendedPoint
    depth: int
    side: str = ONE_SIDED

    @property
    def alphabet_size(self) -> int:
        return self.ext.alphabet_size

    def coordinates(self, indices: np.ndarray) -> np.ndarray:
        return self.ext.coordinates(_offset(indices, 1 - self.depth))


# ---------------------------------------------------------------------------
# systems


@dataclass(frozen=True)
class FullShift:
    """Shift on sequences over {0..s-1} with a Bernoulli product measure."""

    alphabet_size: int
    weights: tuple[Fraction, ...]
    side: str = ONE_SIDED
    window: int = DEFAULT_WINDOW
    metric: str = METRIC_SUMMED

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise ConfigError("alphabet size must be >= 2")
        if len(self.weights) != self.alphabet_size:
            raise ConfigError("one weight per symbol required")
        if any(w < 0 for w in self.weights):
            raise ConfigError("weights must be non-negative")
        total = sum(self.weights)
        if abs(total - 1) > Fraction(1, 1 << 52):
            raise ConfigError(f"weights sum to {total}, expected 1 within 2**-52")
        if total != 1:  # exact renormalization of an in-tolerance sum
            object.__setattr__(self, "weights", tuple(w / total for w in self.weights))
        if not 1 <= self.window <= MAX_WINDOW:
            raise ConfigError(f"metric window must be in [1, {MAX_WINDOW}], got {self.window}")
        if self.side not in (ONE_SIDED, TWO_SIDED):
            raise ConfigError(f"unknown side {self.side!r}")
        if self.metric not in (METRIC_SUMMED, METRIC_FIRST_DIFFERENCE):
            raise ConfigError(f"unknown metric {self.metric!r}")

    @classmethod
    def bernoulli(
        cls,
        weights: Sequence[Fraction | int | str],
        side: str = ONE_SIDED,
        window: int = DEFAULT_WINDOW,
        metric: str = METRIC_SUMMED,
    ) -> "FullShift":
        ws = tuple(Fraction(w) for w in weights)
        return cls(len(ws), ws, side=side, window=window, metric=metric)

    @classmethod
    def uniform(cls, alphabet_size: int, **kwargs) -> "FullShift":
        w = Fraction(1, alphabet_size)
        return cls(alphabet_size, (w,) * alphabet_size, **kwargs)

    def describe(self) -> str:
        return f"FullShift[s={self.alphabet_size}, weights=({','.join(map(str, self.weights))}), {self.side}, w={self.window}]"

    def to_json_dict(self) -> dict:
        return {
            "kind": "FullShift",
            "weights": [str(w) for w in self.weights],
            "window": self.window,
            "side": self.side,
            "metric": self.metric,
        }


@dataclass(frozen=True)
class Rotation:
    """Rotation x -> x + alpha on the circle, on the 2**-128 dyadic grid.

    ``alpha_num`` is the exact numerator of alpha * 2**128; all orbit
    arithmetic is exact modular arithmetic on that grid.
    """

    alpha_num: int

    def __post_init__(self):
        if not (0 <= self.alpha_num < FRACTION_MOD):
            raise ConfigError("alpha numerator out of [0, 2**128) range")

    @classmethod
    def from_fraction(cls, alpha: Fraction | int | str) -> "Rotation":
        fr = Fraction(alpha)
        if not (0 <= fr < 1):
            raise ConfigError("alpha must lie in [0, 1)")
        return cls((fr.numerator << FRACTION_BITS) // fr.denominator)

    @classmethod
    def golden(cls) -> "Rotation":
        return cls(GOLDEN_CONJUGATE)

    def describe(self) -> str:
        return f"Rotation[alpha=0x{self.alpha_num:032x}/2^128]"

    def to_json_dict(self) -> dict:
        return {"kind": "Rotation", "alpha_num_2pow128": f"0x{self.alpha_num:032x}"}


@dataclass(frozen=True)
class ProductSystem:
    components: tuple["SystemSpec", ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise ConfigError("product needs at least one component")

    def describe(self) -> str:
        return "Product[" + ", ".join(c.describe() for c in self.components) + "]"

    def to_json_dict(self) -> dict:
        return {"kind": "Product", "components": [c.to_json_dict() for c in self.components]}


@dataclass(frozen=True)
class NaturalExtension:
    """Invertible cover of a one-sided full shift on backward orbits."""

    base: FullShift

    def __post_init__(self):
        if not isinstance(self.base, FullShift):
            raise ConfigError("natural extension base must be a FullShift")
        if self.base.side != ONE_SIDED:
            raise ConfigError("natural extension applies to one-sided shifts")

    @property
    def window(self) -> int:
        return self.base.window

    def describe(self) -> str:
        return f"NaturalExtension[{self.base.describe()}]"

    def to_json_dict(self) -> dict:
        return {"kind": "NaturalExtension", "base": self.base.to_json_dict()}


SystemSpec = Union[FullShift, Rotation, ProductSystem, NaturalExtension]
Point = Union[SymbolicPoint, int, tuple, ExtendedPoint]


# ---------------------------------------------------------------------------
# operations


def iterate(system: SystemSpec, point: Point, m: int):
    """T**m applied to ``point``, in O(polylog m)."""
    if m < 0 and not isinstance(system, (Rotation, NaturalExtension)):
        raise DomainError("negative iteration on a non-invertible system")
    if isinstance(system, FullShift):
        if getattr(point, "side", None) != system.side:
            raise DomainError("point side does not match the shift")
        return shift_point(point, m)
    if isinstance(system, Rotation):
        return (point + m * system.alpha_num) % FRACTION_MOD
    if isinstance(system, ProductSystem):
        if len(point) != len(system.components):
            raise DomainError("component count mismatch")
        return tuple(iterate(c, x, m) for c, x in zip(system.components, point))
    if isinstance(system, NaturalExtension):
        if not isinstance(point, ExtendedPoint):
            raise DomainError("natural extension iterates ExtendedPoint values")
        return ExtendedPoint(point.base, point.past, point.offset + m)
    raise ConfigError(f"unknown system {system!r}")


# ---------------------------------------------------------------------------
# distances
#
# Every shift-type metric reads a window [m + lo, m + lo + span) of both
# points at each time m and reduces the rows of the difference tape; a
# system's kind picks only the window and the row reducer.


_POWERS = np.ldexp(1.0, -np.arange(1, MAX_WINDOW + 1))  # 2**-1 .. 2**-53


def _summed(rows: np.ndarray) -> np.ndarray:
    # coordinate j of a bool row weighs 2**-(j + 1): the row's bits, packed
    # into a big-endian 64-bit word, times 2**-64.  At most 53 bits are set,
    # so the word converts to float64 exactly, and no BLAS call is made.
    words = np.zeros((len(rows), 8), dtype=np.uint8)
    words[:, : -(-rows.shape[1] // 8)] = np.packbits(rows, axis=1)
    return words.view(">u8")[:, 0] * 2.0**-64


def _first_difference(rows: np.ndarray) -> np.ndarray:
    return np.where(rows.any(axis=1), np.ldexp(1.0, -rows.argmax(axis=1)), 0.0)


def _two_sided(rows: np.ndarray) -> np.ndarray:
    # rows cover (-w, w); coordinate j weighs 2**-(|j| + 1), halved.  Both
    # one-sided sums are exact, so their one correctly rounded add is fsum.
    w = (rows.shape[1] + 1) // 2
    return (_summed(rows[:, w - 1 :]) + _summed(rows[:, : w - 1][:, ::-1]) / 2) / 2


def _row_fsums(parts: np.ndarray) -> np.ndarray:
    return np.array([math.fsum(row) for row in parts.tolist()], dtype=np.float64)


def _extension(base, rows: np.ndarray) -> np.ndarray:
    # rows cover tape coordinates (-w, w); component i reads [1 - i, w + 1 - i)
    w = (rows.shape[1] + 1) // 2
    parts = np.stack([base(rows[:, w - i : 2 * w - i]) for i in range(1, w + 1)], axis=1)
    return _row_fsums(parts * _POWERS[:w])


def _metric_window(system: FullShift | NaturalExtension):
    """(lo, span, row reducer) of a shift-type metric."""
    w = system.window
    if isinstance(system, NaturalExtension):
        base = _summed if system.base.metric == METRIC_SUMMED else _first_difference
        return 1 - w, 2 * w - 1, partial(_extension, base)
    if system.metric == METRIC_FIRST_DIFFERENCE:
        return 0, w, _first_difference
    if system.side == TWO_SIDED:
        return 1 - w, 2 * w - 1, _two_sided
    return 0, w, _summed


def _from_zero(runs) -> list[tuple[int, int]]:
    # runs that start at or before coordinate 0 collapse into the last of them
    runs = list(runs)
    last = max((i for i, (start, _) in enumerate(runs) if start <= 0), default=0)
    return [(0, runs[last][1]), *runs[last + 1 :]]


def _symbol_runs(point) -> list[tuple[int, int]] | None:
    """Change points [(start, symbol), ...] of a piecewise-constant point, else None."""
    if isinstance(point, PeriodicPoint):
        return [(0, point.word[0])] if len(set(point.word)) == 1 else None
    if isinstance(point, ShiftedPoint):
        base = _symbol_runs(point.base)
        return None if base is None else _from_zero((s - point.offset, c) for s, c in base)
    if isinstance(point, BlockScheduledPoint) and all(isinstance(c, int) for c in point.contents):
        return _from_zero(zip((0, *point.boundaries), point.contents))
    return None


def _series_from_runs(rx, ry, times: np.ndarray, window: int) -> np.ndarray:
    """d(T**m x, T**m y) at strictly increasing ``times`` from the change
    points of x and y, by interval algebra.

    The pair differs between toggles p_1 < p_2 < ...; toggle i adds
    (-1)**(i+1) 2**-clip(p_i - m, 0, w) to the distance at time m, and a
    difference that never ends takes 2**-w off.  A toggle at or below m
    adds +-1 and one at or past m + w adds +-2**-w, so the distance is

        D(m) + sum of +-2**-(p - m) over the toggles p in (m, m + w) - 2**-w G(m)

    with D(m) and G(m) the parities of the toggles at or below m and below
    m + w.  Per pair that is two searches per toggle and a few passes over
    the times, and only the fewer than w times before each toggle take a
    power.  Every partial sum, in toggle order, is a multiple of 2**-w in
    [0, 1], so it is exact (w <= 53) and the result is the same bits
    whatever the order of the additions.
    """
    def symbol_at(runs: list[tuple[int, int]], pos: int) -> int:
        return runs[bisect_right(runs, pos, key=lambda run: run[0]) - 1][1]

    toggles = []
    for pos in sorted({s for s, _ in rx} | {s for s, _ in ry}):
        if (len(toggles) % 2 == 1) != (symbol_at(rx, pos) != symbol_at(ry, pos)):
            toggles.append(pos)
    n = len(times)
    if not toggles or not n:
        return np.zeros(n, dtype=np.float64)
    # clamped into [t_min - w, t_max], a toggle keeps its side of every time
    # and of every m + w, and its search stays in int64
    lo, hi = int(times[0]) - window, int(times[-1])

    def searched(shift: int) -> tuple[np.ndarray, np.ndarray]:
        keys = np.array([min(max(p - shift, lo), hi) for p in toggles], dtype=np.int64)
        return keys, np.searchsorted(times, keys, side="right")

    starts, j0 = searched(window)  # times[:j0] <= p - w
    _, j1 = searched(1)  # times[:j1] < p
    parity = (np.arange(len(toggles) + 1) & 1).astype(np.float64)

    def runs_of(cuts: np.ndarray) -> np.ndarray:  # lengths between 0, the cuts and n
        return np.diff(np.concatenate(([0], cuts, [n])))

    out = np.repeat(parity, runs_of(j1))
    lengths = j1 - j0
    if lengths.any():
        # the times in (p - w, p); there p - w is unclamped
        k = np.repeat(j0 - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())
        exponents = times[k] - np.repeat(starts, lengths) - window  # m - p, in (-w, 0)
        signs = np.repeat(1.0 - 2.0 * parity[:-1], lengths)
        out += np.bincount(k, np.ldexp(signs, exponents.astype(np.int32)), minlength=n)
    out -= np.repeat(parity * 2.0**-window, runs_of(j0))
    return out


def _on_distinct(times: np.ndarray, series) -> np.ndarray:
    """The rows ``series(u)`` on the strictly increasing distinct times u,
    read back at every time; times that already increase skip the sort."""
    if (times[1:] > times[:-1]).all():
        return series(times)
    u, inverse = np.unique(times, return_inverse=True)
    return series(u)[:, inverse]


# Tape cells read per coordinates call: small enough that the PRF's
# temporaries stay in cache, large enough that a chunk's last window,
# which is read again by the next chunk, costs little.
_TAPE_CELLS = 1 << 17
# Window cells reduced per gather block (2 MB of bool); fewer, larger
# blocks spare the reducers their per-call set-up.
_GATHER_CELLS = 1 << 21


def _tape_chunks(u: np.ndarray, lo: int, window: int):
    """Lay the windows [t + lo, t + lo + w) of the sorted unique times u out as a tape.

    Overlapping windows share their cells, so the tape holds at most
    len(u)*w cells, and about len(u) + w when the times are dense.  The
    tape is cut into chunks of about _TAPE_CELLS cells at the start of a
    window; each chunk also holds its last window whole, so up to w - 1
    cells at each cut are read twice.  Yields, per chunk, the index of its
    first time in ``u``, the coordinate position of every cell and the
    offset of each window.
    """
    # gaps of sorted int64 times as uint64: exact even where they pass 2**63
    gaps = np.minimum(np.diff(u.view(np.uint64)), window).astype(np.int64)
    lengths = np.append(gaps, window)
    starts = np.cumsum(lengths) - lengths
    cuts = np.unique(np.searchsorted(starts, np.arange(0, starts[-1] + 1, _TAPE_CELLS)))
    for first, end in zip(cuts, [*cuts[1:], len(u)]):
        spans = lengths[first:end].copy()
        spans[-1] = window
        offsets = starts[first:end] - starts[first]
        positions = np.repeat(u[first:end] - offsets, spans)
        positions += np.arange(lo, lo + len(positions))
        yield first, positions, offsets


def _series_from_windows(system, xs, ys, u: np.ndarray) -> np.ndarray:
    # At strictly increasing times u, every distinct point (by identity)
    # reads each tape chunk once through its own ``coordinates``, for all of
    # its rows; every window is then a gather, reduced in blocks of at most
    # _GATHER_CELLS cells.
    if not len(u):
        return np.empty((len(xs), 0), dtype=np.float64)
    lo, span, reduce = _metric_window(system)
    if int(u[0]) + lo < -(1 << 63) or int(u[-1]) + lo + span >= 1 << 63:
        raise DomainError("times too close to the 64-bit range for the metric window")
    points = {id(p): p for p in (*xs, *ys)}
    rows = max(1, _GATHER_CELLS // span)
    out = np.empty((len(xs), len(u)), dtype=np.float64)
    for first, positions, offsets in _tape_chunks(u, lo, span):
        tapes = {key: p.coordinates(positions) for key, p in points.items()}
        for r, (x, y) in enumerate(zip(xs, ys)):
            windows = sliding_window_view(tapes[id(x)] != tapes[id(y)], span)
            for i in range(0, len(offsets), rows):
                block = windows[offsets[i : i + rows]]
                out[r, first + i : first + i + len(block)] = reduce(block)
    return out


def distance_series(system: SystemSpec, xs: Sequence, ys: Sequence, times) -> np.ndarray:
    """d(T**m x, T**m y) for every pair (x, y) of ``zip(xs, ys)`` and every m
    in ``times``, truncated at the metric window: one row per pair.

    Shift-type metrics (every full shift and the natural extension) reduce
    the windows of a difference tape, or take interval algebra when every
    point is piecewise constant on a one-sided summed shift; both are
    exact, as ``FullShift`` caps the window at 53 coordinates.  A
    rotation's rows are constant; a product ``fsum``s its weighted
    component rows.  Whatever :func:`iterate` refuses at some time raises
    ``DomainError``.

    Each distinct point reads its tape once per chunk of about 2**17
    cells for all the rows it belongs to, so working memory does not grow
    with the gaps between times and a tuple's pairs share their reads.
    The interval path costs O(w) per change point beyond a few passes per
    pair.  Both paths run on the distinct times, sorted only when they do
    not already increase.
    """
    if len(xs) != len(ys):
        raise DomainError("need one y for every x")
    ts = _as_times(times)
    if not isinstance(system, (Rotation, NaturalExtension)) and len(ts) and ts.min() < 0:
        raise DomainError("negative iteration on a non-invertible system")
    if isinstance(system, Rotation):
        deltas = [(x - y) % FRACTION_MOD for x, y in zip(xs, ys)]
        rows = np.array([min(d, FRACTION_MOD - d) / FRACTION_MOD for d in deltas])
        return np.repeat(rows.reshape(-1, 1), len(ts), axis=1)
    if isinstance(system, ProductSystem):
        k = len(system.components)
        if any(len(p) != k for p in (*xs, *ys)):
            raise DomainError("component count mismatch")
        parts = [
            2.0 ** (-(j + 1)) * distance_series(c, [x[j] for x in xs], [y[j] for y in ys], ts)
            for j, c in enumerate(system.components)
        ]
        return _row_fsums(np.stack(parts, axis=-1).reshape(-1, k)).reshape(len(xs), len(ts))
    if isinstance(system, FullShift):
        if any(getattr(p, "side", None) != system.side for p in (*xs, *ys)):
            raise DomainError("points do not live in this shift space")
        if system.side == ONE_SIDED and system.metric == METRIC_SUMMED:
            runs = [(_symbol_runs(x), _symbol_runs(y)) for x, y in zip(xs, ys)]
            if all(None not in pair for pair in runs):
                return _on_distinct(ts, lambda u: np.array(
                    [_series_from_runs(rx, ry, u, system.window) for rx, ry in runs],
                    dtype=np.float64,
                ).reshape(len(xs), len(u)))
    elif not isinstance(system, NaturalExtension):
        raise ConfigError(f"unknown system {system!r}")
    elif not all(isinstance(p, ExtendedPoint) for p in (*xs, *ys)):
        raise DomainError("natural extension iterates ExtendedPoint values")
    return _on_distinct(ts, partial(_series_from_windows, system, xs, ys))


def distance(system: SystemSpec, x: Point, y: Point) -> float:
    """Metric evaluation: the one-pair, one-time case of :func:`distance_series`.

    The certified truncation bound is :func:`metric_error_bound`; the
    true distance lies within that bound of the returned value.
    """
    return float(distance_series(system, [x], [y], [0])[0, 0])


def metric_error_bound(system: SystemSpec) -> float:
    """Certified truncation/rounding bound for :func:`distance`."""
    if isinstance(system, FullShift):
        return 2.0 ** (-system.window)
    if isinstance(system, Rotation):
        return 2.0**-53
    if isinstance(system, ProductSystem):
        # plus fsum's rounding of the weighted sum, which lies below 1
        return math.fsum(
            2.0 ** (-(j + 1)) * metric_error_bound(c) for j, c in enumerate(system.components)
        ) + 2.0**-54
    if isinstance(system, NaturalExtension):
        return 2.0 ** (1 - system.window)
    raise ConfigError(f"unknown system {system!r}")


def sample_point(system: SystemSpec, seed: int) -> Point:
    """A point distributed per the system's invariant measure; pure in seed."""
    if isinstance(system, FullShift):
        return SeededRandomPoint(seed & MASK64, system.weights, side=system.side)
    if isinstance(system, Rotation):
        return (prf64(seed, 0) << 64) | prf64(seed, 1)
    if isinstance(system, ProductSystem):
        return tuple(
            sample_point(c, child_seed(seed, f"component/{j}"))
            for j, c in enumerate(system.components)
        )
    if isinstance(system, NaturalExtension):
        return natural_extension_lift(
            system, sample_point(system.base, child_seed(seed, "base")), child_seed(seed, "past")
        )
    raise ConfigError(f"unknown system {system!r}")


def natural_extension_lift(
    system: NaturalExtension | FullShift,
    base_point: SymbolicPoint,
    past_seed: int | None = None,
    past: SymbolicPoint | None = None,
) -> ExtendedPoint:
    """Lift a one-sided point to the natural extension.

    Non-negative coordinates equal ``base_point``'s; negative ones come
    from ``past`` (or a PRF-seeded Bernoulli rule built from ``past_seed``).
    """
    shift = system.base if isinstance(system, NaturalExtension) else system
    if shift.side != ONE_SIDED:
        raise ConfigError("natural extension applies to one-sided shifts")
    if past is None:
        if past_seed is None:
            raise ConfigError("provide past_seed or an explicit past rule")
        past = SeededRandomPoint(past_seed & MASK64, shift.weights, side=ONE_SIDED)
    return ExtendedPoint(base_point, past)


def project(point: ExtendedPoint) -> SymbolicPoint:
    """First-coordinate projection onto the underlying one-sided shift."""
    return point.component(1)


# ---------------------------------------------------------------------------
# orbit evaluation helpers


_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_SHIFT32 = _U64(32)
_GRID_BLOCK = 1 << 14


def _as_times(times) -> np.ndarray:
    """``times`` as an int64 array; a time outside int64 raises, never wraps."""
    try:
        return np.asarray(times, dtype=np.int64)
    except OverflowError:
        index = next(i for i, m in enumerate(times) if not -(1 << 63) <= int(m) < 1 << 63)
        raise SequenceOverflowError(
            index, f"time #{index} lies outside the signed 64-bit range"
        ) from None


def rotation_grid(alpha_num: int, x0, times: np.ndarray):
    """Exact orbit points (x0 + m * alpha_num) mod 2**128 on the dyadic grid.

    ``times`` is an int64 array and ``x0`` one start or a 1-D sequence of
    starts.  Yields ``(start, hi, lo)`` for consecutive blocks of times
    starting at index ``start``, each block at most ``_GRID_BLOCK`` grid
    points over all starts: ``hi`` and ``lo`` are the uint64 words of the
    block's grid points, with one row per start when ``x0`` is a
    sequence.  Blocks keep every temporary cache-sized.

    Exact limb arithmetic in the style of Knuth's Algorithm M (TAOCP
    vol. 2, 4.3.1).  With u = m mod 2**64 and alpha = A1*2**64 + A0,
    u * alpha mod 2**128 has lo = u*A0 and hi = mulhi(u, A0) + u*A1, in
    wrapping uint64.  mulhi(u, A0) is assembled from four 32x32-bit
    partial products, none of which overflows.  A negative m equals
    u - 2**64, so its product is smaller by A0 * 2**64 mod 2**128: A0
    comes off the high word.  The product is formed once per block; each
    start then adds its words, with a carry into the high word when the
    low word wraps.  Only uint64 operands enter the arithmetic, so no
    operand is promoted to float64 on any numpy version.
    """
    rows = np.ndim(x0) > 0
    starts = [int(x) % FRACTION_MOD for x in (x0 if rows else [x0])]
    x1 = np.array([x >> 64 for x in starts], dtype=_U64)[:, None]
    x0_lo = np.array([x & MASK64 for x in starts], dtype=_U64)[:, None]
    a1, a0 = _U64(alpha_num >> 64), _U64(alpha_num & MASK64)
    b1, b0 = a0 >> _SHIFT32, a0 & _LOW32
    step = max(1, _GRID_BLOCK // max(1, len(starts)))
    for start in range(0, len(times), step):
        t = times[start : start + step]
        u = t.view(_U64)
        u1, u0 = u >> _SHIFT32, u & _LOW32
        p01 = u0 * b1
        p10 = u1 * b0
        mid = (u0 * b0) >> _SHIFT32
        mid += p01 & _LOW32
        mid += p10 & _LOW32  # below 3 * 2**32
        hi = u1 * b1
        hi += p01 >> _SHIFT32
        hi += p10 >> _SHIFT32
        hi += mid >> _SHIFT32
        hi += u * a1
        hi -= (t >> 63).view(_U64) & a0
        lo = x0_lo + u * a0
        hi = hi + x1
        hi += lo < x0_lo
        yield start, (hi if rows else hi[0]), (lo if rows else lo[0])


def rotation_orbit_fractions(system: Rotation, x0, times) -> np.ndarray:
    """Fractions (x0 + m*alpha mod 1) for each m, as float64.

    ``x0`` is one start, giving one fraction per time, or a 1-D sequence
    of starts, giving one row per start that shares the products m*alpha.
    The orbit point is computed exactly on the 2**-128 grid by
    :func:`rotation_grid` (128-bit multiply-add in uint64 limbs); its top
    53 bits become the float, so the per-entry error is below 2**-53.
    Every time must fit a signed 64-bit integer; one that does not raises
    :class:`SequenceOverflowError` instead of wrapping.
    """
    ts = _as_times(times)
    out = np.empty(np.shape(x0)[:1] + ts.shape, dtype=np.float64)
    for start, hi, _ in rotation_grid(system.alpha_num, x0, ts):
        out[..., start : start + hi.shape[-1]] = hi >> _U64(11)  # exact: below 2**53
    out *= 2.0**-53
    return out
