"""Bounded, finitely-determined observables.

Only functions whose value at a point is decided by finitely many
symbol coordinates or by the exact rotation fraction are supported, so
f(T**m x) is computed without any approximation of the orbit itself.
Each kind optionally declares its exact integral against the ambient
invariant measure (cylinder mass under a Bernoulli law, zero mean for
nonconstant circle harmonics), which is what the deviation-style
experiments compare against.

Every kind defines one vectorized path, :meth:`Observable.series`, the
values f(T**m x) for a sequence of points x and an array of times m,
one row per point.  A single value f(x) is its length-1 case: one point
at time 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from . import systems as sy

TWO_PI = 2.0 * math.pi


class Observable:
    def series(self, system, points, times: np.ndarray) -> np.ndarray:
        """Values f(T**m x): one row per point x of ``points``, one column per m."""
        raise NotImplementedError

    def value(self, system, point) -> float:
        """f(point): the length-1 case of :meth:`series`."""
        return float(self.series(system, [point], [0])[0, 0])

    def integral(self, system) -> float | None:
        """Exact integral of f against the invariant measure, when declared."""
        return None

    def bounds(self) -> tuple[float, float]:
        raise NotImplementedError

    def error_bound(self) -> float:
        """Worst-case evaluation error of each value of :meth:`series`."""
        return 0.0

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Constant(Observable):
    c: float

    def series(self, system, points, times) -> np.ndarray:
        return np.full((len(points), len(times)), self.c, dtype=np.float64)

    def integral(self, system) -> float:
        return self.c

    def bounds(self) -> tuple[float, float]:
        return (self.c, self.c)

    def describe(self) -> str:
        return f"Constant[{self.c}]"


@dataclass(frozen=True)
class CylinderIndicator(Observable):
    """Indicator of the cylinder {x : x_c = s for every (c, s) constraint}.

    The empty constraint tuple is the indicator of the whole space.
    """

    constraints: tuple[tuple[int, int], ...]

    def __post_init__(self):
        coords = [c for c, _ in self.constraints]
        if len(set(coords)) != len(coords):
            raise ConfigError("cylinder constraints must use distinct coordinates")

    def _check_shift(self, system, points=()) -> None:
        """On a shift: every symbol in its alphabet, every point one of its points."""
        if not isinstance(system, sy.FullShift):
            return
        if any(not (0 <= s < system.alphabet_size) for _, s in self.constraints):
            raise ConfigError("cylinder symbol outside the alphabet")
        sy.check_members(system, points)

    def series(self, system, points, times) -> np.ndarray:
        rows = sy.Rows.of(points)
        self._check_shift(system, rows)
        if not rows.symbolic:
            raise DomainError("cylinder observable needs a symbolic point")
        ts = sy._as_times(times)
        out = None
        for c, s in self.constraints:
            symbols = sy.coordinates_of(rows, sy._offset(ts, c))
            hit = np.equal(symbols, s, out=symbols.view(np.float64))  # 1.0 or 0.0, in place
            out = hit if out is None else np.multiply(out, hit, out=out)
        return np.ones((len(rows), len(ts))) if out is None else out

    def integral(self, system) -> float | None:
        self._check_shift(system)
        if isinstance(system, sy.FullShift):
            return float(math.prod(system.weights[s] for _, s in self.constraints))
        return None

    def bounds(self) -> tuple[float, float]:
        return (0.0, 1.0)

    def describe(self) -> str:
        inner = ",".join(f"{c}:{s}" for c, s in self.constraints)
        return f"Cylinder[{inner}]" if inner else "Cylinder[full]"


@dataclass(frozen=True)
class TrigOnRotation(Observable):
    """cos(2 pi h x) or sin(2 pi h x) on the circle, h a nonzero integer."""

    frequency: int
    component: str = "cos"

    def __post_init__(self):
        if self.frequency == 0:
            raise ConfigError("frequency must be nonzero (use Constant for h = 0)")
        if self.component not in ("cos", "sin"):
            raise ConfigError("component must be 'cos' or 'sin'")

    def _fn(self):
        return np.cos if self.component == "cos" else np.sin

    def series(self, system, points, times) -> np.ndarray:
        if not isinstance(system, sy.Rotation) or not all(isinstance(x, int) for x in points):
            raise DomainError("trig observable needs a rotation system and point")
        # h * (x + m * alpha) = h * x + m * (h * alpha) mod 1, exactly on the
        # 2**-128 grid: the phase is reduced before it is rounded, whatever h
        h = self.frequency
        rotation = sy.Rotation((h * system.alpha_num) % sy.FRACTION_MOD)
        starts = [(h * x) % sy.FRACTION_MOD for x in points]
        fr = sy.rotation_orbit_fractions(rotation, starts, times)
        fr *= TWO_PI
        return self._fn()(fr, out=fr)

    def integral(self, system) -> float:
        return 0.0

    def bounds(self) -> tuple[float, float]:
        return (-1.0, 1.0)

    def error_bound(self) -> float:
        # cos and sin are 1-Lipschitz, so the angle's errors pass through:
        # the reduced phase fr is below 2**-53 short of exact (times 2 pi),
        # TWO_PI is within 2**-51 of 2 pi (times fr < 1), and TWO_PI * fr < 8
        # rounds by at most 2**-51.  cos/sin then add an ulp of a value in
        # [-1, 1], taken as 2**-52.  No term depends on h.
        return TWO_PI * 2.0**-53 + 2.0**-51 + 2.0**-51 + 2.0**-52

    def describe(self) -> str:
        return f"{self.component}[2pi*{self.frequency}x]"


@dataclass(frozen=True)
class ProductOf(Observable):
    """Product of per-component observables on a product system."""

    factors: tuple[Observable, ...]

    def __post_init__(self):
        if not self.factors:
            raise ConfigError("need at least one factor")

    def series(self, system, points, times) -> np.ndarray:
        k = len(self.factors)
        if not isinstance(system, sy.ProductSystem) or len(system.components) != k:
            raise DomainError("factor count must match the product components")
        factor_rows = sy.Rows.of(points).factors(k)
        values = (f.series(c, rows, times)
                  for f, c, rows in zip(self.factors, system.components, factor_rows))
        out = next(values)  # each factor's series is a fresh float64 array
        for v in values:
            out *= v
        return out

    def integral(self, system) -> float | None:
        if not isinstance(system, sy.ProductSystem):
            return None
        parts = [f.integral(c) for f, c in zip(self.factors, system.components)]
        if any(p is None for p in parts):
            return None
        return math.prod(parts)

    def bounds(self) -> tuple[float, float]:
        lo, hi = 1.0, 1.0
        for f in self.factors:
            a, b = f.bounds()
            candidates = (lo * a, lo * b, hi * a, hi * b)
            lo, hi = min(candidates), max(candidates)
        return lo, hi

    def error_bound(self) -> float:
        # factors are bounded by 1 in magnitude for all supported kinds, so
        # their errors add; each product after the first rounds a value below
        # 1 in magnitude, by at most 2**-54
        factors = math.fsum(f.error_bound() for f in self.factors)
        return factors + (len(self.factors) - 1) * 2.0**-54

    def describe(self) -> str:
        return "Product[" + " * ".join(f.describe() for f in self.factors) + "]"
