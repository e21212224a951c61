"""Zero-entropy-factor experiments on product systems.

A Bernoulli shift crossed with a circle rotation carries an obvious
zero-entropy coordinate: the rotation angle.  Along sequences with
vanishing close-pair density, limits of sequence averages should be
measurable with respect to that coordinate alone, which makes three
effects observable at finite N:

* within-fiber constancy: points sharing the rotation coordinate theta
  get (nearly) the same average, while different theta fibers may get
  different values (made non-trivial by freezing the rotation: a
  rational angle paired with a sequence that multiplies it to integers);
* the Kolmogorov-type collapse: on the Bernoulli factor alone the limit
  is the plain space average for every sampled point;
* the lacunary contrast, the spread of averages along a catalogued
  family against a geometric one.  On a Bernoulli shift it measures the
  sampling, not the sequence: a one-coordinate cylinder's A_K f has the
  same binomial law along every injective sequence.  So does
  `DisintegrationConsistency`, whose sample mean of A_N f estimates the
  integral of f along every sequence, by invariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import systems as sy
from .averaging import max_deviation, sample_points, sampled_averages
from .errors import ConfigError
from .observables import Observable
from .prf import child_seed
from .seqgen import SequenceSpec, lacunary_max_terms


@dataclass(frozen=True)
class FiberReport:
    """Per-fiber averages over a frozen rotation coordinate."""

    thetas: tuple[Fraction, ...]
    sample_count: int
    n_terms: int
    values: tuple[tuple[float, ...], ...]  # values[f][j] = A_N at fiber f, sample j

    @property
    def dispersions(self) -> tuple[float, ...]:
        return tuple(max(v) - min(v) for v in self.values)

    @property
    def fiber_means(self) -> tuple[float, ...]:
        return tuple(math.fsum(v) / len(v) for v in self.values)

    CSV_HEADER = ["theta", "sample", "value"]

    def csv_rows(self) -> list[list]:
        return [
            [str(theta), j, value]
            for theta, vals in zip(self.thetas, self.values)
            for j, value in enumerate(vals)
        ]

    def to_json_dict(self) -> dict:
        return {
            "n_terms": self.n_terms,
            "sample_count": self.sample_count,
            "fibers": [
                {"theta": str(t), "dispersion": d, "mean": m}
                for t, d, m in zip(self.thetas, self.dispersions, self.fiber_means)
            ],
        }


def fiber_constancy_report(
    shift: sy.FullShift,
    rotation: sy.Rotation,
    thetas: Sequence[Fraction],
    f: Observable,
    seq: SequenceSpec,
    n_terms: int,
    sample_count: int,
    seed: int,
    workers: int = 1,
) -> FiberReport:
    """Sample the shift factor per fiber and measure A_N on the product.

    Thetas are placed on the 2**-128 rotation grid (exact for dyadic
    values, within 2**-128 otherwise).
    """
    if sample_count < 1:
        raise ConfigError("sample_count must be >= 1")
    fractions = tuple(Fraction(t) for t in thetas)
    if not fractions:
        raise ConfigError("need at least one theta")
    if not all(0 <= fr < 1 for fr in fractions):
        raise ConfigError("theta must lie in [0, 1)")
    theta_points = [(fr.numerator << sy.FRACTION_BITS) // fr.denominator for fr in fractions]
    points = [
        (sy.sample_point(shift, child_seed(seed, f"theta/{fi}/omega/{j}")), theta_point)
        for fi, theta_point in enumerate(theta_points) for j in range(sample_count)
    ]
    product = sy.ProductSystem((shift, rotation))
    flat = sampled_averages(product, points, f, seq, n_terms, workers)
    values = tuple(tuple(flat[i : i + sample_count]) for i in range(0, len(flat), sample_count))
    return FiberReport(fractions, sample_count, n_terms, values)


def kolmogorov_limit_check(
    shift: sy.FullShift,
    f: Observable,
    seq: SequenceSpec,
    n_terms: int,
    sample_count: int,
    seed: int,
    workers: int = 1,
) -> float:
    """max over sampled points of |A_N f - integral(f)| on the shift alone."""
    points = sample_points(shift, seed, sample_count)
    return max_deviation(shift, points, f, seq, n_terms, workers)


def _spread(values: Sequence[float]) -> float:
    """Two sample standard deviations: the +-2 sigma spread of the averages."""
    m = len(values)
    if m < 2:
        return 0.0
    mean = math.fsum(values) / m
    var = math.fsum((v - mean) ** 2 for v in values) / (m - 1)
    return 2.0 * math.sqrt(var)


def _lacunary_terms(seq: SequenceSpec, n_terms: int) -> int:
    """How many terms the finite lacunary side has; fewer than ``n_terms`` is refused."""
    if seq.family not in ("Lacunary", "Explicit"):
        raise ConfigError(f"the lacunary sequence must be Lacunary or Explicit, got {seq.describe()}")
    cap = lacunary_max_terms(seq.param) if seq.family == "Lacunary" else len(seq.param)
    if n_terms > cap:
        raise ConfigError(f"{seq.describe()} has only {cap} terms")
    return cap


def lacunary_dispersion_contrast(
    shift: sy.FullShift,
    f: Observable,
    good_seq: SequenceSpec,
    lacunary_seq: SequenceSpec,
    n_terms: int,
    points: Sequence,
    workers: int = 1,
) -> tuple[float, float]:
    """Dispersion of per-point averages at matched term count K.

    Returns (good, lacunary) where each entry is twice the sample
    standard deviation of {A_K f(x)} over ``points``.  At matched small
    K both sequences show the same binomial-scale spread; the difference
    is structural: the good sequence keeps going (see
    :func:`lacunary_contrast_report`), the lacunary one runs out of
    representable terms.
    """
    _lacunary_terms(lacunary_seq, n_terms)
    good = _spread(sampled_averages(shift, points, f, good_seq, n_terms, workers))
    lacunary = _spread(sampled_averages(shift, points, f, lacunary_seq, n_terms, workers))
    return good, lacunary


@dataclass(frozen=True)
class LacunaryContrastReport:
    matched_terms: int
    good_dispersion: float
    lacunary_dispersion: float
    extended_terms: int
    good_extended_dispersion: float
    lacunary_max_terms: int
    lacunary_extended_available: bool

    CSV_HEADER = ["phase", "terms", "good_dispersion", "lacunary_dispersion"]

    def csv_rows(self) -> list[list]:
        return [
            ["matched", self.matched_terms, self.good_dispersion, self.lacunary_dispersion],
            # -1 marks the structurally unavailable lacunary long-horizon entry
            ["extended", self.extended_terms, self.good_extended_dispersion, -1.0],
        ]


def lacunary_contrast_report(
    shift: sy.FullShift,
    f: Observable,
    good_seq: SequenceSpec,
    lacunary_seq: SequenceSpec,
    n_terms: int,
    sample_count: int,
    seed: int,
    extended_terms: int = 100_000,
    workers: int = 1,
) -> LacunaryContrastReport:
    """Matched-K contrast plus the long-horizon run the lacunary side lacks,
    both over the same ``sample_count`` points sampled under ``seed``."""
    cap = _lacunary_terms(lacunary_seq, n_terms)
    points = sample_points(shift, seed, sample_count)
    good_disp, lac_disp = lacunary_dispersion_contrast(
        shift, f, good_seq, lacunary_seq, n_terms, points, workers
    )
    good_ext = _spread(sampled_averages(shift, points, f, good_seq, extended_terms, workers))
    return LacunaryContrastReport(
        matched_terms=n_terms,
        good_dispersion=good_disp,
        lacunary_dispersion=lac_disp,
        extended_terms=extended_terms,
        good_extended_dispersion=good_ext,
        lacunary_max_terms=cap,
        lacunary_extended_available=extended_terms <= cap,
    )
