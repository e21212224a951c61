import math
from fractions import Fraction

import pytest

import seqchaos.systems as sy
from seqchaos import pinsker
from seqchaos.averaging import ergodic_average, sample_points
from seqchaos.errors import ConfigError
from seqchaos.observables import Constant, CylinderIndicator, ProductOf, TrigOnRotation
from seqchaos.pinsker import (
    fiber_constancy_report,
    kolmogorov_limit_check,
    lacunary_contrast_report,
    lacunary_dispersion_contrast,
)
from seqchaos.seqgen import SequenceSpec

FAIR = sy.FullShift.uniform(2)
HALF = sy.Rotation.from_fraction(Fraction(1, 2))
EVEN = SequenceSpec("PolynomialFloor", [0, 2])  # a_k = 2k, freezes a rotation by 1/2
F_PROD = ProductOf((CylinderIndicator(((0, 0),)), TrigOnRotation(1, "cos")))


def test_frozen_rotation_factorizes():
    # with alpha = 1/2 and even times, A_N on the product splits into
    # g(theta) times the Bernoulli-only average; compute both sides
    theta = Fraction(1, 3)
    theta_point = (theta.numerator << sy.FRACTION_BITS) // theta.denominator
    omega = sy.sample_point(FAIR, 424242)
    product = sy.ProductSystem((FAIR, HALF))
    lhs = ergodic_average(product, [(omega, theta_point)], F_PROD, EVEN, 2000)[0]
    g_theta = math.cos(2 * math.pi * sy.rotation_orbit_fractions(HALF, theta_point, [0])[0])
    bernoulli_part = ergodic_average(FAIR, [omega], CylinderIndicator(((0, 0),)), EVEN, 2000)[0]
    assert lhs == pytest.approx(g_theta * bernoulli_part, abs=1e-12)


def test_fiber_report_desk_scale():
    rep = fiber_constancy_report(
        FAIR, HALF, [Fraction(0), Fraction(1, 3)], F_PROD, EVEN,
        n_terms=2000, sample_count=50, seed=3,
    )
    assert all(d >= 0 for d in rep.dispersions)
    assert max(rep.dispersions) < 0.1
    assert rep.fiber_means[0] == pytest.approx(0.5, abs=0.05)
    assert rep.fiber_means[1] == pytest.approx(0.5 * math.cos(2 * math.pi / 3), abs=0.05)


def test_rotation_only_observable_zero_dispersion():
    # all samples share the frozen rotation coordinate, so the averages agree exactly
    f = ProductOf((Constant(1.0), TrigOnRotation(1, "cos")))
    rep = fiber_constancy_report(
        FAIR, HALF, [Fraction(0), Fraction(1, 3)], f, EVEN,
        n_terms=500, sample_count=25, seed=17,
    )
    assert rep.dispersions == (0.0, 0.0)


def test_constant_observable_zero_dispersion():
    rep = fiber_constancy_report(
        FAIR, HALF, [Fraction(0), Fraction(1, 3)], Constant(1.0), EVEN,
        n_terms=100, sample_count=20, seed=1,
    )
    assert rep.dispersions == (0.0, 0.0)
    assert rep.fiber_means == (1.0, 1.0)


def test_shift_only_observable_gives_equal_fiber_means():
    f = ProductOf((CylinderIndicator(((0, 0),)), Constant(1.0)))
    rep = fiber_constancy_report(
        FAIR, HALF, [Fraction(0), Fraction(1, 4), Fraction(1, 3)], f, EVEN,
        n_terms=5000, sample_count=50, seed=8,
    )
    means = rep.fiber_means
    assert max(means) - min(means) < 0.02


def test_fiber_values_invariant_under_sample_permutation():
    rep = fiber_constancy_report(
        FAIR, HALF, [Fraction(0)], F_PROD, EVEN, n_terms=500, sample_count=10, seed=5
    )
    vals = rep.values[0]
    assert rep.dispersions[0] == max(vals) - min(vals)


def test_irrational_alpha_means_near_zero():
    rep = fiber_constancy_report(
        FAIR, sy.Rotation.golden(), [Fraction(0), Fraction(1, 3)], F_PROD,
        SequenceSpec("Naturals"), n_terms=10_000, sample_count=20, seed=2,
    )
    assert max(abs(m) for m in rep.fiber_means) < 0.05


# ---------------------------------------------------------------------------
# Kolmogorov-type collapse


def test_kolmogorov_desk_scale():
    dev = kolmogorov_limit_check(
        FAIR, CylinderIndicator(((0, 0),)), SequenceSpec("Primes"), 10_000, 50, seed=4
    )
    assert dev < 0.05


def test_kolmogorov_full_space_indicator_exact_zero():
    dev = kolmogorov_limit_check(
        FAIR, CylinderIndicator(()), SequenceSpec("Naturals"), 500, 20, seed=4
    )
    assert dev == 0.0


def test_kolmogorov_requires_integral():
    class NoIntegral(CylinderIndicator):
        def integral(self, system):
            return None

    with pytest.raises(ConfigError):
        kolmogorov_limit_check(FAIR, NoIntegral(((0, 0),)), SequenceSpec("Naturals"), 10, 2, 0)


# ---------------------------------------------------------------------------
# lacunary contrast


def test_constant_observable_contrast_is_zero():
    good, lac = lacunary_dispersion_contrast(
        FAIR, Constant(1.0), SequenceSpec("Naturals"), SequenceSpec("Lacunary", 2), 60,
        sample_points(FAIR, 6, 50),
    )
    assert (good, lac) == (0.0, 0.0)


def test_contrast_deterministic_per_seed():
    f = CylinderIndicator(((0, 0),))
    a = lacunary_dispersion_contrast(
        FAIR, f, SequenceSpec("Naturals"), SequenceSpec("Lacunary", 2), 30, sample_points(FAIR, 9, 40)
    )
    b = lacunary_dispersion_contrast(
        FAIR, f, SequenceSpec("Naturals"), SequenceSpec("Lacunary", 2), 30, sample_points(FAIR, 9, 40)
    )
    assert a == b


def test_contrast_matched_band_and_structural_cap():
    f = CylinderIndicator(((0, 0),))
    rep = lacunary_contrast_report(
        FAIR, f, SequenceSpec("Naturals"), SequenceSpec("Lacunary", 2),
        n_terms=60, sample_count=200, seed=9, extended_terms=100_000,
    )
    scale = 2 * math.sqrt(0.25 / 60)  # binomial 2-sigma at matched K
    assert 0.5 * scale < rep.good_dispersion < 1.6 * scale
    assert 0.5 * scale < rep.lacunary_dispersion < 1.6 * scale
    assert rep.good_extended_dispersion < 0.02
    assert rep.lacunary_max_terms == 62
    assert not rep.lacunary_extended_available


def test_contrast_rejects_too_many_lacunary_terms():
    with pytest.raises(ConfigError):
        lacunary_dispersion_contrast(
            FAIR, Constant(1.0), SequenceSpec("Naturals"), SequenceSpec("Lacunary", 2), 63,
            sample_points(FAIR, 0, 5),
        )


def test_contrast_report_samples_its_points_once(monkeypatch):
    # the matched and the extended averages read one list of points
    calls = []

    def counted(*args):
        calls.append(args)
        return sample_points(*args)

    monkeypatch.setattr(pinsker, "sample_points", counted)
    rep = lacunary_contrast_report(
        FAIR, CylinderIndicator(((0, 0),)), SequenceSpec("Naturals"), SequenceSpec("Lacunary", 2),
        n_terms=30, sample_count=20, seed=9, extended_terms=1000,
    )
    assert calls == [(FAIR, 9, 20)]
    assert rep.good_dispersion > 0


def test_contrast_report_checks_the_lacunary_cap_before_sampling(monkeypatch):
    def never(*args):
        raise AssertionError("the cap must be checked before any point is sampled")

    monkeypatch.setattr(pinsker, "sample_points", never)
    with pytest.raises(ConfigError, match="has only 62 terms"):
        lacunary_contrast_report(
            FAIR, Constant(1.0), SequenceSpec("Naturals"), SequenceSpec("Lacunary", 2),
            n_terms=63, sample_count=10**9, seed=0,
        )


def test_no_points_are_refused():
    # with no points the spread read 0.0 and the deviation a bare ValueError
    f = CylinderIndicator(((0, 0),))
    with pytest.raises(ConfigError, match="at least one point"):
        lacunary_contrast_report(
            FAIR, f, SequenceSpec("Naturals"), SequenceSpec("Lacunary", 2),
            n_terms=30, sample_count=0, seed=1, extended_terms=1000,
        )
    with pytest.raises(ConfigError, match="at least one point"):
        kolmogorov_limit_check(FAIR, f, SequenceSpec("Naturals"), 10, 0, 1)
