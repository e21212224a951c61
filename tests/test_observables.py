"""Observables: every value is the length-1 case of ``series``.

The scalar ``value`` methods each kind used to carry are kept here as
oracles; ``series`` and ``value`` must give their floats.
"""

import math
import random
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqchaos.systems as sy
from seqchaos.errors import DomainError, SequenceOverflowError
from seqchaos.observables import (
    TWO_PI,
    Constant,
    CylinderIndicator,
    ProductOf,
    TrigOnRotation,
)
from seqchaos.prf import prf64

from oracles import LinearCombination, ShiftedPoint, iterate

BIASED = sy.FullShift([Fraction(1, 3), Fraction(2, 3)])
TWO_SIDED = sy.FullShift.uniform(3, side=sy.TWO_SIDED)
GOLDEN = sy.Rotation.golden()
PRODUCT = sy.ProductSystem((BIASED, GOLDEN))


# ---------------------------------------------------------------------------
# the deleted scalar paths, as oracles


def oracle_coordinate(point, i):
    if isinstance(point, sy.PeriodicPoint):
        return point.word[i % len(point.word)]
    if isinstance(point, sy.SeededRandomPoint):
        cum, seps = Fraction(0), []
        for w in point.weights[:-1]:
            cum += w
            seps.append((cum.numerator << 64) // cum.denominator)
        return bisect_right(seps, prf64(point.seed, i))
    assert isinstance(point, ShiftedPoint)
    return oracle_coordinate(point.base, i + point.offset)


def oracle_value(f, system, point):
    if isinstance(f, Constant):
        return f.c
    if isinstance(f, CylinderIndicator):
        return 1.0 if all(oracle_coordinate(point, c) == s for c, s in f.constraints) else 0.0
    if isinstance(f, TrigOnRotation):
        fn = np.cos if f.component == "cos" else np.sin
        return float(fn(TWO_PI * f.frequency * ((point >> 75) * 2.0**-53)))
    if isinstance(f, ProductOf):
        out = 1.0
        for g, comp, x in zip(f.factors, system.components, point):
            out *= oracle_value(g, comp, x)
        return out
    assert isinstance(f, LinearCombination)
    return math.fsum(c * oracle_value(g, system, point) for c, g in f.parts)


# ---------------------------------------------------------------------------
# strategies: (system, point, observable) triples of every kind


def cylinders(system):
    lowest = 0 if system.side == sy.ONE_SIDED else -5
    coords = st.lists(st.integers(lowest, 20), max_size=3, unique=True)
    return coords.flatmap(
        lambda cs: st.tuples(*[st.integers(0, system.alphabet_size - 1) for _ in cs]).map(
            lambda ss: CylinderIndicator(tuple(zip(cs, ss)))
        )
    )


CONSTANTS = st.floats(-4, 4, allow_nan=False).map(Constant)
COEFFICIENTS = st.floats(-3, 3, allow_nan=False)
# h = 1 is the only frequency whose values keep the old scalar phase
TRIG = st.sampled_from(["cos", "sin"]).map(lambda c: TrigOnRotation(1, c))


def combinations(base):
    # at most two parts: a two-term fsum is the single rounded addition series does
    return st.lists(st.tuples(COEFFICIENTS, base), min_size=1, max_size=2).map(
        lambda parts: LinearCombination(tuple(parts))
    )


def shift_cases(system):
    point = st.integers(0, 2**64 - 1).map(
        lambda seed: sy.SeededRandomPoint(seed, system.weights, side=system.side)
    )
    periodic = st.lists(st.integers(0, system.alphabet_size - 1), min_size=1, max_size=5).map(
        lambda word: sy.PeriodicPoint(tuple(word), system.alphabet_size, side=system.side)
    )
    base = st.one_of(cylinders(system), CONSTANTS)
    return st.tuples(
        st.just(system), st.one_of(point, periodic), st.one_of(base, combinations(base))
    )


def rotation_cases():
    base = st.one_of(TRIG, CONSTANTS)
    return st.tuples(
        st.just(GOLDEN), st.integers(0, sy.FRACTION_MOD - 1), st.one_of(base, combinations(base))
    )


def product_cases():
    factors = st.tuples(st.one_of(cylinders(BIASED), CONSTANTS), st.one_of(TRIG, CONSTANTS))
    points = st.tuples(
        st.integers(0, 2**64 - 1).map(lambda s: sy.SeededRandomPoint(s, BIASED.weights)),
        st.integers(0, sy.FRACTION_MOD - 1),
    )
    return st.tuples(st.just(PRODUCT), points, factors.map(ProductOf))


CASES = st.one_of(shift_cases(BIASED), shift_cases(TWO_SIDED), rotation_cases(), product_cases())


@settings(deadline=None, max_examples=300)
@given(case=CASES, times=st.lists(st.integers(0, 2**40), min_size=1, max_size=20))
def test_series_and_value_match_the_scalar_oracle(case, times):
    system, point, f = case
    expected = [oracle_value(f, system, iterate(system, point, m)) for m in times]
    got = f.series(system, [point], np.array(times, dtype=np.int64))[0]
    assert got.dtype == np.float64
    assert got.tolist() == expected  # float equality: a zero sum may differ in sign
    assert f.value(system, point) == oracle_value(f, system, point)
    assert type(f.value(system, point)) is float


def test_three_part_combination_within_its_error_bound():
    # series adds the parts in order; the old scalar value took their fsum
    rng = random.Random(8)
    for _ in range(200):
        parts = tuple((rng.uniform(-3, 3), TrigOnRotation(1, rng.choice(["cos", "sin"])))
                      for _ in range(3))
        f = LinearCombination(parts)
        x = rng.getrandbits(128)
        assert abs(f.value(GOLDEN, x) - oracle_value(f, GOLDEN, x)) <= f.error_bound()


def test_value_keeps_the_series_domain_checks():
    with pytest.raises(DomainError):
        CylinderIndicator(((0, 1),)).value(GOLDEN, 5)
    with pytest.raises(DomainError):
        TrigOnRotation(1).value(BIASED, sy.PeriodicPoint((0,), 2))
    with pytest.raises(DomainError):
        TrigOnRotation(1).value(GOLDEN, sy.PeriodicPoint((0,), 2))


def test_negative_cylinder_coordinate_needs_a_two_sided_point():
    # (T**m x)_{-1} does not exist in a one-sided shift, at any time m
    f = CylinderIndicator(((-1, 0),))
    one_sided = sy.SeededRandomPoint(1, BIASED.weights)
    with pytest.raises(DomainError):
        f.series(BIASED, [one_sided], [0, 1, 2])
    with pytest.raises(DomainError):
        f.value(BIASED, one_sided)
    two_sided = sy.PeriodicPoint((0, 1, 2), 3, side=sy.TWO_SIDED)
    assert f.series(TWO_SIDED, [two_sided], [0, 1, 2]).tolist() == [[0.0, 1.0, 0.0]]


def test_negative_time_needs_a_two_sided_point():
    f = CylinderIndicator(((0, 0),))
    for point in (sy.SeededRandomPoint(1, BIASED.weights), sy.PeriodicPoint((0, 1), 2)):
        with pytest.raises(DomainError):
            f.series(BIASED, [point], [-5, 0, 1])
    two_sided = sy.PeriodicPoint((0, 1, 2), 3, side=sy.TWO_SIDED)
    assert f.series(TWO_SIDED, [two_sided], [-5, 0, 1]).tolist() == [[0.0, 1.0, 0.0]]


@pytest.mark.parametrize("times", [[0, 1], [-1]], ids=["ahead", "minus_one"])
@pytest.mark.parametrize("side", [sy.ONE_SIDED, sy.TWO_SIDED])
def test_a_point_of_the_other_side_is_refused(side, times):
    # cylinders and distances share one membership test, so a two-sided
    # point is no point of a one-sided shift even where it could be read
    shift = sy.FullShift.uniform(3, side=side)
    other = sy.TWO_SIDED if side == sy.ONE_SIDED else sy.ONE_SIDED
    member, stranger = (sy.PeriodicPoint((0, 1, 2), 3, side=s) for s in (side, other))
    f = CylinderIndicator(((0, 0),))
    for xs, ys in (([stranger], [stranger]), ([member, stranger], [member, member])):
        with pytest.raises(DomainError, match="points do not live in this shift space"):
            f.series(shift, xs, times)
        with pytest.raises(DomainError):
            sy.distance_series(shift, xs, ys, times)
    if min(times) >= 0 or side == sy.TWO_SIDED:
        assert f.series(shift, [member], times).shape == (1, len(times))
        assert not sy.distance_series(shift, [member], [member], times).any()


@pytest.mark.parametrize("side", [sy.ONE_SIDED, sy.TWO_SIDED])
def test_a_point_over_a_larger_alphabet_is_refused(side):
    # a point that reads symbol 2 is no point of the 2-shift, whatever the
    # cylinder asks of it; one over fewer symbols lives in a subshift
    shift = sy.FullShift.uniform(2, side=side)
    stranger = sy.SeededRandomPoint(3, (Fraction(1, 3),) * 3, side=side)
    assert 2 in stranger.coordinates(range(20))
    member, small = sy.PeriodicPoint((0, 1), 2, side=side), sy.PeriodicPoint((0,), 1, side=side)
    f = CylinderIndicator(((0, 0),))
    for xs, ys in (([stranger], [member]), ([member, member], [small, stranger])):
        with pytest.raises(DomainError, match="points do not live in this shift space"):
            f.series(shift, xs + ys, [0, 1])
        with pytest.raises(DomainError, match="points do not live in this shift space"):
            sy.distance_series(shift, xs, ys, [0, 1])
    assert f.series(shift, [member, small], [0, 1]).tolist() == [[1.0, 0.0], [1.0, 1.0]]
    assert (sy.distance_series(shift, [member], [small], [0, 1]) > 0).all()


def test_cylinder_coordinate_past_int64_raises_instead_of_wrapping():
    f = CylinderIndicator(((1, 0),))
    points = [sy.sample_point(BIASED, 1), sy.PeriodicPoint((0,), 2)]
    last = 2**63 - 2
    assert f.series(BIASED, points, [last]).shape == (2, 1)
    with pytest.raises(DomainError):
        f.series(BIASED, points, [0, last + 1])
    low = CylinderIndicator(((-1, 0),))
    two_sided = [sy.PeriodicPoint((0,), 3, side=sy.TWO_SIDED)]
    assert low.series(TWO_SIDED, two_sided, [-(2**63) + 1]).tolist() == [[1.0]]
    with pytest.raises(DomainError):
        low.series(TWO_SIDED, two_sided, [-(2**63)])


@pytest.mark.parametrize("time", [2**63, -(2**63) - 1])
def test_cylinder_time_outside_int64_is_a_sequence_overflow(time):
    # as for the rotation and the distances, which the CLI maps to exit 3
    points = [sy.sample_point(BIASED, 1)]
    with pytest.raises(SequenceOverflowError, match="time #1"):
        CylinderIndicator(((0, 0),)).series(BIASED, points, [1, time])
    with pytest.raises(SequenceOverflowError, match="time #1"):
        TrigOnRotation(1).series(GOLDEN, [0], [1, time])


# ---------------------------------------------------------------------------
# TrigOnRotation against mpmath


FREQUENCIES = [1, -7, 10**3, 10**6, 10**9]


@pytest.mark.parametrize("h", FREQUENCIES)
@pytest.mark.parametrize("component", ["cos", "sin"])
def test_trig_error_bound_holds_against_mpmath(h, component):
    mp = pytest.importorskip("mpmath")
    f = TrigOnRotation(h, component)
    rng = random.Random(h)
    x0 = rng.getrandbits(128)
    times = [0] + [rng.randrange(2**40) for _ in range(1000)]
    got = f.series(GOLDEN, [x0], np.array(times, dtype=np.int64))[0].tolist()
    exact_fn = mp.cos if component == "cos" else mp.sin
    worst = 0.0
    with mp.workprec(400):
        two_pi = 2 * mp.pi
        for m, value in zip(times, got):
            phase = (h * (x0 + m * GOLDEN.alpha_num)) % sy.FRACTION_MOD
            exact = exact_fn(two_pi * mp.mpf(phase) / sy.FRACTION_MOD)
            worst = max(worst, float(abs(mp.mpf(value) - exact)))
    assert worst <= f.error_bound()
    assert f.value(GOLDEN, x0) == got[0]


def test_trig_error_bound_does_not_depend_on_frequency():
    bounds = {TrigOnRotation(h, c).error_bound() for h in FREQUENCIES for c in ("cos", "sin")}
    assert len(bounds) == 1
    assert bounds.pop() < 2e-15


# ---------------------------------------------------------------------------
# ProductOf and LinearCombination against mpmath


def mp_trig(mp, f, rotation, x, m):
    """cos or sin(2 pi h (x + m alpha)) at 400 bits, from the exact grid phase."""
    phase = (f.frequency * (x + m * rotation.alpha_num)) % sy.FRACTION_MOD
    fn = mp.cos if f.component == "cos" else mp.sin
    return fn(2 * mp.pi * mp.mpf(phase) / sy.FRACTION_MOD)


def worst_error(mp, f, system, points, times, exact):
    """Largest |series - exact(point, m)| over the points and times."""
    got = f.series(system, points, np.array(times, dtype=np.int64))
    with mp.workprec(400):
        return max(
            float(abs(mp.mpf(value) - exact(x, m)))
            for x, row in zip(points, got.tolist())
            for m, value in zip(times, row)
        )


@pytest.mark.parametrize("h1, h2", [(1, 1), (-7, 10**6), (10**9, 3)])
def test_trig_product_error_bound_holds_against_mpmath(h1, h2):
    mp = pytest.importorskip("mpmath")
    rng = random.Random(h1 * h2)
    other = sy.Rotation(rng.getrandbits(128))
    system = sy.ProductSystem((GOLDEN, other))
    cos, sin = TrigOnRotation(h1, "cos"), TrigOnRotation(h2, "sin")
    f = ProductOf((cos, sin))
    points = [(rng.getrandbits(128), rng.getrandbits(128)) for _ in range(3)]
    times = [0] + [rng.randrange(2**40) for _ in range(400)]

    def exact(x, m):
        return mp_trig(mp, cos, GOLDEN, x[0], m) * mp_trig(mp, sin, other, x[1], m)

    assert worst_error(mp, f, system, points, times, exact) <= f.error_bound()


def test_cylinder_times_cos_error_bound_holds_against_mpmath():
    # the FiberConstancy product: a fair shift times the rotation by 1/2,
    # sampled on the fibers theta = 0 and theta = 1/3
    mp = pytest.importorskip("mpmath")
    shift, rotation = sy.FullShift.uniform(2), sy.Rotation.from_fraction("1/2")
    system = sy.ProductSystem((shift, rotation))
    cylinder, cos = CylinderIndicator(((0, 0),)), TrigOnRotation(1, "cos")
    f = ProductOf((cylinder, cos))
    thetas = [0, sy.FRACTION_MOD // 3]
    points = [(sy.sample_point(shift, s), theta) for s in range(3) for theta in thetas]
    rng = random.Random(5)
    times = [0] + [rng.randrange(2**40) for _ in range(400)]

    def exact(x, m):
        inside = oracle_coordinate(x[0], m) == 0
        return mp_trig(mp, cos, rotation, x[1], m) if inside else mp.mpf(0)

    assert worst_error(mp, f, system, points, times, exact) <= f.error_bound()


@pytest.mark.parametrize(
    "coefficients", [(0.3, -1.7, 2.5), (1.0, 1.0, 1.0), (3.7, -2.9, 5.1)]
)
def test_linear_combination_error_bound_holds_against_mpmath(coefficients):
    mp = pytest.importorskip("mpmath")
    parts = [TrigOnRotation(1, "cos"), TrigOnRotation(-7, "sin"), TrigOnRotation(10**6, "cos")]
    f = LinearCombination(tuple(zip(coefficients, parts)))
    rng = random.Random(len(coefficients))
    points = [rng.getrandbits(128) for _ in range(3)]
    times = [0] + [rng.randrange(2**40) for _ in range(400)]

    def exact(x, m):
        return mp.fsum(mp.mpf(c) * mp_trig(mp, g, GOLDEN, x, m) for c, g in zip(coefficients, parts))

    assert worst_error(mp, f, GOLDEN, points, times, exact) <= f.error_bound()
