"""Averages over sampled points as rows: every row must keep the bits of
the per-point average, whatever the block sizes and the worker count."""

import math
from collections import Counter
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import seqchaos.systems as sy
from seqchaos import averaging, chaos
from seqchaos.averaging import SUM_ERROR_BOUND, ergodic_average, sampled_averages
from seqchaos.errors import ConfigError, DomainError
from seqchaos.observables import (
    Constant,
    CylinderIndicator,
    ProductOf,
    TrigOnRotation,
)
from seqchaos.seqgen import SequenceSpec, times_array

from oracles import LinearCombination, oracle_average, shift_point

BIASED = sy.FullShift(["1/3", "2/3"])
TWO_SIDED = sy.FullShift.uniform(3, side=sy.TWO_SIDED)
GOLDEN = sy.Rotation.golden()
PRODUCT = sy.ProductSystem((BIASED, GOLDEN))
SEQUENCES = [
    SequenceSpec("Naturals"),
    SequenceSpec("Primes"),
    SequenceSpec("PolynomialFloor", [0, 0, 1]),
]

EDGES = [0.0, -0.0, 1.0, 0.5, -0.5, math.inf, -math.inf, math.nan, 1e308, -1e308,
         2.0**1000, 5e-324]
VALUES = st.one_of(st.floats(-4, 4), st.sampled_from(EDGES))
CONSTANTS = VALUES.map(Constant)


def combined(base):
    """Linear combinations of base observables, and pairs c*g - c*g that cancel."""
    parts = st.lists(st.tuples(VALUES, base), min_size=1, max_size=3)
    cancel = st.tuples(st.floats(-4, 4), base).map(lambda cg: ((cg[0], cg[1]), (-cg[0], cg[1])))
    return st.one_of(parts, cancel).map(lambda ps: LinearCombination(tuple(ps)))


def with_combinations(base):
    return st.one_of(base, combined(base))


def cylinders(system):
    lowest = 0 if system.side == sy.ONE_SIDED else -4
    coords = st.lists(st.integers(lowest, 6), max_size=3, unique=True)
    return coords.flatmap(
        lambda cs: st.tuples(*[st.integers(0, system.alphabet_size - 1) for _ in cs]).map(
            lambda ss: CylinderIndicator(tuple(zip(cs, ss)))
        )
    )


def shift_points(system):
    """Point kinds mixed in one batch: seeded points share the system's weights
    tuple, an equal copy of it or other weights; periodic, shifted and block points."""
    k = system.alphabet_size
    weights = st.sampled_from([system.weights, tuple(list(system.weights)), (Fraction(1, k),) * k])
    seeded = st.builds(
        lambda seed, w: sy.SeededRandomPoint(seed, w, side=system.side),
        st.integers(0, 2**64 - 1), weights,
    )
    periodic = st.lists(st.integers(0, k - 1), min_size=1, max_size=4).map(
        lambda word: sy.PeriodicPoint(tuple(word), k, side=system.side)
    )
    shifted = st.builds(shift_point, seeded, st.integers(0, 10**6))
    block = st.builds(
        lambda b, s, p: sy.BlockScheduledPoint((b,), (s, p), k, side=system.side),
        st.integers(1, 300), st.integers(0, k - 1), seeded,
    )
    return st.one_of(seeded, seeded, periodic, shifted, block)


ROTATION_POINTS = st.one_of(
    st.integers(0, sy.FRACTION_MOD - 1),
    st.integers(sy.FRACTION_MOD - 2**70, sy.FRACTION_MOD - 1),
)
TRIG = st.builds(
    TrigOnRotation,
    st.integers(-50, 50).filter(bool),
    st.sampled_from(["cos", "sin"]),
)


def cases():
    """(system, points, observable): every observable kind on every system kind."""
    shift = [
        st.tuples(st.just(s), st.lists(shift_points(s), min_size=1, max_size=6),
                  with_combinations(st.one_of(cylinders(s), CONSTANTS, TRIG)))
        for s in (BIASED, TWO_SIDED)
    ]
    rotation = st.tuples(
        st.just(GOLDEN), st.lists(ROTATION_POINTS, min_size=1, max_size=6),
        with_combinations(st.one_of(TRIG, CONSTANTS, cylinders(BIASED))),
    )
    factors = st.tuples(st.one_of(cylinders(BIASED), CONSTANTS), st.one_of(TRIG, CONSTANTS))
    product = st.tuples(
        st.just(PRODUCT),
        st.lists(st.tuples(shift_points(BIASED), ROTATION_POINTS), min_size=1, max_size=6),
        with_combinations(st.one_of(factors.map(ProductOf), CONSTANTS)),
    )
    return st.one_of(*shift, rotation, product)


def outcome(fn):
    """The bits of the floats ``fn`` returns, or the type of what it raises."""
    try:
        return [float(v).hex() for v in fn()]
    except (DomainError, OverflowError, ValueError) as exc:
        return type(exc)


def refused(f, n):
    """True when f's declared bounds times n could reach 2**1020 (NaN too)."""
    return not all(abs(b) * n < averaging._SAFE_SUM for b in f.bounds())


def check_rows(system, points, f, seq, n):
    """Rows equal the per-point oracle; raising rows raise what some point
    raises; observables whose bounds could overflow the sum are refused."""
    rows = outcome(lambda: ergodic_average(system, points, f, seq, n))
    if refused(f, n):
        assert rows is ConfigError
        return rows
    each = [outcome(lambda: [oracle_average(system, x, f, seq, n)]) for x in points]
    raised = {o for o in each if isinstance(o, type)}
    if raised:
        assert isinstance(rows, type) and rows in raised
    else:
        assert rows == [o[0] for o in each]
    return rows


@settings(deadline=None, max_examples=300)
@given(
    case=cases(),
    seq=st.sampled_from(SEQUENCES),
    n=st.integers(1, 150),
    cells=st.one_of(st.just(averaging._CELLS), st.integers(1, 50)),
    step=st.one_of(st.just(averaging._STEP_CELLS), st.integers(1, 50)),
)
def test_rows_keep_the_bits_of_the_per_point_average(case, seq, n, cells, step):
    # small cell budgets cut the times into many blocks, so that a row mixes
    # 0/1 blocks with other blocks and the superaccumulator widens often
    system, points, f = case
    with mock.patch.object(averaging, "_CELLS", cells), \
            mock.patch.object(averaging, "_STEP_CELLS", step):
        rows = check_rows(system, points, f, seq, n)
    if isinstance(rows, list):  # the oracle's sum is fsum's, bit for bit
        ts = times_array(seq, n)
        fsums = [math.fsum(f.series(system, [x], ts)[0]) / n for x in points]
        assert rows == [v.hex() for v in fsums]


def test_rows_with_zero_totals_take_fsums_zero():
    # a rotation by 1/2 from 0: cos is 1, -1, 1, ... (not 0/1), total 0 for even N
    half = sy.Rotation(1 << 127)
    f = TrigOnRotation(1, "cos")
    naturals = SequenceSpec("Naturals")
    for n in (2, 10, 1000):
        assert check_rows(half, [0, 1 << 127, 0], f, naturals, n) == [0.0.hex()] * 3
    cancel = LinearCombination(((0.5, CylinderIndicator(((0, 0),))), (-0.5, Constant(1.0))))
    points = [sy.PeriodicPoint((0,), 2), sy.PeriodicPoint((1,), 2), sy.PeriodicPoint((0, 1), 2)]
    assert check_rows(BIASED, points, cancel, naturals, 4) == [
        0.0.hex(), (-0.5).hex(), (-0.25).hex()
    ]


@pytest.mark.parametrize("cells", [1, 7, averaging._CELLS])
def test_rows_with_non_finite_and_near_overflow_values(cells):
    cyl = CylinderIndicator(((0, 1),))
    points = [sy.PeriodicPoint((1,), 2), sy.PeriodicPoint((0,), 2), sy.PeriodicPoint((0, 1), 2)]
    naturals = SequenceSpec("Naturals")
    refused_always = [
        LinearCombination(((math.inf, cyl),)),  # inf * 0 is nan
        LinearCombination(((1e308, cyl),)),  # 1e308 alone passes 2**1020
        Constant(math.nan),
    ]
    with mock.patch.object(averaging, "_CELLS", cells):
        for f in refused_always:
            for n in (1, 2, 9):
                assert check_rows(BIASED, points, f, naturals, n) is ConfigError
                assert check_rows(BIASED, points[1:], f, naturals, n) is ConfigError
        # bounds (-2**999, 2**999): 9 terms stay below 2**1020 and sum as fsum
        near = LinearCombination(((2.0**1000, cyl), (-(2.0**1000), Constant(0.5))))
        for n in (1, 2, 9):
            assert check_rows(BIASED, points, near, naturals, n) == [
                (2.0**999).hex(), (-(2.0**999)).hex(), (2.0**999 / n * (n % 2)).hex()
            ]
        assert check_rows(BIASED, points, near, naturals, 2**21) is ConfigError
    # rows that would turn non-finite, or whose partial sums would pass
    # 2**1024, only after some finite blocks are refused before any block
    late = [sy.BlockScheduledPoint((41,), (1, 0), 2), sy.PeriodicPoint((1, 0), 2)]
    cyl0 = CylinderIndicator(((0, 0),))
    turns_infinite = LinearCombination(((0.5, Constant(1.0)), (1e308, cyl0), (1e308, cyl0)))
    climbs = LinearCombination(((2.0**1020, cyl), (-(2.0**1019), Constant(1.0))))
    with mock.patch.object(averaging, "_CELLS", cells):
        for n in (2, 40, 79):
            assert check_rows(BIASED, late, turns_infinite, naturals, n) is ConfigError
            assert check_rows(BIASED, late, climbs, naturals, n) is ConfigError
        # 2**1013 and -2**1012 keep 79 terms below 2**1020: the first row
        # climbs 40 times by 2**1012 and falls 39 times
        climbs = LinearCombination(((2.0**1013, cyl), (-(2.0**1012), Constant(1.0))))
        assert check_rows(BIASED, late, climbs, naturals, 79) == [
            (2.0**1012 / 79).hex(), (-(2.0**1012) / 79).hex()
        ]


@settings(deadline=None, max_examples=300)
@given(case=cases(), seq=st.sampled_from(SEQUENCES), n=st.integers(1, 60))
def test_series_values_lie_within_the_declared_bounds(case, seq, n):
    # the overflow refusal reads only bounds(): every observable kind must
    # keep every value finite and inside them wherever they are finite
    system, points, f = case
    lo, hi = f.bounds()
    assume(math.isfinite(lo) and math.isfinite(hi))
    try:
        vals = f.series(system, points, times_array(seq, n))
    except DomainError:
        return
    assert np.isfinite(vals).all()
    assert lo <= vals.min() and vals.max() <= hi


# ---------------------------------------------------------------------------
# SUM_ERROR_BOUND against an exact Fraction sum


@settings(deadline=None, max_examples=200)
@given(
    rows=st.lists(st.lists(st.floats(-1, 1), min_size=1, max_size=60), min_size=1, max_size=5)
        .filter(lambda rs: len({len(r) for r in rs}) == 1),
    step=st.integers(1, 50),
)
def test_row_sums_are_the_exact_sum_rounded_once(rows, step):
    # each row's total is its Fraction sum rounded once, so the average of N
    # values bounded by 1 is within about 2 ulp of 1 of the exact average
    vals = np.array(rows)
    n = vals.shape[1]
    acc = averaging._RowSums(len(vals))
    with mock.patch.object(averaging, "_STEP_CELLS", step):
        for lo in range(0, n, 3):
            acc.add(vals[:, lo : lo + 3], n)
    for row, total in zip(rows, acc.totals()):
        exact = sum(map(Fraction, row), Fraction(0))
        assert Fraction(total, 1 << averaging._UNIT_BITS) == exact
        if exact:
            assert total / (1 << averaging._UNIT_BITS) == float(exact)
            error = abs(Fraction(float(exact) / n) - exact / n)
            assert error <= 2.0**-52 < SUM_ERROR_BOUND


def test_sum_error_bound_holds_for_long_sampled_averages():
    f = TrigOnRotation(1, "cos")
    points = [sy.sample_point(GOLDEN, s) for s in range(3)]
    naturals = SequenceSpec("Naturals")
    averages = ergodic_average(GOLDEN, points, f, naturals, 20_000)
    ts = times_array(naturals, 20_000)
    for x, a in zip(points, averages):
        exact = sum(map(Fraction, f.series(GOLDEN, [x], ts)[0].tolist()), Fraction(0))
        assert abs(Fraction(a) - exact / 20_000) <= SUM_ERROR_BOUND * 2.0**-8


# ---------------------------------------------------------------------------
# worker independence


def test_sampled_averages_do_not_depend_on_the_worker_count():
    f = CylinderIndicator(((0, 0),))
    points = [sy.sample_point(BIASED, s) for s in range(5)]
    primes = SequenceSpec("Primes")
    serial = sampled_averages(BIASED, points, f, primes, 3000, workers=1)
    assert serial == [oracle_average(BIASED, x, f, primes, 3000) for x in points]
    for workers in (2, 3, 8):
        assert sampled_averages(BIASED, points, f, primes, 3000, workers=workers) == serial


def raised_or_bytes(fn):
    """The bytes of the array ``fn`` returns, or the type and message it raises;
    a value may overflow (a combination of huge constants)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn().tobytes()
    except (DomainError, ConfigError) as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=150)
@given(
    case=cases(),
    seq=st.sampled_from(SEQUENCES),
    n=st.integers(1, 60),
    cells=st.one_of(st.just(averaging._CELLS), st.integers(1, 50)),
)
def test_rows_give_the_bytes_of_the_equal_list(case, seq, n, cells):
    # Rows compute their checks once; a list is checked afresh on every call
    system, points, f = case
    rows = sy.Rows(points)
    with mock.patch.object(averaging, "_CELLS", cells):
        assert outcome(lambda: ergodic_average(system, rows, f, seq, n)) == outcome(
            lambda: ergodic_average(system, points, f, seq, n)
        )
    ts = times_array(seq, n)
    for g in (f, CylinderIndicator(((0, 0),)), CylinderIndicator(((-2, 0), (3, 1)))):
        assert raised_or_bytes(lambda: g.series(system, rows, ts)) == raised_or_bytes(
            lambda: g.series(system, points, ts)
        )
    if isinstance(system, sy.FullShift):
        idx = np.arange(-5, 40)[5 if system.side == sy.ONE_SIDED else 0 :]
        assert sy.coordinates_of(rows, idx).tobytes() == sy.coordinates_of(points, idx).tobytes()


def test_rows_keep_every_membership_error_and_its_message():
    one_sided = sy.SeededRandomPoint(1, BIASED.weights)
    other_side = sy.SeededRandomPoint(2, BIASED.weights, side=sy.TWO_SIDED)
    three = sy.PeriodicPoint((0, 2), 3)
    f = CylinderIndicator(((0, 0),))
    refusals = [
        (lambda pts: f.series(BIASED, pts, [0, 1]), [one_sided, other_side],
         "points do not live in this shift space"),
        (lambda pts: sy.distance_series(BIASED, pts, pts[::-1], [0, 1]), [one_sided, other_side],
         "points do not live in this shift space"),
        (lambda pts: f.series(BIASED, pts, [0, 1]), [one_sided, three],
         "points do not live in this shift space"),
        (lambda pts: sy.distance_series(BIASED, pts, pts[::-1], [0, 1]), [one_sided, three],
         "points do not live in this shift space"),
        (lambda pts: f.series(GOLDEN, pts, [0, 1]), [5, 7],
         "cylinder observable needs a symbolic point"),
    ]
    for call, points, message in refusals:
        for pts in (points, sy.Rows(points)):
            with pytest.raises(DomainError) as caught:
                call(pts)
            assert str(caught.value) == message


@pytest.mark.parametrize("same_weights", [True, False])
def test_a_negative_coordinate_first_read_in_a_later_block_raises(same_weights):
    # the check that depends on the times runs on every block of one stream:
    # the cylinder reads coordinate t - 10, which is -4 only at the last time
    weights = BIASED.weights if same_weights else tuple(list(BIASED.weights))
    points = [sy.SeededRandomPoint(1, BIASED.weights), sy.SeededRandomPoint(2, weights)]
    f = CylinderIndicator(((-10, 1),))
    times = [10 + k for k in range(40)] + [6]
    seq = SequenceSpec("Explicit", times)
    with mock.patch.object(averaging, "_CELLS", 2 * 8):
        for pts in (points, sy.Rows(points)):
            assert len(ergodic_average(BIASED, pts, f, seq, 40)) == 2
            with pytest.raises(DomainError) as caught:
                ergodic_average(BIASED, pts, f, seq, 41)
            assert str(caught.value) == "coordinate -4 < 0 on a one-sided point"


FACTS = ("symbolic", "sides", "alphabet", "seeds")


@contextmanager
def facts_computed():
    """The names of the :class:`systems.Rows` facts computed in the block, in order."""
    computed = []
    with ExitStack() as stack:
        for name in FACTS:
            fact = sy.Rows.__dict__[name]

            def spy(rows, compute=fact.func, name=name):
                computed.append(name)
                return compute(rows)

            stack.enter_context(mock.patch.object(fact, "func", spy))
        yield computed


def test_product_points_find_their_factor_rows_once():
    # the rows of each factor, and their facts, are found once per average
    # or tuple, not once a block: product points hand their factor rows out
    points = [sy.sample_point(PRODUCT, s) for s in range(3)]
    f = ProductOf((CylinderIndicator(((0, 0),)), TrigOnRotation(1, "cos")))
    seq = SequenceSpec("Primes")
    series = mock.patch.object(ProductOf, "series", autospec=True, side_effect=ProductOf.series)
    distances = mock.patch.object(chaos, "distance_series", wraps=chaos.distance_series)
    with mock.patch.object(averaging, "_CELLS", 3 * 16), facts_computed() as computed:
        with series as blocks:
            ergodic_average(PRODUCT, points, f, seq, 100)
        assert blocks.call_count == 7
        # all on the cylinder factor's rows; the cosine reads none
        assert Counter(computed) == Counter(FACTS)
        computed.clear()
        with distances as blocks:
            chaos.tuple_distance_averages(PRODUCT, points, seq, [100])
        assert blocks.call_count == 5
        # the membership facts of the shift factor's rows of the xs and of the ys
        assert Counter(computed) == {"sides": 2, "alphabet": 2}
