import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqchaos.systems as sy
from seqchaos import averaging, chaos
from seqchaos.averaging import (
    disintegration_consistency,
    ergodic_average,
    max_deviation,
    sample_points,
)
from seqchaos.errors import ConfigError, DomainError
from seqchaos.observables import (
    Constant,
    CylinderIndicator,
    ProductOf,
    TrigOnRotation,
)
from seqchaos.seqgen import SequenceSpec

from oracles import LinearCombination, generate_prefix, iterate

FAIR = sy.FullShift.uniform(2)
GOLDEN = sy.Rotation.golden()
NATURALS = SequenceSpec("Naturals")
PRIMES = SequenceSpec("Primes")


def brute_average(system, x, f, seq, n):
    # reference path: explicit orbit iteration, no vectorization
    vals = [f.value(system, iterate(system, x, m)) for m in generate_prefix(seq, n)]
    return math.fsum(vals) / n


def test_fixed_point_average_is_one():
    x = sy.PeriodicPoint((0,), 2)
    f = CylinderIndicator(((0, 0),))
    for seq in (NATURALS, PRIMES, SequenceSpec("Lacunary", 2)):
        assert ergodic_average(FAIR, [x], f, seq, 20)[0] == 1.0


def test_rotation_four_cycle_cancels():
    rot = sy.Rotation.from_fraction(Fraction(1, 4))
    a = ergodic_average(rot, [0], TrigOnRotation(1, "cos"), NATURALS, 4)[0]
    assert abs(a) < 1e-12


def test_vectorized_average_matches_bruteforce():
    x = sy.sample_point(FAIR, 7)
    f = CylinderIndicator(((0, 0),))
    for n in (1, 17, 1000):
        assert ergodic_average(FAIR, [x], f, PRIMES, n)[0] == pytest.approx(
            brute_average(FAIR, x, f, PRIMES, n), abs=1e-14
        )
    g = TrigOnRotation(1, "cos")
    assert ergodic_average(GOLDEN, [5], g, NATURALS, 500)[0] == pytest.approx(
        brute_average(GOLDEN, 5, g, NATURALS, 500), abs=1e-12
    )


def test_bernoulli_average_near_half_across_seeds():
    f = CylinderIndicator(((0, 0),))
    devs = [
        abs(ergodic_average(FAIR, [sy.sample_point(FAIR, s)], f, PRIMES, 10_000)[0] - 0.5)
        for s in range(30)
    ]
    assert max(devs) < 0.03


def test_average_within_observable_bounds():
    f = CylinderIndicator(((0, 0), (3, 1)))
    x = sy.sample_point(FAIR, 3)
    a = ergodic_average(FAIR, [x], f, NATURALS, 1000)[0]
    lo, hi = f.bounds()
    assert lo - 1e-12 <= a <= hi + 1e-12


def test_linearity():
    rng = random.Random(0)
    f = CylinderIndicator(((0, 0),))
    g = CylinderIndicator(((1, 1),))
    x = sy.sample_point(FAIR, 12)
    for _ in range(20):
        alpha = rng.uniform(-1, 1)
        beta = rng.uniform(-1, 1)
        combo = LinearCombination(((alpha, f), (beta, g)))
        lhs = ergodic_average(FAIR, [x], combo, PRIMES, 2000)[0]
        rhs = alpha * ergodic_average(FAIR, [x], f, PRIMES, 2000)[0] + beta * ergodic_average(
            FAIR, [x], g, PRIMES, 2000
        )[0]
        assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------------------
# exact reduction


def exact_sums(vals, ends):
    # the one summation routine with an array as its single row
    return averaging.checkpoint_sums(lambda lo, hi: vals[None, lo:hi], 1, ends)[0]


def fsum_sums(vals, ends):
    # reference: compensated summation of every prefix
    return [math.fsum(vals[:n]) for n in ends]


def refused(vals, ends):
    """True when checkpoint_sums must raise DomainError: some value up to the
    last end is not finite, or its magnitude times that end reaches 2**1020."""
    n = ends[-1]
    return not all(abs(v) * n < averaging._SAFE_SUM for v in vals[:n].tolist())


def expected_sums(vals, ends):
    """The bits of fsum at every end, or DomainError where the values are refused."""
    return DomainError if refused(vals, ends) else hex_list(fsum_sums(vals, ends))


def hex_list(values):
    return [float(v).hex() for v in values]


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3 * averaging._CELLS + 7),
    density=st.sampled_from([0.0, 0.001, 0.5, 0.999, 1.0]),
    cuts=st.lists(st.floats(0, 1), max_size=6),
)
def test_counted_indicator_sums_match_fsum(seed, n, density, cuts):
    rng = np.random.default_rng(seed)
    vals = (rng.random(n) < density).astype(np.float64)
    vals[(vals == 0) & (rng.random(n) < 0.1)] = -0.0  # fsum adds -0.0 as a zero too
    ends = sorted({max(1, round(c * n)) for c in cuts} | {n})
    assert averaging._is_indicator(vals)
    assert hex_list(exact_sums(vals, ends)) == hex_list(fsum_sums(vals, ends))
    assert hex_list([exact_sums(vals, [n])[0] / n]) == hex_list([math.fsum(vals) / n])


def test_non_indicator_series_keep_fsum():
    x = GOLDEN.alpha_num // 3
    cos_vals = TrigOnRotation(1, "cos").series(GOLDEN, [x], np.arange(1, 5001, dtype=np.int64))[0]
    product = sy.ProductSystem((sy.FullShift.uniform(2), sy.Rotation.from_fraction("1/2")))
    point = (sy.sample_point(product.components[0], 3), 0)
    f = ProductOf((CylinderIndicator(((0, 0),)), TrigOnRotation(1, "cos")))
    prod_vals = f.series(product, [point], np.arange(1, 5001, dtype=np.int64))[0]
    assert set(prod_vals.tolist()) == {0.0, 1.0, -1.0}
    late = np.zeros(2 * averaging._CELLS + 9)
    late[-1] = 0.5  # the only non-0/1 value sits in the last block
    for vals in (cos_vals, prod_vals, late):
        assert not averaging._is_indicator(vals)
        ends = [1, len(vals) // 2, len(vals)]
        assert hex_list(exact_sums(vals, ends)) == hex_list(fsum_sums(vals, ends))


def outcome(fn):
    """The bits of the floats ``fn`` returns, or the type of what it raises."""
    try:
        return hex_list(fn())
    except (OverflowError, ValueError) as exc:  # fsum's overflow; DomainError is a ValueError
        return type(exc)


MAX_FLOAT = 1.7976931348623157e308
EDGES = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
         1e308, -1e308, MAX_FLOAT, -MAX_FLOAT, 2.0**1023, 0.1]
FINITE = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(-1e-300, 1e-300),  # tiny and subnormal values
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGES),
)


def draw_ends(data, n):
    return data.draw(st.lists(st.integers(1, n), min_size=1, max_size=8, unique=True).map(sorted))


@settings(deadline=None, max_examples=300)
@given(
    data=st.data(),
    values=st.lists(FINITE, min_size=1, max_size=120),
    block=st.integers(1, 50),
    fold=st.sampled_from([averaging._FOLD_EVERY, 1, 2, 5]),
)
def test_exact_sums_match_fsum_at_every_end(data, values, block, fold):
    # small blocks, so that the ends cut across many block edges, and
    # folds of the per-exponent sums between ends
    vals = np.array(values)
    ends = draw_ends(data, len(vals))
    with mock.patch.object(averaging, "_CELLS", block), mock.patch.object(
        averaging, "_FOLD_EVERY", fold
    ):
        assert outcome(lambda: exact_sums(vals, ends)) == expected_sums(vals, ends)


GRID = st.one_of(
    st.integers(0, 2**53).map(lambda k: k * 2.0**-53),
    st.integers(0, 2**48).map(lambda k: k * 2.0**-48),  # shift distances at window 48
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 2.0**-53, 1 - 2.0**-53]),
)
OFF_GRID = st.one_of(
    st.floats(-1.0, 1.0).filter(lambda v: not (0 <= v <= 1 and (v * 2.0**53).is_integer())),
    # 1e301 * 2**53 would overflow: the range is checked before the scaling
    st.sampled_from([-(2.0**-53), 2.0**-54, 5e-324, 1 + 2.0**-52, 2.0, 1e301, -1.0, 0.1]),
)
IN_RANGE = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(-(2.0**-26), 2.0**-26),  # no bits in the first limb: a remainder
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals
    st.sampled_from([1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324, 2.0**-26, -(2.0**-27), 2.0**-78,
                     2.0**-79 * (1 + 2.0**-52), 1 - 2.0**-53, -(1 - 2.0**-53)]),
)
ROWS = {
    "grid": GRID,
    "off-grid": OFF_GRID,
    "mixed": st.one_of(GRID, OFF_GRID),
    "in-range": IN_RANGE,  # the limbs, and remainders below 2**-78
    # a block that holds a value above 1 goes to the frexp steps whole
    "over-one": st.one_of(IN_RANGE, st.sampled_from([1 + 2.0**-52, 2.0, 3.75, 1e10, -1e10])),
}


@settings(deadline=None, max_examples=250)
@given(
    data=st.data(),
    kinds=st.lists(st.sampled_from([*ROWS, "negative-zeros"]), min_size=1, max_size=4),
    n=st.integers(1, 80),
    block=st.integers(1, 50),
    fold=st.sampled_from([averaging._FOLD_EVERY, 1, 2, 5]),
)
def test_block_kinds_sum_as_fsum(data, kinds, n, block, fold):
    # rows of values on the 2**-53 grid of [0, 1], off it, both, in [-1, 1]
    # with values below every limb, with values above 1, or -0.0 only,
    # summed together, with ends across block edges and folds between
    vals = np.array([[-0.0] * n if kind == "negative-zeros"
                     else data.draw(st.lists(ROWS[kind], min_size=n, max_size=n))
                     for kind in kinds])
    if set(kinds) <= {"grid", "negative-zeros"} and not averaging._is_indicator(vals):
        assert averaging._grid_integers(vals) is not None
    ends = draw_ends(data, n)
    with mock.patch.object(averaging, "_CELLS", block), mock.patch.object(
        averaging, "_FOLD_EVERY", fold
    ):
        got = averaging.checkpoint_sums(lambda lo, hi: vals[:, lo:hi], len(vals), ends)
    assert [hex_list(row) for row in got] == [hex_list(fsum_sums(row, ends)) for row in vals]


@pytest.mark.parametrize("block", [1, 16, 1 << 16])  # 1 << 16: one block for the whole series
def test_exact_sums_keep_fsums_intermediate_overflow(block):
    # no value reaches 2**1020, but 32 of them reach 2**1024 on the way to a
    # total of 1: fsum raises, and the exact sum refuses any call whose last
    # end n has n * 2**1019 >= 2**1020, before a partial sum could overflow
    vals = np.array([2.0**1019] * 40 + [-(2.0**1019)] * 40 + [1.0])
    with pytest.raises(OverflowError):
        math.fsum(vals)
    with mock.patch.object(averaging, "_CELLS", block):
        assert exact_sums(vals, [1]) == fsum_sums(vals, [1])
        for ends in ([2], [1, 15, 31], [32], [1, 40], [81]):
            with pytest.raises(DomainError):
                exact_sums(vals, ends)
        # 2**1013 keeps 81 * max|x| below 2**1020: the same climb and fall sums exactly
        scaled = vals * 2.0**-6
        ends = [1, 31, 32, 40, 41, 80, 81]
        assert exact_sums(scaled, ends) == fsum_sums(scaled, ends)


@settings(deadline=None, max_examples=150)
@given(
    data=st.data(),
    big=st.lists(st.sampled_from([1e308, -1e308, MAX_FLOAT, -MAX_FLOAT, 8e307]), min_size=1, max_size=12),
    small=st.lists(st.floats(-1e3, 1e3), max_size=12),
    scale=st.sampled_from([1.0, 2.0**-10, 2.0**-16]),
    block=st.integers(1, 50),
)
def test_exact_sums_of_huge_cancellations_match_fsum(data, big, small, scale, block):
    # unscaled, every big value is refused; scaled by 2**-10 or less, up to
    # 36 of them stay below 2**1020 in sum and cancel exactly
    values = data.draw(st.permutations([v * scale for v in big + [-v for v in big]] + small))
    vals = np.array(values)
    ends = draw_ends(data, len(vals))
    with mock.patch.object(averaging, "_CELLS", block):
        assert outcome(lambda: exact_sums(vals, ends)) == expected_sums(vals, ends)


@settings(deadline=None, max_examples=150)
@given(data=st.data(), values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
       block=st.integers(1, 50))
def test_exact_sums_of_zero_totals_match_fsum(data, values, block):
    # an exact total of 0 takes fsum's sign of zero
    vals = np.array(data.draw(st.permutations(values + [-v for v in values])))
    ends = draw_ends(data, len(vals))
    with mock.patch.object(averaging, "_CELLS", block):
        assert outcome(lambda: exact_sums(vals, ends)) == outcome(lambda: fsum_sums(vals, ends))


@settings(deadline=None, max_examples=150)
@given(
    data=st.data(),
    values=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=60),
    special=st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), min_size=1, max_size=3),
    block=st.integers(1, 50),
)
def test_exact_sums_with_non_finite_values_match_fsum(data, values, special, block):
    # a non-finite value up to the last end is refused; the ends before it
    # are never returned, and a series whose ends all come first sums as fsum
    for s in special:
        values.insert(data.draw(st.integers(0, len(values))), s)
    vals = np.array(values)
    ends = draw_ends(data, len(vals))
    with mock.patch.object(averaging, "_CELLS", block):
        assert outcome(lambda: exact_sums(vals, ends)) == expected_sums(vals, ends)


@pytest.mark.parametrize("block", [1, 7, 1 << 16])  # 1 << 16: one block for the whole series
@pytest.mark.parametrize(
    "vals",
    [
        np.zeros(130),
        np.full(130, -0.0),
        np.where(np.arange(130) % 3, 0.0, -0.0),
        np.concatenate([np.ones(100), np.zeros(29), [0.3]]),  # one non-0/1 value, at the end
        np.concatenate([np.zeros(129), [5e-324]]),
        np.full(130, 5e-324),
    ],
    ids=["zeros", "negative-zeros", "mixed-zeros", "late-value", "late-subnormal", "subnormals"],
)
def test_exact_sums_edge_series_match_fsum(vals, block):
    ends = [1, 2, 64, 65, 129, 130]
    with mock.patch.object(averaging, "_CELLS", block):
        assert hex_list(exact_sums(vals, ends)) == hex_list(fsum_sums(vals, ends))


@pytest.mark.parametrize("block", [1, 7, 1 << 16])
@pytest.mark.parametrize(
    "vals",
    [
        np.full(130, -0.0),
        np.zeros(130),
        np.where(np.arange(130) % 3, -0.0, 0.0),
        np.concatenate([np.full(64, -0.0), [0.25, -0.25], np.full(64, -0.0)]),
    ],
    ids=["negative-zeros", "zeros", "mixed-zeros", "cancelling"],
)
def test_zero_totals_need_no_second_pass(vals, block):
    # an exact zero takes fsum's sign from the row's -0.0 flag: the source
    # gives every column once, in order, and nothing reads a prefix again
    reads = []

    def source(lo, hi):
        reads.append((lo, hi))
        return vals[None, lo:hi]

    ends = [1, 2, 64, 65, 66, 129, 130]
    with mock.patch.object(averaging, "_CELLS", block):
        got = averaging.checkpoint_sums(source, 1, ends)[0]
    assert hex_list(got) == hex_list(fsum_sums(vals, ends))
    assert [lo for lo, _ in reads] == [0] + [hi for _, hi in reads[:-1]]
    assert reads[-1][1] == ends[-1]


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3 * averaging._CELLS + 7),
    spread=st.integers(0, 600),
    cuts=st.lists(st.floats(0, 1), max_size=6),
)
def test_exact_sums_across_real_blocks_match_fsum(seed, n, spread, cuts):
    # mantissas of every sign over up to 1200 binary orders of magnitude
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(n) * 2.0 ** rng.integers(-spread, spread + 1, size=n)
    ends = sorted({max(1, round(c * n)) for c in cuts} | {n})
    assert hex_list(exact_sums(vals, ends)) == hex_list(fsum_sums(vals, ends))


def spy_exact_steps():
    """A stand-in for ``_RowSums._add_exact`` that records each block it is given."""
    seen = []
    real = averaging._RowSums._add_exact

    def spy(self, block, n):
        seen.append(block.copy())
        return real(self, block, n)

    return seen, mock.patch.object(averaging._RowSums, "_add_exact", spy)


def test_cos_averages_take_no_frexp_step():
    # no cos value here lies below 2**-26, so the limbs hold every one and
    # the exact sum never reaches frexp
    points = sample_points(GOLDEN, 3, 10)
    f = TrigOnRotation(1, "cos")
    seen, spy = spy_exact_steps()
    with spy:
        averages = ergodic_average(GOLDEN, points, f, NATURALS, 10**5)
    assert seen == []
    series = f.series(GOLDEN, points, np.arange(1, 10**5 + 1, dtype=np.int64))
    assert hex_list(averages) == hex_list(math.fsum(row) / 10**5 for row in series)


def test_a_tiny_value_sends_only_its_remainder_to_frexp():
    vals = TrigOnRotation(1, "cos").series(GOLDEN, [1, 2, 3], np.arange(1, 51, dtype=np.int64))
    vals[1, 17] = 1e-30  # below 2**-78: all of it is remainder
    seen, spy = spy_exact_steps()
    with spy:
        got = averaging.checkpoint_sums(lambda lo, hi: vals[:, lo:hi], 3, [50])
    rest = np.concatenate(seen, axis=1)
    assert rest.shape == vals.shape
    assert np.flatnonzero(rest).tolist() == [50 + 17]
    assert rest[1, 17] == 1e-30
    assert [hex_list(row) for row in got] == [hex_list([math.fsum(row)]) for row in vals]


def test_tuple_checkpoints_equal_fsum_of_the_pair_series():
    # window-48 distances are not 0/1, so the block sum runs; the checkpoints
    # cut across the tuple's blocks of terms (two rows fill the cell budget)
    # and across tape chunks
    system = sy.FullShift.uniform(2, window=48)
    pts = [sy.sample_point(system, s) for s in (4, 5, 6)]
    block = averaging._CELLS // 2
    cps = [1, 1000, block, block + 1, sy._TAPE_CELLS + 5, 140_000]
    rep = chaos.tuple_distance_averages(system, pts, NATURALS, cps)
    ts = np.arange(1, cps[-1] + 1, dtype=np.int64)
    xs, ys = zip(*((x, y) for i, x in enumerate(pts) for y in pts[i + 1 :]))
    series = chaos.distance_series(system, xs, ys, ts)
    dmax, dmin = np.maximum.reduce(series), np.minimum.reduce(series)
    assert not averaging._is_indicator(dmax)
    assert hex_list(c.max_average for c in rep.checkpoints) == hex_list(
        s / n for s, n in zip(fsum_sums(dmax, cps), cps)
    )
    assert hex_list(c.min_average for c in rep.checkpoints) == hex_list(
        s / n for s, n in zip(fsum_sums(dmin, cps), cps)
    )


@pytest.mark.parametrize(
    "system, x, f",
    [
        (FAIR, sy.sample_point(FAIR, 9), CylinderIndicator(((0, 0), (3, 1)))),
        (FAIR, sy.PeriodicPoint((0,), 2), CylinderIndicator(((0, 1),))),
        (GOLDEN, 12345, TrigOnRotation(1, "cos")),
    ],
    ids=["cylinder", "all-zero", "cos"],
)
def test_trace_checkpoints_equal_fsum_of_the_series(system, x, f):
    # several ends on the blocks of one observable series: 1, 3, ..., 3**10
    # and 70,000 cut across the blocks of terms
    cps = [3**k for k in range(11)] + [70_000]
    ts = np.array(generate_prefix(PRIMES, cps[-1]), dtype=np.int64)
    (sums,) = averaging.checkpoint_sums(lambda lo, hi: f.series(system, [x], ts[lo:hi]), 1, cps)
    vals = f.series(system, [x], ts)[0]
    assert hex_list(sums) == hex_list(fsum_sums(vals, cps))


# ---------------------------------------------------------------------------
# deviation from the declared integral


def seeded(system, seeds):
    """The points of ``system`` sampled from each of ``seeds``."""
    return [sy.sample_point(system, s) for s in seeds]


def test_deviation_requires_declared_integral():
    prod = sy.ProductSystem((FAIR, GOLDEN))
    f = CylinderIndicator(((0, 0),))
    with pytest.raises(ConfigError):
        max_deviation(prod, seeded(prod, [1, 2]), f, NATURALS, 10)


def test_golden_rotation_deviation_with_closed_form_bound():
    # |sum_{k<=N} e(k alpha)| <= 1/(2 ||alpha||) bounds the cosine average
    f = TrigOnRotation(1, "cos")
    n = 10_000
    alpha = sy.GOLDEN_CONJUGATE / 2.0**128
    dist_to_int = min(alpha, 1 - alpha)
    bound = 1 / (2 * dist_to_int) / n
    dev = max_deviation(GOLDEN, seeded(GOLDEN, range(10)), f, NATURALS, n)
    assert dev <= bound + 1e-12
    assert dev < 0.01


def test_fractional_power_deviation_desk_scale():
    f = TrigOnRotation(1, "cos")
    dev = max_deviation(
        GOLDEN, seeded(GOLDEN, range(5)), f, SequenceSpec("FractionalPowerFloor", Fraction(3, 2)),
        20_000,
    )
    assert dev < 0.05


def test_bernoulli_cylinder_deviation():
    f = CylinderIndicator(((0, 0),))
    dev = max_deviation(FAIR, seeded(FAIR, range(100)), f, NATURALS, 100_000)
    assert dev < 0.02


# ---------------------------------------------------------------------------
# disintegration consistency


def test_constant_observable_gap_is_zero():
    points = sample_points(FAIR, 4, 20)
    assert disintegration_consistency(FAIR, points, Constant(1.0), NATURALS, 100) == 0.0


def test_averages_refuse_no_points():
    with pytest.raises(ConfigError, match="at least one point"):
        disintegration_consistency(FAIR, [], Constant(1.0), NATURALS, 100)
    with pytest.raises(ConfigError, match="at least one point"):
        max_deviation(FAIR, [], Constant(1.0), NATURALS, 100)


def test_bernoulli_primes_consistency_desk_scale():
    gap = disintegration_consistency(
        FAIR, sample_points(FAIR, 6, 200), CylinderIndicator(((0, 0),)), PRIMES, 10_000
    )
    assert gap < 0.01


def test_rotation_consistency_desk_scale():
    points = sample_points(GOLDEN, 6, 50)
    gap = disintegration_consistency(GOLDEN, points, TrigOnRotation(1, "cos"), NATURALS, 10_000)
    assert gap < 0.01


def test_parallel_map_over_seeds_matches_serial():
    f = CylinderIndicator(((0, 0),))
    points = seeded(FAIR, range(8))
    serial = max_deviation(FAIR, points, f, PRIMES, 500, workers=1)
    parallel = max_deviation(FAIR, points, f, PRIMES, 500, workers=2)
    assert serial == parallel
