"""Acceptance suite: full-scale quantitative checks, one per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Frozen tolerances and term counts are written out
literally; the master seeds are fixed in each test.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np

import seqchaos.systems as sy
from seqchaos.averaging import (
    disintegration_consistency,
    ergodic_average,
    max_deviation,
    sample_points,
)
from seqchaos.chaos import (
    build_scrambled_family,
    random_tuple_scan,
    tuple_distance_averages,
    verify_scrambled,
)
from seqchaos.cli import main as cli_main
from seqchaos.observables import CylinderIndicator, ProductOf, TrigOnRotation
from seqchaos.pinsker import fiber_constancy_report
from seqchaos.seqgen import SequenceSpec, close_pair_count, close_pair_profile

from oracles import LinearCombination, generate_prefix, iterate

FAIR = sy.FullShift.uniform(2)
GOLDEN = sy.Rotation.golden()
NATURALS = SequenceSpec("Naturals")
PRIMES = SequenceSpec("Primes")
SQUARES = SequenceSpec("PolynomialFloor", [0, 0, 1])
POW32 = SequenceSpec("FractionalPowerFloor", Fraction(3, 2))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_close_pair_decay():
    max_gap = 10
    started = time.perf_counter()
    details = []
    ok = True
    for seq in (PRIMES, SQUARES, POW32):
        profile = close_pair_profile(seq, max_gap, [1_000, 10_000, 100_000])
        densities = [c.density for c in profile.checkpoints]
        decreasing = densities[0] > densities[1] > densities[2]
        final_ok = densities[2] <= 2 * (2 * max_gap + 1) / 10_000
        prefix = generate_prefix(seq, 500)
        brute = sum(1 for a in prefix for b in prefix if abs(a - b) <= max_gap)
        oracle_ok = close_pair_count(prefix, max_gap) == brute
        ok &= decreasing and final_ok and oracle_ok
        details.append(f"{profile.sequence} densities={['%.3g' % d for d in densities]}")
    elapsed = time.perf_counter() - started
    ok &= elapsed <= 10.0
    _report(1, ok, f"{'; '.join(details)}; elapsed={elapsed:.2f}s (cap 10s)")


def test_criterion_2_pair_count_bound_and_oracle():
    rng = np.random.default_rng(20240)
    violations = 0
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        max_gap = int(rng.integers(0, 21))
        gaps = rng.integers(1, 30, size=n - 1)
        prefix = np.concatenate(([rng.integers(1, 50)], gaps)).cumsum()
        count = close_pair_count(prefix.tolist(), max_gap)
        brute = int((np.abs(prefix[:, None] - prefix[None, :]) <= max_gap).sum())
        violations += count > n * (2 * max_gap + 1)
        mismatches += count != brute
    _report(
        2,
        violations == 0 and mismatches == 0,
        f"1000 random strictly increasing prefixes: {violations} bound violations,"
        f" {mismatches} oracle mismatches",
    )


def test_criterion_3_very_good_deviation_at_scale():
    f = TrigOnRotation(1, "cos")
    points = [sy.sample_point(GOLDEN, s) for s in range(10)]
    started = time.perf_counter()
    dev_naturals = max_deviation(GOLDEN, points, f, NATURALS, 10**6)
    dev_power = max_deviation(GOLDEN, points, f, POW32, 10**6)
    elapsed = time.perf_counter() - started
    ok = dev_naturals < 0.01 and dev_power < 0.05 and elapsed <= 60.0
    _report(
        3,
        ok,
        f"golden-rotation cos deviation at N=1e6: naturals={dev_naturals:.3g} (<0.01),"
        f" floor(k^1.5)={dev_power:.3g} (<0.05); elapsed={elapsed:.1f}s (cap 60s)",
    )


def test_criterion_4_bernoulli_collapse_along_primes():
    from seqchaos.pinsker import kolmogorov_limit_check

    started = time.perf_counter()
    dev = kolmogorov_limit_check(
        FAIR, CylinderIndicator(((0, 0),)), PRIMES, 100_000, 100, seed=2024
    )
    elapsed = time.perf_counter() - started
    ok = dev < 0.02 and elapsed <= 120.0
    _report(
        4,
        ok,
        f"max |A_N - 1/2| over 100 points, first 1e5 primes: {dev:.4f} (<0.02);"
        f" elapsed={elapsed:.1f}s (cap 120s)",
    )


def test_criterion_5_disintegration_identity():
    gap_shift = disintegration_consistency(
        FAIR, sample_points(FAIR, 55, 200), CylinderIndicator(((0, 0),)), PRIMES, 10_000
    )
    gap_rot = disintegration_consistency(
        GOLDEN, sample_points(GOLDEN, 55, 50), TrigOnRotation(1, "cos"), NATURALS, 100_000
    )
    ok = gap_shift < 0.01 and gap_rot < 0.01
    _report(
        5,
        ok,
        f"Monte-Carlo consistency gaps: bernoulli/primes={gap_shift:.2g},"
        f" rotation/naturals={gap_rot:.2g} (both <0.01)",
    )


def test_criterion_6_scrambled_families_all_configs():
    bound = 0.1 + 2.0**-48
    details = []
    ok = True
    for seq, label in ((NATURALS, "naturals"), (PRIMES, "primes"), (SQUARES, "squares")):
        for n in (2, 3):
            started = time.perf_counter()
            points, cert = build_scrambled_family(seq, n, growth=10, phase_pairs=3, window=48)
            system = sy.FullShift.uniform(cert.alphabet_size, window=48)
            ver = verify_scrambled(points, cert, system, seq)
            elapsed = time.perf_counter() - started
            cfg_ok = (
                ver.passed
                and ver.report.liminf_proxy <= bound
                and ver.report.limsup_proxy >= 0.45
                and elapsed <= 120.0
            )
            ok &= cfg_ok
            details.append(
                f"{label}/n={n}: liminf={ver.report.liminf_proxy:.3g}"
                f" limsup={ver.report.limsup_proxy:.3g} {elapsed:.1f}s"
            )
    _report(6, ok, "; ".join(details))


def test_criterion_7_generic_tuples_vs_constructed_family():
    scan = random_tuple_scan(FAIR, NATURALS, 2, 100, 10_000, seed=777)
    worst = min(r.checkpoints[0].min_average for r in scan)
    points, cert = build_scrambled_family(NATURALS, 2, growth=10, phase_pairs=3, window=48)
    ver = verify_scrambled(points, cert, sy.FullShift.uniform(2, window=48), NATURALS)
    liminf = ver.report.liminf_proxy
    ok = worst >= 0.4 and liminf <= 0.11 and liminf < worst
    _report(
        7,
        ok,
        f"generic min-average floor={worst:.3f} (>=0.4) strictly above constructed"
        f" liminf proxy={liminf:.3g} (<=0.11)",
    )


def test_criterion_8_fiber_constancy_frozen_rotation():
    f = ProductOf((CylinderIndicator(((0, 0),)), TrigOnRotation(1, "cos")))
    report = fiber_constancy_report(
        FAIR,
        sy.Rotation.from_fraction(Fraction(1, 2)),
        [Fraction(0), Fraction(1, 3)],
        f,
        SequenceSpec("PolynomialFloor", [0, 2]),
        n_terms=10_000,
        sample_count=100,
        seed=31,
    )
    targets = [0.5 * math.cos(0.0), 0.5 * math.cos(2 * math.pi / 3)]
    disp_ok = all(d < 0.05 for d in report.dispersions)
    means_ok = all(abs(m - t) < 0.05 for m, t in zip(report.fiber_means, targets))
    _report(
        8,
        disp_ok and means_ok,
        f"dispersions={['%.3f' % d for d in report.dispersions]} (<0.05);"
        f" means={['%.3f' % m for m in report.fiber_means]} vs {targets}",
    )


def test_criterion_9_invariant_suites():
    failures = []

    # metric axioms across all system kinds
    rng = random.Random(8)
    for system in (
        FAIR,
        sy.FullShift([Fraction(1, 4), Fraction(3, 4)]),
        GOLDEN,
        sy.ProductSystem((FAIR, GOLDEN)),
        sy.FullShift.uniform(2, side=sy.TWO_SIDED),
    ):
        err = sy.metric_error_bound(system)
        for _ in range(1000):
            x, y, z = (sy.sample_point(system, rng.getrandbits(63)) for _ in range(3))
            dxy = sy.distance(system, x, y)
            if dxy != sy.distance(system, y, x):
                failures.append(f"symmetry {system.to_json_dict()}")
            if sy.distance(system, x, x) != 0.0:
                failures.append(f"identity {system.to_json_dict()}")
            if dxy > sy.distance(system, x, z) + sy.distance(system, z, y) + 2 * err:
                failures.append(f"triangle {system.to_json_dict()}")

    # monoid action
    p = sy.sample_point(FAIR, 1)
    idx = np.arange(64)
    for m, n in ((0, 5), (3, 4), (100, 23)):
        a = iterate(FAIR, iterate(FAIR, p, m), n)
        b = iterate(FAIR, p, m + n)
        if a.coordinates(idx).tolist() != b.coordinates(idx).tolist():
            failures.append("shift monoid")
        if iterate(GOLDEN, iterate(GOLDEN, 9, m), n) != iterate(GOLDEN, 9, m + n):
            failures.append("rotation monoid")

    # average bounds and linearity
    f = CylinderIndicator(((0, 0),))
    g = CylinderIndicator(((2, 1),))
    x = sy.sample_point(FAIR, 5)
    a_f = ergodic_average(FAIR, [x], f, PRIMES, 5000)[0]
    if not (0.0 - 1e-12 <= a_f <= 1.0 + 1e-12):
        failures.append("average bounds")
    rng = random.Random(5)
    for _ in range(10):
        al, be = rng.uniform(-1, 1), rng.uniform(-1, 1)
        combo = LinearCombination(((al, f), (be, g)))
        lhs = ergodic_average(FAIR, [x], combo, PRIMES, 5000)[0]
        rhs = al * a_f + be * ergodic_average(FAIR, [x], g, PRIMES, 5000)[0]
        if abs(lhs - rhs) > 1e-10:
            failures.append("linearity")

    # permutation invariance of tuple reports
    pts = [sy.sample_point(FAIR, s) for s in (11, 12, 13)]
    base = tuple_distance_averages(FAIR, pts, NATURALS, [50, 500])
    for perm in itertools.permutations(pts):
        if tuple_distance_averages(FAIR, list(perm), NATURALS, [50, 500]).checkpoints != base.checkpoints:
            failures.append("permutation invariance")
            break

    # determinism and parallelism neutrality through the CLI
    import tempfile
    from pathlib import Path

    cfg = {
        "kind": "KolmogorovCheck",
        "weights": ["1/2", "1/2"],
        "observable": {"kind": "CylinderIndicator", "constraints": {"0": 0}},
        "sequence": {"family": "Primes"},
        "n_terms": 2000,
        "samples": 10,
        "tolerance": 0.1,
        "seed": 99,
    }
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for i, workers in enumerate((1, 1, 2)):
            out = Path(tmp) / f"o{i}"
            if cli_main(["run", str(cfg_path), "--out", str(out), "--workers", str(workers)]) != 0:
                failures.append("cli run")
            outs.append((out / "result.json").read_bytes())
        if not (outs[0] == outs[1] == outs[2]):
            failures.append("determinism/parallelism neutrality")

    _report(9, not failures, f"invariant suites clean" if not failures else f"failed: {sorted(set(failures))}")
