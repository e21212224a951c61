"""Config-driven experiment runner.

Each experiment is described by a single strict JSON document (unknown
keys are rejected, defaults are echoed into the output manifest) and
produces deterministic artifacts in the output directory:

    manifest.json   fully-resolved config + tool version
    result.json     experiment results
    result.csv      tabular form, floats at 17 significant digits
    summary.json    one pass/fail entry per assertion
    (certificate.json for ScrambledBuildVerify)

Exit status: 0 all assertions passed, 1 an assertion failed, 2 config
error, 3 integer-range overflow while generating sequence terms.
Identical configs (including the master seed) give byte-identical
outputs, for any worker count.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import __version__
from . import averaging as av
from . import chaos as ch
from . import observables as ob
from . import pinsker as pk
from . import seqgen as sg
from . import systems as sy
from .errors import ConfigError, DomainError, SequenceOverflowError
from .prf import child_seed
from .reporting import write_csv, write_json

_REQUIRED = object()


# ---------------------------------------------------------------------------
# strict config parsing


def _check_keys(d: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")


def _get(d: dict, key: str, path: str, default=_REQUIRED):
    if key not in d:
        if default is _REQUIRED:
            raise ConfigError(f"{path}: missing required key '{key}'")
        return default
    return d[key]


def _as_int(v, path: str, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {v}")
    return v


def _as_bool(v, path: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{path}: expected true or false, got {v!r}")
    return v


def _as_number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {v!r}")
    return float(v)


def _as_fraction(v, path: str) -> Fraction:
    if isinstance(v, bool):
        raise ConfigError(f"{path}: expected an exact rational, got {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{path}: not a rational: {v!r} ({exc})") from None
    raise ConfigError(f"{path}: exact rationals must be ints or 'p/q' strings, got {v!r}")


def parse_sequence(d, path: str) -> sg.SequenceSpec:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object with a 'family' key")
    family = _get(d, "family", path)
    if family == "Naturals":
        _check_keys(d, {"family"}, path)
        return sg.SequenceSpec.naturals()
    if family == "Primes":
        _check_keys(d, {"family"}, path)
        return sg.SequenceSpec.primes()
    if family == "ThueMorseReturnTimes":
        _check_keys(d, {"family"}, path)
        return sg.SequenceSpec.thue_morse_return_times()
    if family == "PolynomialFloor":
        _check_keys(d, {"family", "coefficients"}, path)
        coeffs = _get(d, "coefficients", path)
        if not isinstance(coeffs, list):
            raise ConfigError(f"{path}.coefficients: expected a list")
        return sg.SequenceSpec.polynomial_floor(
            [_as_fraction(c, f"{path}.coefficients[{i}]") for i, c in enumerate(coeffs)]
        )
    if family == "FractionalPowerFloor":
        _check_keys(d, {"family", "exponent"}, path)
        return sg.SequenceSpec.fractional_power_floor(
            _as_fraction(_get(d, "exponent", path), f"{path}.exponent")
        )
    if family == "Lacunary":
        _check_keys(d, {"family", "base"}, path)
        return sg.SequenceSpec.lacunary(_as_int(_get(d, "base", path), f"{path}.base", 2))
    if family == "Explicit":
        _check_keys(d, {"family", "terms"}, path)
        terms = _get(d, "terms", path)
        if not isinstance(terms, list):
            raise ConfigError(f"{path}.terms: expected a list")
        return sg.SequenceSpec.explicit(
            [_as_int(t, f"{path}.terms[{i}]", 1) for i, t in enumerate(terms)]
        )
    raise ConfigError(f"{path}.family: unknown family {family!r}")


def _parse_weights(v, path: str) -> tuple[Fraction, ...]:
    if not isinstance(v, list) or len(v) < 2:
        raise ConfigError(f"{path}: expected a list of >= 2 weights")
    return tuple(_as_fraction(w, f"{path}[{i}]") for i, w in enumerate(v))


def _parse_alpha(v, path: str) -> sy.Rotation:
    if v == "golden":
        return sy.Rotation.golden()
    return sy.Rotation.from_fraction(_as_fraction(v, path))


def parse_system(d, path: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object with a 'kind' key")
    kind = _get(d, "kind", path)
    if kind == "FullShift":
        _check_keys(d, {"kind", "weights", "window", "side", "metric"}, path)
        side = _get(d, "side", path, sy.ONE_SIDED)
        metric = _get(d, "metric", path, sy.METRIC_SUMMED)
        return sy.FullShift.bernoulli(
            _parse_weights(_get(d, "weights", path), f"{path}.weights"),
            side=side,
            window=_as_int(_get(d, "window", path, sy.DEFAULT_WINDOW), f"{path}.window", 1),
            metric=metric,
        )
    if kind == "Rotation":
        _check_keys(d, {"kind", "alpha"}, path)
        return _parse_alpha(_get(d, "alpha", path), f"{path}.alpha")
    if kind == "Product":
        _check_keys(d, {"kind", "components"}, path)
        comps = _get(d, "components", path)
        if not isinstance(comps, list) or not comps:
            raise ConfigError(f"{path}.components: expected a non-empty list")
        return sy.ProductSystem(
            tuple(parse_system(c, f"{path}.components[{i}]") for i, c in enumerate(comps))
        )
    if kind == "NaturalExtension":
        _check_keys(d, {"kind", "base"}, path)
        base = parse_system(_get(d, "base", path), f"{path}.base")
        if not isinstance(base, sy.FullShift):
            raise ConfigError(f"{path}.base: must be a FullShift")
        return sy.NaturalExtension(base)
    raise ConfigError(f"{path}.kind: unknown system kind {kind!r}")


def parse_observable(d, path: str) -> ob.Observable:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object with a 'kind' key")
    kind = _get(d, "kind", path)
    if kind == "Constant":
        _check_keys(d, {"kind", "value"}, path)
        return ob.Constant(_as_number(_get(d, "value", path), f"{path}.value"))
    if kind == "CylinderIndicator":
        _check_keys(d, {"kind", "constraints"}, path)
        raw = _get(d, "constraints", path)
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}.constraints: expected an object coord -> symbol")
        constraints = []
        for c, s in raw.items():
            try:
                coord = int(c)
            except ValueError:
                raise ConfigError(f"{path}.constraints: bad coordinate {c!r}") from None
            constraints.append((coord, _as_int(s, f"{path}.constraints[{c}]", 0)))
        return ob.CylinderIndicator(tuple(sorted(constraints)))
    if kind == "TrigOnRotation":
        _check_keys(d, {"kind", "frequency", "component"}, path)
        freq = _get(d, "frequency", path)
        if isinstance(freq, bool) or not isinstance(freq, int):
            raise ConfigError(f"{path}.frequency: expected an integer")
        return ob.TrigOnRotation(freq, _get(d, "component", path, "cos"))
    if kind == "ProductOf":
        _check_keys(d, {"kind", "factors"}, path)
        factors = _get(d, "factors", path)
        if not isinstance(factors, list) or not factors:
            raise ConfigError(f"{path}.factors: expected a non-empty list")
        return ob.ProductOf(
            tuple(parse_observable(f, f"{path}.factors[{i}]") for i, f in enumerate(factors))
        )
    raise ConfigError(f"{path}.kind: unknown observable kind {kind!r}")


def _sequence_json(spec: sg.SequenceSpec) -> dict:
    out: dict = {"family": spec.family}
    if spec.coefficients is not None:
        out["coefficients"] = [str(c) for c in spec.coefficients]
    if spec.exponent is not None:
        out["exponent"] = str(spec.exponent)
    if spec.base is not None:
        out["base"] = spec.base
    if spec.explicit_terms is not None:
        out["terms"] = list(spec.explicit_terms)
    return out


def _system_json(system) -> dict:
    if isinstance(system, sy.FullShift):
        return {
            "kind": "FullShift",
            "weights": [str(w) for w in system.weights],
            "window": system.window,
            "side": system.side,
            "metric": system.metric,
        }
    if isinstance(system, sy.Rotation):
        return {"kind": "Rotation", "alpha_num_2pow128": f"0x{system.alpha_num:032x}"}
    if isinstance(system, sy.ProductSystem):
        return {"kind": "Product", "components": [_system_json(c) for c in system.components]}
    if isinstance(system, sy.NaturalExtension):
        return {"kind": "NaturalExtension", "base": _system_json(system.base)}
    raise ConfigError(f"unknown system {system!r}")


# ---------------------------------------------------------------------------
# experiment runners


@dataclass
class Assertion:
    name: str
    passed: bool
    detail: str


@dataclass
class RunOutput:
    resolved: dict
    result_json: dict
    csv: tuple[list[str], list[list]] | None
    assertions: list[Assertion]
    extra_json: dict


def _run_condition_star_profile(cfg: dict, seed: int, workers: int) -> RunOutput:
    _check_keys(
        cfg,
        {"kind", "seed", "out", "sequence", "max_gap", "checkpoints",
         "require_decreasing", "max_final_density"},
        "config",
    )
    seq = parse_sequence(_get(cfg, "sequence", "config"), "config.sequence")
    max_gap = _as_int(_get(cfg, "max_gap", "config"), "config.max_gap", 0)
    cps = _get(cfg, "checkpoints", "config")
    if not isinstance(cps, list) or not cps:
        raise ConfigError("config.checkpoints: expected a non-empty list")
    cps = [_as_int(n, f"config.checkpoints[{i}]", 1) for i, n in enumerate(cps)]
    require_decreasing = _as_bool(
        _get(cfg, "require_decreasing", "config", False), "config.require_decreasing"
    )
    max_final = _get(cfg, "max_final_density", "config", None)
    if max_final is not None:
        max_final = _as_number(max_final, "config.max_final_density")

    profile = sg.close_pair_profile(seq, max_gap, cps)
    rows = [[c.n, c.count, c.density] for c in profile.checkpoints]
    assertions = []
    if require_decreasing:
        dens = [c.density for c in profile.checkpoints]
        ok = all(b < a for a, b in zip(dens, dens[1:]))
        assertions.append(
            Assertion("densities_strictly_decreasing", ok, f"densities={dens}")
        )
    if max_final is not None:
        final = profile.checkpoints[-1].density
        assertions.append(
            Assertion(
                "final_density_below_bound",
                final <= max_final,
                f"density={final:.6g} bound={max_final:.6g}",
            )
        )
    resolved = {
        "kind": "ConditionStarProfile",
        "seed": seed,
        "sequence": _sequence_json(seq),
        "max_gap": max_gap,
        "checkpoints": cps,
        "require_decreasing": require_decreasing,
        "max_final_density": max_final,
    }
    result = {
        "sequence": profile.sequence,
        "max_gap": profile.max_gap,
        "checkpoints": [
            {"N": c.n, "count": c.count, "density": c.density} for c in profile.checkpoints
        ],
    }
    return RunOutput(resolved, result, (["N", "count", "density"], rows), assertions, {})


def _run_very_good_deviation(cfg: dict, seed: int, workers: int) -> RunOutput:
    _check_keys(
        cfg,
        {"kind", "seed", "out", "system", "observable", "sequence", "n_terms",
         "samples", "tolerance"},
        "config",
    )
    system = parse_system(_get(cfg, "system", "config"), "config.system")
    f = parse_observable(_get(cfg, "observable", "config"), "config.observable")
    seq = parse_sequence(_get(cfg, "sequence", "config"), "config.sequence")
    n_terms = _as_int(_get(cfg, "n_terms", "config"), "config.n_terms", 1)
    samples = _as_int(_get(cfg, "samples", "config"), "config.samples", 1)
    tolerance = _as_number(_get(cfg, "tolerance", "config"), "config.tolerance")
    seeds = [child_seed(seed, f"seed/{j}") for j in range(samples)]
    deviation = av.very_good_deviation(system, seeds, f, seq, n_terms, workers=workers)
    resolved = {
        "kind": "VeryGoodDeviation",
        "seed": seed,
        "system": _system_json(system),
        "observable": f.describe(),
        "sequence": _sequence_json(seq),
        "n_terms": n_terms,
        "samples": samples,
        "tolerance": tolerance,
    }
    result = {"deviation": deviation, "integral": f.integral(system), "samples": samples}
    assertions = [
        Assertion(
            "deviation_below_tolerance",
            deviation < tolerance,
            f"deviation={deviation:.6g} tolerance={tolerance:.6g}",
        )
    ]
    return RunOutput(resolved, result, (["samples", "deviation"], [[samples, deviation]]), assertions, {})


def _run_disintegration_consistency(cfg: dict, seed: int, workers: int) -> RunOutput:
    _check_keys(
        cfg,
        {"kind", "seed", "out", "system", "observable", "sequence", "n_terms",
         "samples", "tolerance"},
        "config",
    )
    system = parse_system(_get(cfg, "system", "config"), "config.system")
    f = parse_observable(_get(cfg, "observable", "config"), "config.observable")
    seq = parse_sequence(_get(cfg, "sequence", "config"), "config.sequence")
    n_terms = _as_int(_get(cfg, "n_terms", "config"), "config.n_terms", 1)
    samples = _as_int(_get(cfg, "samples", "config"), "config.samples", 1)
    tolerance = _as_number(_get(cfg, "tolerance", "config"), "config.tolerance")
    gap = av.disintegration_consistency(system, f, seq, n_terms, samples, seed, workers=workers)
    resolved = {
        "kind": "DisintegrationConsistency",
        "seed": seed,
        "system": _system_json(system),
        "observable": f.describe(),
        "sequence": _sequence_json(seq),
        "n_terms": n_terms,
        "samples": samples,
        "tolerance": tolerance,
    }
    result = {"consistency_gap": gap, "integral": f.integral(system)}
    assertions = [
        Assertion(
            "consistency_gap_below_tolerance",
            gap < tolerance,
            f"gap={gap:.6g} tolerance={tolerance:.6g}",
        )
    ]
    return RunOutput(resolved, result, (["samples", "consistency_gap"], [[samples, gap]]), assertions, {})


def _run_tuple_scan(cfg: dict, seed: int, workers: int) -> RunOutput:
    _check_keys(
        cfg,
        {"kind", "seed", "out", "system", "sequence", "tuple_size", "tuples",
         "n_terms", "min_average_floor"},
        "config",
    )
    system = parse_system(_get(cfg, "system", "config"), "config.system")
    seq = parse_sequence(_get(cfg, "sequence", "config"), "config.sequence")
    tuple_size = _as_int(_get(cfg, "tuple_size", "config"), "config.tuple_size", 2)
    tuples = _as_int(_get(cfg, "tuples", "config"), "config.tuples", 1)
    n_terms = _as_int(_get(cfg, "n_terms", "config"), "config.n_terms", 1)
    floor = _get(cfg, "min_average_floor", "config", None)
    if floor is not None:
        floor = _as_number(floor, "config.min_average_floor")
    results = ch.random_tuple_scan(system, seq, tuple_size, tuples, n_terms, seed, workers=workers)
    rows = [[r.index, n_terms, r.max_average, r.min_average] for r in results]
    resolved = {
        "kind": "TupleScan",
        "seed": seed,
        "system": _system_json(system),
        "sequence": _sequence_json(seq),
        "tuple_size": tuple_size,
        "tuples": tuples,
        "n_terms": n_terms,
        "min_average_floor": floor,
    }
    result = {
        "tuples": [
            {"index": r.index, "max_average": r.max_average, "min_average": r.min_average}
            for r in results
        ]
    }
    assertions = []
    if floor is not None:
        worst = min(r.min_average for r in results)
        assertions.append(
            Assertion(
                "every_min_average_above_floor",
                worst >= floor,
                f"worst={worst:.6g} floor={floor:.6g}",
            )
        )
    return RunOutput(
        resolved, result, (["tuple", "N", "max_average", "min_average"], rows), assertions, {}
    )


def _run_scrambled_build_verify(cfg: dict, seed: int, workers: int) -> RunOutput:
    _check_keys(
        cfg,
        {"kind", "seed", "out", "sequence", "tuple_size", "growth", "phase_pairs",
         "window", "alphabet_size"},
        "config",
    )
    seq = parse_sequence(_get(cfg, "sequence", "config"), "config.sequence")
    tuple_size = _as_int(_get(cfg, "tuple_size", "config"), "config.tuple_size", 2)
    growth = _as_int(_get(cfg, "growth", "config"), "config.growth", 2)
    phase_pairs = _as_int(_get(cfg, "phase_pairs", "config"), "config.phase_pairs", 1)
    window = _as_int(_get(cfg, "window", "config", sy.DEFAULT_WINDOW), "config.window", 1)
    alphabet = _get(cfg, "alphabet_size", "config", None)
    if alphabet is not None:
        alphabet = _as_int(alphabet, "config.alphabet_size", 2)
    points, cert = ch.build_scrambled_family(
        seq, tuple_size, growth, phase_pairs, window=window, alphabet_size=alphabet
    )
    system = sy.FullShift.uniform(cert.alphabet_size, window=window)
    verification = ch.verify_scrambled(points, cert, system, seq)
    resolved = {
        "kind": "ScrambledBuildVerify",
        "seed": seed,
        "sequence": _sequence_json(seq),
        "tuple_size": tuple_size,
        "growth": growth,
        "phase_pairs": phase_pairs,
        "window": window,
        "alphabet_size": cert.alphabet_size,
    }
    assertions = [
        Assertion(f"check/{c.name}", c.passed, f"claimed={c.claimed} measured={c.measured:.6g}")
        for c in verification.checks
    ]
    assertions.append(Assertion("schedule_valid", verification.schedule_valid, ""))
    rep = verification.report
    return RunOutput(
        resolved,
        verification.to_json_dict(),
        (rep.CSV_HEADER, rep.csv_rows()),
        assertions,
        {"certificate.json": cert.to_json_dict()},
    )


def _run_fiber_constancy(cfg: dict, seed: int, workers: int) -> RunOutput:
    _check_keys(
        cfg,
        {"kind", "seed", "out", "weights", "alpha", "thetas", "observable", "sequence",
         "n_terms", "samples", "window", "max_dispersion", "expected_means",
         "mean_tolerance"},
        "config",
    )
    weights = _parse_weights(_get(cfg, "weights", "config"), "config.weights")
    window = _as_int(_get(cfg, "window", "config", sy.DEFAULT_WINDOW), "config.window", 1)
    shift = sy.FullShift.bernoulli(weights, window=window)
    rotation = _parse_alpha(_get(cfg, "alpha", "config"), "config.alpha")
    raw_thetas = _get(cfg, "thetas", "config")
    if not isinstance(raw_thetas, list) or not raw_thetas:
        raise ConfigError("config.thetas: expected a non-empty list")
    thetas = [_as_fraction(t, f"config.thetas[{i}]") for i, t in enumerate(raw_thetas)]
    f = parse_observable(_get(cfg, "observable", "config"), "config.observable")
    seq = parse_sequence(_get(cfg, "sequence", "config"), "config.sequence")
    n_terms = _as_int(_get(cfg, "n_terms", "config"), "config.n_terms", 1)
    samples = _as_int(_get(cfg, "samples", "config"), "config.samples", 1)
    max_dispersion = _get(cfg, "max_dispersion", "config", None)
    if max_dispersion is not None:
        max_dispersion = _as_number(max_dispersion, "config.max_dispersion")
    expected_means = _get(cfg, "expected_means", "config", None)
    if expected_means is not None:
        if not isinstance(expected_means, list) or len(expected_means) != len(thetas):
            raise ConfigError("config.expected_means: need one value per theta")
        expected_means = [
            _as_number(m, f"config.expected_means[{i}]") for i, m in enumerate(expected_means)
        ]
    mean_tol = _as_number(_get(cfg, "mean_tolerance", "config", 0.05), "config.mean_tolerance")

    report = pk.fiber_constancy_report(
        shift, rotation, thetas, f, seq, n_terms, samples, seed, workers=workers
    )
    assertions = []
    if max_dispersion is not None:
        for t, d in zip(report.thetas, report.dispersions):
            assertions.append(
                Assertion(
                    f"dispersion_within_fiber/theta={t}",
                    d < max_dispersion,
                    f"dispersion={d:.6g} bound={max_dispersion:.6g}",
                )
            )
    if expected_means is not None:
        for t, m, target in zip(report.thetas, report.fiber_means, expected_means):
            assertions.append(
                Assertion(
                    f"fiber_mean/theta={t}",
                    abs(m - target) <= mean_tol,
                    f"mean={m:.6g} expected={target:.6g} tol={mean_tol:.6g}",
                )
            )
    resolved = {
        "kind": "FiberConstancy",
        "seed": seed,
        "weights": [str(w) for w in weights],
        "alpha": _system_json(rotation)["alpha_num_2pow128"],
        "thetas": [str(t) for t in thetas],
        "observable": f.describe(),
        "sequence": _sequence_json(seq),
        "n_terms": n_terms,
        "samples": samples,
        "window": window,
        "max_dispersion": max_dispersion,
        "expected_means": expected_means,
        "mean_tolerance": mean_tol,
    }
    return RunOutput(
        resolved, report.to_json_dict(), (report.CSV_HEADER, report.csv_rows()), assertions, {}
    )


def _run_kolmogorov_check(cfg: dict, seed: int, workers: int) -> RunOutput:
    _check_keys(
        cfg,
        {"kind", "seed", "out", "weights", "observable", "sequence", "n_terms",
         "samples", "tolerance", "window"},
        "config",
    )
    weights = _parse_weights(_get(cfg, "weights", "config"), "config.weights")
    window = _as_int(_get(cfg, "window", "config", sy.DEFAULT_WINDOW), "config.window", 1)
    shift = sy.FullShift.bernoulli(weights, window=window)
    f = parse_observable(_get(cfg, "observable", "config"), "config.observable")
    seq = parse_sequence(_get(cfg, "sequence", "config"), "config.sequence")
    n_terms = _as_int(_get(cfg, "n_terms", "config"), "config.n_terms", 1)
    samples = _as_int(_get(cfg, "samples", "config"), "config.samples", 1)
    tolerance = _as_number(_get(cfg, "tolerance", "config"), "config.tolerance")
    deviation = pk.kolmogorov_limit_check(shift, f, seq, n_terms, samples, seed, workers=workers)
    resolved = {
        "kind": "KolmogorovCheck",
        "seed": seed,
        "weights": [str(w) for w in weights],
        "observable": f.describe(),
        "sequence": _sequence_json(seq),
        "n_terms": n_terms,
        "samples": samples,
        "tolerance": tolerance,
        "window": window,
    }
    result = {"max_deviation": deviation, "integral": f.integral(shift)}
    assertions = [
        Assertion(
            "max_deviation_below_tolerance",
            deviation < tolerance,
            f"deviation={deviation:.6g} tolerance={tolerance:.6g}",
        )
    ]
    return RunOutput(resolved, result, (["samples", "max_deviation"], [[samples, deviation]]), assertions, {})


def _run_lacunary_contrast(cfg: dict, seed: int, workers: int) -> RunOutput:
    _check_keys(
        cfg,
        {"kind", "seed", "out", "weights", "observable", "good_sequence",
         "lacunary_sequence", "matched_terms", "samples", "extended_terms",
         "max_extended_dispersion", "window"},
        "config",
    )
    weights = _parse_weights(_get(cfg, "weights", "config"), "config.weights")
    window = _as_int(_get(cfg, "window", "config", sy.DEFAULT_WINDOW), "config.window", 1)
    shift = sy.FullShift.bernoulli(weights, window=window)
    f = parse_observable(_get(cfg, "observable", "config"), "config.observable")
    good = parse_sequence(_get(cfg, "good_sequence", "config"), "config.good_sequence")
    lac = parse_sequence(_get(cfg, "lacunary_sequence", "config"), "config.lacunary_sequence")
    matched = _as_int(_get(cfg, "matched_terms", "config"), "config.matched_terms", 2)
    samples = _as_int(_get(cfg, "samples", "config"), "config.samples", 2)
    extended = _as_int(
        _get(cfg, "extended_terms", "config", 100_000), "config.extended_terms", 2
    )
    max_ext = _get(cfg, "max_extended_dispersion", "config", None)
    if max_ext is not None:
        max_ext = _as_number(max_ext, "config.max_extended_dispersion")
    report = pk.lacunary_contrast_report(
        shift, f, good, lac, matched, samples, seed, extended_terms=extended, workers=workers
    )
    resolved = {
        "kind": "LacunaryContrast",
        "seed": seed,
        "weights": [str(w) for w in weights],
        "observable": f.describe(),
        "good_sequence": _sequence_json(good),
        "lacunary_sequence": _sequence_json(lac),
        "matched_terms": matched,
        "samples": samples,
        "extended_terms": extended,
        "max_extended_dispersion": max_ext,
        "window": window,
    }
    assertions = []
    if max_ext is not None:
        assertions.append(
            Assertion(
                "good_extended_dispersion_below_bound",
                report.good_extended_dispersion < max_ext,
                f"dispersion={report.good_extended_dispersion:.6g} bound={max_ext:.6g}",
            )
        )
    rows = [
        ["matched", matched, report.good_dispersion, report.lacunary_dispersion],
        # -1 marks the structurally unavailable lacunary long-horizon entry
        ["extended", extended, report.good_extended_dispersion, -1.0],
    ]
    return RunOutput(
        resolved,
        report.to_json_dict(),
        (["phase", "terms", "good_dispersion", "lacunary_dispersion"], rows),
        assertions,
        {},
    )


_RUNNERS: dict[str, tuple[Callable, str]] = {
    "ConditionStarProfile": (
        _run_condition_star_profile,
        "close-pair density of a sequence prefix at a checkpoint ladder"
        " (sequence, max_gap, checkpoints)",
    ),
    "VeryGoodDeviation": (
        _run_very_good_deviation,
        "max |A_N f - integral f| over sampled points"
        " (system, observable, sequence, n_terms, samples, tolerance)",
    ),
    "DisintegrationConsistency": (
        _run_disintegration_consistency,
        "|mean_j A_N f(x_j) - integral f| Monte-Carlo identity"
        " (system, observable, sequence, n_terms, samples, tolerance)",
    ),
    "TupleScan": (
        _run_tuple_scan,
        "max/min distance averages of random tuples"
        " (system, sequence, tuple_size, tuples, n_terms)",
    ),
    "ScrambledBuildVerify": (
        _run_scrambled_build_verify,
        "construct a scrambled family and verify its certificate"
        " (sequence, tuple_size, growth, phase_pairs, window)",
    ),
    "FiberConstancy": (
        _run_fiber_constancy,
        "within/cross fiber averages over frozen rotation coordinates"
        " (weights, alpha, thetas, observable, sequence, n_terms, samples)",
    ),
    "KolmogorovCheck": (
        _run_kolmogorov_check,
        "max deviation of Bernoulli averages from the space mean"
        " (weights, observable, sequence, n_terms, samples, tolerance)",
    ),
    "LacunaryContrast": (
        _run_lacunary_contrast,
        "matched-K dispersion of good vs lacunary averages"
        " (weights, observable, good_sequence, lacunary_sequence, matched_terms, samples)",
    ),
}


def list_experiments() -> str:
    lines = ["available experiments:"]
    for kind, (_, desc) in _RUNNERS.items():
        lines.append(f"  {kind}: {desc}")
    return "\n".join(lines)


def run_config(
    cfg: dict,
    out_dir: str | None = None,
    workers: int = 1,
    seed_override: int | None = None,
) -> int:
    """Execute one experiment config; returns the process exit status."""
    try:
        if not isinstance(cfg, dict):
            raise ConfigError("config: top level must be a JSON object")
        kind = _get(cfg, "kind", "config")
        if kind not in _RUNNERS:
            raise ConfigError(f"config.kind: unknown experiment {kind!r}")
        seed = _as_int(_get(cfg, "seed", "config", 0), "config.seed", 0)
        if seed_override is not None:
            seed = seed_override
        out = out_dir or _get(cfg, "out", "config", None) or f"runs/{kind}"
        runner, _ = _RUNNERS[kind]
        output = runner(cfg, seed, workers)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SequenceOverflowError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return 3

    out_path = Path(out)
    out_path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool": "seqchaos",
        "version": __version__,
        "config": output.resolved,
    }
    write_json(out_path / "manifest.json", manifest)
    write_json(out_path / "result.json", output.result_json)
    if output.csv is not None:
        header, rows = output.csv
        write_csv(out_path / "result.csv", header, rows)
    for name, obj in output.extra_json.items():
        write_json(out_path / name, obj)
    summary = {
        "passed": all(a.passed for a in output.assertions),
        "assertions": [
            {"name": a.name, "passed": a.passed, "detail": a.detail}
            for a in output.assertions
        ],
    }
    write_json(out_path / "summary.json", summary)
    for a in output.assertions:
        tag = "PASS" if a.passed else "FAIL"
        print(f"{tag} {a.name}" + (f" ({a.detail})" if a.detail and not a.passed else ""))
    print(f"artifacts: {out_path}")
    if not summary["passed"]:
        failed = [a.name for a in output.assertions if not a.passed]
        print(f"failed assertions: {failed}", file=sys.stderr)
        return 1
    return 0


def run_config_file(
    path: str,
    out_dir: str | None = None,
    workers: int = 1,
    seed_override: int | None = None,
) -> int:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"config error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        print(
            f"config error: {path}:{exc.lineno}:{exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    return run_config(cfg, out_dir=out_dir, workers=workers, seed_override=seed_override)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="seqchaos", description="sequence-average and mean-chaos experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("config", help="path to the experiment JSON")
    run_p.add_argument("--out", default=None, help="output directory (overrides config)")
    run_p.add_argument("--workers", type=int, default=1, help="worker processes")
    run_p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    sub.add_parser("list", help="list experiment kinds")
    args = parser.parse_args(argv)
    if args.command == "list":
        print(list_experiments())
        return 0
    return run_config_file(args.config, out_dir=args.out, workers=args.workers, seed_override=args.seed)


if __name__ == "__main__":
    sys.exit(main())
