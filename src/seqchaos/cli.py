"""Config-driven experiment runner.

Each experiment is described by a single strict JSON document (unknown
and repeated keys are rejected, defaults are echoed into the output
manifest) and produces deterministic artifacts in the output directory:

    manifest.json   fully-resolved config + tool version
    result.json     experiment results
    result.csv      tabular form, floats at 17 significant digits
    summary.json    one pass/fail entry per assertion
    (certificate.json for ScrambledBuildVerify)

Every experiment kind, sequence family, system kind and observable kind
is one table of fields (key, parser, default, minimum).  One routine
checks a config object against its table, and the manifest echoes the
parsed fields in table order.

Exit status: 0 all assertions passed, 1 an assertion failed, 2 config
error (an output directory that cannot be written counts as one), 3
integer-range overflow while generating sequence terms.
Identical configs (including the master seed) give byte-identical
outputs, for any worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
import tempfile
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import ge, le, lt
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

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

REQUIRED = object()


# ---------------------------------------------------------------------------
# value parsers: (JSON value, its config path, minimum) -> parsed value


def _typed(expected: str, ok: Callable, convert: Callable = lambda v: v) -> Callable:
    """Parser of the values that pass ``ok``, converted by ``convert``."""
    def parse(v, path: str, minimum=None):
        if not ok(v):
            raise ConfigError(f"{path}: expected {expected}, got {v!r}")
        if minimum is not None and v < minimum:
            raise ConfigError(f"{path}: must be >= {minimum}, got {v}")
        try:
            return convert(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{path}: {exc}") from None
    return parse


# ``type(v) is int`` leaves out bools; ``abs(v) <= max`` is false for NaN,
# the infinities and ints beyond the float range
_int = _typed("an integer", lambda v: type(v) is int)
_window = _typed(f"an integer <= {sy.MAX_WINDOW}", lambda v: type(v) is int and v <= sy.MAX_WINDOW)
_bool = _typed("true or false", lambda v: type(v) is bool)
_str = _typed("a string", lambda v: type(v) is str)
_number = _typed("a finite number",
                 lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, float)
# Fraction builds 10**exponent for a decimal exponent, so "1e99999999"
# would stall parsing; exponents beyond this are refused first.
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


def _to_fraction(v: int | str) -> Fraction:
    if isinstance(v, str) and (m := _EXPONENT.search(v)):
        if abs(int(m.group(1))) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT} in {v!r}")
    return Fraction(v)


_fraction = _typed("an int or a 'p/q' string", lambda v: type(v) in (int, str), _to_fraction)
# an object key names a coordinate in canonical ASCII decimal; a library
# caller may pass an int
_coordinate = _typed(
    "an integer coordinate",
    lambda v: type(v) is int or type(v) is str and re.fullmatch("-?(0|[1-9][0-9]*)", v), int,
)


def _alpha(v, path: str, minimum=None) -> sy.Rotation:
    return sy.Rotation.golden() if v == "golden" else sy.Rotation.from_fraction(_fraction(v, path))


def _constraints(v, path: str, minimum=None) -> tuple[tuple[int, int], ...]:
    if not isinstance(v, dict):
        raise ConfigError(f"{path}: expected an object coord -> symbol")
    return tuple(sorted((_coordinate(c, path), _int(s, f"{path}[{c}]", 0)) for c, s in v.items()))


def _list_of(item: Callable) -> Callable:
    def parse(v, path: str, minimum=None) -> list:
        if not isinstance(v, list) or not v:
            raise ConfigError(f"{path}: expected a non-empty list")
        return [item(x, f"{path}[{i}]", minimum) for i, x in enumerate(v)]
    return parse


_ints = _list_of(_int)
_fractions = _list_of(_fraction)


class Field(NamedTuple):
    key: str
    parse: Callable
    default: object = REQUIRED  # a None default also admits an explicit null
    minimum: int | None = None
    show: Callable = lambda v: v  # the parsed value as the manifest shows it


def parse_fields(d: dict, fields, path: str, tag: str | None = None) -> dict:
    """Parse the object ``d`` against ``fields``; ``tag`` is its variant key."""
    unknown = set(d) - {f.key for f in fields} - {tag}
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown, key=str)}")
    values = {}
    for f in fields:
        v = d.get(f.key, f.default)
        if v is REQUIRED:
            raise ConfigError(f"{path}: missing required key '{f.key}'")
        if v is not None or f.default is not None:
            v = f.parse(v, f"{path}.{f.key}", f.minimum)
        values[f.key] = v
    return values


def _variant(d, path: str, tag: str, table: dict, what: str):
    """The ``(name, row)`` of ``table`` that the object ``d`` names by ``tag``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object with a '{tag}' key")
    if tag not in d:
        raise ConfigError(f"{path}: missing required key '{tag}'")
    name = d[tag]
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"{path}.{tag}: unknown {what} {name!r}")
    return name, table[name]


def _build(d, path: str, tag: str, table: dict, what: str):
    _, (build, fields) = _variant(d, path, tag, table, what)
    return build(**parse_fields(d, fields, path, tag))


def parse_sequence(d, path: str, minimum=None) -> sg.SequenceSpec:
    family, fields = _variant(d, path, "family", FAMILIES, "family")
    return sg.SequenceSpec(family, *parse_fields(d, fields, path, "family").values())


def parse_system(d, path: str, minimum=None):
    return _build(d, path, "kind", SYSTEMS, "system kind")


def parse_observable(d, path: str, minimum=None) -> ob.Observable:
    return _build(d, path, "kind", OBSERVABLES, "observable kind")


# each sequence family -> the field of its parameter, if it takes one
_PARAMETERS = {f.key: f for f in (
    Field("coefficients", _fractions), Field("exponent", _fraction),
    Field("base", _int, minimum=2), Field("terms", _ints, minimum=1),
)}
FAMILIES = {name: () if row is None else (_PARAMETERS[row[0]],)
            for name, row in sg.FAMILIES.items()}

_WEIGHTS = Field("weights", _fractions)
_ALPHA = Field("alpha", _alpha, show=lambda rotation: rotation.to_json_dict()["alpha_num_2pow128"])
_WINDOW = Field("window", _window, sy.DEFAULT_WINDOW, 1)


def _natural_extension(base) -> sy.FullShift:
    """The natural extension of a one-sided Bernoulli shift: the two-sided
    shift on its weights and window."""
    if not isinstance(base, sy.FullShift):
        raise ConfigError("natural extension base must be a FullShift")
    if base.side != sy.ONE_SIDED:
        raise ConfigError("natural extension applies to one-sided shifts")
    return replace(base, side=sy.TWO_SIDED)


# A shift has one metric; the key stays so that a manifest's system object parses back.
_METRIC = _typed(f"{sy.METRIC_SUMMED!r}, the one shift metric", lambda v: v == sy.METRIC_SUMMED)

SYSTEMS = {
    "FullShift": (lambda weights, window, side, metric: sy.FullShift(weights, side, window), (
        _WEIGHTS,
        _WINDOW,
        Field("side", _str, sy.ONE_SIDED),
        Field("metric", _METRIC, sy.METRIC_SUMMED),
    )),
    "Rotation": (lambda alpha: alpha, (_ALPHA,)),
    "Product": (lambda components: sy.ProductSystem(tuple(components)),
                (Field("components", _list_of(parse_system)),)),
    "NaturalExtension": (_natural_extension, (Field("base", parse_system),)),
}

OBSERVABLES = {
    "Constant": (lambda value: ob.Constant(value), (Field("value", _number),)),
    "CylinderIndicator": (ob.CylinderIndicator, (Field("constraints", _constraints),)),
    "TrigOnRotation": (ob.TrigOnRotation,
                       (Field("frequency", _int), Field("component", _str, "cos"))),
    "ProductOf": (lambda factors: ob.ProductOf(tuple(factors)),
                  (Field("factors", _list_of(parse_observable)),)),
}


# ---------------------------------------------------------------------------
# experiments


@dataclass
class Assertion:
    name: str
    passed: bool
    detail: str


@dataclass
class RunOutput:
    result_json: object  # a dict or a dataclass result, as reporting writes it
    csv: tuple[list[str], list[list]]
    assertions: list[Assertion]
    extra_json: dict = field(default_factory=dict)


class Experiment(NamedTuple):
    summary: str
    fields: tuple[Field, ...]  # in manifest order, after "kind" and "seed"
    compute: Callable[[SimpleNamespace, int], RunOutput]


EXPERIMENTS: dict[str, Experiment] = {}

# keys every experiment takes besides "kind"; "out" is not in the manifest
COMMON = (Field("seed", _int, 0, 0), Field("out", _str, None))


def _experiment(kind: str, summary: str, *fields: Field):
    """Register ``compute(p, workers)`` for ``kind``; ``p`` holds the parsed fields and seed."""
    def register(compute):
        EXPERIMENTS[kind] = Experiment(summary, fields, compute)
        return compute
    return register


def _bound(name: str, measured: float, holds: Callable, bound: float | None,
           shown: tuple[str, str]) -> list[Assertion]:
    """``[holds(measured, bound)]`` as an assertion; none when the bound is unset."""
    if bound is None:
        return []
    detail = f"{shown[0]}={measured:.6g} {shown[1]}={bound:.6g}"
    return [Assertion(name, holds(measured, bound), detail)]


def _one_number(p, name: str, label: str, value: float, result: dict) -> RunOutput:
    """Output of an experiment that measures one number against ``p.tolerance``."""
    checks = _bound(f"{name}_below_tolerance", value, lt, p.tolerance, (label, "tolerance"))
    return RunOutput(result, (["samples", name], [[p.samples, value]]), checks)


_SEQUENCE = Field("sequence", parse_sequence, show=lambda spec: spec.to_json_dict())
_SYSTEM = Field("system", parse_system, show=lambda system: system.to_json_dict())
_OBSERVABLE = Field("observable", parse_observable, show=lambda f: f.describe())
_N_TERMS = Field("n_terms", _int, minimum=1)
_SAMPLES = Field("samples", _int, minimum=1)
_AVERAGES = (_SYSTEM, _OBSERVABLE, _SEQUENCE, _N_TERMS, _SAMPLES, Field("tolerance", _number))


# Compute functions look library entry points up at call time, so a tracer
# that re-binds module attributes sees every call.
@_experiment(
    "ConditionStarProfile", "close-pair density of a sequence prefix at a checkpoint ladder",
    _SEQUENCE, Field("max_gap", _int, minimum=0), Field("checkpoints", _ints, minimum=1),
    Field("require_decreasing", _bool, False), Field("max_final_density", _number, None),
)
def _condition_star_profile(p, workers: int) -> RunOutput:
    profile = sg.close_pair_profile(p.sequence, p.max_gap, p.checkpoints)
    dens = [c.density for c in profile.checkpoints]
    assertions = []
    if p.require_decreasing:
        ok = all(b < a for a, b in zip(dens, dens[1:]))
        assertions.append(Assertion("densities_strictly_decreasing", ok, f"densities={dens}"))
    assertions += _bound("final_density_below_bound", dens[-1], le, p.max_final_density,
                         ("density", "bound"))
    return RunOutput(profile, (profile.CSV_HEADER, profile.csv_rows()), assertions)


@_experiment("VeryGoodDeviation", "max |A_N f - integral f| over sampled points", *_AVERAGES)
def _very_good_deviation(p, workers: int) -> RunOutput:
    points = [sy.sample_point(p.system, child_seed(p.seed, f"seed/{j}")) for j in range(p.samples)]
    deviation = av.max_deviation(p.system, points, p.observable, p.sequence, p.n_terms, workers)
    result = {"deviation": deviation, "integral": p.observable.integral(p.system),
              "samples": p.samples}
    return _one_number(p, "deviation", "deviation", deviation, result)


@_experiment("DisintegrationConsistency",
             "|mean_j A_N f(x_j) - integral f| Monte-Carlo identity", *_AVERAGES)
def _disintegration_consistency(p, workers: int) -> RunOutput:
    points = av.sample_points(p.system, p.seed, p.samples)
    gap = av.disintegration_consistency(p.system, points, p.observable, p.sequence, p.n_terms,
                                        workers)
    result = {"consistency_gap": gap, "integral": p.observable.integral(p.system)}
    return _one_number(p, "consistency_gap", "gap", gap, result)


@_experiment(
    "TupleScan", "max/min distance averages of random tuples",
    _SYSTEM, _SEQUENCE, Field("tuple_size", _int, minimum=2), Field("tuples", _int, minimum=1),
    _N_TERMS, Field("min_average_floor", _number, None),
)
def _tuple_scan(p, workers: int) -> RunOutput:
    reports = ch.random_tuple_scan(
        p.system, p.sequence, p.tuple_size, p.tuples, p.n_terms, p.seed, workers=workers
    )
    ends = [r.checkpoints[0] for r in reports]
    worst = min(e.min_average for e in ends)
    assertions = _bound("every_min_average_above_floor", worst, ge, p.min_average_floor,
                        ("worst", "floor"))
    result = {"tuples": [{"index": t, "max_average": e.max_average, "min_average": e.min_average}
                         for t, e in enumerate(ends)]}
    rows = [[t, e.N, e.max_average, e.min_average] for t, e in enumerate(ends)]
    return RunOutput(result, (["tuple", "N", "max_average", "min_average"], rows), assertions)


@_experiment(
    "ScrambledBuildVerify", "construct a scrambled family and verify its certificate",
    _SEQUENCE, Field("tuple_size", _int, minimum=2), Field("growth", _int, minimum=2),
    Field("phase_pairs", _int, minimum=1), _WINDOW, Field("alphabet_size", _int, None, 2),
)
def _scrambled_build_verify(p, workers: int) -> RunOutput:
    points, cert = ch.build_scrambled_family(
        p.sequence, p.tuple_size, p.growth, p.phase_pairs, window=p.window,
        alphabet_size=p.alphabet_size,
    )
    p.alphabet_size = cert.alphabet_size  # the manifest records the alphabet built
    system = sy.FullShift.uniform(cert.alphabet_size, window=p.window)
    verification = ch.verify_scrambled(points, cert, system, p.sequence)
    assertions = [
        Assertion(f"check/{c.name}", c.passed, f"claimed={c.claimed} measured={c.measured:.6g}")
        for c in verification.checks
    ]
    assertions.append(Assertion("schedule_valid", verification.schedule_valid, ""))
    rep = verification.report
    return RunOutput(verification, (rep.CSV_HEADER, rep.csv_rows()), assertions,
                     {"certificate.json": cert})


@_experiment(
    "FiberConstancy", "within/cross fiber averages over frozen rotation coordinates",
    _WEIGHTS, _ALPHA, Field("thetas", _fractions), _OBSERVABLE, _SEQUENCE,
    _N_TERMS, _SAMPLES, _WINDOW, Field("max_dispersion", _number, None),
    Field("expected_means", _list_of(_number), None), Field("mean_tolerance", _number, 0.05),
)
def _fiber_constancy(p, workers: int) -> RunOutput:
    if p.expected_means is not None and len(p.expected_means) != len(p.thetas):
        raise ConfigError("config.expected_means: need one value per theta")
    shift = sy.FullShift(p.weights, window=p.window)
    report = pk.fiber_constancy_report(
        shift, p.alpha, p.thetas, p.observable, p.sequence, p.n_terms, p.samples, p.seed,
        workers=workers,
    )
    assertions = []
    for t, d in zip(report.thetas, report.dispersions):
        assertions += _bound(f"dispersion_within_fiber/theta={t}", d, lt, p.max_dispersion,
                             ("dispersion", "bound"))
    for t, m, target in zip(report.thetas, report.fiber_means, p.expected_means or ()):
        assertions.append(Assertion(
            f"fiber_mean/theta={t}", abs(m - target) <= p.mean_tolerance,
            f"mean={m:.6g} expected={target:.6g} tol={p.mean_tolerance:.6g}",
        ))
    return RunOutput(report.to_json_dict(), (report.CSV_HEADER, report.csv_rows()), assertions)


@_experiment(
    "KolmogorovCheck", "max deviation of Bernoulli averages from the space mean",
    _WEIGHTS, *_AVERAGES[1:], _WINDOW,
)
def _kolmogorov_check(p, workers: int) -> RunOutput:
    shift = sy.FullShift(p.weights, window=p.window)
    deviation = pk.kolmogorov_limit_check(
        shift, p.observable, p.sequence, p.n_terms, p.samples, p.seed, workers=workers
    )
    result = {"max_deviation": deviation, "integral": p.observable.integral(shift)}
    return _one_number(p, "max_deviation", "deviation", deviation, result)


@_experiment(
    "LacunaryContrast", "matched-K dispersion of good vs lacunary averages",
    _WEIGHTS, _OBSERVABLE, _SEQUENCE._replace(key="good_sequence"),
    _SEQUENCE._replace(key="lacunary_sequence"), Field("matched_terms", _int, minimum=2),
    Field("samples", _int, minimum=2), Field("extended_terms", _int, 100_000, 2),
    Field("max_extended_dispersion", _number, None), _WINDOW,
)
def _lacunary_contrast(p, workers: int) -> RunOutput:
    shift = sy.FullShift(p.weights, window=p.window)
    report = pk.lacunary_contrast_report(
        shift, p.observable, p.good_sequence, p.lacunary_sequence, p.matched_terms, p.samples,
        p.seed, extended_terms=p.extended_terms, workers=workers,
    )
    assertions = _bound("good_extended_dispersion_below_bound", report.good_extended_dispersion,
                        lt, p.max_extended_dispersion, ("dispersion", "bound"))
    return RunOutput(report, (report.CSV_HEADER, report.csv_rows()), assertions)


def list_experiments() -> str:
    lines = ["available experiments:"]
    for kind, exp in EXPERIMENTS.items():  # optional keys end in "?"
        keys = ", ".join(f.key + ("" if f.default is REQUIRED else "?") for f in exp.fields)
        lines.append(f"  {kind}: {exp.summary} ({keys})")
    return "\n".join(lines)


def _check_writable(out: str) -> None:
    """Refuse, before any work, an output path that no mkdir can create: one
    that exists as a non-directory, or whose nearest existing ancestor does."""
    path = Path(out)
    try:
        existing = next(p for p in (path, *path.parents) if p.exists())
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from None
    if not existing.is_dir():
        raise ConfigError(f"cannot write {out}: {existing} is not a directory")


def _write_artifacts(out_path: Path, manifest: dict, output: RunOutput, summary: dict) -> None:
    """Write every artifact into a fresh directory next to ``out_path``, then
    move them in once the last write has succeeded, so a failing write
    leaves ``out_path`` as it was.  A new ``out_path`` is that directory,
    renamed in one step.  Into an existing one each file is moved, after
    a check that no artifact name there is taken by anything but a file.
    The staging area is removed whatever happens."""
    out_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f".{out_path.name}.", dir=out_path.parent))
    try:
        staged = tmp / "out"
        staged.mkdir()  # with the mode of any new directory, unlike tmp's 0o700
        write_json(staged / "manifest.json", manifest)
        write_json(staged / "result.json", output.result_json)
        write_csv(staged / "result.csv", *output.csv)
        for name, obj in output.extra_json.items():
            write_json(staged / name, obj)
        write_json(staged / "summary.json", summary)
        if not out_path.exists():
            os.rename(staged, out_path)
            return
        artifacts = list(staged.iterdir())
        for artifact in artifacts:
            target = out_path / artifact.name
            if target.exists() and not target.is_file():
                raise OSError(f"{target} exists and is not a file")
        for artifact in artifacts:
            os.replace(artifact, out_path / artifact.name)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_config(
    cfg: dict,
    out_dir: str | None = None,
    workers: int = 1,
    seed_override: int | None = None,
) -> int:
    """Execute one experiment config; returns the process exit status.

    The sequence prefixes the experiment read are released however it
    ends, so none outlives it."""
    try:
        return _run_config(cfg, out_dir, workers, seed_override)
    finally:
        sg.release_prefixes()


def _run_config(cfg: dict, out_dir: str | None, workers: int, seed_override: int | None) -> int:
    try:
        kind, exp = _variant(cfg, "config", "kind", EXPERIMENTS, "experiment")
        p = SimpleNamespace(**parse_fields(cfg, COMMON + exp.fields, "config", "kind"))
        if seed_override is not None:
            p.seed = _int(seed_override, "--seed", 0)
        _int(workers, "--workers", 1)
        out = out_dir or p.out or f"runs/{kind}"
        _check_writable(out)
        output = exp.compute(p, workers)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SequenceOverflowError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return 3

    out_path = Path(out)
    resolved = {"kind": kind, "seed": p.seed}
    for f in exp.fields:
        v = getattr(p, f.key)
        resolved[f.key] = None if v is None else f.show(v)
    manifest = {
        "tool": "seqchaos",
        "version": __version__,
        "config": resolved,
    }
    failed = [a.name for a in output.assertions if not a.passed]
    summary = {"passed": not failed, "assertions": output.assertions}
    try:
        _write_artifacts(out_path, manifest, output, summary)
    except OSError as exc:
        print(f"config error: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    for a in output.assertions:
        tag = "PASS" if a.passed else "FAIL"
        print(f"{tag} {a.name}" + (f" ({a.detail})" if a.detail and not a.passed else ""))
    print(f"artifacts: {out_path}")
    if failed:
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

    def unique(pairs: list) -> dict:  # json.loads alone keeps a repeated key's last value
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        cfg = json.loads(text, object_pairs_hook=unique,
                         parse_constant=lambda name: _number(float(name), path))
    except json.JSONDecodeError as exc:
        print(
            f"config error: {path}:{exc.lineno}:{exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:  # NaN, Infinity, a duplicate key or an int of over 4,300 digits
        print(f"config error: {exc}", file=sys.stderr)
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
