import json
import math
import stat
import tracemalloc
import weakref
from unittest import mock

import pytest

import seqchaos.systems as sy
from seqchaos import averaging, chaos, cli, seqgen
from seqchaos.cli import list_experiments, main, run_config
from seqchaos.errors import ConfigError, DomainError
from seqchaos.observables import Constant
from seqchaos.seqgen import SequenceSpec, times_array


def run_tmp(tmp_path, cfg, name="cfg.json", extra_args=()):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    status = main(["run", str(path), "--out", str(out), *extra_args])
    return status, out


BASE_CONFIGS = {
    "ConditionStarProfile": {
        "kind": "ConditionStarProfile",
        "sequence": {"family": "Naturals"},
        "max_gap": 1,
        "checkpoints": [10, 100],
        "require_decreasing": True,
    },
    "VeryGoodDeviation": {
        "kind": "VeryGoodDeviation",
        "system": {"kind": "Rotation", "alpha": "golden"},
        "observable": {"kind": "TrigOnRotation", "frequency": 1, "component": "cos"},
        "sequence": {"family": "Naturals"},
        "n_terms": 2000,
        "samples": 3,
        "tolerance": 0.05,
    },
    "DisintegrationConsistency": {
        "kind": "DisintegrationConsistency",
        "system": {"kind": "FullShift", "weights": ["1/2", "1/2"]},
        "observable": {"kind": "CylinderIndicator", "constraints": {"0": 0}},
        "sequence": {"family": "Primes"},
        "n_terms": 500,
        "samples": 40,
        "tolerance": 0.05,
    },
    "TupleScan": {
        "kind": "TupleScan",
        "system": {"kind": "FullShift", "weights": ["1/2", "1/2"]},
        "sequence": {"family": "Naturals"},
        "tuple_size": 2,
        "tuples": 5,
        "n_terms": 500,
        "min_average_floor": 0.3,
    },
    "ScrambledBuildVerify": {
        "kind": "ScrambledBuildVerify",
        "sequence": {"family": "Primes"},
        "tuple_size": 2,
        "growth": 4,
        "phase_pairs": 2,
        "window": 16,
    },
    "FiberConstancy": {
        "kind": "FiberConstancy",
        "weights": ["1/2", "1/2"],
        "alpha": "1/2",
        "thetas": ["0", "1/3"],
        "observable": {
            "kind": "ProductOf",
            "factors": [
                {"kind": "CylinderIndicator", "constraints": {"0": 0}},
                {"kind": "TrigOnRotation", "frequency": 1, "component": "cos"},
            ],
        },
        "sequence": {"family": "PolynomialFloor", "coefficients": [0, 2]},
        "n_terms": 1000,
        "samples": 20,
        "max_dispersion": 0.2,
        "expected_means": [0.5, -0.25],
        "mean_tolerance": 0.1,
    },
    "KolmogorovCheck": {
        "kind": "KolmogorovCheck",
        "weights": ["1/2", "1/2"],
        "observable": {"kind": "CylinderIndicator", "constraints": {"0": 0}},
        "sequence": {"family": "Primes"},
        "n_terms": 1000,
        "samples": 20,
        "tolerance": 0.1,
    },
    "LacunaryContrast": {
        "kind": "LacunaryContrast",
        "weights": ["1/2", "1/2"],
        "observable": {"kind": "CylinderIndicator", "constraints": {"0": 0}},
        "good_sequence": {"family": "Naturals"},
        "lacunary_sequence": {"family": "Lacunary", "base": 2},
        "matched_terms": 30,
        "samples": 40,
        "extended_terms": 2000,
        "max_extended_dispersion": 0.1,
    },
}


def test_list_is_stable_and_complete(capsys):
    assert main(["list"]) == 0
    first = capsys.readouterr().out
    assert main(["list"]) == 0
    second = capsys.readouterr().out
    assert first == second
    for kind in BASE_CONFIGS:
        assert kind in first
    assert first.count("\n  ".replace("\n", "\n")) >= 8
    assert list_experiments() == list_experiments()


@pytest.mark.parametrize("kind", sorted(BASE_CONFIGS))
def test_every_kind_runs_with_minimal_config(tmp_path, kind):
    status, out = run_tmp(tmp_path, BASE_CONFIGS[kind])
    assert status == 0
    assert (out / "manifest.json").exists()
    assert (out / "result.json").exists()
    assert (out / "summary.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "seqchaos"
    assert manifest["config"]["kind"] == kind
    assert manifest["config"]["seed"] == 0  # default echoed


def test_rerun_is_byte_identical(tmp_path):
    cfg = BASE_CONFIGS["ScrambledBuildVerify"]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(p), "--out", str(out1)]) == 0
    assert main(["run", str(p), "--out", str(out2)]) == 0
    for name in ("manifest.json", "result.json", "result.csv", "summary.json", "certificate.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_workers_do_not_change_outputs(tmp_path):
    cfg = BASE_CONFIGS["KolmogorovCheck"]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["run", str(p), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["run", str(p), "--out", str(out2), "--workers", "2"]) == 0
    for name in ("manifest.json", "result.json", "result.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg = dict(BASE_CONFIGS["TupleScan"], seed=5)
    status1, out1 = run_tmp(tmp_path, cfg, name="a.json")
    r1 = (out1 / "result.json").read_text()
    m1 = json.loads((out1 / "manifest.json").read_text())
    assert m1["config"]["seed"] == 5
    cfg_dir2 = tmp_path / "two"
    cfg_dir2.mkdir()
    status2, out2 = run_tmp(cfg_dir2, cfg, name="b.json", extra_args=("--seed", "6"))
    assert status1 == status2 == 0
    assert json.loads((out2 / "manifest.json").read_text())["config"]["seed"] == 6
    assert (out2 / "result.json").read_text() != r1


def test_invalid_negative_parameter_is_status_2(tmp_path):
    cfg = dict(BASE_CONFIGS["TupleScan"], n_terms=-4)
    status, _ = run_tmp(tmp_path, cfg)
    assert status == 2


@pytest.mark.parametrize("flag", ["no", "false", 0, 1, None, [True]])
def test_non_boolean_flag_is_status_2(tmp_path, flag):
    cfg = dict(BASE_CONFIGS["ConditionStarProfile"], require_decreasing=flag)
    status, out = run_tmp(tmp_path, cfg)
    assert status == 2
    assert not out.exists()


def test_unknown_key_is_status_2(tmp_path):
    cfg = dict(BASE_CONFIGS["TupleScan"], bogus=1)
    status, _ = run_tmp(tmp_path, cfg)
    assert status == 2


def test_unknown_nested_key_is_status_2(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIGS["KolmogorovCheck"]))
    cfg["sequence"]["surprise"] = True
    status, _ = run_tmp(tmp_path, cfg)
    assert status == 2


def test_malformed_json_is_status_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"kind": "TupleScan",')
    assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert "broken.json:1:" in err


def test_an_integer_past_the_digit_limit_is_status_2(tmp_path, capsys):
    # json.loads refuses an int of more than 4,300 digits with a plain ValueError
    p = tmp_path / "huge.json"
    p.write_text('{"kind": "ConditionStarProfile", "sequence": {"family": "Primes"}, '
                 f'"max_gap": 1, "checkpoints": [{"9" * 4401}]}}')
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("phase_pairs", [3000, 20_000])
def test_a_scrambled_ladder_past_2_63_terms_is_status_2(tmp_path, capsys, phase_pairs):
    cfg = dict(BASE_CONFIGS["ScrambledBuildVerify"], growth=10, phase_pairs=phase_pairs)
    status, out = run_tmp(tmp_path, cfg)
    assert status == 2 and not out.exists()
    assert f"growth**{2 * phase_pairs} passes" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["Primes", "Naturals"])
def test_a_checkpoint_past_2_63_terms_is_status_3(tmp_path, capsys, family):
    cfg = {"kind": "ConditionStarProfile", "sequence": {"family": family},
           "max_gap": 1, "checkpoints": [10, 10**30]}
    status, out = run_tmp(tmp_path, cfg)
    assert status == 3 and not out.exists()
    assert f"cannot reach term #{10**30}" in capsys.readouterr().err


def test_missing_file_is_status_2(tmp_path):
    assert main(["run", str(tmp_path / "absent.json")]) == 2


def test_overflow_is_status_3(tmp_path):
    cfg = {
        "kind": "ConditionStarProfile",
        "sequence": {"family": "Lacunary", "base": 2},
        "max_gap": 1,
        "checkpoints": [100],
    }
    status, _ = run_tmp(tmp_path, cfg)
    assert status == 3


def test_observable_outside_its_system_is_status_2(tmp_path, capsys):
    cfg = dict(BASE_CONFIGS["VeryGoodDeviation"], system={"kind": "FullShift", "weights": ["1/2", "1/2"]})
    status, out = run_tmp(tmp_path, cfg)
    assert status == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_cylinder_coordinate_past_int64_is_status_2(tmp_path, capsys):
    # the time 2**63 - 1 plus the constraint coordinate 1 leaves int64: the
    # run must refuse it, not read the wrapped coordinate -2**63
    cfg = dict(
        BASE_CONFIGS["VeryGoodDeviation"],
        system={"kind": "FullShift", "weights": ["1/2", "1/2"]},
        observable={"kind": "CylinderIndicator", "constraints": {"1": 0}},
        sequence={"family": "Explicit", "terms": [2**63 - 1]},
        n_terms=1,
    )
    status, out = run_tmp(tmp_path, cfg)
    assert status == 2
    assert "64-bit range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "lacunary", [{"family": "PolynomialFloor", "coefficients": [0, 0, 1]}, {"family": "Naturals"}]
)
def test_infinite_lacunary_sequence_is_status_2(tmp_path, capsys, lacunary):
    cfg = dict(BASE_CONFIGS["LacunaryContrast"], lacunary_sequence=lacunary)
    status, out = run_tmp(tmp_path, cfg)
    assert status == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_explicit_lacunary_sequence_caps_its_terms(tmp_path, capsys):
    terms = [2**k for k in range(40)]
    cfg = dict(BASE_CONFIGS["LacunaryContrast"], lacunary_sequence={"family": "Explicit", "terms": terms})
    status, out = run_tmp(tmp_path, cfg)
    assert status == 0
    result = json.loads((out / "result.json").read_text())
    assert result["lacunary_max_terms"] == 40
    assert result["lacunary_extended_available"] is False
    status, _ = run_tmp(tmp_path, dict(cfg, matched_terms=41), name="over.json")
    assert status == 2
    assert "has only 40 terms" in capsys.readouterr().err


HUGE = {"kind": "Constant", "value": 1e308}
GOLDEN_PAIR = {"kind": "Product", "components": [{"kind": "Rotation", "alpha": "golden"}] * 2}


@pytest.mark.parametrize(
    "change",
    [
        {"observable": HUGE, "n_terms": 1000},
        {"system": GOLDEN_PAIR, "observable": {"kind": "ProductOf", "factors": [HUGE, HUGE]}},
    ],
    ids=["constant", "product"],
)
def test_averages_that_could_overflow_are_status_2(tmp_path, capsys, change):
    # refused from the observable's bounds before any work: no traceback, no
    # fsum fallback, no output directory
    status, out = run_tmp(tmp_path, dict(BASE_CONFIGS["VeryGoodDeviation"], **change))
    assert status == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


OUTSIDE = {"kind": "CylinderIndicator", "constraints": {"0": 5}}
NATURAL_EXTENSION = {"kind": "NaturalExtension",
                     "base": {"kind": "FullShift", "weights": ["1/2", "1/2"]}}


def recorded_prefixes(monkeypatch) -> list:
    """Weak references to every prefix that times_array generates from now on."""
    refs = []
    generate = seqgen._prefix

    def prefix(spec, count):
        arr = generate(spec, count)
        refs.append(weakref.ref(arr))
        return arr

    monkeypatch.setattr(seqgen, "_prefix", prefix)
    return refs


@pytest.mark.parametrize("status, cfg", [
    (0, BASE_CONFIGS["TupleScan"]),
    (2, dict(BASE_CONFIGS["LacunaryContrast"], observable=OUTSIDE)),
    # the matched phase reads 30 terms of 2**k; the extended one overflows
    (3, dict(BASE_CONFIGS["LacunaryContrast"], good_sequence={"family": "Lacunary", "base": 2})),
], ids=["passed", "config-error", "overflow"])
def test_a_run_releases_every_prefix_it_read(tmp_path, monkeypatch, status, cfg):
    refs = recorded_prefixes(monkeypatch)
    assert run_config(cfg, out_dir=str(tmp_path / "out")) == status
    assert refs
    assert times_array.cache_info().currsize == 0
    assert [ref() for ref in refs] == [None] * len(refs)


def test_a_run_that_raises_releases_its_prefixes(tmp_path):
    def broken(*args):
        raise RuntimeError("broken")

    with mock.patch.object(chaos, "distance_series", broken), pytest.raises(RuntimeError):
        run_config(BASE_CONFIGS["TupleScan"], out_dir=str(tmp_path / "out"))
    assert times_array.cache_info().currsize == 0


def test_times_cache_counts_add_up_across_runs(tmp_path):
    # the TupleScan's first tuple generates the prefix and the other 99 hit it;
    # releasing the cache between runs keeps the counts
    cfg = dict(BASE_CONFIGS["TupleScan"], tuples=100, n_terms=100, min_average_floor=None)
    before = times_array.cache_info()
    for run in (1, 2):
        assert run_config(cfg, out_dir=str(tmp_path / f"out{run}")) == 0
        info = times_array.cache_info()
        assert (info.hits - before.hits, info.misses - before.misses) == (99 * run, run)
        assert info.currsize == 0


@pytest.mark.parametrize("last", [10**9, 10**30])
def test_an_explicit_profile_past_its_list_is_status_2(tmp_path, capsys, last):
    # refused from the list's length, before a prefix of ``last`` terms is reserved
    cfg = {"kind": "ConditionStarProfile", "sequence": {"family": "Explicit", "terms": [3, 1]},
           "max_gap": 1, "checkpoints": [2, last]}
    tracemalloc.start()
    try:
        status, out = run_tmp(tmp_path, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 2 and not out.exists()
    assert f"has only 2 terms, {last} requested" in capsys.readouterr().err
    assert peak < 1_000_000


def test_cylinder_on_the_natural_extension(tmp_path):
    # the natural extension of the fair 2-shift is the two-sided fair shift:
    # a cylinder reads its past, and its integral is the Bernoulli mass
    cfg = dict(BASE_CONFIGS["DisintegrationConsistency"], system=NATURAL_EXTENSION,
               observable={"kind": "CylinderIndicator", "constraints": {"-1": 1}})
    status, out = run_tmp(tmp_path, cfg)
    assert status == 0
    assert json.loads((out / "result.json").read_text())["integral"] == 0.5


@pytest.mark.parametrize(
    "kind, change",
    [
        ("LacunaryContrast", {"observable": OUTSIDE}),
        ("FiberConstancy", {"observable": {"kind": "ProductOf", "factors": [
            OUTSIDE, {"kind": "TrigOnRotation", "frequency": 1, "component": "cos"}]},
            "expected_means": None}),
        ("DisintegrationConsistency", {"system": NATURAL_EXTENSION, "observable": OUTSIDE}),
    ],
    ids=["lacunary", "fiber", "extension"],
)
def test_cylinder_symbol_outside_the_alphabet_is_status_2(tmp_path, capsys, kind, change):
    # symbol 5 on the fair 2-shift or its natural extension: the indicator
    # would be 0 everywhere, whether or not the experiment asks for its integral
    status, out = run_tmp(tmp_path, dict(BASE_CONFIGS[kind], **change))
    assert status == 2
    assert "config error: cylinder symbol outside the alphabet" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("blocked", ["out_under_a_file", "artifact_is_a_directory"])
def test_unwritable_output_is_status_2(tmp_path, capsys, blocked):
    # a path under a regular file is refused before the experiment runs; an
    # artifact name taken by a directory fails only when it is written
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_CONFIGS["ConditionStarProfile"]))
    if blocked == "out_under_a_file":
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub"
    else:
        out = tmp_path / "out"
        (out / "result.json").mkdir(parents=True)
    calls = []
    profile = seqgen.close_pair_profile

    def spy(*args):
        calls.append(args)
        return profile(*args)

    with mock.patch.object(seqgen, "close_pair_profile", spy):
        assert main(["run", str(path), "--out", str(out)]) == 2
    assert f"config error: cannot write {out}: " in capsys.readouterr().err
    assert len(calls) == (blocked == "artifact_is_a_directory")


@pytest.mark.parametrize("existing", [False, True], ids=["new_out", "existing_out"])
def test_a_failing_write_adds_no_artifact(tmp_path, capsys, existing):
    # the artifacts are written next to out and moved in after the last
    # write, so a write that fails partway leaves out as it was and no
    # temporary directory behind; a run that succeeds leaves none either
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_CONFIGS["ConditionStarProfile"]))
    out = tmp_path / "out"
    if existing:
        out.mkdir()
        (out / "result.json").write_text("earlier")
    written = []
    write_json = cli.write_json

    def failing(target, obj):
        written.append(target.name)
        if target.name == "result.json":
            raise OSError("no space left")
        write_json(target, obj)

    with mock.patch.object(cli, "write_json", failing):
        assert main(["run", str(path), "--out", str(out)]) == 2
    assert written == ["manifest.json", "result.json"]
    assert f"config error: cannot write {out}: no space left" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"] + ["out"] * existing
    if existing:
        assert [(p.name, p.read_text()) for p in out.iterdir()] == [("result.json", "earlier")]
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "result.csv", "result.json", "summary.json"]


def test_an_artifact_name_taken_by_a_directory_leaves_out_unchanged(tmp_path, capsys):
    # the names are checked before any file moves, so none lands beside the directory
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_CONFIGS["ConditionStarProfile"]))
    out = tmp_path / "out"
    (out / "result.json").mkdir(parents=True)
    (out / "summary.json").write_text("earlier")
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write {out}: {out / 'result.json'} exists and is not a file" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]
    assert sorted(p.name for p in out.iterdir()) == ["result.json", "summary.json"]
    assert (out / "summary.json").read_text() == "earlier"
    assert not any((out / "result.json").iterdir())


def test_a_new_out_is_the_staged_directory_renamed(tmp_path):
    # one rename makes out, so no file is moved on its own; out has the mode
    # of any new directory
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_CONFIGS["ConditionStarProfile"]))
    out = tmp_path / "new" / "out"
    with mock.patch.object(cli.os, "replace", side_effect=AssertionError("a file was moved")):
        assert main(["run", str(path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.parent.iterdir()) == ["out"]
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "result.csv", "result.json", "summary.json"]
    sibling = tmp_path / "sibling"
    sibling.mkdir()
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(sibling.stat().st_mode)


def test_overflow_refusal_comes_before_the_times():
    calls = []
    times_array = averaging.times_array

    def counting(seq, n):
        calls.append(n)
        return times_array(seq, n)

    golden, naturals = sy.Rotation.golden(), SequenceSpec("Naturals")
    with mock.patch.object(averaging, "times_array", counting):
        with pytest.raises(ConfigError):
            averaging.ergodic_average(golden, [0], Constant(1e308), naturals, 1000)
        with pytest.raises(ConfigError):
            averaging.ergodic_average(golden, [0], Constant(1e305), naturals, 100000)
        assert calls == []
        averaging.ergodic_average(golden, [0], Constant(1e305), naturals, 100)
        assert calls == [100]


class Unbounded(Constant):
    """A constant that declares bounds (0, 1) and breaks them."""

    def bounds(self):
        return (0.0, 1.0)


@pytest.mark.parametrize("c", [1e308, math.inf, math.nan])
def test_values_beyond_their_declared_bounds_raise(c):
    # the refusal trusts bounds(); a value beyond them is never summed
    with pytest.raises(DomainError):
        averaging.ergodic_average(sy.Rotation.golden(), [0, 1], Unbounded(c),
                                  SequenceSpec("Naturals"), 10)


def test_failed_assertion_is_status_1(tmp_path):
    cfg = dict(BASE_CONFIGS["VeryGoodDeviation"], tolerance=1e-15)
    status, out = run_tmp(tmp_path, cfg)
    assert status == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False
    assert any(not a["passed"] for a in summary["assertions"])


def test_run_config_accepts_dict_directly(tmp_path):
    cfg = dict(BASE_CONFIGS["ConditionStarProfile"], out=str(tmp_path / "direct"))
    assert run_config(cfg) == 0
    assert (tmp_path / "direct" / "result.csv").exists()


def test_csv_floats_have_17_significant_digits(tmp_path):
    status, out = run_tmp(tmp_path, BASE_CONFIGS["ConditionStarProfile"])
    assert status == 0
    rows = (out / "result.csv").read_text().strip().splitlines()
    density = rows[1].split(",")[2]
    assert float(density) == (10 + 2 * 9) / 100  # (N + 2(N-1)) / N**2 at N = 10
    # 17 significant digits round-trip the double exactly
    assert len(density.replace(".", "").replace("-", "").lstrip("0")) >= 15


def test_fractional_power_near_two_runs(tmp_path):
    # the float root of 2**1.99 truncates to 3, below the integer root's start
    cfg = {
        "kind": "ConditionStarProfile",
        "sequence": {"family": "FractionalPowerFloor", "exponent": "199/100"},
        "max_gap": 1,
        "checkpoints": [10],
    }
    status, out = run_tmp(tmp_path, cfg)
    assert status == 0
    assert json.loads((out / "result.json").read_text())["checkpoints"][0]["count"] == 10
