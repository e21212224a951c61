"""The config schema: pinned manifests, rejected inputs and the kind list.

Each experiment kind runs twice: once with every optional key left out
(the defaults must be echoed) and once with every optional key set.  The
manifest bytes are pinned, so any change to key order, defaults or value
rendering shows here.  So are the result, CSV and summary bytes of one
small config per kind.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqchaos import __version__, cli
from seqchaos import chaos as ch
from seqchaos import pinsker as pk
from seqchaos import systems as sy
from seqchaos.cli import list_experiments, main, run_config
from seqchaos.errors import ConfigError

_HALF = ["1/2", "1/2"]
_CYL0 = {"kind": "CylinderIndicator", "constraints": {"0": 0}}

CONFIGS = {
    "ConditionStarProfile/defaults": {
        "kind": "ConditionStarProfile",
        "sequence": {"family": "Primes"},
        "max_gap": 2,
        "checkpoints": [10, 100],
    },
    "ConditionStarProfile/full": {
        "kind": "ConditionStarProfile",
        "seed": 3,
        "out": "runs/unused",
        "sequence": {"family": "PolynomialFloor", "coefficients": [0, "1/2", 1]},
        "max_gap": 1,
        "checkpoints": [10, 100, 1000],
        "require_decreasing": True,
        "max_final_density": 1,
    },
    "VeryGoodDeviation/defaults": {
        "kind": "VeryGoodDeviation",
        "system": {"kind": "Rotation", "alpha": "golden"},
        "observable": {"kind": "TrigOnRotation", "frequency": 1},
        "sequence": {"family": "Naturals"},
        "n_terms": 200,
        "samples": 2,
        "tolerance": 0.5,
    },
    "VeryGoodDeviation/full": {
        "kind": "VeryGoodDeviation",
        "seed": 11,
        "out": "runs/unused",
        "system": {
            "kind": "Product",
            "components": [
                {"kind": "FullShift", "weights": ["1/3", "2/3"], "window": 20,
                 "side": "one_sided", "metric": "summed"},
                {"kind": "Rotation", "alpha": "2/7"},
            ],
        },
        "observable": {
            "kind": "ProductOf",
            "factors": [
                {"kind": "CylinderIndicator", "constraints": {"1": 1, "0": 0}},
                {"kind": "TrigOnRotation", "frequency": -2, "component": "sin"},
            ],
        },
        "sequence": {"family": "FractionalPowerFloor", "exponent": "3/2"},
        "n_terms": 300,
        "samples": 3,
        "tolerance": 2,
    },
    "DisintegrationConsistency/defaults": {
        "kind": "DisintegrationConsistency",
        "system": {"kind": "FullShift", "weights": _HALF},
        "observable": _CYL0,
        "sequence": {"family": "Primes"},
        "n_terms": 100,
        "samples": 5,
        "tolerance": 0.5,
    },
    "DisintegrationConsistency/full": {
        "kind": "DisintegrationConsistency",
        "seed": 5,
        "out": "runs/unused",
        "system": {"kind": "FullShift", "weights": ["1/4", "1/4", "1/2"], "window": 10,
                   "side": "two_sided", "metric": "summed"},
        "observable": {"kind": "CylinderIndicator", "constraints": {"-1": 2}},
        "sequence": {"family": "ThueMorseReturnTimes"},
        "n_terms": 100,
        "samples": 5,
        "tolerance": 0.75,
    },
    "TupleScan/defaults": {
        "kind": "TupleScan",
        "system": {"kind": "FullShift", "weights": _HALF},
        "sequence": {"family": "Naturals"},
        "tuple_size": 2,
        "tuples": 2,
        "n_terms": 100,
    },
    "TupleScan/full": {
        "kind": "TupleScan",
        "seed": 9,
        "out": "runs/unused",
        # an alias: the manifest records the two-sided FullShift it resolves to
        "system": {
            "kind": "NaturalExtension",
            "base": {"kind": "FullShift", "weights": _HALF, "window": 12,
                     "side": "one_sided", "metric": "summed"},
        },
        "sequence": {"family": "Explicit", "terms": [1, 3, 4, 9, 12]},
        "tuple_size": 3,
        "tuples": 2,
        "n_terms": 5,
        "min_average_floor": 0,
    },
    "ScrambledBuildVerify/defaults": {
        "kind": "ScrambledBuildVerify",
        "sequence": {"family": "Primes"},
        "tuple_size": 2,
        "growth": 4,
        "phase_pairs": 2,
    },
    "ScrambledBuildVerify/full": {
        "kind": "ScrambledBuildVerify",
        "seed": 2,
        "out": "runs/unused",
        "sequence": {"family": "Primes"},
        "tuple_size": 3,
        "growth": 4,
        "phase_pairs": 2,
        "window": 16,
        "alphabet_size": 3,
    },
    "FiberConstancy/defaults": {
        "kind": "FiberConstancy",
        "weights": _HALF,
        "alpha": "1/2",
        "thetas": ["0", "1/3"],
        "observable": {"kind": "ProductOf", "factors": [
            _CYL0, {"kind": "TrigOnRotation", "frequency": 1, "component": "cos"}]},
        "sequence": {"family": "PolynomialFloor", "coefficients": [0, 2]},
        "n_terms": 100,
        "samples": 4,
    },
    "FiberConstancy/full": {
        "kind": "FiberConstancy",
        "seed": 4,
        "out": "runs/unused",
        "weights": ["1/3", "2/3"],
        "alpha": "golden",
        "thetas": [0, "1/4", "1/3"],
        "observable": {"kind": "ProductOf", "factors": [
            _CYL0, {"kind": "TrigOnRotation", "frequency": 1, "component": "sin"}]},
        "sequence": {"family": "Naturals"},
        "n_terms": 100,
        "samples": 4,
        "window": 24,
        "max_dispersion": 2,
        "expected_means": [0, 0.25, -1],
        "mean_tolerance": 3,
    },
    "KolmogorovCheck/defaults": {
        "kind": "KolmogorovCheck",
        "weights": _HALF,
        "observable": _CYL0,
        "sequence": {"family": "Primes"},
        "n_terms": 100,
        "samples": 4,
        "tolerance": 0.5,
    },
    "KolmogorovCheck/full": {
        "kind": "KolmogorovCheck",
        "seed": 8,
        "out": "runs/unused",
        "weights": ["1/5", "4/5"],
        "observable": {"kind": "Constant", "value": 3},
        "sequence": {"family": "Lacunary", "base": 3},
        "n_terms": 30,
        "samples": 4,
        "tolerance": 1,
        "window": 30,
    },
    "LacunaryContrast/defaults": {
        "kind": "LacunaryContrast",
        "weights": _HALF,
        "observable": _CYL0,
        "good_sequence": {"family": "Naturals"},
        "lacunary_sequence": {"family": "Lacunary", "base": 2},
        "matched_terms": 20,
        "samples": 4,
    },
    "LacunaryContrast/full": {
        "kind": "LacunaryContrast",
        "seed": 6,
        "out": "runs/unused",
        "weights": _HALF,
        "observable": _CYL0,
        "good_sequence": {"family": "Primes"},
        "lacunary_sequence": {"family": "Lacunary", "base": 5},
        "matched_terms": 20,
        "samples": 4,
        "extended_terms": 500,
        "max_extended_dispersion": 1,
        "window": 8,
    },
}

# The "config" object of manifest.json, byte for byte.
PINNED = {
    'ConditionStarProfile/defaults': (
        '{"kind":"ConditionStarProfile","seed":0,"sequence":{"family":"Primes"},"max_gap":2,"checkpoints":[10,100],"require_decreasing":false,"max_final_density":null}'
    ),
    'ConditionStarProfile/full': (
        '{"kind":"ConditionStarProfile","seed":3,"sequence":{"family":"PolynomialFloor","coefficients":["0","1/2","1"]},"max_gap":1,"checkpoints":[10,100,1000],"require_decreasing":true,"max_final_density":1}'
    ),
    'VeryGoodDeviation/defaults': (
        '{"kind":"VeryGoodDeviation","seed":0,"system":{"kind":"Rotation","alpha_num_2pow128":"0x9e3779b97f4a7c15f39cc0605cedc834"},"observable":"cos[2pi*1x]","sequence":{"family":"Naturals"},"n_terms":200,"samples":2,"tolerance":0.5}'
    ),
    'VeryGoodDeviation/full': (
        '{"kind":"VeryGoodDeviation","seed":11,"system":{"kind":"Product","components":[{"kind":"FullShift","weights":["1/3","2/3"],"window":20,"side":"one_sided","metric":"summed"},{"kind":"Rotation","alpha_num_2pow128":"0x49249249249249249249249249249249"}]},"observable":"Product[Cylinder[0:0,1:1] * sin[2pi*-2x]]","sequence":{"family":"FractionalPowerFloor","exponent":"3/2"},"n_terms":300,"samples":3,"tolerance":2}'
    ),
    'DisintegrationConsistency/defaults': (
        '{"kind":"DisintegrationConsistency","seed":0,"system":{"kind":"FullShift","weights":["1/2","1/2"],"window":48,"side":"one_sided","metric":"summed"},"observable":"Cylinder[0:0]","sequence":{"family":"Primes"},"n_terms":100,"samples":5,"tolerance":0.5}'
    ),
    'DisintegrationConsistency/full': (
        '{"kind":"DisintegrationConsistency","seed":5,"system":{"kind":"FullShift","weights":["1/4","1/4","1/2"],"window":10,"side":"two_sided","metric":"summed"},"observable":"Cylinder[-1:2]","sequence":{"family":"ThueMorseReturnTimes"},"n_terms":100,"samples":5,"tolerance":0.75}'
    ),
    'TupleScan/defaults': (
        '{"kind":"TupleScan","seed":0,"system":{"kind":"FullShift","weights":["1/2","1/2"],"window":48,"side":"one_sided","metric":"summed"},"sequence":{"family":"Naturals"},"tuple_size":2,"tuples":2,"n_terms":100,"min_average_floor":null}'
    ),
    'TupleScan/full': (
        '{"kind":"TupleScan","seed":9,"system":{"kind":"FullShift","weights":["1/2","1/2"],"window":12,"side":"two_sided","metric":"summed"},"sequence":{"family":"Explicit","terms":[1,3,4,9,12]},"tuple_size":3,"tuples":2,"n_terms":5,"min_average_floor":0}'
    ),
    'ScrambledBuildVerify/defaults': (
        '{"kind":"ScrambledBuildVerify","seed":0,"sequence":{"family":"Primes"},"tuple_size":2,"growth":4,"phase_pairs":2,"window":48,"alphabet_size":2}'
    ),
    'ScrambledBuildVerify/full': (
        '{"kind":"ScrambledBuildVerify","seed":2,"sequence":{"family":"Primes"},"tuple_size":3,"growth":4,"phase_pairs":2,"window":16,"alphabet_size":3}'
    ),
    'FiberConstancy/defaults': (
        '{"kind":"FiberConstancy","seed":0,"weights":["1/2","1/2"],"alpha":"0x80000000000000000000000000000000","thetas":["0","1/3"],"observable":"Product[Cylinder[0:0] * cos[2pi*1x]]","sequence":{"family":"PolynomialFloor","coefficients":["0","2"]},"n_terms":100,"samples":4,"window":48,"max_dispersion":null,"expected_means":null,"mean_tolerance":0.050000000000000003}'
    ),
    'FiberConstancy/full': (
        '{"kind":"FiberConstancy","seed":4,"weights":["1/3","2/3"],"alpha":"0x9e3779b97f4a7c15f39cc0605cedc834","thetas":["0","1/4","1/3"],"observable":"Product[Cylinder[0:0] * sin[2pi*1x]]","sequence":{"family":"Naturals"},"n_terms":100,"samples":4,"window":24,"max_dispersion":2,"expected_means":[0,0.25,-1],"mean_tolerance":3}'
    ),
    'KolmogorovCheck/defaults': (
        '{"kind":"KolmogorovCheck","seed":0,"weights":["1/2","1/2"],"observable":"Cylinder[0:0]","sequence":{"family":"Primes"},"n_terms":100,"samples":4,"tolerance":0.5,"window":48}'
    ),
    'KolmogorovCheck/full': (
        '{"kind":"KolmogorovCheck","seed":8,"weights":["1/5","4/5"],"observable":"Constant[3.0]","sequence":{"family":"Lacunary","base":3},"n_terms":30,"samples":4,"tolerance":1,"window":30}'
    ),
    'LacunaryContrast/defaults': (
        '{"kind":"LacunaryContrast","seed":0,"weights":["1/2","1/2"],"observable":"Cylinder[0:0]","good_sequence":{"family":"Naturals"},"lacunary_sequence":{"family":"Lacunary","base":2},"matched_terms":20,"samples":4,"extended_terms":100000,"max_extended_dispersion":null,"window":48}'
    ),
    'LacunaryContrast/full': (
        '{"kind":"LacunaryContrast","seed":6,"weights":["1/2","1/2"],"observable":"Cylinder[0:0]","good_sequence":{"family":"Primes"},"lacunary_sequence":{"family":"Lacunary","base":5},"matched_terms":20,"samples":4,"extended_terms":500,"max_extended_dispersion":1,"window":8}'
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_manifest_bytes_are_pinned(tmp_path, name):
    out = tmp_path / "out"
    assert run_config(json.loads(json.dumps(CONFIGS[name])), out_dir=str(out)) == 0
    expected = '{"tool":"seqchaos","version":"%s","config":%s}\n' % (__version__, PINNED[name])
    assert (out / "manifest.json").read_text(encoding="utf-8") == expected


# One small config per experiment kind whose output bytes are pinned.  Only
# exact observables (cylinders and constants) appear, so the averages are
# the same bits on every numpy.
OUTPUT_CONFIGS = {
    "ConditionStarProfile": CONFIGS["ConditionStarProfile/defaults"],
    "VeryGoodDeviation": {
        "kind": "VeryGoodDeviation",
        "system": {"kind": "FullShift", "weights": ["1/3", "2/3"]},
        "observable": {"kind": "CylinderIndicator", "constraints": {"0": 1, "2": 0}},
        "sequence": {"family": "Primes"},
        "n_terms": 200,
        "samples": 3,
        "tolerance": 0.5,
    },
    "DisintegrationConsistency": CONFIGS["DisintegrationConsistency/defaults"],
    "TupleScan": CONFIGS["TupleScan/full"],
    "ScrambledBuildVerify": CONFIGS["ScrambledBuildVerify/defaults"],
    "FiberConstancy": {
        "kind": "FiberConstancy",
        "weights": _HALF,
        "alpha": "1/2",
        "thetas": ["0", "1/3"],
        "observable": {"kind": "ProductOf", "factors": [_CYL0, {"kind": "Constant", "value": 1}]},
        "sequence": {"family": "PolynomialFloor", "coefficients": [0, 2]},
        "n_terms": 100,
        "samples": 3,
    },
    "KolmogorovCheck": CONFIGS["KolmogorovCheck/defaults"],
    "LacunaryContrast": CONFIGS["LacunaryContrast/full"],
}

# result.json, result.csv and summary.json (and certificate.json), byte for byte.
PINNED_OUTPUTS = {
    'ConditionStarProfile': {
        'result.json': (
            '{"sequence":"Primes","max_gap":2,"checkpoints":[{"N":10,"count":20,"density":0.20000000000000001},{"N":100,"count":152,"density":0.0152}]}\n'
        ),
        'result.csv': (
            'N,count,density\n'
            '10,20,0.20000000000000001\n'
            '100,152,0.0152\n'
        ),
        'summary.json': (
            '{"passed":true,"assertions":[]}\n'
        ),
    },
    'DisintegrationConsistency': {
        'result.json': (
            '{"consistency_gap":0.046000000000000041,"integral":0.5}\n'
        ),
        'result.csv': (
            'samples,consistency_gap\n'
            '5,0.046000000000000041\n'
        ),
        'summary.json': (
            '{"passed":true,"assertions":[{"name":"consistency_gap_below_tolerance","passed":true,"detail":"gap=0.046 tolerance=0.5"}]}\n'
        ),
    },
    'FiberConstancy': {
        'result.json': (
            '{"n_terms":100,"sample_count":3,"fibers":[{"theta":"0","dispersion":0.12999999999999995,"mean":0.51333333333333331},{"theta":"1/3","dispersion":0.040000000000000036,"mean":0.48999999999999999}]}\n'
        ),
        'result.csv': (
            'theta,sample,value\n'
            '0,0,0.58999999999999997\n'
            '0,1,0.48999999999999999\n'
            '0,2,0.46000000000000002\n'
            '1/3,0,0.51000000000000001\n'
            '1/3,1,0.46999999999999997\n'
            '1/3,2,0.48999999999999999\n'
        ),
        'summary.json': (
            '{"passed":true,"assertions":[]}\n'
        ),
    },
    'KolmogorovCheck': {
        'result.json': (
            '{"max_deviation":0.07999999999999996,"integral":0.5}\n'
        ),
        'result.csv': (
            'samples,max_deviation\n'
            '4,0.07999999999999996\n'
        ),
        'summary.json': (
            '{"passed":true,"assertions":[{"name":"max_deviation_below_tolerance","passed":true,"detail":"deviation=0.08 tolerance=0.5"}]}\n'
        ),
    },
    'LacunaryContrast': {
        'result.json': (
            '{"matched_terms":20,"good_dispersion":0.33166247903553997,"lacunary_dispersion":0.31091263510296052,"extended_terms":500,"good_extended_dispersion":0.026633312473917592,"lacunary_max_terms":27,"lacunary_extended_available":false}\n'
        ),
        'result.csv': (
            'phase,terms,good_dispersion,lacunary_dispersion\n'
            'matched,20,0.33166247903553997,0.31091263510296052\n'
            'extended,500,0.026633312473917592,-1\n'
        ),
        'summary.json': (
            '{"passed":true,"assertions":[{"name":"good_extended_dispersion_below_bound","passed":true,"detail":"dispersion=0.0266333 bound=1"}]}\n'
        ),
    },
    'ScrambledBuildVerify': {
        'result.json': (
            '{"passed":true,"schedule_valid":true,"checks":[{"name":"coalescence/1/max_average<=B","claimed":"70368744177665/281474976710656","measured":0,"passed":true},{"name":"coalescence/2/max_average<=B","claimed":"70368744177665/281474976710656","measured":0,"passed":true},{"name":"separation/1/min_average>=C","claimed":"0","measured":0,"passed":true},{"name":"separation/2/min_average>=C","claimed":"23/64","measured":0.71874999255666305,"passed":true},{"name":"limsup_proxy>=c_star","claimed":"3/8","measured":0.71874999255666305,"passed":true},{"name":"liminf_proxy<=min_B","claimed":"70368744177665/281474976710656","measured":0,"passed":true}],"report":{"tuple_size":2,"liminf_proxy":0,"limsup_proxy":0.71874999255666305,"eta":0.375,"err_bound":4.4408920985006262e-15,"checkpoints":[{"N":4,"max_average":0,"min_average":0},{"N":16,"max_average":0,"min_average":0},{"N":64,"max_average":0,"min_average":0},{"N":256,"max_average":0.71874999255666305,"min_average":0.71874999255666305}]}}\n'
        ),
        'result.csv': (
            'N,max_average,min_average,err_bound\n'
            '4,0,0,4.4408920985006262e-15\n'
            '16,0,0,4.4408920985006262e-15\n'
            '64,0,0,4.4408920985006262e-15\n'
            '256,0.71874999255666305,0.71874999255666305,4.4408920985006262e-15\n'
        ),
        'summary.json': (
            '{"passed":true,"assertions":[{"name":"check/coalescence/1/max_average<=B","passed":true,"detail":"claimed=70368744177665/281474976710656 measured=0"},{"name":"check/coalescence/2/max_average<=B","passed":true,"detail":"claimed=70368744177665/281474976710656 measured=0"},{"name":"check/separation/1/min_average>=C","passed":true,"detail":"claimed=0 measured=0"},{"name":"check/separation/2/min_average>=C","passed":true,"detail":"claimed=23/64 measured=0.71875"},{"name":"check/limsup_proxy>=c_star","passed":true,"detail":"claimed=3/8 measured=0.71875"},{"name":"check/liminf_proxy<=min_B","passed":true,"detail":"claimed=70368744177665/281474976710656 measured=0"},{"name":"schedule_valid","passed":true,"detail":""}]}\n'
        ),
        'certificate.json': (
            '{"tuple_size":2,"alphabet_size":2,"growth":4,"phase_pairs":2,"window":48,"sequence":"Primes","checkpoint_indices":[4,16,64,256],"sequence_at_checkpoints":[7,53,311,1619],"coordinate_boundaries":[56,102,360,1668],"coalescence_bounds":["70368744177665/281474976710656","70368744177665/281474976710656"],"separation_bounds":["0","23/64"],"in_zone_counts":[0,184],"c_star":"3/8"}\n'
        ),
    },
    'TupleScan': {
        'result.json': (
            '{"tuples":[{"index":0,"max_average":0.57373046875,"min_average":0.32761230468750002},{"index":1,"max_average":0.41926269531249999,"min_average":0.18588867187499999}]}\n'
        ),
        'result.csv': (
            'tuple,N,max_average,min_average\n'
            '0,5,0.57373046875,0.32761230468750002\n'
            '1,5,0.41926269531249999,0.18588867187499999\n'
        ),
        'summary.json': (
            '{"passed":true,"assertions":[{"name":"every_min_average_above_floor","passed":true,"detail":"worst=0.185889 floor=0"}]}\n'
        ),
    },
    'VeryGoodDeviation': {
        'result.json': (
            '{"deviation":0.032222222222222208,"integral":0.22222222222222221,"samples":3}\n'
        ),
        'result.csv': (
            'samples,deviation\n'
            '3,0.032222222222222208\n'
        ),
        'summary.json': (
            '{"passed":true,"assertions":[{"name":"deviation_below_tolerance","passed":true,"detail":"deviation=0.0322222 tolerance=0.5"}]}\n'
        ),
    },
}


def test_every_kind_has_pinned_outputs():
    assert sorted(OUTPUT_CONFIGS) == sorted(PINNED_OUTPUTS) == sorted(cli.EXPERIMENTS)


@pytest.mark.parametrize("kind", sorted(OUTPUT_CONFIGS))
def test_output_bytes_are_pinned(tmp_path, kind):
    out = tmp_path / "out"
    assert run_config(json.loads(json.dumps(OUTPUT_CONFIGS[kind])), out_dir=str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(["manifest.json", *PINNED_OUTPUTS[kind]])
    for name, expected in PINNED_OUTPUTS[kind].items():
        assert (out / name).read_text(encoding="utf-8") == expected, name


def _rejected(capsys, tmp_path, cfg, **kwargs):
    """Run ``cfg`` into ``tmp_path/out``: it must exit 2 with a config error and write nothing."""
    out = tmp_path / "out"
    status = run_config(cfg, out_dir=str(out), **kwargs)
    err = capsys.readouterr().err
    assert status == 2, err
    assert "config error:" in err
    assert not out.exists()
    return err


def _base(name):
    return json.loads(json.dumps(CONFIGS[name]))


@pytest.mark.parametrize("kind", [[1], {"a": 1}, None, 3])
def test_non_string_kind_is_status_2(capsys, tmp_path, kind):
    _rejected(capsys, tmp_path, {"kind": kind})


def test_non_string_family_is_status_2(capsys, tmp_path):
    cfg = dict(_base("KolmogorovCheck/defaults"), sequence={"family": ["Primes"]})
    _rejected(capsys, tmp_path, cfg)


@pytest.mark.parametrize("out", [5, True, ["runs"], {"dir": "x"}])
def test_non_string_out_is_status_2(capsys, tmp_path, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    assert run_config(dict(_base("ConditionStarProfile/defaults"), out=out)) == 2
    assert "config error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_json_number_is_status_2(capsys, tmp_path, literal):
    text = json.dumps(CONFIGS["KolmogorovCheck/defaults"]).replace("0.5", literal)
    assert literal in text
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, key", [
    ('{"kind": "ConditionStarProfile", "sequence": {"family": "Primes"}, "max_gap": 10,'
     ' "checkpoints": [10, 100], "max_gap": 2}', "max_gap"),
    ('{"kind": "ConditionStarProfile", "sequence": {"family": "Lacunary", "base": 2, "base": 3},'
     ' "max_gap": 2, "checkpoints": [10, 20]}', "base"),
], ids=["top-level", "nested"])
def test_duplicate_key_is_status_2(capsys, tmp_path, text, key):
    # json.loads alone keeps the last value of a repeated key
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"duplicate key '{key}'" in err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400],
                         ids=["nan", "inf", "-inf", "10**400"])
@pytest.mark.parametrize("where", ["tolerance", "observable", "expected_means", "max_final_density"])
def test_non_finite_number_in_a_dict_is_status_2(capsys, tmp_path, value, where):
    if where == "tolerance":
        cfg = dict(_base("KolmogorovCheck/defaults"), tolerance=value)
    elif where == "observable":
        cfg = dict(_base("KolmogorovCheck/full"), observable={"kind": "Constant", "value": value})
    elif where == "expected_means":
        cfg = dict(_base("FiberConstancy/full"), expected_means=[0, value, 0])
    else:
        cfg = dict(_base("ConditionStarProfile/defaults"), max_final_density=value)
    _rejected(capsys, tmp_path, cfg)


def test_unknown_side_is_status_2(capsys, tmp_path):
    cfg = _base("TupleScan/defaults")
    cfg["system"]["side"] = "bogus"
    assert "bogus" in _rejected(capsys, tmp_path, cfg)
    with pytest.raises(ConfigError):
        sy.FullShift(["1/2", "1/2"], side="bogus")


def test_a_metric_other_than_summed_is_status_2(capsys, tmp_path):
    cfg = _base("TupleScan/defaults")
    cfg["system"]["metric"] = "first_difference"
    err = _rejected(capsys, tmp_path, cfg)
    assert "metric: expected 'summed', the one shift metric, got 'first_difference'" in err


def test_a_manifest_system_parses_back_to_the_same_shift(tmp_path):
    # a shift has one metric, but its key stays, so a manifest is a config
    cfg = _base("TupleScan/defaults")
    cfg["system"] = {"kind": "FullShift", "weights": ["1/4", "3/4"], "window": 12,
                     "side": "two_sided", "metric": "summed"}
    shift = sy.FullShift(["1/4", "3/4"], side=sy.TWO_SIDED, window=12)
    assert cli.parse_system(cfg["system"], "config.system") == shift
    del cfg["system"]["metric"]
    assert cli.parse_system(cfg["system"], "config.system") == shift
    assert run_config(cfg, out_dir=str(tmp_path / "out")) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["system"]["metric"] == "summed"
    assert cli.parse_system(manifest["config"]["system"], "config.system") == shift


def test_natural_extension_of_a_rotation_is_status_2(capsys, tmp_path):
    cfg = _base("TupleScan/defaults")
    cfg["system"] = {"kind": "NaturalExtension", "base": {"kind": "Rotation", "alpha": "golden"}}
    assert "base must be a FullShift" in _rejected(capsys, tmp_path, cfg)


def test_natural_extension_of_a_two_sided_shift_is_status_2(capsys, tmp_path):
    cfg = _base("TupleScan/defaults")
    cfg["system"] = {"kind": "NaturalExtension",
                     "base": {"kind": "FullShift", "weights": _HALF, "side": "two_sided"}}
    assert "applies to one-sided shifts" in _rejected(capsys, tmp_path, cfg)


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_negative_seed_flag_is_status_2(capsys, tmp_path, seed):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIGS["ConditionStarProfile/defaults"]))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--seed", seed]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()
    _rejected(capsys, tmp_path, _base("ConditionStarProfile/defaults"), seed_override=int(seed))


def _with_window(name, window):
    cfg = _base(name)
    if "system" in cfg:
        cfg["system"]["window"] = window
    else:
        cfg["window"] = window
    return cfg


WINDOWED = ["TupleScan/defaults", "ScrambledBuildVerify/defaults", "FiberConstancy/defaults",
            "KolmogorovCheck/defaults", "LacunaryContrast/full"]


@pytest.mark.parametrize("name", WINDOWED)
def test_window_above_53_is_status_2(capsys, tmp_path, monkeypatch, name):
    def never(*args, **kwargs):
        raise AssertionError("the window must be refused before any work")

    for module, entry in ((ch, "build_scrambled_family"), (ch, "random_tuple_scan"),
                          (pk, "fiber_constancy_report"), (pk, "kolmogorov_limit_check"),
                          (pk, "lacunary_contrast_report")):
        monkeypatch.setattr(module, entry, never)
    assert "53" in _rejected(capsys, tmp_path, _with_window(name, sy.MAX_WINDOW + 1))


@pytest.mark.parametrize("name", WINDOWED)
def test_window_53_is_accepted(tmp_path, name):
    out = tmp_path / "out"
    assert run_config(_with_window(name, sy.MAX_WINDOW), out_dir=str(out)) == 0
    assert '"window":53' in (out / "manifest.json").read_text(encoding="utf-8")


def test_full_shift_refuses_a_window_above_53():
    assert sy.MAX_WINDOW == 53
    sy.FullShift.uniform(2, window=53)
    with pytest.raises(ConfigError):
        sy.FullShift.uniform(2, window=54)


def test_list_names_every_kind_in_the_table():
    # imported here, so the pinned-manifest tests above run on any version of the cli
    from seqchaos.cli import EXPERIMENTS

    assert sorted(EXPERIMENTS) == sorted({name.split("/")[0] for name in CONFIGS})
    lines = list_experiments().splitlines()
    assert len(lines) == 1 + len(EXPERIMENTS)
    for kind, line in zip(EXPERIMENTS, lines[1:]):
        assert line.startswith(f"  {kind}: ")
        for f in EXPERIMENTS[kind].fields:
            assert f.key in line


@pytest.mark.parametrize("workers", [0, -3, 1.5, "2", True, None])
def test_workers_below_one_or_not_an_int_are_status_2(capsys, tmp_path, workers):
    err = _rejected(capsys, tmp_path, _base("KolmogorovCheck/defaults"), workers=workers)
    assert "--workers" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_flag_below_one_is_status_2(capsys, tmp_path, workers):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIGS["KolmogorovCheck/defaults"]))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--workers", workers]) == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "value", ["1e99999999", "-1e-99999999", "1E1001", "2.5e+1_001", "1e-1001", "7e" + "9" * 5000]
)
def test_huge_decimal_exponents_are_status_2(capsys, tmp_path, value):
    # Fraction would build 10**exponent; these are refused before it sees them
    cfg = dict(_base("VeryGoodDeviation/defaults"),
               sequence={"family": "FractionalPowerFloor", "exponent": value})
    _rejected(capsys, tmp_path, cfg)
    cfg = dict(_base("KolmogorovCheck/defaults"), weights=[value, "1/2"])
    _rejected(capsys, tmp_path, cfg)


decimal_strings = st.builds(
    lambda sign, whole, frac, e, exp, pad: f"{pad}{sign}{whole}{frac}{e}{exp}{pad}",
    st.sampled_from(["", "-", "+"]),
    st.from_regex(r"\A[0-9]{1,4}(_[0-9]{1,3})?\Z"),
    st.sampled_from(["", ".", ".5", ".25_0", ".000"]),
    st.sampled_from(["e", "E"]),
    st.builds(lambda s, n: f"{s}{n}", st.sampled_from(["", "+", "-"]), st.integers(0, 1000)),
    st.sampled_from(["", " "]),
)


@settings(deadline=None, max_examples=200)
@given(value=st.one_of(decimal_strings, st.sampled_from(["1/3", "-7/2", "3", "0.5", "1e1000",
                                                            "-1E-1000", "1e0_1_0"])))
def test_decimal_exponents_up_to_1000_parse_as_before(value):
    assert cli._fraction(value, "x") == Fraction(value)


def test_n_terms_beyond_physical_memory_is_status_2(capsys, tmp_path):
    cfg = dict(_base("KolmogorovCheck/defaults"), n_terms=2**62)
    assert "physical memory" in _rejected(capsys, tmp_path, cfg)


@pytest.mark.parametrize(
    "key, coordinate",
    [("3", 3), ("0", 0), ("-1", -1), ("-0", 0), ("٣", None), (" 3", None), ("3 ", None),
     ("+3", None), ("03", None), ("3_0", None), ("", None), ("-", None), ("3.0", None)],
)
def test_cylinder_keys_are_canonical_decimal_integers(capsys, tmp_path, key, coordinate):
    # int() reads '٣', ' 3', '3 ', '+3' and '03' as 3, and '3_0' as 30
    cfg = _base("DisintegrationConsistency/full")
    cfg["observable"]["constraints"] = {key: 2}
    if coordinate is None:
        assert repr(key) in _rejected(capsys, tmp_path, cfg)
    else:
        f = cli.parse_observable(cfg["observable"], "observable")
        assert f.constraints == ((coordinate, 2),)
