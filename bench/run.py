#!/usr/bin/env python3
"""seqchaos benchmark: one workload, measured end to end or traced.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload pass runs in a fresh child interpreter (child.py), so the
``times_array`` cache starts cold as in every ``seqchaos run``.  Only
one child runs at a time; shift_prf_workers2 adds at most nproc pool
workers.  Every pass checks each experiment's exit status and the
SHA-256 of every artifact against reference.json; a mismatch counts as
a failed experiment.

``--trace 0`` runs passes back to back while another one fits in
``--seconds`` (at least one) and reports the end-to-end metrics:
``wall_s`` (median pass wall time, first ``run_config`` call to the
return of the last), ``setup_s`` (median time from spawning a child to
``seqchaos.cli`` being imported, over every child of the run including
set-up-only probes) and ``peak_rss_mb`` (median peak RSS of the child
plus its largest pool worker).  The failure ratio is printed and
carried by ``attempted``/``failed``; it is 0 on a correct build, so it
is not a bounded metric.

``--trace 1`` runs a traced pass, an untraced pass and a second traced
pass, and reports the per-layer metrics of tracing.py (the mean of the
two traced passes), ``trace_overhead_s`` (traced minus untraced wall
time), and checks that both traced passes give identical counts, that
the layers this workload exercises count nonzero work, and that the
self times plus ``unattributed_s`` add up to the traced wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units come
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, input_seed  # noqa: E402

SETUP_PROBES = 5
HARD_LIMIT_S = 170.0  # the whole run must end well within 180 s
TRACED_PASSES = ("traced", "plain", "traced")
ADD_UP_TOLERANCE_S = 1e-6


class ChildFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, work: Path, deadline: float | None) -> dict:
    """Run child.py once; return its result with ``setup_s`` filled in.

    ``deadline`` is a ``time.monotonic()`` value, or None for no limit.
    """
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), mode, str(work),
           str(result_path)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=None if deadline is None else max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child exceeded the run's time limit") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: "
                          f"{proc.stderr.decode(errors='replace')[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - spawned
    return result


def mismatches(result: dict, expected: dict) -> list[str]:
    """Experiments whose exit status or artifact digests differ from the reference."""
    bad = []
    for name, ref in expected.items():
        got = result["experiments"].get(name)
        if got is None or got["status"] != ref["status"] or got["files"] != ref["files"]:
            bad.append(name)
    return bad


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    if caches:
        try:
            info["llc"] = (caches[-1] / "size").read_text().strip()
        except OSError:
            pass
    return info


def traced_metrics(passes: list[dict], plain_wall: float,
                   busy: tuple[str, ...]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes, and the checks they fail."""
    problems = []
    first, second = passes
    if first["counts"] != second["counts"]:
        diff = sorted(k for k in set(first["counts"]) | set(second["counts"])
                      if first["counts"].get(k) != second["counts"].get(k))
        problems.append(f"counts differ between traced passes: {diff}")
    counts = first["counts"]
    for key in busy:
        if not counts.get(key):
            problems.append(f"{key} is zero on a workload that should exercise it")
    for p in passes:
        self_sum = sum(v for k, v in p["timings"].items() if k.endswith(".self_s"))
        gap = self_sum + p["timings"]["unattributed_s"] - p["wall_s"]
        if abs(gap) > ADD_UP_TOLERANCE_S:
            problems.append(f"self times miss the traced wall time by {gap:.3g} s")

    metrics = {k: statistics.fmean(p["timings"][k] for p in passes) for k in first["timings"]}
    traced_wall = statistics.fmean(p["wall_s"] for p in passes)
    metrics["traced_wall_s"] = traced_wall
    metrics["trace_overhead_s"] = traced_wall - plain_wall
    for key in ("seqgen.times_array.terms", "seqgen.times_array.hits",
                "seqgen.times_array.misses", "seqgen.close_pair_profile.terms",
                "prf.prf64_np.evals", "systems.rotation_orbit_fractions.points",
                "systems.coordinates.indices", "observables.series.values",
                "averaging.ergodic_average.terms", "chaos.distance_series.pair_terms",
                "pool.parallel_map.items", "pool.workers", "reporting.write.bytes"):
        metrics[key] = counts.get(key, 0)
    lookups = counts.get("seqgen.times_array.hits", 0) + counts.get("seqgen.times_array.misses", 0)
    metrics["seqgen.times_array.hit_ratio"] = (
        counts.get("seqgen.times_array.hits", 0) / lookups if lookups else 0.0
    )
    calls = counts.get("chaos.distance_series.calls", 0)
    metrics["chaos.distance_series.window_ratio"] = (
        counts.get("chaos.distance_series.window_calls", 0) / calls if calls else 0.0
    )
    return metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "seqchaos" / "cli.py").is_file():
        print(f"no seqchaos sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = WORKLOADS[args.workload]
    seed = input_seed(args.seed)
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    expected = reference["config_sets"][wl.config_set][str(seed)]

    started = time.monotonic()
    hard_deadline = started + HARD_LIMIT_S
    work = ROOT / ".bench_work" / args.workload
    setups: list[float] = []
    passes: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []

    def run(mode: str) -> dict | None:
        nonlocal attempted, failed
        attempted += len(expected)
        try:
            result = spawn(args.workload, seed, mode, work / "pass", hard_deadline)
        except ChildFailed as exc:
            failed += len(expected)
            problems.append(str(exc))
            return None
        bad = mismatches(result, expected)
        failed += len(bad)
        if bad:
            problems.append(f"{mode} pass: status or artifact digests differ from reference "
                            f"for {bad}")
        setups.append(result["setup_s"])
        result["mode"] = mode
        passes.append(result)
        return result

    env = machine()
    try:
        for _ in range(SETUP_PROBES):
            probe = spawn(args.workload, seed, "probe", work / "probe", hard_deadline)
            setups.append(probe["setup_s"])
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    env["numpy"] = probe["numpy"]
    env["blas_threads"] = probe["blas_threads"]

    deadline = time.monotonic() + args.seconds
    if args.trace:
        for mode in TRACED_PASSES:
            if run(mode) is None:
                break
    else:
        longest = 0.0
        while True:
            t0 = time.monotonic()
            if run("plain") is None:
                break
            longest = max(longest, time.monotonic() - t0)
            if time.monotonic() + longest > deadline:
                break

    plain = [p for p in passes if p["mode"] == "plain"]
    traced = [p for p in passes if p["mode"] == "traced"]
    metrics: dict[str, float] = {}
    if args.trace:
        if len(traced) == 2 and plain:
            metrics, trace_problems = traced_metrics(traced, plain[0]["wall_s"], wl.busy)
            problems.extend(trace_problems)
    elif plain:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")

    print("machine " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} input_seed {seed} passes {len(plain)} plain +"
          f" {len(traced)} traced, {len(setups)} set-ups, {time.monotonic() - started:.1f} s")
    for m in wanted:
        if m["name"] in metrics:
            print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    print("pass wall_s " + " ".join(f"{p['mode']}:{p['wall_s']:.4g}" for p in passes))
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} experiments failed)")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    out = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
