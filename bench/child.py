"""One workload pass (or one set-up probe) in a fresh interpreter.

Usage: python3 child.py WORKLOAD INPUT_SEED MODE WORK_DIR RESULT_JSON

MODE is ``probe`` (import seqchaos.cli and exit), ``plain`` (run every
config of the workload through ``seqchaos.cli.run_config``) or
``traced`` (the same with spans and counters recorded).  The result file
holds the monotonic time at which ``seqchaos.cli`` finished importing,
the pass wall time, peak RSS, exit statuses and SHA-256 digests of every
artifact.  The caller compares digests against reference.json.
"""

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import seqchaos.cli  # noqa: E402  (set-up ends here)

READY = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def blas_threads() -> int | None:
    """Thread count of numpy's OpenBLAS, or None where it cannot be read."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def digests(directory: Path) -> dict[str, str]:
    if not directory.is_dir():  # a config error writes no artifacts
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
    }


def run_pass(workload: str, seed: int, traced: bool, work: Path) -> dict:
    wl = WORKLOADS[workload]
    workers = min(wl.workers, len(os.sched_getaffinity(0)))
    configs = wl.configs(seed)
    if traced:
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)
    statuses = {}
    start = time.perf_counter()
    for name, cfg in configs.items():
        statuses[name] = seqchaos.cli.run_config(
            cfg, out_dir=str(work / name), workers=workers, seed_override=seed
        )
    wall = time.perf_counter() - start
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {
        "wall_s": wall,
        "peak_rss_mb": rss_kb / 1024,
        "experiments": {
            name: {"status": status, "files": digests(work / name)}
            for name, status in statuses.items()
        },
    }
    if traced:
        out["timings"] = tracing.finish(rec, wall)
        out["counts"] = dict(rec.counts)
        with open(work / "spans.jsonl", "w", encoding="ascii") as fh:
            for span in rec.spans:
                fh.write(json.dumps(span) + "\n")
    return out


def main() -> int:
    workload, seed, mode, work, result_path = sys.argv[1:]
    if not Path(seqchaos.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported seqchaos from {seqchaos.cli.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    result = {"ready": READY}
    if mode == "probe":
        import numpy as np

        result["numpy"] = np.__version__
        result["blas_threads"] = blas_threads()
    else:
        result.update(run_pass(workload, int(seed), mode == "traced", Path(work)))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
