#!/usr/bin/env python3
"""Regenerate reference.json: exit status and artifact SHA-256 digests of
every experiment, for every config set and input seed.

Run from the root of a checkout: python3 bench/make_reference.py

Only a change that edits the benchmark may regenerate the table; a change
to seqchaos itself is checked against it.  Digests are taken with one
worker, so shift_prf_workers2 also checks that the pool writes the same
bytes.
"""

import json
import sys

from run import BENCH, ROOT, spawn
from workloads import CONFIG_SETS, INPUT_SEEDS


def main() -> int:
    table = {}
    for config_set in CONFIG_SETS:
        table[config_set] = {}
        for seed in INPUT_SEEDS:
            result = spawn(config_set, seed, "plain", ROOT / ".bench_work" / "reference", None)
            table[config_set][str(seed)] = result["experiments"]
            statuses = {k: v["status"] for k, v in result["experiments"].items()}
            print(config_set, seed, f"{result['wall_s']:.2f} s", statuses, flush=True)
    out = {"input_seeds": list(INPUT_SEEDS), "config_sets": table}
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
