"""Measure the run-to-run spread of the end-to-end metrics.

    python3 bench/steadiness.py [--workload NAME ...] [--write]

Runs `run.py --trace 0` ten times for each workload, one run at a time,
with seeds 101 to 110, and prints for each end-to-end metric the
quartiles of its per-run values and the spread (q3 - q1) / median next
to the metric's bound.  A spread at or above a third of the bound is
flagged, `setup_s` included, and the script then exits 1.  With
`--write` the table is stored in `bench/steadiness.json`, the measured
basis for the bounds in `BENCHMARK.json`.

The seed only changes the first, untimed check repetition of a run; the
timed repetitions always run the workload's default seed.  So the ten
runs repeat the same timed work, and their spread is run-to-run noise.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(101, 111)


def one_run(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    table = {}
    steady = True
    for workload in workloads:
        runs = []
        for seed in SEEDS:
            runs.append(one_run(spec, workload, seed))
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        table[workload] = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flagged = spread >= m["bound"] / 3
            steady = steady and not flagged
            table[workload][m["name"]] = {
                "unit": m["unit"], "q1": q1, "median": med, "q3": q3,
                "spread": spread, "bound": m["bound"]}
            print(f"  {workload:15s} {m['name']:16s} median={med:.4g} {m['unit']:8s} "
                  f"spread={spread:.3f} bound={m['bound']}"
                  f"{'  <-- above bound/3' if flagged else ''}", flush=True)
    if args.write:
        record = {
            "how": "python3 bench/steadiness.py --write",
            "host": f"{platform.machine()}, {os.cpu_count()} cpus, "
                    f"Python {platform.python_version()}",
            "run_seconds": spec["run_seconds"],
            "seeds": f"{SEEDS.start}-{SEEDS.stop - 1}; they change only the "
                     "untimed check repetition",
            "workloads": table,
        }
        with open(BENCH / "steadiness.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
