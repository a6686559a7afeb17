"""tdgsim benchmark: one command that runs a workload, checks its outputs
and prints every metric by name and unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --scaling

Each repetition runs in a fresh worker process (`worker.py`), one at a
time: a closed loop with one client on a 2-core host.  The first
repetition runs the workload at `--seed` as a correctness check; the
timed ones run it at its default seed (see `measure`).  Repetitions are
started until the next one would end after `--seconds`, with a minimum
count so medians rest on several samples.  The last stdout line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones from untraced
repetitions (see `end_to_end`).  With `--trace 1` untraced and traced
repetitions alternate; the metrics are the per-layer ones from the traced
repetitions, plus `trace.overhead_ratio` (traced over untraced `sim_s`).
The layer times are wall times; `host.sim_wall_s` and `host.slowdown`
give the traced repetitions' wall time of `World.run()` and the host
slowdown that `sim_s` was adjusted by, so they can be set side by side.

`--scaling` runs the etc_throughput population at x1, x5 and x10 for 300
ticks, once each, and prints `sim_s` per rung and the log-log slope.  It
is a report, not a gated workload.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3        # timed repetitions per run, whatever --seconds says
RUN_LIMIT_S = 170   # a run must end within 180 s, so no worker outlives this
SCALING_RUNGS = (1, 5, 10)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(workload: str, seed: int, out: Path, trace: bool,
               timeout: float, scale: int = 0, check: bool = False) -> dict:
    cmd = [sys.executable, "-I", str(BENCH / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if check:
        cmd.append("--check")
    if scale:
        cmd += ["--scale", str(scale)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"worker exceeded {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        # The worker reports every failure of the program in its JSON; an
        # exit without it means it could not run at all (no sources under
        # src/, tdgsim imported from outside the checkout, a crash), so
        # there is no result to print.
        raise SystemExit(f"bench: worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run repetitions until the next would overrun `seconds`.

    The first repetition runs the workload at `seed` and is only checked:
    the ledger verifies and replay equals run.  The timed repetitions run
    it at its default seed, where the pinned output digests are checked
    too.  Timing a fixed input keeps seed-dependent work (trust-malice
    emits 26k to 39k events depending on the seed) out of the spread.

    Returns (attempted, failed, untraced results, traced results).
    """
    start = time.perf_counter()
    untraced, traced = [], []
    attempted = failed = 0
    minimum = 1 + MIN_REPS
    while True:
        checking = attempted == 0
        tracing = trace and attempted % 2 == 0 and not checking
        rep_seed = seed if checking else WORKLOADS[workload].default_seed
        timeout = RUN_LIMIT_S - (time.perf_counter() - start)
        result = run_worker(workload, rep_seed, OUT / workload, tracing,
                            timeout, check=checking)
        attempted += 1
        if checking and "module" in result:
            print(f"tdgsim imported from {result['module']}")
        status = "ok" if result["ok"] else "FAILED " + "; ".join(result["errors"])
        print(f"rep {attempted} seed={rep_seed} trace={int(tracing)} "
              f"{'check' if checking else 'timed'} "
              f"sim_s={result.get('sim_s', float('nan')):.4f} "
              f"digests_checked={result.get('digest_checked')} {status}")
        if not result["ok"]:
            failed += 1
        elif not checking:
            (traced if tracing else untraced).append(result)
        elapsed = time.perf_counter() - start
        if elapsed * (attempted + 1) / attempted > RUN_LIMIT_S:
            return attempted, failed, untraced, traced
        if attempted >= minimum and elapsed * (attempted + 1) / attempted > seconds:
            return attempted, failed, untraced, traced


def end_to_end(untraced, names) -> dict:
    """The end-to-end metrics of a run: each one's median over the run's
    untraced timed repetitions.  The times are host-adjusted (see
    `worker.adjusted`), so they do not follow the host's speed."""
    return {name: statistics.median(r[name] for r in untraced) for name in names}


def per_layer(traced, untraced) -> dict:
    """The per-layer metrics of a run: medians over its traced repetitions,
    and the tracing overhead as traced over untraced host-adjusted
    `World.run()` time."""
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    values["trace.overhead_ratio"] = (
        statistics.median(r["sim_s"] for r in traced)
        / statistics.median(r["sim_s"] for r in untraced))
    values["host.sim_wall_s"] = statistics.median(r["sim_wall_s"] for r in traced)
    values["host.slowdown"] = statistics.median(r["sim_slowdown"] for r in traced)
    return values


def bench(args) -> int:
    spec = load_spec()
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    attempted, failed, untraced, traced = measure(
        args.workload, args.seed, args.seconds, args.trace == 1)
    if args.trace == 1:
        wanted = spec["per_layer"]
        values = per_layer(traced, untraced) if traced and untraced else {}
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(untraced, [m["name"] for m in wanted]) if untraced else {}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    correct = failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def scaling() -> int:
    """Agent-scaling ladder: etc_throughput population x1, x5, x10, 300 ticks."""
    points = []
    for scale in SCALING_RUNGS:
        result = run_worker("trust-scale", 1, OUT / f"scaling-x{scale}",
                            trace=False, timeout=RUN_LIMIT_S, scale=scale)
        if scale == SCALING_RUNGS[0] and "module" in result:
            print(f"tdgsim imported from {result['module']}")
        if not result["ok"]:
            print(f"x{scale}: FAILED {'; '.join(result['errors'])}")
            return 1
        agents = 48 * scale  # 40 reliable + 8 malicious per unit of scale
        points.append((agents, result["sim_s"]))
        print(f"x{scale}: agents={agents} sim_s={result['sim_s']:.3f} "
              f"events={result['events']} peak_rss_mb={result['peak_rss_mb']:.1f}")
    slope = statistics.linear_regression(
        [math.log(a) for a, _ in points], [math.log(s) for _, s in points]).slope
    print(f"log-log slope of sim_s over agents: {slope:.3f} (1.0 is linear)")
    print(json.dumps({"rungs": [{"agents": a, "sim_s": s} for a, s in points],
                      "slope": slope}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scaling", action="store_true",
                    help="print the agent-scaling ladder instead")
    args = ap.parse_args(argv)

    if args.scaling:
        return scaling()
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
