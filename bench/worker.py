"""One benchmark repetition in a fresh process.

Runs one workload scenario to completion through tdgsim's public entry
points, times each stage, checks the outputs, and prints one JSON object
on stdout.  `run.py` starts one of these per repetition, one at a time.

    python3 bench/worker.py --workload NAME --seed N --out DIR
                            [--trace] [--check] [--scale K]
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# A single timing of set-up, the report, replay or the ledger audit is
# noisy, so each is repeated until its calls have taken STAGE_MIN_S, and
# the median call is kept.  Every repeat starts from fresh inputs: set-up
# parses the scenario file and builds a new World, the report verifies a
# new Ledger over the run's blocks and folds a new list of its events,
# replay reads events.jsonl anew, the audit parses ledger.txt anew.  The
# simulation is timed once: only a second simulation could rebuild its
# input.
STAGE_MIN_S = 1.0

# The host switches between speeds up to about 1.9x apart, and one state
# can last a whole run, so no statistic over a run's wall times is steady
# from run to run.  Every time the benchmark reports is therefore
# host-adjusted: wall seconds divided by the host's slowdown at that
# moment.  The slowdown is the time of a fixed pure-Python reference
# kernel (`reference_kernel`), run right before and right after the timed
# piece, over REF_KERNEL_S, the kernel's time on this kind of host when it
# runs at full speed (2-vCPU x86_64 VM, Python 3.11.7).  A reported second
# is thus a second at full host speed.  The simulation is cut into blocks
# of about SIM_BLOCK_S between ticks, each block adjusted by the slowdown
# at its two ends, because a state can change within a long run.
REF_KERNEL_S = 0.00045
SIM_BLOCK_S = 0.1


class _Probe:
    __slots__ = ("a", "b")

    def __init__(self, a: int) -> None:
        self.a = a
        self.b = a + 1

    def get(self, x: int) -> int:
        return self.a + x


def reference_kernel() -> int:
    """A fixed mix of the interpreter work the simulator does: dict
    updates, small-object creation with attribute and method access, and
    int-to-str formatting.  It touches nothing of tdgsim."""
    counts: dict = {}
    total = 0
    for i in range(1000):
        k = i & 255
        counts[k] = counts.get(k, 0) + i
        total += _Probe(i).get(k) + len(str(i))
    return total + len(counts)


def slowdown() -> float:
    """The host's current slowdown: the median time of three reference
    kernel runs over REF_KERNEL_S.  The garbage collector is held off
    meanwhile, so the kernel never pays for a collection of the program's
    objects."""
    clock = time.perf_counter
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            t0 = clock()
            reference_kernel()
            times.append(clock() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times) / REF_KERNEL_S


def adjusted(fn):
    """Call `fn()`.  Returns its result and (host-adjusted seconds, wall
    seconds) of the call."""
    before = slowdown()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, (wall / ((before + slowdown()) / 2), wall)


def run_adjusted(world) -> tuple:
    """`world.run()` in host-adjusted seconds.

    `World.run` calls `self.step` once per tick; an instance attribute
    wraps it so that, whenever SIM_BLOCK_S of ticks have passed, the
    reference kernel runs between two ticks.  Each block of ticks is
    divided by the mean slowdown at its two ends; the kernel's own time
    is in no block.  Returns (adjusted seconds, wall seconds of the
    blocks, their ratio: the run's overall slowdown).
    """
    clock = time.perf_counter
    step = world.step
    blocks = []  # (wall seconds, slowdown at its start, slowdown at its end)
    state = [slowdown(), clock()]  # slowdown at the block's start, its start

    def close_block():
        wall = clock() - state[1]
        factor = slowdown()
        blocks.append((wall, state[0], factor))
        state[0] = factor
        state[1] = clock()

    def timed_step(tick):
        step(tick)
        if clock() - state[1] >= SIM_BLOCK_S:
            close_block()

    world.step = timed_step
    try:
        world.run()
        close_block()
    finally:
        del world.step
    wall = sum(b[0] for b in blocks)
    adj = sum(w / ((s0 + s1) / 2) for w, s0, s1 in blocks)
    return adj, wall, wall / adj


def repeat(stage, once: bool = False):
    """Call `stage()` until its calls, the reference kernel runs
    included, have taken STAGE_MIN_S; or a single time if `once`.

    `stage` returns (result, {part: (adjusted s, wall s)}), each part timed
    on its own by `adjusted`, so the host's slowdown is taken close to
    every part.  Returns the last result, the median of the calls'
    adjusted totals, and the median wall seconds of each part.
    """
    totals, walls = [], {}
    start = time.perf_counter()
    result = None
    while not totals or not once and time.perf_counter() - start < STAGE_MIN_S:
        result = None  # free the previous result before building the next
        result, parts = stage()
        totals.append(sum(adj for adj, _ in parts.values()))
        for name, (_, wall) in parts.items():
            walls.setdefault(name, []).append(wall)
    return (result, statistics.median(totals),
            {name: statistics.median(v) for name, v in walls.items()})


def import_tdgsim():
    """Import tdgsim from this checkout's `src/`, never from anywhere else.

    Returns the resolved path of the imported package; raises SystemExit
    when the checkout has no sources or the import resolved elsewhere.
    """
    src = ROOT / "src"
    if not (src / "tdgsim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no tdgsim sources under {src}")
    sys.path.insert(0, str(src))
    import tdgsim
    where = Path(tdgsim.__file__).resolve().parent
    if not where.is_relative_to(ROOT):
        raise SystemExit(f"bench: tdgsim resolved to {where}, outside {ROOT}")
    return where


def run_once(workload: str, seed: int, out: Path, trace: bool,
             scale: int = 0, check: bool = False) -> dict:
    """Run one repetition and return its result.  With `check`, its
    timings are not used, so each stage runs once."""
    from tdgsim.engine import World
    from tdgsim.ledger import Ledger, parse_ledger_lines
    from tdgsim.metrics import compute_metrics
    from tdgsim.scenario import emit_report, parse_scenario, read_event_log
    from workloads import OUTPUT_FILES, SCALING_TICKS, WORKLOADS, etc_population

    wl = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    scenario = out / "scenario.ini"
    text = etc_population(seed, scale, SCALING_TICKS) if scale else wl.render(seed)
    scenario.write_text(text, encoding="utf-8")

    tracer = None
    if trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()

    def setup():
        cfg, parse_t = adjusted(lambda: parse_scenario(scenario))
        world, init_t = adjusted(lambda: World(cfg))
        return world, {"parse": parse_t, "init": init_t}

    world, setup_s, setup_t = repeat(setup, check)

    sim_s, sim_wall_s, sim_slowdown = run_adjusted(world)

    def report_stage():
        # New containers each call, so nothing a call may keep on the Ledger
        # or the events list can speed up the next one.
        ledger, events = Ledger(list(world.ledger.blocks)), list(world.events)
        bad, verify_t = adjusted(ledger.verify_chain)
        report, metrics_t = adjusted(lambda: compute_metrics(world.header(),
                                                             events))
        _, emit_t = adjusted(lambda: emit_report(world, report, out))
        return (bad, report), {"verify": verify_t, "metrics": metrics_t,
                               "emit": emit_t}

    (bad, report), report_s, report_t = repeat(report_stage, check)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    events = len(world.events)
    wu_issued = sum(1 for ev in world.events if ev.kind == "wu_issued")
    blocks = len(world.ledger)
    rows, series = report.scalar_rows(), report.series
    world = report = None

    def replay():
        (header, replay_events), read_t = adjusted(
            lambda: read_event_log(out / "events.jsonl"))
        replayed, compute_t = adjusted(
            lambda: compute_metrics(header, replay_events))
        return replayed, {"read": read_t, "compute": compute_t}

    replayed, replay_s, replay_t = repeat(replay, check)

    def audit():
        ledger, parse_t = adjusted(lambda: parse_ledger_lines(
            (out / "ledger.txt").read_text(encoding="utf-8").split("\n")))
        bad, verify_t = adjusted(ledger.verify_chain)
        return (len(ledger), bad), {"parse": parse_t, "verify": verify_t}

    (audited_blocks, bad_export), verify_ledger_s, _ = repeat(audit, check)

    errors = []
    if bad is not None:
        errors.append(f"ledger block {bad} fails verification")
    if bad_export is not None:
        errors.append(f"exported ledger block {bad_export} fails verification")
    if audited_blocks != blocks:
        errors.append(f"exported ledger has {audited_blocks} blocks, run had {blocks}")
    if replayed.scalar_rows() != rows or replayed.series != series:
        errors.append("replay of events.jsonl differs from the run")
    digest_checked = seed == wl.default_seed and not scale
    if digest_checked:
        for name in OUTPUT_FILES:
            got = hashlib.sha256((out / name).read_bytes()).hexdigest()
            if got != wl.digests[name]:
                errors.append(f"{name} sha256 {got} != pinned {wl.digests[name]}")

    result = {
        "ok": not errors, "errors": errors, "seed": seed,
        "digest_checked": digest_checked,
        "setup_s": setup_s,
        "sim_s": sim_s,
        "report_s": report_s,
        "run_s": setup_s + sim_s + report_s,
        "events_per_s": events / sim_s,
        "replay_s": replay_s,
        "verify_ledger_s": verify_ledger_s,
        "peak_rss_mb": peak_rss_mb,
        "events": events,
        "sim_wall_s": sim_wall_s,
        "sim_slowdown": sim_slowdown,
    }
    if tracer is not None:
        from layertrace import layer_metrics
        tracer.uninstall()
        tracer.write(out / "trace.json")
        stages = {"parse": setup_t["parse"], "init": setup_t["init"],
                  "verify": report_t["verify"], "metrics": report_t["metrics"],
                  "emit": report_t["emit"], "replay_read": replay_t["read"],
                  "replay_compute": replay_t["compute"]}
        result["layers"] = layer_metrics(
            tracer, stages, world_events=events, wu_issued=wu_issued,
            ledger_blocks=blocks,
            events_bytes=(out / "events.jsonl").stat().st_size)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true",
                    help="an untimed correctness check: run each stage once")
    ap.add_argument("--scale", type=int, default=0,
                    help="run the etc_throughput population times SCALE "
                         "(scaling ladder) instead of the workload")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(BENCH))
    where = import_tdgsim()
    try:
        result = run_once(args.workload, args.seed, Path(args.out),
                          args.trace, args.scale, args.check)
    except Exception as exc:  # a crash is a failed operation, reported as such
        result = {"ok": False, "errors": [f"{type(exc).__name__}: {exc}"]}
    result["module"] = str(where)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
