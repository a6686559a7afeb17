"""Outside-in tracing of tdgsim's layers.

The tracer patches the names the engine looks up at call time, so the
program itself is unchanged:

* module-level names in `tdgsim.engine` that the engine imported by name
  (selection strategies, `effective_f_min`, `split_credits`, `Candidate`);
* `tdgsim.community` functions, which the engine calls through the module;
* methods on `World`, `ReputationStore` and `Ledger`.

Ticks, phases, selection calls, community `operate_tick` calls and
`_accepts_invite` are kept as full spans.  Hot leaf calls (1M+ `tau`
lookups on the larger workloads) are folded into per-parent count and
time, so memory stays bounded by the number of spans, not of calls.
A span's self time is its duration minus the time of its child spans
and timed leaves.

`aggregate_reputation` runs inside the timed `tau` leaf, so whatever its
hook costs is charged to `trust.tau_s`.  The hook therefore only bumps
two run-wide counters (calls, window values summed) and is not folded
per parent.
"""
from __future__ import annotations

import json
import statistics
import time
from typing import Callable, Dict, List

import tdgsim.community
import tdgsim.engine
import tdgsim.ledger
import tdgsim.scenario
import tdgsim.trust
from tdgsim.distribution import FallbackToDRDS, SelectionFailed

PHASES = ("faults", "issue", "compute", "collect", "validate", "lifecycle")
# strategy -> the name the engine imported its selection function under
SELECTORS = {"drds": "drds_select", "dods": "dods_assign",
             "dgds": "dgds_select", "random": "random_baseline_select"}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child_s", "leaves")

    def __init__(self, id: int, parent: int, name: str, start: float) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.child_s = 0.0
        # leaf name -> [calls, seconds, amount]
        self.leaves: Dict[str, List[float]] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        root = Span(0, -1, "root", self.clock())
        self.spans: List[Span] = [root]
        self.stack: List[Span] = [root]
        self._undo: List[tuple] = []
        # aggregate_reputation calls and the window values they summed
        self.aggregated = [0, 0]

    # -- recording ----------------------------------------------------------
    def open(self, name: str) -> Span:
        span = Span(len(self.spans), self.stack[-1].id, name, self.clock())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self.stack.pop()
        self.stack[-1].child_s += span.duration

    def leaf(self, name: str, seconds: float = 0.0, amount: float = 0.0) -> None:
        frame = self.stack[-1]
        entry = frame.leaves.get(name)
        if entry is None:
            frame.leaves[name] = [1, seconds, amount]
        else:
            entry[0] += 1
            entry[1] += seconds
            entry[2] += amount
        frame.child_s += seconds

    # -- wrappers -----------------------------------------------------------
    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return wrapper

    def timed_wrapper(self, name: str, fn: Callable) -> Callable:
        clock, leaf = self.clock, self.leaf

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leaf(name, clock() - t0)
        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        leaf = self.leaf

        def wrapper(*args, **kwargs):
            leaf(name)
            return fn(*args, **kwargs)
        return wrapper

    def _select_wrapper(self, strategy: str, fn: Callable) -> Callable:
        """Span per selection call; records pool size, groups returned,
        SelectionFailed and the dgds fallback to drds."""
        def wrapper(pool, *args, **kwargs):
            span = self.open(f"distribution.select.{strategy}")
            self.leaf("distribution.pool", amount=len(pool))
            try:
                result = fn(pool, *args, **kwargs)
            except SelectionFailed:
                self.leaf("distribution.failed")
                raise
            except FallbackToDRDS:
                self.leaf("distribution.dgds_fallback")
                raise
            finally:
                self.close(span)
            groups = len(result[0]) if strategy == "dods" else 1
            if groups:
                self.leaf("distribution.groups", amount=groups)
            else:
                self.leaf("distribution.failed")
            return result
        return wrapper

    # -- patching -----------------------------------------------------------
    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        engine, comm = tdgsim.engine, tdgsim.community
        world = engine.World
        self._patch(world, "step", lambda f: self.span_wrapper("tick", f))
        for phase in PHASES:
            self._patch(world, f"_phase_{phase}",
                        lambda f, p=phase: self.span_wrapper(f"phase.{p}", f))
        self._patch(world, "_accepts_invite",
                    lambda f: self.span_wrapper("engine.accepts_invite", f))
        self._patch(engine, "Candidate",
                    lambda f: self.count_wrapper("engine.candidate", f))

        self._patch(engine.ReputationStore, "tau",
                    lambda f: self.timed_wrapper("trust.tau", f))
        self._patch(engine.ReputationStore, "record",
                    lambda f: self.count_wrapper("trust.record", f))
        self._patch(engine, "effective_f_min",
                    lambda f: self.count_wrapper("trust.f_min", f))

        counts = self.aggregated

        def aggregate(f):
            def wrapper(values):
                vals = list(values)  # tau passes a generator: count it once
                counts[0] += 1
                counts[1] += len(vals)
                return f(vals)
            return wrapper
        self._patch(tdgsim.trust, "aggregate_reputation", aggregate)

        for strategy, attr in SELECTORS.items():
            self._patch(engine, attr,
                        lambda f, s=strategy: self._select_wrapper(s, f))

        def operate(f):
            def wrapper(tc, reputations, outsiders, *args, **kwargs):
                span = self.open("community.operate")
                self.leaf("community.outsiders", amount=len(outsiders))
                try:
                    return f(tc, reputations, outsiders, *args, **kwargs)
                finally:
                    self.close(span)
            return wrapper
        self._patch(comm, "operate_tick", operate)
        self._patch(comm, "evaluate_formation",
                    lambda f: self.count_wrapper("community.formation", f))
        self._patch(comm, "elect_tcm",
                    lambda f: self.count_wrapper("community.election", f))

        self._patch(engine, "split_credits",
                    lambda f: self.timed_wrapper("ledger.split", f))
        self._patch(tdgsim.ledger.Ledger, "append_block",
                    lambda f: self.timed_wrapper("ledger.append", f))
        self._patch(tdgsim.scenario, "write_event_log",
                    lambda f: self.timed_wrapper("scenario.write_event_log", f))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------
    def leaf_totals(self) -> Dict[str, List[float]]:
        totals: Dict[str, List[float]] = {}
        for span in self.spans:
            for name, (calls, seconds, amount) in span.leaves.items():
                t = totals.setdefault(name, [0, 0.0, 0.0])
                t[0] += calls
                t[1] += seconds
                t[2] += amount
        return totals

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path) -> None:
        self.spans[0].end = self.clock()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"aggregated": self.aggregated, "spans": [
                {"id": s.id, "parent": s.parent, "name": s.name,
                 "start": s.start, "end": s.end, "self_s": s.self_s,
                 "leaves": s.leaves} for s in self.spans]}, fh)


def layer_metrics(tracer: Tracer, stages: Dict[str, float], world_events: int,
                  wu_issued: int, ledger_blocks: int,
                  events_bytes: int) -> Dict[str, float]:
    """Fold the recorded spans into the per-layer metrics.

    `stages` holds the worker's own timings of the program's public entry
    points (parse, init, emit, replay, ...), taken while tracing was on.
    """
    leaves = tracer.leaf_totals()

    def calls(name: str) -> int:
        return int(leaves.get(name, (0, 0.0, 0.0))[0])

    def seconds(name: str) -> float:
        return leaves.get(name, (0, 0.0, 0.0))[1]

    def amount(name: str) -> float:
        return leaves.get(name, (0, 0.0, 0.0))[2]

    m: Dict[str, float] = {
        "scenario.parse_s": stages["parse"],
        "scenario.emit_s": stages["emit"],
        # per call: the report stage may run emit_report more than once
        "scenario.write_event_log_s": (seconds("scenario.write_event_log")
                                       / max(calls("scenario.write_event_log"), 1)),
        "scenario.read_event_log_s": stages["replay_read"],
        "scenario.events_bytes": events_bytes,
        "engine.init_s": stages["init"],
    }
    for phase in PHASES:
        m[f"engine.phase.{phase}_s"] = sum(s.self_s for s in tracer.by_name(f"phase.{phase}"))
    ticks_ms = [s.duration * 1e3 for s in tracer.by_name("tick")]
    m["engine.tick_samples"] = len(ticks_ms)
    m["engine.tick_p50_ms"] = statistics.median(ticks_ms)
    m["engine.tick_p99_ms"] = statistics.quantiles(ticks_ms, n=100)[98]
    m["engine.events"] = world_events
    m["engine.wu_issued"] = wu_issued
    m["engine.candidates_built"] = calls("engine.candidate")
    m["engine.candidates_per_issued"] = (calls("engine.candidate") / wu_issued
                                         if wu_issued else 0.0)
    invites = tracer.by_name("engine.accepts_invite")
    m["engine.accepts_invite_calls"] = len(invites)
    m["engine.accepts_invite_s"] = sum(s.duration for s in invites)

    m["trust.tau_calls"] = calls("trust.tau")
    m["trust.tau_s"] = seconds("trust.tau")
    m["trust.aggregate_calls"], m["trust.window_values_summed"] = tracer.aggregated
    m["trust.record_calls"] = calls("trust.record")
    m["trust.f_min_draws"] = calls("trust.f_min")

    selects = [s for s in tracer.spans if s.name.startswith("distribution.select.")]
    for strategy in SELECTORS:
        m[f"distribution.select_calls.{strategy}"] = sum(
            1 for s in selects if s.name == f"distribution.select.{strategy}")
    m["distribution.select_s"] = sum(s.duration for s in selects)
    m["distribution.pool_mean"] = (amount("distribution.pool") / len(selects)
                                   if selects else 0.0)
    m["distribution.select_failed"] = calls("distribution.failed")
    m["distribution.dgds_fallbacks"] = calls("distribution.dgds_fallback")
    groups = amount("distribution.groups")
    m["distribution.group_yield"] = wu_issued / groups if groups else 0.0

    operates = tracer.by_name("community.operate")
    m["community.operate_calls"] = len(operates)
    m["community.operate_s"] = sum(s.duration for s in operates)
    m["community.outsider_entries"] = int(amount("community.outsiders"))
    m["community.formation_calls"] = calls("community.formation")
    m["community.elections"] = calls("community.election")

    m["ledger.blocks"] = ledger_blocks
    m["ledger.append_s"] = seconds("ledger.append")
    m["ledger.split_s"] = seconds("ledger.split")
    m["ledger.verify_s"] = stages["verify"]
    m["metrics.compute_s"] = stages["metrics"]
    m["metrics.replay_compute_s"] = stages["replay_compute"]
    return m
