"""Metrics computed exclusively from the simulation event log.

The engine never keeps separate counters: `run` and `replay` both call
`compute_metrics` on the log, so every reported number is reproducible
from the persisted events alone.  Communities keep no history either:
each writes its `tc_event`s straight into the log, and `compute_metrics`
is the package's only fold of them (the `etc_size` series).

The fold reads a log once, in the order the engine writes it, and costs
nothing per tick that holds no event: the active-agent count and the
community size are running counts that only `agent_up`, `agent_down` and
`tc_event` change, and a run of quiet ticks gets their slots in one
C-level `extend` when the next event's tick arrives, the tail after the
last event at the end.  A log whose ticks do not rise within [1, horizon]
is not the engine's: the first line that breaks the order is an error.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby, repeat
from operator import itemgetter
from typing import Dict, List, Sequence

from .eventlog import EventLogError, SimEvent
from .trust import ReputationStore, sum_left


@dataclass
class MetricsReport:
    horizon: int
    issued: int = 0
    validated: int = 0
    throughput: float = 0.0
    replication_overhead: float = 0.0
    wasted_work: int = 0
    wrong_result_acceptance_rate: float = 0.0
    issuance_gap_ticks: int = 0
    mean_tau_by_profile: Dict[str, float] = field(default_factory=dict)
    credit_millis_by_profile: Dict[str, int] = field(default_factory=dict)
    # Per-tick columns, indexed by tick: slot 0, before tick 1, is unused.
    series: Dict[str, List[int]] = field(default_factory=dict)

    def scalar_rows(self) -> List[tuple]:
        rows = [
            ("issued", self.issued),
            ("validated", self.validated),
            ("throughput", self.throughput),
            ("replication_overhead", self.replication_overhead),
            ("wasted_work", self.wasted_work),
            ("wrong_result_acceptance_rate", self.wrong_result_acceptance_rate),
        ]
        for profile in sorted(self.mean_tau_by_profile):
            rows.append((f"mean_tau_{profile}", self.mean_tau_by_profile[profile]))
        for profile in sorted(self.credit_millis_by_profile):
            rows.append((f"credit_millis_{profile}",
                         self.credit_millis_by_profile[profile]))
        rows.append(("issuance_gap_ticks", self.issuance_gap_ticks))
        return rows


_TICK = itemgetter(0)


def compute_metrics(header: dict, events: Sequence[SimEvent]) -> MetricsReport:
    """Fold `events` in log order, one run of equal ticks at a time.

    Each run's tick must be an int above the last run's and at most the
    horizon, or the run's first line is an error.  A run holds what
    equals its first tick, so a `true` or `1.0` right after a 1 is
    tick 1."""
    horizon = header["horizon"]
    profiles = {a: info["profile"] for a, info in header["agents"].items()}
    report = MetricsReport(horizon=horizon)

    known = set(profiles)
    online = {a for a, info in header["agents"].items() if info["online"]}
    etc_members: Dict[str, set] = {}

    try:  # a horizon past what a list can index fails here, allocating nothing
        issued_per_tick, validated_per_tick = ([0] * (horizon + 1) for _ in range(2))
    except (OverflowError, MemoryError) as exc:
        raise EventLogError(1, f"header horizon {horizon} is too large "
                               f"to fold: {exc!r}") from None
    # Slot t is the running count after tick t's events; slot 0 is unused.
    # Both grow a run of ticks at a time, from `repeat`, which builds no
    # temporary list.  `online` may come to hold agents the header lacks;
    # `active` counts only the known ones.
    active_per_tick: List[int] = [0]
    etc_per_tick: List[int] = [0]
    active = len(online)
    etc_size = 0

    issued = validated = 0
    last_issue = gap = 0  # the last tick that issued work, the longest gap
    sum_group_sizes = 0
    wrong_validated = 0
    total_units = 0
    consensus_units = 0
    store = ReputationStore(header.get("window", 50))
    credit_by_profile: Dict[str, int] = {p: 0 for p in set(profiles.values())}

    # Each value is checked where the fold reads it; the header is line 1.
    last = 0  # the tick of the last run
    try:
        for tick, group in groupby(events, _TICK):
            if type(tick) is not int or not last < tick <= horizon:
                ev = next(group)  # the run's first event, whose line is named
                raise ValueError(f"tick {tick!r} is not an int after tick {last} "
                                 f"and at most the horizon {horizon}")
            last = tick
            quiet = tick - len(active_per_tick)  # the ticks since the last event's
            active_per_tick.extend(repeat(active, quiet))
            etc_per_tick.extend(repeat(etc_size, quiet))
            for ev in group:
                _, k, p = ev
                if k in ("wu_completed", "wu_dropped", "wu_timed_out"):
                    total_units += p["units"]
                elif k == "rating_issued":
                    store.profile(p["subject"]).push(p["value"])
                elif k == "wu_issued":
                    issued += 1
                    issued_per_tick[tick] += 1
                    if tick != last_issue:
                        if last_issue and tick - last_issue - 1 > gap:
                            gap = tick - last_issue - 1
                        last_issue = tick
                elif k == "wu_validated":
                    validated += 1
                    validated_per_tick[tick] += 1
                    sum_group_sizes += p["group_size"]
                    if not p["correct"]:
                        wrong_validated += 1
                    consensus_units += len(p["consensus"]) * p["complexity"]
                elif k == "credit_committed":
                    # dict.items: allocations that are not an object are a TypeError
                    for agent, mc in dict.items(p["allocations"]):
                        credit_by_profile[profiles[agent]] += mc
                elif k == "agent_up" or k == "agent_down":
                    agent, was = p["agent"], len(online)
                    if k == "agent_up":
                        online.add(agent)
                    else:
                        online.discard(agent)
                    if len(online) != was and agent in known:
                        active += len(online) - was
                elif k == "tc_event":
                    members = etc_members.setdefault(p["community"], set())
                    size = len(members)
                    if p["kind"] == "joined":
                        members.add(p["agent"])
                    elif p["kind"] in ("left", "evicted"):
                        members.discard(p["agent"])
                    elif p["kind"] == "dissolved":
                        members.clear()
                    etc_size += len(members) - size
    except (KeyError, TypeError, ValueError) as exc:
        line = next(i for i, e in enumerate(events) if e is ev) + 2
        raise EventLogError(line, f"{ev.kind} event: {exc!r}") from None
    tail = horizon + 1 - len(active_per_tick)  # the ticks after the last event's
    active_per_tick.extend(repeat(active, tail))
    etc_per_tick.extend(repeat(etc_size, tail))

    report.issued = issued
    report.validated = validated
    report.throughput = report.validated / horizon if horizon else 0.0
    report.replication_overhead = (sum_group_sizes / report.validated
                                   if report.validated else 0.0)
    report.wasted_work = total_units - consensus_units
    report.wrong_result_acceptance_rate = (wrong_validated / report.validated
                                           if report.validated else 0.0)
    report.issuance_gap_ticks = gap

    tau_by_profile: Dict[str, List[float]] = {}
    for agent in sorted(profiles):  # a log's header lists them sorted
        tau_by_profile.setdefault(profiles[agent], []).append(store.tau(agent))
    report.mean_tau_by_profile = {
        prof: sum_left(taus) / len(taus) for prof, taus in tau_by_profile.items()}
    report.credit_millis_by_profile = credit_by_profile

    report.series = {
        "issued": issued_per_tick,
        "validated": validated_per_tick,
        "active_agents": active_per_tick,
        "etc_size": etc_per_tick,
    }
    return report
