"""Metrics computed exclusively from the simulation event log.

The engine never keeps separate counters: `run` and `replay` both call
`compute_metrics` on the log, so every reported number is reproducible
from the persisted events alone.  Communities keep no history either:
each writes its `tc_event`s straight into the log, and `compute_metrics`
is the package's only fold of them (the `etc_size` series).

The fold reads a log once, in the order the engine writes it, and holds
nothing sized by the horizon: the active-agent count and the community
size are running counts that only `agent_up`, `agent_down` and `tc_event`
change, and the series is one row per tick that has events, which
`tick_rows` expands to every tick.  A log whose ticks do not rise within
[1, horizon] is not the engine's: the first line that breaks the order
is an error.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Dict, Iterator, List, Sequence, Tuple

from .eventlog import EventLogError, SimEvent
from .trust import DEFAULT_WINDOW, ReputationStore, sum_left

Row = Tuple[int, int, int, int, int]  # tick, issued, validated, active_agents, etc_size


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
    # The state before tick 1 as tick 0's row, then one row per tick that
    # has events, in tick order; `tick_rows` expands them to every tick.
    series: List[Row] = field(default_factory=list)

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


def tick_rows(report: MetricsReport) -> Iterator[Row]:
    """A row for every tick from 1 to the horizon: a tick without events
    issues and validates nothing and carries the active-agent count and
    the community size of the row before it."""
    tick, _, _, active, etc = report.series[0]
    for row in report.series[1:]:
        for quiet in range(tick + 1, row[0]):
            yield quiet, 0, 0, active, etc
        yield row
        tick, _, _, active, etc = row
    for quiet in range(tick + 1, report.horizon + 1):
        yield quiet, 0, 0, active, etc


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

    active = len(online)  # `online` may come to hold agents the header lacks
    etc_size = 0
    series: List[Row] = [(0, 0, 0, active, etc_size)]

    last_issue = gap = 0  # the last tick that issued work, the longest gap
    sum_group_sizes = 0
    wrong_validated = 0
    total_units = 0
    consensus_units = 0
    store = ReputationStore(header.get("window", DEFAULT_WINDOW))
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
            issued_now = validated_now = 0
            for ev in group:
                _, k, p = ev
                if k in ("wu_completed", "wu_dropped", "wu_timed_out"):
                    total_units += p["units"]
                elif k == "rating_issued":
                    store.record(p["subject"], p["value"])
                elif k == "wu_issued":
                    issued_now += 1
                elif k == "wu_validated":
                    validated_now += 1
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
            if issued_now:
                if last_issue and tick - last_issue - 1 > gap:
                    gap = tick - last_issue - 1
                last_issue = tick
            series.append((tick, issued_now, validated_now, active, etc_size))
    except (KeyError, TypeError, ValueError) as exc:
        line = next(i for i, e in enumerate(events) if e is ev) + 2
        raise EventLogError(line, f"{ev.kind} event: {exc!r}") from None

    report.issued = sum(row[1] for row in series)
    report.validated = sum(row[2] for row in series)
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
    report.series = series
    return report
