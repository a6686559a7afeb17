"""Metrics computed exclusively from the simulation event log.

The engine never keeps separate counters: `run` and `replay` both call
`compute_metrics` on the log, so every reported number is reproducible
from the persisted events alone.  Communities keep no history either:
each writes its `tc_event`s straight into the log, and `compute_metrics`
is the package's only fold of them (the `etc_size` series).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from .engine import ReputationStore
from .eventlog import EventLogError, SimEvent
from .trust import sum_left


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
    series: Dict[str, List[int]] = field(default_factory=dict)  # per-tick rows

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


def compute_metrics(header: dict, events: Sequence[SimEvent]) -> MetricsReport:
    horizon = header["horizon"]
    profiles = {a: info["profile"] for a, info in header["agents"].items()}
    report = MetricsReport(horizon=horizon)

    known = set(profiles)
    online = {a for a, info in header["agents"].items() if info["online"]}
    etc_members: Dict[str, set] = {}

    issued_per_tick = [0] * (horizon + 1)
    validated_per_tick = [0] * (horizon + 1)
    active_per_tick = [0] * (horizon + 1)
    etc_per_tick = [0] * (horizon + 1)

    sum_group_sizes = 0
    wrong_validated = 0
    total_units = 0
    consensus_units = 0
    store = ReputationStore(header.get("window", 50))
    credit_by_profile: Dict[str, int] = {p: 0 for p in set(profiles.values())}

    # Each value is checked where the fold reads it; the header is line 1.
    by_tick: Dict[int, List[SimEvent]] = {}
    try:
        for ev in events:
            by_tick.setdefault(ev.tick, []).append(ev)
        for tick in range(1, horizon + 1):
            for ev in by_tick.get(tick, ()):
                k, p = ev.kind, ev.payload
                if k == "wu_issued":
                    issued_per_tick[tick] += 1
                elif k == "wu_validated":
                    validated_per_tick[tick] += 1
                    sum_group_sizes += p["group_size"]
                    if not p["correct"]:
                        wrong_validated += 1
                    consensus_units += len(p["consensus"]) * p["complexity"]
                elif k in ("wu_completed", "wu_dropped", "wu_timed_out"):
                    total_units += p["units"]
                elif k == "agent_up":
                    online.add(p["agent"])
                elif k == "agent_down":
                    online.discard(p["agent"])
                elif k == "rating_issued":
                    store.profile(p["subject"]).push(p["value"])
                elif k == "credit_committed":
                    # dict.items: allocations that are not an object are a TypeError
                    for agent, mc in dict.items(p["allocations"]):
                        credit_by_profile[profiles[agent]] += mc
                elif k == "tc_event":
                    members = etc_members.setdefault(p["community"], set())
                    if p["kind"] == "joined":
                        members.add(p["agent"])
                    elif p["kind"] in ("left", "evicted"):
                        members.discard(p["agent"])
                    elif p["kind"] == "dissolved":
                        members.clear()
            active_per_tick[tick] = len(online & known)
            etc_per_tick[tick] = sum(len(m) for m in etc_members.values())
    except (KeyError, TypeError, ValueError) as exc:
        line = next(i for i, e in enumerate(events) if e is ev) + 2
        raise EventLogError(line, f"{ev.kind} event: {exc!r}") from None

    report.issued = sum(issued_per_tick)
    report.validated = sum(validated_per_tick)
    report.throughput = report.validated / horizon if horizon else 0.0
    report.replication_overhead = (sum_group_sizes / report.validated
                                   if report.validated else 0.0)
    report.wasted_work = total_units - consensus_units
    report.wrong_result_acceptance_rate = (wrong_validated / report.validated
                                           if report.validated else 0.0)
    report.issuance_gap_ticks = _longest_internal_gap(issued_per_tick)

    tau_by_profile: Dict[str, List[float]] = {}
    for agent in sorted(profiles):  # a log's header lists them sorted
        tau_by_profile.setdefault(profiles[agent], []).append(store.tau(agent))
    report.mean_tau_by_profile = {
        prof: sum_left(taus) / len(taus) for prof, taus in tau_by_profile.items()}
    report.credit_millis_by_profile = credit_by_profile

    report.series = {
        "tick": list(range(1, horizon + 1)),
        "issued": issued_per_tick[1:],
        "validated": validated_per_tick[1:],
        "active_agents": active_per_tick[1:],
        "etc_size": etc_per_tick[1:],
    }
    return report


def _longest_internal_gap(issued_per_tick: List[int]) -> int:
    """Longest run of zero-issuance ticks strictly between the first and
    last tick that issued work."""
    ticks = [t for t, n in enumerate(issued_per_tick) if n > 0]
    if len(ticks) < 2:
        return 0
    best = 0
    for a, b in zip(ticks, ticks[1:]):
        best = max(best, b - a - 1)
    return best
