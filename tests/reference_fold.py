"""The metrics fold as it was before it became one in-order pass: it
groups the whole log by tick in a dict, then walks every tick from 1 to
the horizon.  `test_eventlog.py` holds the fold in `tdgsim.metrics` to
this one, on generated logs, result for result and error for error."""
from __future__ import annotations

from typing import Dict, List, Sequence

from tdgsim.engine import ReputationStore
from tdgsim.eventlog import EventLogError, SimEvent
from tdgsim.metrics import MetricsReport
from tdgsim.trust import sum_left


def compute_metrics(header: dict, events: Sequence[SimEvent]) -> MetricsReport:
    horizon = header["horizon"]
    profiles = {a: info["profile"] for a, info in header["agents"].items()}
    report = MetricsReport(horizon=horizon)

    known = set(profiles)
    online = {a for a, info in header["agents"].items() if info["online"]}
    etc_members: Dict[str, set] = {}

    try:  # a horizon past what a list can index fails here, allocating nothing
        issued_per_tick, validated_per_tick, active_per_tick, etc_per_tick = (
            [0] * (horizon + 1) for _ in range(4))
    except (OverflowError, MemoryError) as exc:
        raise EventLogError(1, f"header horizon {horizon} is too large "
                               f"to fold: {exc!r}") from None

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
                    store.record(p["subject"], p["value"])
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
        "issued": issued_per_tick,
        "validated": validated_per_tick,
        "active_agents": active_per_tick,
        "etc_size": etc_per_tick,
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
