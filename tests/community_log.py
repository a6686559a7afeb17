"""Rebuild trust communities from a run's `tc_event`s.

The event log is the only record of community membership, so tests fold
it back into community state here; `metrics.compute_metrics` is the only
membership fold in the package.
"""
from functools import partial
from typing import Dict, List

from tdgsim.community import EventKind, Phase, TrustCommunity
from tdgsim.engine import _append_tc_event
from tdgsim.eventlog import SimEvent


def new_community(events: List[SimEvent]) -> TrustCommunity:
    """Community tc0, founded by w0, whose `tc_event`s are appended to
    `events` as a World appends them to its event log."""
    return TrustCommunity(id="tc0", founder="w0",
                          emit=partial(_append_tc_event, events))


def community_logs(events) -> Dict[str, List[SimEvent]]:
    """Each community's `tc_event`s, in log order, by community id."""
    logs: Dict[str, List[SimEvent]] = {}
    for ev in events:
        if ev.kind == "tc_event":
            logs.setdefault(ev.payload["community"], []).append(ev)
    return logs


def fold(events) -> dict:
    """The phase, members (agent -> joined tick), manager and peak size
    that one community's `tc_event`s leave it in."""
    phase = Phase.PRE_ORGANISATION
    members: Dict[str, int] = {}
    tcm = None
    peak = 0
    for ev in events:
        kind, agent = EventKind(ev.payload["kind"]), ev.payload["agent"]
        if kind is EventKind.PHASE:
            phase = Phase(ev.payload["detail"].split("->")[1])
        elif kind is EventKind.JOINED:
            members[agent] = ev.tick
            peak = max(peak, len(members))
        elif kind in (EventKind.LEFT, EventKind.EVICTED):
            members.pop(agent, None)
        elif kind is EventKind.TCM_ELECTED:
            tcm = agent
        elif kind is EventKind.DISSOLVED:
            tcm = None
    return {"phase": phase, "members": members, "tcm": tcm, "peak_size": peak}


def state(comm: TrustCommunity) -> dict:
    """The live counterpart of `fold`."""
    return {"phase": comm.phase, "members": comm.members, "tcm": comm.tcm,
            "peak_size": comm.peak_size}
