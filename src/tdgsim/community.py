"""Explicit trust community state machine: formation, manager election,
operation (invitation, eviction) and dissolution.  A community keeps no
history: it writes each event, as it happens, into the run's event log."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .config import Params


class StateError(RuntimeError):
    """Operation invoked in the wrong lifecycle phase."""


class DissolutionTriggered(Exception):
    """No member can take over; the community must dissolve."""


class Phase(Enum):
    PRE_ORGANISATION = "pre_organisation"
    FORMATION = "formation"
    OPERATION = "operation"
    DISSOLVED = "dissolved"


# Legal phase transitions (Formation may abort straight to Dissolved).
ALLOWED_TRANSITIONS = {
    (Phase.PRE_ORGANISATION, Phase.FORMATION),
    (Phase.FORMATION, Phase.OPERATION),
    (Phase.FORMATION, Phase.DISSOLVED),
    (Phase.OPERATION, Phase.DISSOLVED),
}


class EventKind(Enum):
    INVITED = "invited"
    JOINED = "joined"
    LEFT = "left"
    EVICTED = "evicted"
    TCM_ELECTED = "tcm_elected"
    TCM_FAILED = "tcm_failed"
    DISSOLVED = "dissolved"
    PHASE = "phase"


@dataclass
class TrustCommunity:
    """`members` includes the founder, a server.  Formation invites up to
    `max_size` agents besides it, so a formed community can hold
    `max_size + 1` members; `operate_tick` invites only while it holds
    fewer than `max_size`, founder included."""

    id: str
    founder: str
    # Called as emit(tick, community=..., kind=..., agent=..., detail=...).
    emit: Callable[..., None] = field(repr=False)
    phase: Phase = Phase.PRE_ORGANISATION
    members: Dict[str, int] = field(default_factory=dict)  # agent -> joined_tick
    join_tau: Dict[str, float] = field(default_factory=dict)  # tau at join time (audit)
    tcm: Optional[str] = None
    peak_size: int = 0
    declined: Set[str] = field(default_factory=set)

    def log(self, tick: int, kind: EventKind, agent: str = "", detail: str = "") -> None:
        self.emit(tick, community=self.id, kind=kind.value, agent=agent, detail=detail)

    def _transition(self, to: Phase, tick: int) -> None:
        if (self.phase, to) not in ALLOWED_TRANSITIONS:
            raise StateError(f"illegal phase transition {self.phase.value} -> {to.value}")
        self.log(tick, EventKind.PHASE, detail=f"{self.phase.value}->{to.value}")
        self.phase = to

    def add_member(self, agent: str, tick: int, tau: float) -> None:
        self.members[agent] = tick
        self.join_tau[agent] = tau
        self.peak_size = max(self.peak_size, len(self.members))
        self.log(tick, EventKind.JOINED, agent)

    def remove_member(self, agent: str, tick: int, kind: EventKind) -> None:
        self.members.pop(agent, None)
        self.join_tau.pop(agent, None)
        self.log(tick, kind, agent)

    def form(self, tick: int, joiners: Sequence[str], taus: Mapping[str, float],
             founder_tau: float = 1.0) -> None:
        if self.phase is not Phase.PRE_ORGANISATION:
            raise StateError("can only form from pre-organisation")
        self._transition(Phase.FORMATION, tick)
        self.add_member(self.founder, tick, founder_tau)
        for a in sorted(joiners):
            self.add_member(a, tick, taus.get(a, 0.5))

    def dissolve(self, tick: int) -> None:
        self._transition(Phase.DISSOLVED, tick)
        self.tcm = None
        for a in sorted(self.members):
            self.remove_member(a, tick, EventKind.LEFT)
        self.log(tick, EventKind.DISSOLVED)


def evaluate_formation(founder: str, reputations: Mapping[str, float],
                       params: Params) -> Optional[List[str]]:
    """Invitation list for a new community, or None below quorum.

    All agents at or above the join threshold, best reputation first,
    capped at max_size; only worthwhile if at least min_size qualify.
    The cap counts agents only: with its founder, a community formed
    from a full list has max_size + 1 members.
    """
    eligible = [(tau, a) for a, tau in reputations.items()
                if a != founder and tau >= params.join_threshold]
    eligible.sort(key=lambda it: (-it[0], it[1]))
    invites = [a for _, a in eligible[:params.max_size]]
    if len(invites) < params.min_size:
        return None
    return invites


def join_decision(egoistic: bool, inside_share: float, outside_share: float) -> bool:
    """Join only when the expected per-WU credit share strictly improves."""
    if egoistic:
        return False
    return inside_share > outside_share


def elect_tcm(tc: TrustCommunity, availability: Mapping[str, bool], tick: int) -> str:
    """First election goes to the founder when available; afterwards the
    longest-serving available member wins, ties by agent id."""
    if tc.phase not in (Phase.FORMATION, Phase.OPERATION):
        raise StateError(f"cannot elect a manager in phase {tc.phase.value}")
    available = [a for a in tc.members if availability.get(a, False)]
    if not available:
        raise DissolutionTriggered(tc.id)
    if tc.phase is Phase.FORMATION and availability.get(tc.founder, False):
        winner = tc.founder
    else:
        winner = min(available, key=lambda a: (tc.members[a], a))
    tc.tcm = winner
    if tc.phase is Phase.FORMATION:
        tc._transition(Phase.OPERATION, tick)
    tc.log(tick, EventKind.TCM_ELECTED, winner)
    return winner


def handle_tcm_failure(tc: TrustCommunity, availability: Mapping[str, bool],
                       tick: int) -> str:
    """Replace an unavailable manager so WU distribution continues; the
    old founder gets buffered results back but leadership does not revert."""
    if tc.phase is not Phase.OPERATION:
        raise StateError("failover only applies to an operating community")
    tc.log(tick, EventKind.TCM_FAILED, tc.tcm or "")
    return elect_tcm(tc, availability, tick)


def operate_tick(tc: TrustCommunity, reputations: Mapping[str, float],
                 outsiders: Mapping[str, float],
                 params: Params) -> Tuple[List[str], List[str]]:
    """One operation-phase step: the decayed members to evict, then the
    strong outsiders to invite while below max size (room counted before
    the evictions)."""
    if tc.phase is not Phase.OPERATION:
        raise StateError(f"operate_tick in phase {tc.phase.value}")
    evict: List[str] = []
    for a in sorted(tc.members):
        if a == tc.tcm:
            continue
        tau = reputations.get(a, 0.5)
        if tau < params.evict_threshold or tc.join_tau.get(a, tau) - tau > params.drop_delta:
            evict.append(a)
    room = params.max_size - len(tc.members)
    if room <= 0:
        return evict, []
    eligible = [(tau, a) for a, tau in outsiders.items()
                if tau >= params.join_threshold
                and a not in tc.members and a not in tc.declined]
    eligible.sort(key=lambda it: (-it[0], it[1]))
    return evict, [a for _, a in eligible[:room]]


def dissolve_check(tc: TrustCommunity, params: Params,
                   queue_exhausted: bool) -> bool:
    """True when the community no longer carries its weight: shrunk below
    quorum, below the dissolution fraction of its peak, or out of work."""
    if tc.phase is not Phase.OPERATION:
        raise StateError("dissolve_check outside operation")
    size = len(tc.members)
    return (queue_exhausted
            or size < params.min_size
            or size < params.dissolve_fraction * tc.peak_size)

