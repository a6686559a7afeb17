"""Explicit trust community state machine: formation, manager election,
operation (invitation, eviction), dissolution, and the invite policy that
`rank_invitees` states.  A community keeps no history: it writes each
event, as it happens, into the run's event log."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Container, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .config import Params
from .eventlog import SimEvent
from .trust import NEUTRAL_TAU


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


# Hot paths read Enum members through module names (why: trust.TRUSTED).
OPERATION = Phase.OPERATION
INVITED = EventKind.INVITED
JOINED = EventKind.JOINED
LEFT = EventKind.LEFT
EVICTED = EventKind.EVICTED


@dataclass
class TrustCommunity:
    """`members` includes the founder, a server.  Formation invites up to
    `max_size` agents besides it, so a formed community can hold
    `max_size + 1` members; `operate_tick` invites only while it holds
    fewer than `max_size`, founder included.

    `add_member` and `remove_member` also keep `live_members`, the run's
    one set of every live community's members, founders included."""

    id: str
    founder: str
    # The run's event log.  The community holds the list, not the World,
    # so it makes no reference cycle that only the collector frees.
    events: List[SimEvent] = field(repr=False)
    # Shared by the run's communities, which hold no member in common.
    live_members: Set[str] = field(default_factory=set, repr=False)
    phase: Phase = Phase.PRE_ORGANISATION
    members: Dict[str, int] = field(default_factory=dict)  # agent -> joined_tick
    join_tau: Dict[str, float] = field(default_factory=dict)  # tau at join time (audit)
    tcm: Optional[str] = None
    peak_size: int = 0
    declined: Set[str] = field(default_factory=set)

    def log(self, tick: int, kind: EventKind, agent: str = "", detail: str = "") -> None:
        # `_value_` is the member's plain attribute; `.value` is a property.
        self.events.append(SimEvent(tick, "tc_event", {
            "community": self.id, "kind": kind._value_, "agent": agent, "detail": detail}))

    def _transition(self, to: Phase, tick: int) -> None:
        if (self.phase, to) not in ALLOWED_TRANSITIONS:
            raise StateError(f"illegal phase transition {self.phase.value} -> {to.value}")
        self.log(tick, EventKind.PHASE, detail=f"{self.phase.value}->{to.value}")
        self.phase = to

    def add_member(self, agent: str, tick: int, tau: float) -> None:
        self.members[agent] = tick
        self.join_tau[agent] = tau
        self.live_members.add(agent)
        self.peak_size = max(self.peak_size, len(self.members))
        self.log(tick, JOINED, agent)

    def remove_member(self, agent: str, tick: int, kind: EventKind) -> None:
        if self.members.pop(agent, None) is not None:
            self.live_members.discard(agent)
        self.join_tau.pop(agent, None)
        self.log(tick, kind, agent)

    def form(self, tick: int, joiners: Sequence[str], taus: Mapping[str, float]) -> None:
        """Admit the founder, then the joiners by id, each at its tau in
        `taus` (neutral if absent, as a never-rated server is)."""
        if self.phase is not Phase.PRE_ORGANISATION:
            raise StateError("can only form from pre-organisation")
        self._transition(Phase.FORMATION, tick)
        for a in [self.founder, *sorted(joiners)]:
            self.add_member(a, tick, taus.get(a, NEUTRAL_TAU))

    def dissolve(self, tick: int) -> None:
        self._transition(Phase.DISSOLVED, tick)
        self.tcm = None
        for a in sorted(self.members):
            self.remove_member(a, tick, LEFT)
        self.log(tick, EventKind.DISSOLVED)


def rank_invitees(taus: Iterable[Tuple[str, float]], params: Params) -> List[str]:
    """The invite policy's order: the agents of the `(agent, tau)` pairs at
    or above the join threshold, best reputation first, ties by id.  Every
    invitation list is cut from it."""
    return [a for _, a in sorted((-tau, a) for a, tau in taus
                                 if tau >= params.join_threshold)]


def _best_invites(ranked: Sequence[str], n: int, members: Container[str],
                  declined: Container[str] = ()) -> List[str]:
    """The first `n` agents of `ranked` in no community (`members`) and
    not in `declined`."""
    return [a for a in ranked if a not in members and a not in declined][:n]


def evaluate_formation(ranked: Sequence[str], members: Container[str],
                       params: Params) -> List[str]:
    """Invitation list for a new community: the best `max_size` agents of
    `ranked` that no community holds.  It forms only if at least
    `params.quorum` of them join.  The cap counts agents only: with its
    founder, a community formed from a full list has max_size + 1 members.
    """
    return _best_invites(ranked, params.max_size, members)


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
                 ranked: Sequence[str],
                 params: Params) -> Tuple[List[str], List[str]]:
    """One operation-phase step: the decayed members to evict, then, while
    below max size (room counted before the evictions), the best agents of
    `ranked` that no community holds and that have not declined this one.
    A full community may be given no ranking."""
    if tc.phase is not OPERATION:
        raise StateError(f"operate_tick in phase {tc.phase.value}")
    evict: List[str] = []
    for a in sorted(tc.members):
        if a == tc.tcm:
            continue
        tau = reputations.get(a, NEUTRAL_TAU)
        if tau < params.evict_threshold or tc.join_tau.get(a, tau) - tau > params.drop_delta:
            evict.append(a)
    room = params.max_size - len(tc.members)
    if room <= 0:
        return evict, []
    return evict, _best_invites(ranked, room, tc.live_members, tc.declined)


def dissolve_check(tc: TrustCommunity, params: Params,
                   queue_exhausted: bool) -> bool:
    """True when the community no longer carries its weight: shrunk below
    quorum, below the dissolution fraction of its peak, or out of work."""
    if tc.phase is not OPERATION:
        raise StateError("dissolve_check outside operation")
    size = len(tc.members)
    return (queue_exhausted
            or size < params.min_size
            or size < params.dissolve_fraction * tc.peak_size)

