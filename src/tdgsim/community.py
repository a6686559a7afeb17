"""A trust community is born operating, led by its founder, a work server;
each tick it evicts decayed members and invites by the policy that
`rank_invitees` states, its only later elections are failovers, and it ends
by dissolving.  It keeps no history: it writes each event, as it happens,
into the run's event log, the one record of its lifecycle."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .config import Params
from .eventlog import SimEvent
from .trust import NEUTRAL_TAU


# The kinds of a `tc_event`, as its payload spells them.
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
    """A community that operates: `form` makes it one, and after
    `dissolve` the run drops it.  `members` includes the founder, a
    server.  Formation invites up to `max_size` agents besides it, so a
    formed community can hold `max_size + 1` members; `operate_tick`
    invites only while it holds fewer than `max_size`, founder included.

    `add_member` and `remove_member` also keep `live_members`, the run's
    one map of every live community's members, founders included, to the
    id of the community that holds each."""

    id: str
    founder: str
    # The run's event log.  The community holds the list, not the World,
    # so it makes no reference cycle that only the collector frees.
    events: List[SimEvent] = field(repr=False)
    # Shared by the run's communities, which hold no member in common.
    live_members: Dict[str, str] = field(default_factory=dict, repr=False)
    members: Dict[str, int] = field(default_factory=dict)  # agent -> joined_tick
    join_tau: Dict[str, float] = field(default_factory=dict)  # tau at join time (audit)
    tcm: Optional[str] = None
    peak_size: int = 0
    declined: Set[str] = field(default_factory=set)

    def log(self, tick: int, kind: str, agent: str = "", detail: str = "") -> None:
        self.events.append(SimEvent(tick, "tc_event", {
            "community": self.id, "kind": kind, "agent": agent, "detail": detail}))

    def add_member(self, agent: str, tick: int, tau: float) -> None:
        self.members[agent] = tick
        self.join_tau[agent] = tau
        self.live_members[agent] = self.id
        self.peak_size = max(self.peak_size, len(self.members))
        self.log(tick, JOINED, agent)

    def remove_member(self, agent: str, tick: int, kind: str) -> None:
        if self.members.pop(agent, None) is not None:
            del self.live_members[agent]
        self.join_tau.pop(agent, None)
        self.log(tick, kind, agent)

    def form(self, tick: int, joiners: Sequence[str], taus: Mapping[str, float]) -> None:
        """Admit the founder, then the joiners by id, each at its tau in
        `taus` (neutral if absent, as a never-rated server is), and make
        the founder, an online server, the manager."""
        self.log(tick, PHASE, detail="pre_organisation->formation")
        for a in [self.founder, *sorted(joiners)]:
            self.add_member(a, tick, taus.get(a, NEUTRAL_TAU))
        self.tcm = self.founder
        self.log(tick, PHASE, detail="formation->operation")
        self.log(tick, TCM_ELECTED, self.founder)

    def dissolve(self, tick: int) -> None:
        self.log(tick, PHASE, detail="operation->dissolved")
        self.tcm = None
        for a in sorted(self.members):
            self.remove_member(a, tick, LEFT)
        self.log(tick, DISSOLVED)


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


def elect_tcm(tc: TrustCommunity, availability: Mapping[str, bool],
              tick: int) -> Optional[str]:
    """Fail over from an unavailable manager so WU distribution continues:
    the longest-serving available member wins, ties by agent id, and the
    old founder gets buffered results back but leadership does not revert.
    None, and no one elected, when no member is available: the community
    must dissolve."""
    tc.log(tick, TCM_FAILED, tc.tcm)
    available = [a for a in tc.members if availability.get(a, False)]
    if not available:
        return None
    winner = min(available, key=lambda a: (tc.members[a], a))
    tc.tcm = winner
    tc.log(tick, TCM_ELECTED, winner)
    return winner


def operate_tick(tc: TrustCommunity, reputations: Mapping[str, float],
                 ranked: Sequence[str],
                 params: Params) -> Tuple[List[str], List[str]]:
    """One operation-phase step: the decayed members to evict, then, while
    below max size (room counted before the evictions), the best agents of
    `ranked` that no community holds and that have not declined this one.
    A full community may be given no ranking."""
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
    size = len(tc.members)
    return (queue_exhausted
            or size < params.min_size
            or size < params.dissolve_fraction * tc.peak_size)
