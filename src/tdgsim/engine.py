"""Deterministic discrete-event engine for both grid topologies.

Each tick runs a fixed phase order: faults, work issuance, agent compute,
result collection, validation (ratings, credits, timeouts), community
lifecycle.  All randomness comes from named streams derived from the
scenario seed, so identical (scenario, seed) pairs replay identically.

The issuance stream is drawn only while some work unit is open, neither
validated nor failed.  Once none is, no work unit can be queued again, so
issuance and compute stop their per-agent work.  This is exact: the
skipped draws could never reach an output.
"""
from __future__ import annotations

import gc
import hashlib
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, NamedTuple, Optional, Set, Tuple

from . import community as tc
from .config import ScenarioConfig, complexity_range
from .distribution import (Candidate, FallbackToDRDS, ReplicaGroup,
                           SelectionFailed, dgds_select, dods_assign,
                           drds_select, random_baseline_select)
from .draw import below
from .eventlog import SimEvent
# split_credits and effective_f_min are not called here; they stay
# importable for tracers that patch them (bench/layertrace.py).
from .ledger import Ledger, split_credits  # noqa: F401
from .trust import effective_f_min  # noqa: F401
from .trust import (CAUSE_VALUES, CORRECT_LATE, CORRECT_ON_TIME, DROPPED_WU,
                    NEUTRAL_TAU, REJECTED_WU, TIMED_OUT, WRONG_RESULT,
                    ReplicationLimits, ReputationStore, classify,
                    raw_replication_factor, roulette_parts, roulette_round,
                    sum_left)


# The profiles the engine branches on, as the scenario file spells them
# (config.PROFILES lists them all).
MALICIOUS = "malicious"
FREE_RIDER = "free_rider"
EGOISTIC = "egoistic"

# Slotted, as a run holds thousands.  Its waiting judgments: World.pending_judgments.
@dataclass(slots=True)
class WorkUnit:
    id: str
    project: str  # owning work server / work agent
    complexity: int
    # Set while one of its issues waits for a result, else None.
    deadline: Optional[int] = None
    requeues: int = 0


@dataclass
class AgentModel:
    id: str
    profile: str  # one of config.PROFILES
    speed: int = 1
    online: bool = True
    churn: Optional[Tuple[int, int]] = None
    accept_prob: float = 1.0
    current_wu: Optional[WorkUnit] = None
    progress: int = 0


@dataclass
class WorkServer:
    id: str
    queue: Deque[WorkUnit] = field(default_factory=deque)
    online: bool = True


class Outcome(NamedTuple):
    # A tuple, as SimEvent is: one is built per member per work unit.
    kind: str  # completed | dropped | timed_out
    result: Optional[str] = None
    late: bool = False


@dataclass
class Assignment:
    wu: WorkUnit
    members: Tuple[str, ...]
    distributor: str
    community: Optional[str]
    outcomes: Dict[str, Outcome] = field(default_factory=dict)


# Each cause as the (cause, value) pair a `rating_issued` event carries.
_ON_TIME, _LATE, _WRONG, _REJECTED, _DROPPED, _TIMED_OUT = (
    (cause, CAUSE_VALUES[cause]) for cause in (
        CORRECT_ON_TIME, CORRECT_LATE, WRONG_RESULT, REJECTED_WU, DROPPED_WU, TIMED_OUT))


# A result is only compared with the other results of its own work unit:
# one string is every unit's correct result, and colluders share another.
CORRECT = "ok"
COLLUDED = "bad"


def _cause(outcome: Outcome, consensus: Optional[str]) -> Optional[Tuple[str, float]]:
    """The rating `outcome` earns against the `consensus` result, as its
    (cause, value) pair, or None for a completion that waits for a round
    with a consensus."""
    if outcome.kind == "completed":
        if consensus is None:
            return None
        if outcome.result != consensus:
            return _WRONG
        return _LATE if outcome.late else _ON_TIME
    return _DROPPED if outcome.kind == "dropped" else _TIMED_OUT


def stream(seed: int, name: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class World:
    """Mutable simulation state, advanced one tick at a time."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.trust_mode = config.mode == "trust"
        self.limits: ReplicationLimits = config.limits
        self.rng_issue = stream(config.seed, "issuance")
        self.rng_accept = stream(config.seed, "accept")
        rng_work = stream(config.seed, "workgen")

        self.agents: Dict[str, AgentModel] = {}
        for group in config.agents:
            for agent_id in group.agent_ids():
                self.agents[agent_id] = AgentModel(
                    id=agent_id, profile=group.profile,
                    speed=group.speed, churn=group.churn,
                    accept_prob=group.accept_prob)
        self.agent_order = [self.agents[a] for a in sorted(self.agents)]
        # Insertion order, not agent_order: churn events keep their order.
        self.churners = [a for a in self.agents.values() if a.churn is not None]

        self.servers: Dict[str, WorkServer] = {
            sid: WorkServer(sid) for sid in config.server_ids()}
        self.server_order = list(self.servers)
        self._rr = 0  # assignment-server round-robin pointer

        # Only complexity reads rng_work, so a spec of one value draws none.
        lo, hi = complexity_range(config.complexity)
        owners = [(sid, self.servers[sid].queue) for sid in self.server_order]
        for i in range(config.wu_count):
            owner, queue = owners[i % len(owners)]
            complexity = lo if lo == hi else lo + below(rng_work, hi - lo + 1)
            queue.append(WorkUnit(f"wu{i:05d}", owner, complexity))
        # Units not yet validated and not failed for good: the log's
        # wu_count less its wu_validated and terminal wu_redistributed events.
        self.open_wus = config.wu_count
        # Work unit id -> (agent, outcome) for its completions from rounds
        # that failed majority, judged once a later round reaches consensus.
        self.pending_judgments: Dict[str, List[Tuple[str, Outcome]]] = {}

        self.store = ReputationStore(config.params.window)
        # Each tau issuance has met -> the floor and fraction of its
        # replication factor (trust.roulette_parts) and its trust class:
        # all an idle agent's candidate takes from its tau, worked out once.
        self.tau_draws: Dict[float, Tuple[int, float, str]] = {}
        self.ledger = Ledger()
        self.assignments: Dict[str, Assignment] = {}
        self.buffers: Dict[str, Deque[Tuple[WorkUnit, str, str]]] = {
            sid: deque() for sid in self.servers}
        # (work unit, result, agent) to validate this tick.
        self._routed: List[Tuple[WorkUnit, str, str]] = []
        # (work unit, holder) in issue order, which is deadline order: every
        # deadline is its issue tick plus the run's fixed timeout_ticks.  An
        # entry whose unit has no deadline is stale; it leaves at the head.
        self.central_assigned: Deque[Tuple[WorkUnit, str]] = deque()
        # Live communities, by id.  Each is here from its formation, which
        # makes its founder the manager, until it dissolves: being here is
        # operating.  They share no member, and after _issue_trust's failover
        # each has an available manager; the engine relies on this unchecked.
        self.communities: Dict[str, tc.TrustCommunity] = {}
        # Every live community's members, founders included, kept by the
        # communities themselves as members join and leave.
        self.live_members: Set[str] = set()
        self._tc_counter = 0
        self.events: List[SimEvent] = []
        self.faults_at: Dict[int, List] = {}
        for f in config.faults:
            self.faults_at.setdefault(f.tick, []).append(f)
        self.tick = 0

    # ------------------------------------------------------------------
    def emit(self, kind: str, /, **payload) -> None:
        # Built without the Python-level __new__ that NamedTuple adds.
        self.events.append(tuple.__new__(SimEvent, (self.tick, kind, payload)))

    def header(self) -> dict:
        cfg = self.config
        return {
            "name": cfg.name, "mode": cfg.mode, "strategy": cfg.strategy,
            "seed": cfg.seed, "horizon": cfg.horizon_ticks,
            "window": cfg.params.window,
            "base_credit_millis": cfg.base_credit_millis,
            "agents": {a.id: {"profile": a.profile, "online": True}
                       for a in self.agents.values()},
            "servers": list(self.servers),
        }

    def run(self) -> List[SimEvent]:
        # The engine makes no reference cycles (a test pins this), so the
        # cyclic collector would only re-scan the growing event log.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for t in range(1, self.config.horizon_ticks + 1):
                self.step(t)
        finally:
            if enabled:
                gc.enable()
        return self.events

    def step(self, tick: int) -> None:
        self.tick = tick
        self._phase_faults()
        self._phase_issue()
        self._phase_compute()
        self._phase_collect()
        self._phase_validate()
        self._phase_lifecycle()

    # -- phase 1: scheduled faults and churn ---------------------------
    def _phase_faults(self) -> None:
        for agent in self.churners:
            up, down = agent.churn
            self._set_online("agent", agent, (self.tick - 1) % (up + down) < up)
        for fault in self.faults_at.get(self.tick, ()):
            if fault.entity in self.servers:
                self._set_online("server", self.servers[fault.entity], not fault.down)
            else:
                self._set_online("agent", self.agents[fault.entity], not fault.down)

    def _set_online(self, kind: str, entity, online: bool) -> None:
        """Set an agent's or a server's `online`; `<kind>_up` or
        `<kind>_down` is emitted only when it changes."""
        if entity.online != online:
            entity.online = online
            self.emit(f"{kind}_up" if online else f"{kind}_down", **{kind: entity.id})

    # -- phase 2: work issuance -----------------------------------------
    def _phase_issue(self) -> None:
        if self.trust_mode:
            self._issue_trust()
        else:
            self._issue_centralized()

    def _issue_centralized(self) -> None:
        for agent in self.agent_order:
            if not agent.online or agent.current_wu is not None:
                continue
            wu = self._centralized_assign()
            if wu is None:
                break  # nothing can be issued to anyone this tick
            if self.rng_accept.random() >= agent.accept_prob:
                self.emit("wu_rejected", wu=wu.id, agent=agent.id)
                self.servers[wu.project].queue.append(wu)
                continue
            self._assign_wu(agent, wu)
            self.central_assigned.append((wu, agent.id))
            self.emit("wu_issued", wu=wu.id, members=[agent.id],
                      initiator=agent.id, distributor=wu.project,
                      group_size=1, complexity=wu.complexity)

    def _centralized_assign(self) -> Optional[WorkUnit]:
        n = len(self.server_order)
        for off in range(n):
            server = self.servers[self.server_order[(self._rr + off) % n]]
            if server.online and server.queue:
                self._rr = (self._rr + off + 1) % n
                return server.queue.popleft()
        return None

    def _assign_wu(self, agent: AgentModel, wu: WorkUnit) -> None:
        wu.deadline = self.tick + self.config.timeout_ticks
        agent.current_wu = wu  # idle, so its progress is 0 (_release)

    def _available(self, entity: str) -> bool:
        if entity in self.servers:
            return self.servers[entity].online
        return self.agents[entity].online

    def _issue_trust(self) -> None:
        # Failover before issuance so a dead manager costs at most one tick.
        for comm in list(self.communities.values()):
            if not self._available(comm.tcm):
                availability = {m: self._available(m) for m in comm.members}
                if tc.elect_tcm(comm, availability, self.tick) is None:
                    comm.dissolve(self.tick)
                    del self.communities[comm.id]
        if not self.open_wus:
            return

        # Each idle agent's candidate is built once, from one tau read.
        # This is exact: a rating issued while a pool drains reaches only a
        # member of that pool, whose candidate is then rebuilt there from a
        # fresh read, and each idle agent sits in one pool: its community's,
        # or the open pool.  Candidates leave a pool as they are assigned.
        # A candidate's f_min is effective_f_min(tau, ...): the floor in its
        # tau's entry in tau_draws, plus one if its one random() falls below
        # the fraction there.
        candidates: Dict[str, Candidate] = {}
        tau_draws, tau_of, draw = self.tau_draws, self.store.tau, self.rng_issue.random
        for a in self.agent_order:
            if a.online and a.current_wu is None:
                agent_id = a.id
                tau = tau_of(agent_id)
                entry = tau_draws.get(tau)
                if entry is None:
                    entry = tau_draws[tau] = (
                        roulette_parts(raw_replication_factor(tau, self.limits))
                        + (classify(tau),))
                base, frac, trust_class = entry
                candidates[agent_id] = Candidate(agent_id, base + (draw() < frac),
                                                 trust_class)
        members = self.live_members  # a founder is a member
        open_pool = {a: c for a, c in candidates.items() if a not in members}

        # Communities distribute their founders' queues first: members get
        # priority, leftover work spills to the open pool.
        for comm_id in sorted(self.communities):
            comm = self.communities[comm_id]
            queue = self.servers[comm.founder].queue
            if queue:
                pool = {a: c for a, c in candidates.items() if a in comm.members}
                self._drain_queue(queue, pool, comm.tcm, comm.id)
            self._drain_queue(queue, open_pool, comm.tcm, comm.id)

        # Queues without a community go straight to the open pool.
        for sid in self.server_order:
            if self.servers[sid].online and sid not in members:
                self._drain_queue(self.servers[sid].queue, open_pool, sid, None)

    def _drain_queue(self, queue: Deque[WorkUnit], pool: Dict[str, Candidate],
                     distributor: str, community: Optional[str]) -> None:
        """Issue work from `queue` to groups drawn from `pool`.

        `pool` is updated in place: assigned agents leave it, and an agent
        that rejects a work unit gets a new entry for its lowered tau.  A
        dict keeps its insertion order, so the selectors see the agents in
        the same order, and draw the same groups, as from a fresh list.
        """
        params = self.config.params
        retries = 0
        while queue and retries <= len(queue):
            wu = queue[0]
            try:
                group = self._select_group(list(pool.values()))
            except SelectionFailed:
                break
            if group.short and not params.allow_short_groups:  # the one rule, for every strategy
                break
            queue.popleft()
            accepted = []
            for member in group.members:
                agent = self.agents[member]
                if self.rng_accept.random() < agent.accept_prob:
                    accepted.append(member)
                else:
                    self.emit("wu_rejected", wu=wu.id, agent=member)
                    self._rate(member, _REJECTED, rater=distributor)
                    pool[member] = Candidate(member, pool[member].f_min,
                                             classify(self.store.tau(member)))
            if len(accepted) < 2:
                queue.append(wu)
                retries += 1
                continue
            for member in accepted:
                self._assign_wu(self.agents[member], wu)
                del pool[member]
            self.assignments[wu.id] = Assignment(
                wu=wu, members=tuple(accepted), distributor=distributor,
                community=community)
            self.emit("wu_issued", wu=wu.id, members=list(accepted),
                      initiator=group.initiator, distributor=distributor,
                      group_size=len(accepted), complexity=wu.complexity,
                      short=group.short)

    def _select_group(self, candidates: List[Candidate]) -> ReplicaGroup:
        strategy = self.config.strategy
        params = self.config.params
        if strategy == "random":
            size = roulette_round(params.random_replication, self.rng_issue)
            return random_baseline_select(candidates, max(size, 1), self.rng_issue)
        if strategy == "dods":
            return dods_assign(candidates)
        if strategy == "dgds":
            try:
                return dgds_select(candidates, self.rng_issue,
                                   same_amount_total=params.dgds_same_amount == "total")
            except FallbackToDRDS:
                return drds_select(candidates, self.rng_issue)
        return drds_select(candidates, self.rng_issue)

    # -- phase 3: agent compute -----------------------------------------
    def _phase_compute(self) -> None:
        if not self.open_wus:
            return  # no agent can hold a work unit
        # A held unit's deadline is its assignment tick plus timeout_ticks:
        # a unit issued this tick has `fresh`, and fresh - deadline is its age.
        fresh = self.tick + self.config.timeout_ticks
        for agent in self.agent_order:
            wu = agent.current_wu
            if not agent.online or wu is None or wu.deadline == fresh:
                continue
            if agent.profile == FREE_RIDER:
                units = self._terminal(agent, wu, "dropped", None, False)
                self.emit("wu_dropped", wu=wu.id, agent=agent.id, units=units)
                continue
            agent.progress += agent.speed
            if agent.progress >= wu.complexity:
                result = COLLUDED if agent.profile == MALICIOUS else CORRECT
                # Later than twice the agent's own estimate of the work.
                late = (fresh - wu.deadline
                        > math.ceil(wu.complexity / agent.speed) * 2)
                self._terminal(agent, wu, "completed", result, late)
                buffered = False
                if not self.trust_mode:  # routed now, or held through an outage
                    wu.deadline = None
                    buffered = not self.servers[wu.project].online
                    (self.buffers[wu.project] if buffered else self._routed).append(
                        (wu, result, agent.id))
                self.emit("wu_completed", wu=wu.id, agent=agent.id,
                          units=wu.complexity, late=late, buffered=buffered)

    def _terminal(self, agent: AgentModel, wu: WorkUnit, kind: str,
                  result: Optional[str], late: bool) -> int:
        """Record how `agent` ended `wu`, which it holds, and free it;
        returns the units it held."""
        assignment = self.assignments.get(wu.id)  # only trust mode has any
        if assignment is not None:
            assignment.outcomes[agent.id] = Outcome(kind, result, late)
        return self._release(agent, wu)

    @staticmethod
    def _release(agent: AgentModel, wu: WorkUnit) -> int:
        """Free `agent` if it holds `wu`; returns the units of progress
        it held on it (0 if it holds another work unit or none)."""
        if agent.current_wu is not wu:
            return 0
        units = agent.progress
        agent.current_wu = None
        agent.progress = 0
        return units

    # -- phase 4: result collection (centralized buffering) --------------
    def _phase_collect(self) -> None:
        if self.trust_mode:
            return  # nothing is buffered
        # Buffers flush FIFO on the ServerUp tick, in server order, ahead of
        # the completions compute routed this tick.
        flushed = []
        for sid in self.server_order:
            buffer = self.buffers[sid]
            if buffer and self.servers[sid].online:
                flushed.extend(buffer)
                buffer.clear()
        self._routed[:0] = flushed

    # -- phase 5: validation, ratings, credits, timeouts -----------------
    def _phase_validate(self) -> None:
        if self.trust_mode:
            self._validate_trust()
        else:
            self._validate_centralized()

    def _rate(self, subject: str, rating: Tuple[str, float], rater: str) -> None:
        cause, value = rating
        self.store.record(subject, value)
        self.emit("rating_issued", subject=subject, rater=rater,
                  cause=cause, value=value)

    def _validate_unit(self, wu: WorkUnit, members: List[str],
                       consensus: List[str], correct: bool) -> None:
        """Close `wu`, validated with the results of `consensus`: credit
        them, log it, and count the unit as no longer open.  The count
        goes last, so a commit that raises changes nothing."""
        credit = self.config.base_credit_millis * wu.complexity
        block = self.ledger.commit(wu.id, credit, consensus, self.tick)
        self.emit("credit_committed", wu=wu.id, allocations=dict(block.allocations))
        self.emit("wu_validated", wu=wu.id, members=members, consensus=consensus,
                  group_size=len(members), correct=correct,
                  complexity=wu.complexity, credit=credit)
        self.open_wus -= 1

    def _validate_centralized(self) -> None:
        for wu, result, agent_id in self._routed:
            self._validate_unit(wu, [agent_id], [agent_id], result == CORRECT)
        self._routed = []
        # Timeout redistribution; the lapsed client is not penalized.  In
        # deadline order, every lapsed assignment precedes any live one.
        assigned = self.central_assigned
        while assigned:
            wu, holder = assigned[0]
            if wu.deadline is not None and self.tick < wu.deadline:
                break
            assigned.popleft()
            if wu.deadline is None:
                continue
            units = self._release(self.agents[holder], wu)
            self.emit("wu_timed_out", wu=wu.id, agent=holder, units=units)
            wu.deadline = None
            self.servers[wu.project].queue.append(wu)
            self.emit("wu_redistributed", wu=wu.id)

    def _validate_trust(self) -> None:
        for wu_id in list(self.assignments):
            assignment = self.assignments[wu_id]
            wu = assignment.wu
            if self.tick >= wu.deadline:
                for member in assignment.members:
                    if member in assignment.outcomes:
                        continue
                    units = self._release(self.agents[member], wu)
                    assignment.outcomes[member] = Outcome("timed_out")
                    self.emit("wu_timed_out", wu=wu_id, agent=member, units=units)
            if len(assignment.outcomes) < len(assignment.members):
                continue
            self._finish_assignment(assignment)
            del self.assignments[wu_id]

    def _finish_assignment(self, assignment: Assignment) -> None:
        wu, members, outcomes = assignment.wu, assignment.members, assignment.outcomes
        wu.deadline = None
        counts: Dict[str, int] = {}
        for outcome in outcomes.values():
            if outcome.kind == "completed":
                counts[outcome.result] = counts.get(outcome.result, 0) + 1
        # A strict majority, if any, is unique.
        token = next((t for t, n in counts.items() if n * 2 > len(members)), None)
        rater = assignment.distributor
        # Without a strict majority only behavioral failures can be judged;
        # the completions wait for a round that reaches consensus.
        for member in members:
            rating = _cause(outcomes[member], token)
            if rating is None:
                self.pending_judgments.setdefault(wu.id, []).append((member, outcomes[member]))
            else:
                self._rate(member, rating, rater)
        if token is None:
            wu.requeues += 1
            terminal = 0 < self.config.params.max_requeues < wu.requeues  # 0: unlimited
            if terminal:
                self.open_wus -= 1
                self.pending_judgments.pop(wu.id, None)  # never judged
            else:
                self.servers[wu.project].queue.append(wu)
            self.emit("wu_redistributed", wu=wu.id, terminal=terminal)
            return
        for agent, outcome in self.pending_judgments.pop(wu.id, ()):
            self._rate(agent, _cause(outcome, token), rater)
        # Only a completed outcome has a result.
        consensus = [m for m in members if outcomes[m].result == token]
        self._validate_unit(wu, list(members), consensus, token == CORRECT)

    # -- phase 6: community lifecycle -------------------------------------
    def _phase_lifecycle(self) -> None:
        if not self.trust_mode or not self.config.params.formation:
            return
        params = self.config.params
        taus = self.store.taus  # a subject it lacks, a server among them, is neutral
        members = self.live_members  # a founder is a member
        # No rating is issued and no agent goes on- or offline in this
        # phase, so every tau is fixed: the online agents are ranked at most
        # once, on first need, and their mean tau is taken with the ranking.
        ranked: Optional[List[str]] = None
        pool_tau = NEUTRAL_TAU

        for comm_id in sorted(self.communities):
            comm = self.communities[comm_id]
            # A full community invites no one, so it is shown no ranking.
            full = len(comm.members) >= params.max_size
            if ranked is None and not full:
                ranked, pool_tau = self._invite_pool()
            evict, invite = tc.operate_tick(comm, taus, () if full else ranked, params)
            for agent in evict:
                comm.remove_member(agent, self.tick, tc.EVICTED)
            for agent in invite:
                comm.log(self.tick, tc.INVITED, agent)
                # Read per invite: an agent accepted here joins at once.  With
                # no agent in the community, the invitee judges by its own tau.
                inside = [taus.get(m, NEUTRAL_TAU) for m in comm.members if m in self.agents]
                own = taus.get(agent, NEUTRAL_TAU)
                inside_tau = sum_left(inside) / len(inside) if inside else own
                if self._accepts_invite(agent, inside_tau, pool_tau):
                    comm.add_member(agent, self.tick, own)
                else:
                    comm.declined.add(agent)
            queue_empty = (not self.servers[comm.founder].queue
                           and not any(a.community == comm.id
                                       for a in self.assignments.values()))
            if tc.dissolve_check(comm, params, queue_empty):
                comm.dissolve(self.tick)
                del self.communities[comm.id]

        for sid in self.server_order:
            server = self.servers[sid]
            if not server.online or not server.queue or sid in members:
                continue
            if ranked is None:
                ranked, pool_tau = self._invite_pool()
            invites = tc.evaluate_formation(ranked, members, params)
            # The invitees of one attempt share one inside mean: their own.
            invitee_taus = [taus.get(a, NEUTRAL_TAU) for a in invites]
            inside_tau = sum_left(invitee_taus) / len(invites) if invites else NEUTRAL_TAU
            joiners = [a for a in invites
                       if self._accepts_invite(a, inside_tau, pool_tau)]
            if len(joiners) < params.quorum:
                continue  # below quorum; retry when reputations improve
            comm = tc.TrustCommunity(id=f"tc{self._tc_counter}", founder=sid,
                                     events=self.events, live_members=members)
            self._tc_counter += 1
            for a in invites:
                comm.log(self.tick, tc.INVITED, a)
            comm.form(self.tick, joiners, taus)
            self.communities[comm.id] = comm

    def _invite_pool(self) -> Tuple[List[str], float]:
        """The online agents in invitation order, and their mean tau."""
        taus = self.store.taus
        online = [(a.id, taus.get(a.id, NEUTRAL_TAU)) for a in self.agent_order if a.online]
        mean = sum_left(tau for _, tau in online) / len(online) if online else NEUTRAL_TAU
        return tc.rank_invitees(online, self.config.params), mean

    def _accepts_invite(self, agent_id: str, inside_tau: float, pool_tau: float) -> bool:
        """Whether `agent_id` joins a community whose agents' mean tau is
        `inside_tau` over a pool of mean tau `pool_tau`."""
        inside_size = 1 + raw_replication_factor(inside_tau, self.limits)
        outside_size = 1 + raw_replication_factor(pool_tau, self.limits)
        value = self.config.base_credit_millis
        return tc.join_decision(self.agents[agent_id].profile == EGOISTIC,
                                value / inside_size, value / outside_size)
