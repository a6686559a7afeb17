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
from enum import Enum
from functools import partial
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from . import community as tc
from .config import ScenarioConfig
from .distribution import (Candidate, FallbackToDRDS, ReplicaGroup,
                           SelectionFailed, dgds_select, dods_assign,
                           drds_select, random_baseline_select)
from .eventlog import SimEvent
from .ledger import Ledger, split_credits
from .trust import (CAUSE_VALUES, NEUTRAL_TAU, RatingCause, ReplicationLimits,
                    ReputationProfile, classify, effective_f_min,
                    raw_replication_factor, roulette_round, sum_left)


class Profile(Enum):
    RELIABLE = "reliable"
    CHURNER = "churner"
    SLOW = "slow"
    MALICIOUS = "malicious"
    FREE_RIDER = "free_rider"
    EGOISTIC = "egoistic"


class WuState(Enum):
    QUEUED = "queued"
    ASSIGNED = "assigned"
    COLLECTED = "collected"
    VALIDATED = "validated"
    FAILED = "failed"


@dataclass
class WorkUnit:
    id: str
    project: str  # owning work server / work agent
    complexity: int
    ground_truth: str
    state: WuState = WuState.QUEUED
    deadline: int = 0
    requeues: int = 0
    # Completions from rounds that failed majority; judged retroactively
    # once some later round reaches consensus.
    pending_judgments: List[Tuple[str, str, bool]] = field(default_factory=list)


@dataclass
class AgentModel:
    id: str
    profile: Profile
    speed: int = 1
    online: bool = True
    churn: Optional[Tuple[int, int]] = None
    accept_prob: float = 1.0
    current_wu: Optional[str] = None
    progress: int = 0
    assigned_tick: int = 0
    quote: int = 0  # self-quoted computation deadline in ticks


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


def _append_tc_event(events: List[SimEvent], tick: int, **payload) -> None:
    # A community's sink.  It holds the event list, not the World: a bound
    # World.emit would make a reference cycle that only the collector frees.
    events.append(SimEvent(tick, "tc_event", payload))


class ReputationStore:
    def __init__(self, window: int) -> None:
        self.window = window
        self.profiles: Dict[str, ReputationProfile] = {}
        # Each rated subject's tau, kept by `record`; a subject it lacks is
        # neutral.  Lifecycle reads it as a map, without a call per member.
        self.taus: Dict[str, float] = {}

    def profile(self, subject: str) -> ReputationProfile:
        if subject not in self.profiles:
            self.profiles[subject] = ReputationProfile(self.window)
        return self.profiles[subject]

    def tau(self, subject: str) -> float:
        prof = self.profiles.get(subject)
        return prof.tau if prof is not None else NEUTRAL_TAU

    def record(self, subject: str, value: float) -> None:
        profile = self.profile(subject)
        profile.push(value)
        self.taus[subject] = profile.tau


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
                    id=agent_id, profile=Profile(group.profile),
                    speed=group.speed, churn=group.churn,
                    accept_prob=group.accept_prob)
        self.agent_order = sorted(self.agents)
        # Insertion order, not agent_order: churn events keep their order.
        self.churners = [a for a in self.agents.values() if a.churn is not None]

        self.servers: Dict[str, WorkServer] = {
            sid: WorkServer(sid) for sid in config.server_ids()}
        self.server_order = list(self.servers)
        self._rr = 0  # assignment-server round-robin pointer

        self.wus: Dict[str, WorkUnit] = {}
        for i in range(config.wu_count):
            wid = f"wu{i:05d}"
            owner = self.server_order[i % len(self.server_order)]
            wu = WorkUnit(id=wid, project=owner,
                          complexity=config.complexity_draw(rng_work),
                          ground_truth=f"ok-{wid}")
            self.wus[wid] = wu
            self.servers[owner].queue.append(wu)
        self.open_wus = config.wu_count  # neither VALIDATED nor FAILED

        self.store = ReputationStore(config.params.window)
        self.ledger = Ledger()
        self.assignments: Dict[str, Assignment] = {}
        self.buffers: Dict[str, Deque[Tuple[WorkUnit, str, str]]] = {
            sid: deque() for sid in self.servers}
        self._completions: List[Tuple[str, WorkUnit, str, str]] = []
        self._routed: List[Tuple[str, WorkUnit, str, str]] = []
        self.central_assigned: Dict[str, str] = {}  # wu id -> holder agent
        # Live communities, by id.  Every one is operating, shares no member
        # with another, and, once _issue_trust's failover has run, has an
        # available manager; the engine relies on this and checks none of it.
        self.communities: Dict[str, tc.TrustCommunity] = {}
        self._tc_counter = 0
        self.events: List[SimEvent] = []
        self.faults_at: Dict[int, List] = {}
        for f in config.faults:
            self.faults_at.setdefault(f.tick, []).append(f)
        self.tick = 0

    # ------------------------------------------------------------------
    def emit(self, kind: str, /, **payload) -> None:
        self.events.append(SimEvent(self.tick, kind, payload))

    def header(self) -> dict:
        cfg = self.config
        return {
            "name": cfg.name, "mode": cfg.mode, "strategy": cfg.strategy,
            "seed": cfg.seed, "horizon": cfg.horizon_ticks,
            "window": cfg.params.window,
            "base_credit_millis": cfg.base_credit_millis,
            "agents": {a.id: {"profile": a.profile.value, "online": True}
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
            desired = (self.tick - 1) % (up + down) < up
            if desired != agent.online:
                agent.online = desired
                self.emit("agent_up" if desired else "agent_down", agent=agent.id)
        for fault in self.faults_at.get(self.tick, ()):
            desired = not fault.down
            if fault.entity in self.servers:
                server = self.servers[fault.entity]
                if server.online != desired:
                    server.online = desired
                    self.emit("server_down" if fault.down else "server_up",
                              server=server.id)
            else:
                agent = self.agents[fault.entity]
                if agent.online != desired:
                    agent.online = desired
                    self.emit("agent_down" if fault.down else "agent_up",
                              agent=agent.id)

    # -- phase 2: work issuance -----------------------------------------
    def _phase_issue(self) -> None:
        if self.trust_mode:
            self._issue_trust()
        else:
            self._issue_centralized()

    def _issue_centralized(self) -> None:
        for agent_id in self.agent_order:
            agent = self.agents[agent_id]
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
            self.central_assigned[wu.id] = agent.id
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
        wu.state = WuState.ASSIGNED
        wu.deadline = self.tick + self.config.timeout_ticks
        agent.current_wu = wu.id
        agent.progress = 0
        agent.assigned_tick = self.tick
        agent.quote = math.ceil(wu.complexity / agent.speed) * 2

    def _available(self, entity: str) -> bool:
        if entity in self.servers:
            return self.servers[entity].online
        return self.agents[entity].online

    def _issue_trust(self) -> None:
        # Failover before issuance so a dead manager costs at most one tick.
        for comm in list(self.communities.values()):
            if not self._available(comm.tcm):
                availability = {m: self._available(m) for m in comm.members}
                try:
                    tc.handle_tcm_failure(comm, availability, self.tick)
                except tc.DissolutionTriggered:
                    comm.dissolve(self.tick)
                    del self.communities[comm.id]
        if not self.open_wus:
            return

        idle = [self.agents[a] for a in self.agent_order
                if self.agents[a].online and self.agents[a].current_wu is None]
        # Each idle agent's tau is read once, for its f_min draw and its
        # pool candidate.  This is exact: a rating issued while a pool
        # drains reaches only a member of that pool, whose candidate is then
        # rebuilt from a fresh read, and each idle agent sits in one pool.
        drawn = {}  # agent id -> its Candidate fields after the id
        for a in idle:
            tau = self.store.tau(a.id)
            f_min = max(effective_f_min(tau, self.limits, self.rng_issue), 1)
            drawn[a.id] = (tau, f_min, classify(tau))

        members = {m for c in self.communities.values() for m in c.members}

        # Each idle agent sits in one pool: its community's, or the open
        # pool.  A pool's candidates are built when it first meets a
        # non-empty queue and leave it as they are assigned.
        open_agents = [a for a in idle if a.id not in members]
        open_pool: Optional[Dict[str, Candidate]] = None

        def drain_open(queue: Deque[WorkUnit], distributor: str,
                       community: Optional[str]) -> None:
            nonlocal open_pool
            if not queue:
                return
            if open_pool is None:
                open_pool = self._candidates(open_agents, drawn)
            self._drain_queue(queue, open_pool, distributor, community)

        # Communities distribute their founders' queues first: members get
        # priority, leftover work spills to the open pool.
        for comm_id in sorted(self.communities):
            comm = self.communities[comm_id]
            queue = self.servers[comm.founder].queue
            if queue:
                pool = [a for a in idle if a.id in comm.members]
                self._drain_queue(queue, self._candidates(pool, drawn),
                                  distributor=comm.tcm, community=comm.id)
            drain_open(queue, distributor=comm.tcm, community=comm.id)

        # Queues without a community go straight to the open pool.
        founders = {c.founder for c in self.communities.values()}
        for sid in self.server_order:
            if self.servers[sid].online and sid not in founders:
                drain_open(self.servers[sid].queue, distributor=sid, community=None)

    def _candidate(self, agent_id: str, f_min: int) -> Candidate:
        tau = self.store.tau(agent_id)
        return Candidate(agent_id, tau, f_min, classify(tau))

    @staticmethod
    def _candidates(agents: List[AgentModel], drawn: Dict[str, tuple]
                    ) -> Dict[str, Candidate]:
        return {a.id: Candidate(a.id, *drawn[a.id]) for a in agents}

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
            if group.short and not params.allow_short_groups:
                break
            queue.popleft()
            accepted = []
            for member in group.members:
                agent = self.agents[member]
                if self.rng_accept.random() < agent.accept_prob:
                    accepted.append(member)
                else:
                    self.emit("wu_rejected", wu=wu.id, agent=member)
                    self._rate(member, RatingCause.REJECTED_WU, rater=distributor)
                    pool[member] = self._candidate(member, pool[member].f_min)
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
            return dods_assign(candidates, allow_short=params.allow_short_groups)
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
        for agent_id in self.agent_order:
            agent = self.agents[agent_id]
            if (not agent.online or agent.current_wu is None
                    or agent.assigned_tick == self.tick):
                continue
            wu = self.wus[agent.current_wu]
            if agent.profile is Profile.FREE_RIDER:
                units = self._terminal(agent, wu, "dropped", None, False)
                self.emit("wu_dropped", wu=wu.id, agent=agent.id, units=units)
                continue
            agent.progress += agent.speed
            if agent.progress >= wu.complexity:
                result = (f"bad-{wu.id}" if agent.profile is Profile.MALICIOUS
                          else wu.ground_truth)
                late = (self.tick - agent.assigned_tick) > agent.quote
                self._terminal(agent, wu, "completed", result, late)
                self.emit("wu_completed", wu=wu.id, agent=agent.id,
                          units=wu.complexity, late=late,
                          buffered=(not self.trust_mode
                                    and not self.servers[wu.project].online))
                if not self.trust_mode:
                    self._completions.append((wu.project, wu, result, agent.id))

    def _terminal(self, agent: AgentModel, wu: WorkUnit, kind: str,
                  result: Optional[str], late: bool) -> int:
        """Record how `agent` ended `wu`, which it holds, and free it;
        returns the units it held."""
        assignment = self.assignments.get(wu.id)  # only trust mode has any
        if assignment is not None:
            assignment.outcomes[agent.id] = Outcome(kind, result, late)
        return self._release(agent, wu.id)

    @staticmethod
    def _release(agent: AgentModel, wu_id: str) -> int:
        """Free `agent` if it holds `wu_id`; returns the units of progress
        it held on it (0 if it holds another work unit or none)."""
        if agent.current_wu != wu_id:
            return 0
        units = agent.progress
        agent.current_wu = None
        agent.progress = 0
        return units

    # -- phase 4: result collection (centralized buffering) --------------
    def _phase_collect(self) -> None:
        if self.trust_mode:
            return
        self._routed = []
        for sid in self.server_order:  # FIFO flush on the ServerUp tick
            server = self.servers[sid]
            if server.online:
                while self.buffers[sid]:
                    wu, result, agent_id = self.buffers[sid].popleft()
                    self._routed.append((sid, wu, result, agent_id))
        for sid, wu, result, agent_id in self._completions:
            wu.state = WuState.COLLECTED
            if self.servers[sid].online:
                self._routed.append((sid, wu, result, agent_id))
            else:
                self.buffers[sid].append((wu, result, agent_id))
        self._completions = []

    # -- phase 5: validation, ratings, credits, timeouts -----------------
    def _phase_validate(self) -> None:
        if self.trust_mode:
            self._validate_trust()
        else:
            self._validate_centralized()

    def _rate(self, subject: str, cause: RatingCause, rater: str) -> None:
        value = CAUSE_VALUES[cause]
        self.store.record(subject, value)
        self.emit("rating_issued", subject=subject, rater=rater,
                  cause=cause.value, value=value)

    def _commit_credit(self, wu: WorkUnit, participants: List[str]) -> int:
        credit_total = self.config.base_credit_millis * wu.complexity
        allocations = split_credits(credit_total, participants)
        self.ledger.append_block(wu.id, allocations, self.tick,
                                 expected_total=credit_total)
        self.emit("credit_committed", wu=wu.id,
                  allocations={a: mc for a, mc in allocations})
        return credit_total

    def _validate_centralized(self) -> None:
        for sid, wu, result, agent_id in self._routed:
            wu.state = WuState.VALIDATED
            self.open_wus -= 1
            credit = self._commit_credit(wu, [agent_id])
            self.emit("wu_validated", wu=wu.id, members=[agent_id],
                      consensus=[agent_id], group_size=1,
                      correct=result == wu.ground_truth,
                      complexity=wu.complexity, credit=credit)
        self._routed = []
        # Timeout redistribution; the lapsed client is not penalized.
        for wu_id in list(self.central_assigned):
            wu = self.wus[wu_id]
            if wu.state is not WuState.ASSIGNED:
                del self.central_assigned[wu_id]
                continue
            if self.tick < wu.deadline:
                continue
            holder = self.central_assigned.pop(wu_id)
            units = self._release(self.agents[holder], wu_id)
            self.emit("wu_timed_out", wu=wu.id, agent=holder, units=units)
            wu.state = WuState.QUEUED
            self.servers[wu.project].queue.append(wu)
            self.emit("wu_redistributed", wu=wu.id)

    def _validate_trust(self) -> None:
        params = self.config.params
        for wu_id in list(self.assignments):
            assignment = self.assignments[wu_id]
            wu = assignment.wu
            if self.tick >= wu.deadline:
                for member in assignment.members:
                    if member in assignment.outcomes:
                        continue
                    units = self._release(self.agents[member], wu_id)
                    assignment.outcomes[member] = Outcome("timed_out")
                    self.emit("wu_timed_out", wu=wu_id, agent=member, units=units)
            if len(assignment.outcomes) < len(assignment.members):
                continue
            self._finish_assignment(assignment, params)
            del self.assignments[wu_id]

    def _finish_assignment(self, assignment: Assignment, params) -> None:
        wu = assignment.wu
        counts: Dict[str, int] = {}
        for outcome in assignment.outcomes.values():
            if outcome.kind == "completed":
                counts[outcome.result] = counts.get(outcome.result, 0) + 1
        consensus_token = None
        for token in sorted(counts):
            if counts[token] * 2 > len(assignment.members):
                consensus_token = token
                break
        rater = assignment.distributor
        if consensus_token is not None:
            consensus = [m for m in assignment.members
                         if assignment.outcomes[m].kind == "completed"
                         and assignment.outcomes[m].result == consensus_token]
            for member in assignment.members:
                outcome = assignment.outcomes[member]
                if member in consensus:
                    cause = (RatingCause.CORRECT_LATE if outcome.late
                             else RatingCause.CORRECT_ON_TIME)
                elif outcome.kind == "completed":
                    cause = RatingCause.WRONG_RESULT
                elif outcome.kind == "dropped":
                    cause = RatingCause.DROPPED_WU
                else:
                    cause = RatingCause.TIMED_OUT
                self._rate(member, cause, rater)
            # Completions from earlier failed rounds can now be judged
            # against the validated result.
            for agent, token, late in wu.pending_judgments:
                if token == consensus_token:
                    cause = (RatingCause.CORRECT_LATE if late
                             else RatingCause.CORRECT_ON_TIME)
                else:
                    cause = RatingCause.WRONG_RESULT
                self._rate(agent, cause, rater)
            wu.pending_judgments.clear()
            wu.state = WuState.VALIDATED
            self.open_wus -= 1
            credit = self._commit_credit(wu, consensus)
            self.emit("wu_validated", wu=wu.id, members=list(assignment.members),
                      consensus=consensus, group_size=len(assignment.members),
                      correct=consensus_token == wu.ground_truth,
                      complexity=wu.complexity, credit=credit)
        else:
            # No strict majority: only behavioral failures can be judged.
            for member in assignment.members:
                outcome = assignment.outcomes[member]
                if outcome.kind == "dropped":
                    self._rate(member, RatingCause.DROPPED_WU, rater)
                elif outcome.kind == "timed_out":
                    self._rate(member, RatingCause.TIMED_OUT, rater)
                else:
                    wu.pending_judgments.append(
                        (member, outcome.result, outcome.late))
            wu.requeues += 1
            if params.max_requeues and wu.requeues > params.max_requeues:
                wu.state = WuState.FAILED
                self.open_wus -= 1
                self.emit("wu_redistributed", wu=wu.id, terminal=True)
            else:
                wu.state = WuState.QUEUED
                self.servers[wu.project].queue.append(wu)
                self.emit("wu_redistributed", wu=wu.id, terminal=False)

    # -- phase 6: community lifecycle -------------------------------------
    def _phase_lifecycle(self) -> None:
        if not self.trust_mode or not self.config.params.formation:
            return
        params = self.config.params
        in_community = {m for c in self.communities.values() for m in c.members}

        # No rating is issued and no agent goes on- or offline in this
        # phase, so the online agents' taus are read once, on the first
        # outsider view, and their mean once, on the first invite.
        online_tau: Optional[Dict[str, float]] = None
        pool_tau: Optional[float] = None

        def online() -> Dict[str, float]:
            nonlocal online_tau
            if online_tau is None:
                online_tau = {a: self.store.tau(a) for a in self.agent_order
                              if self.agents[a].online}
            return online_tau

        def outsiders() -> Dict[str, float]:
            return {a: t for a, t in online().items() if a not in in_community}

        def mean_online_tau() -> float:
            nonlocal pool_tau
            if pool_tau is None:
                taus = online()
                pool_tau = sum_left(taus.values()) / len(taus) if taus else NEUTRAL_TAU
            return pool_tau

        for comm_id in sorted(self.communities):
            comm = self.communities[comm_id]
            # Members read their tau from the live map, where the founder, a
            # server that is never rated, is absent and so neutral.  A full
            # community invites no one, so it is shown no outsider.
            has_room = len(comm.members) < params.max_size
            evict, invite = tc.operate_tick(comm, self.store.taus,
                                            outsiders() if has_room else {}, params)
            for agent in evict:
                comm.remove_member(agent, self.tick, tc.EventKind.EVICTED)
                in_community.discard(agent)
            for agent in invite:
                comm.log(self.tick, tc.EventKind.INVITED, agent)
                if self._accepts_invite(agent, comm, mean_online_tau()):
                    comm.add_member(agent, self.tick, self.store.tau(agent))
                    in_community.add(agent)
                else:
                    comm.declined.add(agent)
            queue_empty = (not self.servers[comm.founder].queue
                           and not any(a.community == comm.id
                                       for a in self.assignments.values()))
            if tc.dissolve_check(comm, params, queue_empty):
                for member in comm.members:
                    in_community.discard(member)
                comm.dissolve(self.tick)
                del self.communities[comm.id]

        founders = {c.founder for c in self.communities.values()}
        for sid in self.server_order:
            server = self.servers[sid]
            if not server.online or not server.queue or sid in founders:
                continue
            eligible = outsiders()
            invites = tc.evaluate_formation(sid, eligible, params)
            if invites is None:
                continue
            comm = tc.TrustCommunity(id=f"tc{self._tc_counter}", founder=sid,
                                     emit=partial(_append_tc_event, self.events))
            invitee_taus = [eligible[x] for x in invites]
            joiners = [a for a in invites
                       if self._accepts_invite(a, None, mean_online_tau(), invitee_taus)]
            if len(joiners) < params.min_size:
                continue  # below quorum; retry when reputations improve
            self._tc_counter += 1
            for a in invites:
                comm.log(self.tick, tc.EventKind.INVITED, a)
            comm.form(self.tick, joiners,
                      {a: eligible[a] for a in joiners},
                      founder_tau=self.store.tau(sid))
            availability = {m: self._available(m) for m in comm.members}
            tc.elect_tcm(comm, availability, self.tick)
            self.communities[comm.id] = comm
            in_community.update(comm.members)

    def _accepts_invite(self, agent_id: str, comm: Optional[tc.TrustCommunity],
                        pool_tau: float,
                        invitee_taus: Optional[List[float]] = None) -> bool:
        """`pool_tau` is the mean tau of all online agents."""
        agent = self.agents[agent_id]
        if comm is not None:
            member_taus = [self.store.tau(m) for m in comm.members
                           if m in self.agents]
            inside_taus = member_taus or [self.store.tau(agent_id)]
        else:
            inside_taus = invitee_taus or [self.store.tau(agent_id)]
        inside_size = 1 + raw_replication_factor(
            sum_left(inside_taus) / len(inside_taus), self.limits)
        outside_size = 1 + raw_replication_factor(pool_tau, self.limits)
        value = self.config.base_credit_millis
        return tc.join_decision(agent.profile is Profile.EGOISTIC,
                                value / inside_size, value / outside_size)
