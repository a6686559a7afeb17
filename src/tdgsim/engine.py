"""Deterministic discrete-event engine for both grid topologies.

Each tick runs a fixed phase order: faults, work issuance, agent compute,
result collection, validation (ratings, credits, timeouts), community
lifecycle.  All randomness comes from named streams derived from the
scenario seed, so identical (scenario, seed) pairs replay identically.

The issuance stream is drawn only while some work unit is open, neither
validated nor failed.  Once none is, no work unit can be queued again, so
issuance and compute stop their per-agent work.  This is exact: the
skipped draws could never reach an output.

`run` stops at the run's fixed point: the first tick after which no work
unit is open, no community is live and no agent churns.  From there only
a scheduled fault can emit an event, and none can draw, so `run` steps
the remaining fault ticks alone.  The header still carries the horizon,
and `metrics.tick_rows` expands the quiet tail, so every output is the same
as from stepping every tick.

Within one drain of a queue, a dgds fallback to drds holds until a
rejection: assignments only remove candidates, so they cannot give the
pool the trusted/untrusted pair it lacked, and dgds draws nothing before
it falls back.
"""
from __future__ import annotations

import gc
import hashlib
import math
import random
from collections import deque
from dataclasses import dataclass, field
from itertools import cycle, repeat
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

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
    members: List[str]  # the list its wu_issued logs: payloads are read-only
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
        # Each agent's `[agent_id]`, the one list a centralized run logs as
        # its wu_issued members and wu_validated members and consensus:
        # payloads are read-only.  Sized by agents, never by events.
        self.solo: Dict[str, List[str]] = {a: [a] for a in self.agents}
        # Insertion order, not agent_order: churn events keep their order.
        self.churners = [a for a in self.agents.values() if a.churn is not None]

        # Unit i is "wu%05d" % i, queued at server i mod m: built and appended
        # in C, and drained by deque(maxlen=0), which keeps no list of them.
        # Only complexity reads rng_work, in unit order: one value draws none.
        sids, n = config.server_ids(), config.wu_count
        if n and not sids:  # cycle([]) would end the map and lose every unit
            raise ValueError(f"no server to own {n} work units")
        lo, hi = complexity_range(config.complexity)
        complexities = repeat(lo) if lo == hi else map(
            lo.__add__, map(below, repeat(rng_work, n), repeat(hi - lo + 1, n)))
        self.servers: Dict[str, WorkServer] = {sid: WorkServer(sid) for sid in sids}
        deque(map(deque.append, cycle([s.queue for s in self.servers.values()]), map(
            WorkUnit, map("wu%05d".__mod__, range(n)), cycle(sids), complexities)), maxlen=0)
        self.server_order = list(self.servers)
        self._rr = 0  # assignment-server round-robin pointer
        # Units not yet validated and not failed for good: the log's
        # wu_count less its wu_validated and terminal wu_redistributed events.
        self.open_wus = config.wu_count
        # Work unit id -> (agent, outcome) for its completions from rounds
        # that failed majority, judged once a later round reaches consensus.
        self.pending_judgments: Dict[str, List[Tuple[str, Outcome]]] = {}

        self.store = ReputationStore(config.params.window)
        # Payload values a run repeats, each built once and logged in every
        # event that carries it.  Each table is sized by distinct values,
        # never by events.
        # (subject, rater, cause) -> its rating_issued payload: agents x
        # raters x causes.
        self.rating_payloads: Dict[Tuple[str, str, str], dict] = {}
        # A one-entry allocation tuple -> its allocations dict: agents x
        # amounts.
        self.allocation_dicts: Dict[tuple, Dict[str, int]] = {}
        # Complexity -> its credit: one per complexity.
        self.credits: Dict[int, int] = {}
        # Each tau issuance has met -> the floor and fraction of its
        # replication factor (trust.roulette_parts) and its trust class:
        # all an idle agent's candidate takes from its tau, worked out once.
        self.tau_draws: Dict[float, Tuple[int, float, str]] = {}
        self.ledger = Ledger()
        self.assignments: Dict[str, Assignment] = {}
        # Community id -> its assignments in `assignments`, counted where
        # they are made and closed.  A dissolved community's entry may stay:
        # ids are never reused.
        self.community_load: Dict[str, int] = {}
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
        # Every live community's members, founders included, each mapped to
        # its community's id, kept by the communities themselves as members
        # join and leave.
        self.live_members: Dict[str, str] = {}
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
            horizon = self.config.horizon_ticks
            for t in range(1, horizon + 1):
                self.step(t)
                if not (self.open_wus or self.communities or self.churners):
                    # The fixed point: only a scheduled fault can still emit.
                    for fault_tick in sorted(self.faults_at):
                        if t < fault_tick <= horizon:
                            self.step(fault_tick)
                    break
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
            self.emit("wu_issued", wu=wu.id, members=self.solo[agent.id],
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

        # Each idle agent's candidate is built once, from one tau read, and
        # goes straight into its pool: its community's, or the open pool.
        # This is exact: a rating issued while a pool drains reaches only a
        # member of that pool, whose candidate is then rebuilt there from a
        # fresh read.  Each pool is in agent_order, and candidates leave it
        # as they are assigned.  A candidate's f_min is
        # effective_f_min(tau, ...): the floor in its tau's entry in
        # tau_draws, plus one if its one random() falls below the fraction
        # there.
        members = self.live_members  # a founder is a member
        open_pool: Dict[str, Candidate] = {}
        pools = {comm_id: {} for comm_id in self.communities}
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
                comm_id = members.get(agent_id)
                (open_pool if comm_id is None else pools[comm_id])[agent_id] = Candidate(
                    agent_id, base + (draw() < frac), trust_class)

        # Communities distribute their founders' queues first: members get
        # priority, leftover work spills to the open pool.
        for comm_id in sorted(self.communities):
            comm = self.communities[comm_id]
            queue = self.servers[comm.founder].queue
            if queue:
                self._drain_queue(queue, pools[comm_id], comm.tcm, comm.id)
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

        drds, dods and dgds each fail on fewer than 2 candidates before any
        draw, so such a pool is not selected from; random draws its group
        size first.  Once dgds falls back to drds, the pool lacks a trusted
        or an untrusted candidate, and assignments cannot add one: only a
        rejection, which rebuilds a candidate with a new class, can.  So the
        fallback holds, and drds selects directly, until a rejection.  Both
        are exact, as dgds draws nothing before it falls back.
        """
        params = self.config.params
        least = 0 if self.config.strategy == "random" else 2
        held = False  # dgds fell back in this drain, with no rejection since
        retries = 0
        while queue and retries <= len(queue) and len(pool) >= least:
            wu = queue[0]
            candidates = list(pool.values())
            try:
                group = (drds_select(candidates, self.rng_issue) if held
                         else self._select_group(candidates))
            except FallbackToDRDS:
                held = True
                continue
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
                    held = False
            if len(accepted) < 2:
                queue.append(wu)
                retries += 1
                continue
            for member in accepted:
                self._assign_wu(self.agents[member], wu)
                del pool[member]
            self.assignments[wu.id] = Assignment(
                wu=wu, members=accepted, distributor=distributor,
                community=community)
            if community is not None:
                self.community_load[community] = self.community_load.get(community, 0) + 1
            self.emit("wu_issued", wu=wu.id, members=accepted,
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
        if strategy == "dgds":  # raises FallbackToDRDS, which the drain takes
            return dgds_select(candidates, self.rng_issue,
                               same_amount_total=params.dgds_same_amount == "total")
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
        key = (subject, rater, cause)
        payload = self.rating_payloads.get(key)
        if payload is None:
            payload = self.rating_payloads[key] = {
                "subject": subject, "rater": rater, "cause": cause, "value": value}
        # As emit appends, without the keyword dict.
        self.events.append(tuple.__new__(SimEvent, (self.tick, "rating_issued", payload)))

    def _validate_unit(self, wu: WorkUnit, members: List[str],
                       consensus: List[str], correct: bool) -> None:
        """Close `wu`, validated with the results of `consensus`: credit
        them, log it, and count the unit as no longer open.  The count
        goes last, so a commit that raises changes nothing."""
        credit = self.credits.get(wu.complexity)
        if credit is None:
            credit = self.credits[wu.complexity] = (
                self.config.base_credit_millis * wu.complexity)
        block = self.ledger.commit(wu.id, credit, consensus, self.tick)
        allocations = block.allocations
        if len(allocations) == 1:  # every centralized block
            shared = self.allocation_dicts.get(allocations)
            if shared is None:
                shared = self.allocation_dicts[allocations] = dict(allocations)
        else:
            shared = dict(allocations)
        self.emit("credit_committed", wu=wu.id, allocations=shared)
        self.emit("wu_validated", wu=wu.id, members=members, consensus=consensus,
                  group_size=len(members), correct=correct,
                  complexity=wu.complexity, credit=credit)
        self.open_wus -= 1

    def _validate_centralized(self) -> None:
        for wu, result, agent_id in self._routed:
            solo = self.solo[agent_id]
            self._validate_unit(wu, solo, solo, result == CORRECT)
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
            if assignment.community is not None:
                self.community_load[assignment.community] -= 1

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
        # Only a completed outcome has a result.  A consensus of every
        # member is the members list itself, which wu_issued logged too.
        consensus = [m for m in members if outcomes[m].result == token]
        if len(consensus) == len(members):
            consensus = members
        self._validate_unit(wu, members, consensus, token == CORRECT)

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
                           and not self.community_load.get(comm.id))
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
