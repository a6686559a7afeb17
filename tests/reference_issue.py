"""Queue draining as it was before a drain skipped selections that cannot
form a group: every group, whatever the pool's size, is selected from a
fresh copy of the pool, and dgds splits the pool again for every group,
falling back to drds each time it lacks a trusted/untrusted pair.

`drain_queue` and `select_group` are `World._drain_queue` and
`World._select_group` of that version, taking the World as their first
argument.  `test_issuance.py` drains random queues through both and
compares the groups, the events, the pools left and both rngs' states."""
from __future__ import annotations

from typing import Deque, Dict, List, Optional

from tdgsim.distribution import (Candidate, FallbackToDRDS, ReplicaGroup,
                                 SelectionFailed, dgds_select, dods_assign,
                                 drds_select, random_baseline_select)
from tdgsim.engine import _REJECTED, Assignment, WorkUnit
from tdgsim.trust import classify, roulette_round


def drain_queue(world, queue: Deque[WorkUnit], pool: Dict[str, Candidate],
                distributor: str, community: Optional[str]) -> None:
    params = world.config.params
    retries = 0
    while queue and retries <= len(queue):
        wu = queue[0]
        try:
            group = select_group(world, list(pool.values()))
        except SelectionFailed:
            break
        if group.short and not params.allow_short_groups:
            break
        queue.popleft()
        accepted = []
        for member in group.members:
            agent = world.agents[member]
            if world.rng_accept.random() < agent.accept_prob:
                accepted.append(member)
            else:
                world.emit("wu_rejected", wu=wu.id, agent=member)
                world._rate(member, _REJECTED, rater=distributor)
                pool[member] = Candidate(member, pool[member].f_min,
                                         classify(world.store.tau(member)))
        if len(accepted) < 2:
            queue.append(wu)
            retries += 1
            continue
        for member in accepted:
            world._assign_wu(world.agents[member], wu)
            del pool[member]
        world.assignments[wu.id] = Assignment(
            wu=wu, members=tuple(accepted), distributor=distributor,
            community=community)
        world.emit("wu_issued", wu=wu.id, members=list(accepted),
                   initiator=group.initiator, distributor=distributor,
                   group_size=len(accepted), complexity=wu.complexity,
                   short=group.short)


def select_group(world, candidates: List[Candidate]) -> ReplicaGroup:
    strategy = world.config.strategy
    params = world.config.params
    if strategy == "random":
        size = roulette_round(params.random_replication, world.rng_issue)
        return random_baseline_select(candidates, max(size, 1), world.rng_issue)
    if strategy == "dods":
        return dods_assign(candidates)
    if strategy == "dgds":
        try:
            return dgds_select(candidates, world.rng_issue,
                               same_amount_total=params.dgds_same_amount == "total")
        except FallbackToDRDS:
            return drds_select(candidates, world.rng_issue)
    return drds_select(candidates, world.rng_issue)
