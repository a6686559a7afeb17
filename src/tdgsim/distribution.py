"""Replica-group selection strategies over a pool of candidate agents.

All strategies are pure functions of an immutable pool snapshot plus an
rng stream owned by the caller; same pool + seed gives identical groups.
"""
from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

from .trust import TRUSTED, UNDECIDED, UNTRUSTED


class SelectionFailed(Exception):
    """The pool cannot satisfy the strategy; the WU is deferred a round."""


class FallbackToDRDS(Exception):
    """DGDS precondition unmet (no trusted or no untrusted candidate)."""


# Tuples, not frozen dataclasses: the engine builds one Candidate per idle
# agent per tick and one ReplicaGroup per selection, and a frozen
# dataclass pays a setattr call per field.
class Candidate(NamedTuple):
    agent: str
    tau: float
    f_min: int  # pre-drawn via effective_f_min
    trust_class: str  # as trust.classify returns it


class ReplicaGroup(NamedTuple):
    members: Tuple[str, ...]
    initiator: str
    short: bool = False  # availability clamped the group below its target size


def drds_select(pool: Sequence[Candidate], rng) -> ReplicaGroup:
    """Random initiator; its f_min picks that many other random agents.

    If fewer agents exist than f_min requires, the group is clamped to
    what is available and flagged short.  The pool holds one candidate per
    agent, so the others are the pool without the initiator's slot.  They
    are drawn as pool slots, not copied: slot j of the others is pool slot
    j, or j + 1 from the initiator's on.  `random.sample` draws from the
    population's length and k alone, so sampling range(n - 1) picks the
    same members, with the same draws, as sampling a copy of the others.
    """
    n = len(pool)
    if n < 2:
        raise SelectionFailed(f"need at least 2 candidates, have {n}")
    i = rng.randrange(n)
    initiator = pool[i]
    take = min(initiator.f_min, n - 1)
    members = [initiator.agent]
    for j in rng.sample(range(n - 1), take):
        members.append(pool[j + (j >= i)].agent)
    return ReplicaGroup(tuple(members), initiator.agent, take < initiator.f_min)


def dods_assign(pool: Sequence[Candidate]) -> ReplicaGroup:
    """Ordered strategy: sort by f_min, fill the group until the highest
    f_min inside it is satisfied (a fixed point, since joining agents can
    raise the maximum).

    A group the pool cannot complete is flagged short, as by the other
    strategies; fewer than 2 members is no group.
    """
    group: List[Candidate] = []
    max_f = 0
    for c in sorted(pool, key=lambda c: (c.f_min, c.agent)):
        if len(group) >= 1 + max_f:
            break
        group.append(c)
        max_f = max(max_f, c.f_min)
    if len(group) < 2:
        raise SelectionFailed(f"dods group of {len(group)} cannot reach {1 + max_f}")
    return ReplicaGroup(tuple(c.agent for c in group), group[0].agent, len(group) < 1 + max_f)


def dgds_select(pool: Sequence[Candidate], rng,
                same_amount_total: bool = True) -> ReplicaGroup:
    """Grouping strategy: pair untrusted picks with at least as many
    trusted ones, then top up with undecided agents until the group's
    highest f_min is satisfied.

    Untrusted members can never outnumber trusted ones, so they cannot
    form a majority in the group.
    """
    untrusted: List[Candidate] = []
    trusted: List[Candidate] = []
    undecided: List[Candidate] = []
    for c in pool:  # one pass; each class keeps pool order
        cls = c.trust_class
        if cls == UNTRUSTED:
            untrusted.append(c)
        elif cls == TRUSTED:
            trusted.append(c)
        elif cls == UNDECIDED:
            undecided.append(c)
    if not untrusted or not trusted:
        raise FallbackToDRDS("pool lacks a trusted/untrusted partition")

    picked_u = [untrusted.pop(rng.randrange(len(untrusted)))]
    max_f = picked_u[0].f_min
    # Extra untrusted picks, capped so enough trusted agents remain to
    # match the total untrusted count.
    while True:
        k_target = (max_f - 1) // 2
        extra = len(picked_u) - 1
        if extra >= k_target or not untrusted:
            break
        if same_amount_total and len(picked_u) + 1 > len(trusted):
            break
        nxt = untrusted.pop(rng.randrange(len(untrusted)))
        picked_u.append(nxt)
        max_f = max(max_f, nxt.f_min)

    n_trusted = len(picked_u) if same_amount_total else max(len(picked_u) - 1, 1)
    n_trusted = min(n_trusted, len(trusted))
    if same_amount_total:
        while len(picked_u) > n_trusted:  # keep untrusted <= trusted
            picked_u.pop()
    picked_t = rng.sample(trusted, n_trusted)

    group = picked_u + picked_t
    max_f = max(c.f_min for c in group)
    while len(group) < 1 + max_f and undecided:
        nxt = undecided.pop(rng.randrange(len(undecided)))
        group.append(nxt)
        max_f = max(max_f, nxt.f_min)
    if len(group) < 2:
        raise SelectionFailed("dgds group smaller than 2")
    return ReplicaGroup(tuple(c.agent for c in group), picked_u[0].agent,
                        len(group) < 1 + max_f)


def random_baseline_select(pool: Sequence[Candidate], replication: int,
                           rng) -> ReplicaGroup:
    """Control condition: uniform group of a fixed size, no trust input."""
    if replication < 1:
        raise SelectionFailed(f"replication {replication} must be >= 1")
    if len(pool) < replication:
        raise SelectionFailed(f"need {replication} candidates, have {len(pool)}")
    chosen = rng.sample(pool, replication)
    return ReplicaGroup(tuple(c.agent for c in chosen), chosen[0].agent)
