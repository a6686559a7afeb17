"""Distribution-strategy unit tests over synthetic candidate pools."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from tdgsim.distribution import (Candidate, FallbackToDRDS, ReplicaGroup,
                                 SelectionFailed, dgds_select, dods_assign,
                                 drds_select, random_baseline_select)

# The trust classes, as trust.classify returns them.
U, T, D = "untrusted", "trusted", "undecided"


def cand(name, f_min=2, cls=D):
    return Candidate(agent=name, f_min=f_min, trust_class=cls)


# ---------------------------------------------------------------- DRDS

def test_drds_group_is_initiator_plus_f_min_others():
    pool = [cand(f"a{i}", f_min=3) for i in range(10)]
    group = drds_select(pool, random.Random(1))
    assert len(group.members) == 4
    assert len(set(group.members)) == 4
    assert not group.short


def test_drds_clamps_and_flags_short():
    pool = [cand("a", f_min=5), cand("b", f_min=5), cand("c", f_min=5)]
    group = drds_select(pool, random.Random(0))
    assert set(group.members) == {"a", "b", "c"}
    assert group.short


def test_drds_needs_two_free_candidates():
    with pytest.raises(SelectionFailed):
        drds_select([], random.Random(0))
    with pytest.raises(SelectionFailed):
        drds_select([cand("a")], random.Random(0))


def test_drds_deterministic_for_seed():
    pool = [cand(f"a{i}", f_min=2) for i in range(8)]
    g1 = drds_select(pool, random.Random(9))
    g2 = drds_select(pool, random.Random(9))
    assert g1 == g2


def drds_by_copy(pool, rng):
    """DRDS drawn from a copy of the pool without the initiator's slot."""
    i = rng.randrange(len(pool))
    initiator = pool[i]
    others = pool[:i] + pool[i + 1:]
    take = min(initiator.f_min, len(others))
    chosen = rng.sample(others, take)
    return ReplicaGroup((initiator.agent,) + tuple(c.agent for c in chosen),
                        take < initiator.f_min)


# Pools of 2 to 60 cross random.sample's 21-item threshold (k <= 5), and
# f_min 1 to 8 crosses its k > 5 threshold, so both of its draw paths run.
@settings(max_examples=300)
@given(st.integers(2, 60).flatmap(
           lambda n: st.lists(st.integers(1, 8), min_size=n, max_size=n)),
       st.integers(0, 2**32 - 1))
def test_drds_samples_slots_exactly_as_it_sampled_a_copy(f_mins, seed):
    pool = [cand(f"a{i}", f_min=f) for i, f in enumerate(f_mins)]
    rng, ref = random.Random(seed), random.Random(seed)
    assert drds_select(pool, rng) == drds_by_copy(pool, ref)
    assert rng.getstate() == ref.getstate()


# ---------------------------------------------------------------- DODS

def test_dods_ordered_fill_with_deferral():
    # f_min values 2,2,3,3,4: the first group closes at {A,B,C,D} because
    # its largest f_min (3) is satisfied by 4 members; E alone cannot
    # close a group, so the second WU is deferred.
    pool = [cand("A", 2), cand("B", 2), cand("C", 3), cand("D", 3), cand("E", 4)]
    group = dods_assign(pool)
    assert group.members == ("A", "B", "C", "D")
    assert not group.short
    with pytest.raises(SelectionFailed):
        dods_assign([cand("E", 4)])


def test_dods_allow_short_closes_remainder():
    # A pool that cannot complete its group gives it flagged short; whether
    # a short group is issued is the engine's rule (allow_short_groups), as
    # for every strategy.  A single agent is no group at all.
    pool = [cand("A", 2), cand("B", 2), cand("C", 3), cand("D", 3), cand("E", 4)]
    assert dods_assign(pool) == ReplicaGroup(("A", "B", "C", "D"), False)
    with pytest.raises(SelectionFailed):
        dods_assign([cand("E", 4)])
    pool.append(cand("F", 1))
    assert dods_assign(pool) == ReplicaGroup(("F", "A", "B"), False)
    group = dods_assign([cand("C", 3), cand("D", 3), cand("E", 4)])
    assert group == ReplicaGroup(("C", "D", "E"), True)


def test_dods_sorts_ties_by_agent_id():
    pool = [cand("b", 1), cand("a", 1), cand("c", 1)]
    assert dods_assign(pool).members == ("a", "b")


def test_dods_empty_pool_fails():
    with pytest.raises(SelectionFailed):
        dods_assign([])


# ---------------------------------------------------------------- DGDS

def make_pool(n_untrusted, n_trusted, n_undecided, f_untrusted=5, f_trusted=2):
    pool = []
    pool += [cand(f"u{i}", f_untrusted, U)
             for i in range(n_untrusted)]
    pool += [cand(f"t{i}", f_trusted, T)
             for i in range(n_trusted)]
    pool += [cand(f"m{i}", 3, D)
             for i in range(n_undecided)]
    return pool


def classify_members(pool, group):
    classes = {c.agent: c.trust_class for c in pool}
    counts = {cls: 0 for cls in (U, T, D)}
    for m in group.members:
        counts[classes[m]] += 1
    return counts


def test_dgds_untrusted_initiator_with_matching_trusted():
    # An untrusted initiator with f_min = 5 brings along up to
    # (5-1)//2 = 2 more untrusted agents, each matched by a trusted one:
    # 3 untrusted + 3 trusted = group of 6.
    pool = make_pool(5, 5, 0)
    group = dgds_select(pool, random.Random(3))
    counts = classify_members(pool, group)
    assert counts[U] == 3
    assert counts[T] == 3
    assert len(group.members) == 6
    assert group.initiator.startswith("u")


def test_dgds_tops_up_with_undecided():
    pool = make_pool(1, 1, 6, f_untrusted=5)
    group = dgds_select(pool, random.Random(1))
    counts = classify_members(pool, group)
    assert counts[U] == 1
    assert counts[T] == 1
    assert len(group.members) == 6  # 1 + max f_min


class FirstPick:
    """An rng whose getrandbits gives `answers` in turn, each one chosen so
    that the draw takes the first agent left in its class list.  A pop
    takes the slot drawn, so 0 is always first; `sample_indices` moves its
    last live slot into each slot it draws, so from 4 slots it takes 0, 1
    and 2, in that order, by drawing 0, 1 and 1."""

    def __init__(self, *answers):
        self.answers = list(answers)

    def getrandbits(self, k):
        return self.answers.pop(0)


def test_dgds_keeps_pool_order_within_each_class():
    pool = [cand("d0", 3, D), cand("u0", 5, U), cand("t0", 2, T),
            cand("d1", 3, D), cand("t1", 2, T), cand("u1", 5, U),
            cand("u2", 5, U), cand("t2", 2, T), cand("d2", 3, D),
            cand("t3", 2, T), cand("u3", 5, U), cand("d3", 3, D)]
    # f_min 5 brings (5 - 1) // 2 = 2 extra untrusted, each matched by a
    # trusted agent; first picks are first in pool order within a class.
    rng = FirstPick(0, 0, 0, 0, 1, 1)  # three untrusted pops, one sample of 3
    group = dgds_select(pool, rng)
    assert group.members == ("u0", "u1", "u2", "t0", "t1", "t2")
    assert group.initiator == "u0"
    assert rng.answers == []
    # f_min 1 brings no extra untrusted; t0's f_min 4 is met by topping up
    # with the first three undecided agents.
    pool = [cand("d0", 3, D), cand("t0", 4, T), cand("u0", 1, U),
            cand("d1", 3, D), cand("u1", 1, U), cand("d2", 3, D),
            cand("t1", 4, T), cand("d3", 3, D)]
    rng = FirstPick(0, 0, 0, 0, 0)  # an untrusted pop, a sample of 1, three pops
    group = dgds_select(pool, rng)
    assert group.members == ("u0", "t0", "d0", "d1", "d2")
    assert rng.answers == []


CLASS_RANK = {U: 0, T: 1, D: 2}


@settings(max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(list(CLASS_RANK)),
                          st.integers(1, 8)), max_size=40),
       st.integers(0, 2**32 - 1))
def test_dgds_group_depends_only_on_each_class_in_pool_order(entries, seed):
    # The three-comprehension split: a pool interleaving the classes gives
    # the same group as the pool sorted by class, stably.
    pool = [cand(f"a{i}", f, cls) for i, (cls, f) in enumerate(entries)]
    by_class = sorted(pool, key=lambda c: CLASS_RANK[c.trust_class])

    def select(p):
        try:
            return dgds_select(p, random.Random(seed))
        except FallbackToDRDS as exc:  # its only failure: no group is below 2
            return type(exc)

    assert select(pool) == select(by_class)


def test_dgds_falls_back_without_partition():
    with pytest.raises(FallbackToDRDS):
        dgds_select(make_pool(0, 4, 4), random.Random(0))
    with pytest.raises(FallbackToDRDS):
        dgds_select(make_pool(4, 0, 4), random.Random(0))


def test_dgds_caps_untrusted_to_available_trusted():
    pool = make_pool(6, 2, 0, f_untrusted=7)
    group = dgds_select(pool, random.Random(5))
    counts = classify_members(pool, group)
    assert counts[U] <= counts[T]


@settings(max_examples=300)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 8),
       st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_dgds_untrusted_never_outnumber_trusted(nu, nt, nd, fu, ft, seed):
    pool = make_pool(nu, nt, nd, f_untrusted=fu, f_trusted=ft)
    group = dgds_select(pool, random.Random(seed))  # both classes: no fallback
    counts = classify_members(pool, group)
    assert counts[U] <= counts[T]


# ------------------------------------------------------- random baseline

def test_random_baseline_fixed_size():
    pool = [cand(f"a{i}") for i in range(10)]
    group = random_baseline_select(pool, 4, random.Random(2))
    assert len(group.members) == 4
    assert len(set(group.members)) == 4


def test_random_baseline_requires_enough_candidates():
    pool = [cand("a"), cand("b")]
    with pytest.raises(SelectionFailed):
        random_baseline_select(pool, 3, random.Random(0))
    with pytest.raises(SelectionFailed):
        random_baseline_select(pool, 0, random.Random(0))
