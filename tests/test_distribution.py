"""Distribution-strategy unit tests over synthetic candidate pools."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from tdgsim.distribution import (Candidate, FallbackToDRDS, SelectionFailed,
                                 dgds_select, dods_assign, drds_select,
                                 random_baseline_select)
from tdgsim.trust import TrustClass


def cand(name, f_min=2, tau=0.5, cls=TrustClass.UNDECIDED):
    return Candidate(agent=name, tau=tau, f_min=f_min, trust_class=cls)


# ---------------------------------------------------------------- DRDS

def test_drds_group_is_initiator_plus_f_min_others():
    pool = [cand(f"a{i}", f_min=3) for i in range(10)]
    group = drds_select(pool, random.Random(1), wu="wu0")
    assert len(group.members) == 4
    assert group.members[0] == group.initiator
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
    g1 = drds_select(pool, random.Random(9), wu="w")
    g2 = drds_select(pool, random.Random(9), wu="w")
    assert g1 == g2


# ---------------------------------------------------------------- DODS

def test_dods_ordered_fill_with_deferral():
    # f_min values 2,2,3,3,4: the first group closes at {A,B,C,D} because
    # its largest f_min (3) is satisfied by 4 members; E alone cannot
    # close a group, so the second WU is deferred.
    pool = [cand("A", 2), cand("B", 2), cand("C", 3), cand("D", 3), cand("E", 4)]
    group = dods_assign(pool, "wu1")
    assert group.wu == "wu1"
    assert group.members == ("A", "B", "C", "D")
    assert not group.short
    with pytest.raises(SelectionFailed):
        dods_assign([cand("E", 4)], "wu2")


def test_dods_allow_short_closes_remainder():
    pool = [cand("A", 2), cand("B", 2), cand("C", 3), cand("D", 3), cand("E", 4)]
    assert dods_assign(pool, "wu1", allow_short=True).members == ("A", "B", "C", "D")
    with pytest.raises(SelectionFailed):  # a single agent still cannot form a group
        dods_assign([cand("E", 4)], "wu2", allow_short=True)
    pool.append(cand("F", 1))
    assert dods_assign(pool, "wu1", allow_short=True).members == ("F", "A", "B")
    group = dods_assign([cand("C", 3), cand("D", 3), cand("E", 4)], "wu2",
                        allow_short=True)
    assert group.members == ("C", "D", "E")
    assert group.short


def test_dods_sorts_ties_by_agent_id():
    pool = [cand("b", 1), cand("a", 1), cand("c", 1)]
    assert dods_assign(pool, "w1").members == ("a", "b")


def test_dods_empty_pool_fails():
    with pytest.raises(SelectionFailed):
        dods_assign([], "w")


# ---------------------------------------------------------------- DGDS

def make_pool(n_untrusted, n_trusted, n_undecided, f_untrusted=5, f_trusted=2):
    pool = []
    pool += [cand(f"u{i}", f_untrusted, 0.2, TrustClass.UNTRUSTED)
             for i in range(n_untrusted)]
    pool += [cand(f"t{i}", f_trusted, 0.9, TrustClass.TRUSTED)
             for i in range(n_trusted)]
    pool += [cand(f"m{i}", 3, 0.5, TrustClass.UNDECIDED)
             for i in range(n_undecided)]
    return pool


def classify_members(pool, group):
    classes = {c.agent: c.trust_class for c in pool}
    counts = {cls: 0 for cls in TrustClass}
    for m in group.members:
        counts[classes[m]] += 1
    return counts


def test_dgds_untrusted_initiator_with_matching_trusted():
    # An untrusted initiator with f_min = 5 brings along up to
    # (5-1)//2 = 2 more untrusted agents, each matched by a trusted one:
    # 3 untrusted + 3 trusted = group of 6.
    pool = make_pool(5, 5, 0)
    group = dgds_select(pool, random.Random(3), wu="wu")
    counts = classify_members(pool, group)
    assert counts[TrustClass.UNTRUSTED] == 3
    assert counts[TrustClass.TRUSTED] == 3
    assert len(group.members) == 6
    assert group.initiator.startswith("u")


def test_dgds_tops_up_with_undecided():
    pool = make_pool(1, 1, 6, f_untrusted=5)
    group = dgds_select(pool, random.Random(1))
    counts = classify_members(pool, group)
    assert counts[TrustClass.UNTRUSTED] == 1
    assert counts[TrustClass.TRUSTED] == 1
    assert len(group.members) == 6  # 1 + max f_min


def test_dgds_falls_back_without_partition():
    with pytest.raises(FallbackToDRDS):
        dgds_select(make_pool(0, 4, 4), random.Random(0))
    with pytest.raises(FallbackToDRDS):
        dgds_select(make_pool(4, 0, 4), random.Random(0))


def test_dgds_caps_untrusted_to_available_trusted():
    pool = make_pool(6, 2, 0, f_untrusted=7)
    group = dgds_select(pool, random.Random(5))
    counts = classify_members(pool, group)
    assert counts[TrustClass.UNTRUSTED] <= counts[TrustClass.TRUSTED]


@settings(max_examples=300)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 8),
       st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_dgds_untrusted_never_outnumber_trusted(nu, nt, nd, fu, ft, seed):
    pool = make_pool(nu, nt, nd, f_untrusted=fu, f_trusted=ft)
    try:
        group = dgds_select(pool, random.Random(seed))
    except (FallbackToDRDS, SelectionFailed):
        return
    counts = classify_members(pool, group)
    assert counts[TrustClass.UNTRUSTED] <= counts[TrustClass.TRUSTED]


# ------------------------------------------------------- random baseline

def test_random_baseline_fixed_size():
    pool = [cand(f"a{i}") for i in range(10)]
    group = random_baseline_select(pool, 4, random.Random(2), wu="w")
    assert len(group.members) == 4
    assert len(set(group.members)) == 4


def test_random_baseline_requires_enough_candidates():
    pool = [cand("a"), cand("b")]
    with pytest.raises(SelectionFailed):
        random_baseline_select(pool, 3, random.Random(0))
    with pytest.raises(SelectionFailed):
        random_baseline_select(pool, 0, random.Random(0))
