"""Trust-community lifecycle tests: formation, failover, operation,
dissolution and the replay of each from the event log."""
from hypothesis import given, settings, strategies as st

from tdgsim.community import (_best_invites, dissolve_check, elect_tcm,
                              evaluate_formation, join_decision, operate_tick,
                              rank_invitees)
from tdgsim.config import Params

from community_log import fold, new_community, state

PARAMS = Params()


def formed_community(n=6, tick=10, events=None):
    comm = new_community([] if events is None else events)
    joiners = [f"a{i}" for i in range(n)]
    comm.form(tick, joiners, {"w0": 0.9, **{a: 0.8 for a in joiners}})
    return comm


# ------------------------------------------------------------ lifecycle

def test_formation_path_reaches_operation():
    events = []
    comm = formed_community(n=2, events=events)
    assert comm.tcm == "w0"  # first election goes to the founder
    assert comm.members == {"w0": 10, "a0": 10, "a1": 10}
    assert comm.peak_size == 3
    # One step: formation, the founder and joiners by id, operation, the
    # founder elected, all on the formation tick.
    assert [(e.tick, e.payload["kind"], e.payload["agent"], e.payload["detail"])
            for e in events] == [
        (10, "phase", "", "pre_organisation->formation"),
        (10, "joined", "w0", ""), (10, "joined", "a0", ""), (10, "joined", "a1", ""),
        (10, "phase", "", "formation->operation"),
        (10, "tcm_elected", "w0", "")]


# ------------------------------------------------------------ formation

def test_evaluate_formation_below_quorum_returns_the_short_list():
    # The quorum is tested once, by the engine, against the agents that join.
    ranked = rank_invitees([(f"a{i}", 0.9) for i in range(PARAMS.min_size - 1)], PARAMS)
    assert len(ranked) < PARAMS.quorum
    assert evaluate_formation(ranked, set(), PARAMS) == ranked
    assert evaluate_formation([], set(), PARAMS) == []


def test_evaluate_formation_filters_and_sorts():
    reps = {"low": 0.3, "mid": 0.75, "hi": 0.95, "b": 0.8, "a": 0.8, "c": 0.9}
    ranked = rank_invitees(reps.items(), PARAMS)
    assert ranked == ["hi", "c", "a", "b", "mid"]  # tau desc, ties by id
    # A member of any community is not invited.
    assert evaluate_formation(ranked, {"c", "w1"}, PARAMS) == ["hi", "a", "b", "mid"]


def test_evaluate_formation_caps_at_max_size():
    ranked = rank_invitees([(f"a{i:02d}", 0.9) for i in range(30)], PARAMS)
    invites = evaluate_formation(ranked, set(), PARAMS)
    assert invites == ranked[:PARAMS.max_size]


def parent_best_invites(taus, members, declined, n, threshold):
    """The rule invitation lists followed before they were cut from one
    ranking: the agents of `taus` in no community, then filtered by the
    threshold and `declined` and sorted, on every call."""
    outsiders = {a: tau for a, tau in taus.items() if a not in members}
    ranked = sorted((-tau, a) for a, tau in outsiders.items()
                    if tau >= threshold and a not in declined)
    return [a for _, a in ranked[:n]]


AGENTS = [f"a{i}" for i in range(12)]
TAUS = st.one_of(st.sampled_from([0.0, 0.5, 0.7, 0.8, 1.0]), st.floats(0, 1))


@settings(max_examples=300)
@given(st.dictionaries(st.sampled_from(AGENTS), TAUS), st.sets(st.sampled_from(AGENTS)),
       st.sets(st.sampled_from(AGENTS)), st.integers(0, 14), TAUS)
def test_best_invites_from_one_ranking_match_a_sort_per_call(taus, members, declined,
                                                             n, threshold):
    params = Params(join_threshold=threshold)
    ranked = rank_invitees(taus.items(), params)
    assert _best_invites(ranked, n, members, declined) == parent_best_invites(
        taus, members, declined, n, threshold)


def test_join_decision():
    assert join_decision(False, inside_share=30.0, outside_share=25.0)
    assert not join_decision(False, inside_share=25.0, outside_share=25.0)
    assert not join_decision(True, inside_share=100.0, outside_share=1.0)


# ------------------------------------------------------------- election

def test_failover_prefers_longest_serving_then_id():
    events = []
    comm = formed_community(tick=10, events=events)
    comm.add_member("z_late", 20, 0.9)
    availability = {m: m != "w0" for m in comm.members}
    winner = elect_tcm(comm, availability, 30)
    assert winner == "a0"  # joined tick 10, smallest id among those
    assert comm.tcm == "a0"
    kinds = [e.payload["kind"] for e in events[-2:]]
    assert kinds == ["tcm_failed", "tcm_elected"]
    assert all(e.kind == "tc_event" and e.tick == 30
               and e.payload["community"] == "tc0" for e in events[-2:])


def test_no_available_member_triggers_dissolution():
    events = []
    comm = formed_community(events=events)
    assert elect_tcm(comm, {}, 11) is None
    # The failure is logged, and no one is elected: the engine dissolves.
    assert [(e.tick, e.payload["kind"], e.payload["agent"]) for e in events[-1:]] == [
        (11, "tcm_failed", "w0")]


# ------------------------------------------------------------ operation

def test_operate_tick_evicts_and_invites():
    comm = formed_community()
    reps = {m: 0.8 for m in comm.members}
    reps["a1"] = 0.45           # below evict threshold
    comm.join_tau["a2"] = 0.95  # dropped by more than drop_delta
    reps["a2"] = 0.7
    ranked = rank_invitees([("new1", 0.9), ("weak", 0.4)], PARAMS)
    evict, invite = operate_tick(comm, reps, ranked, PARAMS)
    assert "a1" in evict
    assert "a2" in evict
    assert "new1" in invite
    assert "weak" not in invite


def test_operate_tick_never_evicts_the_manager():
    comm = formed_community()
    reps = {m: 0.1 for m in comm.members}
    evict, _ = operate_tick(comm, reps, (), PARAMS)
    evicted = set(evict)
    assert comm.tcm not in evicted
    assert evicted == set(comm.members) - {comm.tcm}


def test_operate_tick_respects_max_size_and_declines():
    comm = formed_community()
    comm.declined.add("shy")
    comm.live_members.add("o00")  # a member of another community
    ranked = rank_invitees([("shy", 0.99)] + [(f"o{i:02d}", 0.9) for i in range(40)],
                           PARAMS)
    _, invites = operate_tick(comm, {m: 0.8 for m in comm.members}, ranked, PARAMS)
    assert len(invites) == PARAMS.max_size - len(comm.members)
    assert invites[0] == "o01" and "shy" not in invites


# ----------------------------------------------------------- dissolution

def test_dissolve_check_triggers():
    comm = formed_community(n=6)
    assert not dissolve_check(comm, PARAMS, queue_exhausted=False)
    assert dissolve_check(comm, PARAMS, queue_exhausted=True)
    for a in ["a0", "a1", "a2"]:
        comm.remove_member(a, 11, "left")
    # 4 members left: below both min_size and half of the peak of 7
    assert dissolve_check(comm, PARAMS, queue_exhausted=False)


# --------------------------------------------------------------- replay

def test_replay_rebuilds_live_state():
    events = []
    comm = formed_community(events=events)
    comm.remove_member("a3", 12, "evicted")
    comm.add_member("late", 13, 0.85)
    elect_tcm(comm, {m: m != "w0" for m in comm.members}, 14)
    assert comm.tcm == "a0" and comm.members["late"] == 13
    assert fold(events) == state(comm)


def test_replay_after_dissolution():
    events = []
    comm = formed_community(events=events)
    comm.dissolve(20)
    replayed = fold(events)
    assert replayed["phase"] == "dissolved"
    assert replayed["members"] == {}
    assert replayed["tcm"] is None
    assert replayed["peak_size"] == 7
