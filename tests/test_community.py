"""Trust-community lifecycle state-machine tests."""
import pytest

from tdgsim.community import (ALLOWED_TRANSITIONS, DissolutionTriggered,
                              EventKind, Evict, Invite, Phase, StateError,
                              dissolve_check, elect_tcm, evaluate_formation,
                              handle_tcm_failure, join_decision, operate_tick)
from tdgsim.config import Params

from community_log import fold, new_community, state

PARAMS = Params()


def formed_community(n=6, tick=10, events=None):
    comm = new_community([] if events is None else events)
    joiners = [f"a{i}" for i in range(n)]
    comm.form(tick, joiners, {a: 0.8 for a in joiners}, founder_tau=0.9)
    elect_tcm(comm, {m: True for m in comm.members}, tick)
    return comm


# ------------------------------------------------------------ lifecycle

def test_formation_path_reaches_operation():
    comm = formed_community()
    assert comm.phase is Phase.OPERATION
    assert comm.tcm == "w0"  # first election goes to the founder
    assert "w0" in comm.members
    assert comm.peak_size == 7


def test_form_requires_pre_organisation():
    comm = formed_community()
    with pytest.raises(StateError):
        comm.form(20, ["x"], {"x": 0.8})


def test_cannot_dissolve_from_pre_organisation():
    comm = new_community([])
    with pytest.raises(StateError):
        comm.dissolve(1)


def test_formation_may_abort_to_dissolved():
    assert (Phase.FORMATION, Phase.DISSOLVED) in ALLOWED_TRANSITIONS
    comm = new_community([])
    comm.form(1, ["a", "b"], {"a": 0.8, "b": 0.8})
    comm.dissolve(2)
    assert comm.phase is Phase.DISSOLVED
    assert not comm.members


def test_dissolved_is_terminal():
    comm = formed_community()
    comm.dissolve(11)
    with pytest.raises(StateError):
        comm._transition(Phase.OPERATION, 12)


# ------------------------------------------------------------ formation

def test_evaluate_formation_below_quorum_is_none():
    reps = {f"a{i}": 0.9 for i in range(PARAMS.min_size - 1)}
    assert evaluate_formation("w0", reps, PARAMS) is None


def test_evaluate_formation_filters_and_sorts():
    reps = {"low": 0.3, "mid": 0.75, "hi": 0.95, "b": 0.8, "a": 0.8,
            "c": 0.9, "w0": 1.0}
    invites = evaluate_formation("w0", reps, PARAMS)
    assert invites == ["hi", "c", "a", "b", "mid"]  # tau desc, ties by id
    assert "w0" not in invites and "low" not in invites


def test_evaluate_formation_caps_at_max_size():
    reps = {f"a{i:02d}": 0.9 for i in range(30)}
    invites = evaluate_formation("w0", reps, PARAMS)
    assert len(invites) == PARAMS.max_size


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
    winner = handle_tcm_failure(comm, availability, 30)
    assert winner == "a0"  # joined tick 10, smallest id among those
    assert comm.tcm == "a0"
    kinds = [e.payload["kind"] for e in events[-2:]]
    assert kinds == [EventKind.TCM_FAILED.value, EventKind.TCM_ELECTED.value]
    assert all(e.kind == "tc_event" and e.tick == 30
               and e.payload["community"] == "tc0" for e in events[-2:])


def test_no_available_member_triggers_dissolution():
    comm = formed_community()
    with pytest.raises(DissolutionTriggered):
        elect_tcm(comm, {}, 11)


def test_failover_outside_operation_is_an_error():
    comm = new_community([])
    with pytest.raises(StateError):
        handle_tcm_failure(comm, {}, 1)


# ------------------------------------------------------------ operation

def test_operate_tick_evicts_and_invites():
    comm = formed_community()
    reps = {m: 0.8 for m in comm.members}
    reps["a1"] = 0.45           # below evict threshold
    comm.join_tau["a2"] = 0.95  # dropped by more than drop_delta
    reps["a2"] = 0.7
    outsiders = {"new1": 0.9, "weak": 0.4}
    actions = operate_tick(comm, reps, outsiders, PARAMS, 11)
    assert Evict("a1") in actions
    assert Evict("a2") in actions
    assert Invite("new1") in actions
    assert Invite("weak") not in actions


def test_operate_tick_never_evicts_the_manager():
    comm = formed_community()
    reps = {m: 0.1 for m in comm.members}
    actions = operate_tick(comm, reps, {}, PARAMS, 11)
    evicted = {a.agent for a in actions if isinstance(a, Evict)}
    assert comm.tcm not in evicted
    assert evicted == set(comm.members) - {comm.tcm}


def test_operate_tick_respects_max_size_and_declines():
    comm = formed_community()
    comm.declined.add("shy")
    outsiders = {f"o{i:02d}": 0.9 for i in range(40)}
    outsiders["shy"] = 0.99
    actions = operate_tick(comm, {m: 0.8 for m in comm.members},
                           outsiders, PARAMS, 11)
    invites = [a for a in actions if isinstance(a, Invite)]
    assert len(invites) == PARAMS.max_size - len(comm.members)
    assert all(a.agent != "shy" for a in invites)


# ----------------------------------------------------------- dissolution

def test_dissolve_check_triggers():
    comm = formed_community(n=6)
    assert not dissolve_check(comm, PARAMS, queue_exhausted=False)
    assert dissolve_check(comm, PARAMS, queue_exhausted=True)
    for a in ["a0", "a1", "a2"]:
        comm.remove_member(a, 11, EventKind.LEFT)
    # 4 members left: below both min_size and half of the peak of 7
    assert dissolve_check(comm, PARAMS, queue_exhausted=False)


def test_dissolve_check_requires_operation():
    comm = new_community([])
    with pytest.raises(StateError):
        dissolve_check(comm, PARAMS, queue_exhausted=False)


# --------------------------------------------------------------- replay

def test_replay_rebuilds_live_state():
    events = []
    comm = formed_community(events=events)
    comm.remove_member("a3", 12, EventKind.EVICTED)
    comm.add_member("late", 13, 0.85)
    handle_tcm_failure(comm, {m: m != "w0" for m in comm.members}, 14)
    assert comm.tcm == "a0" and comm.members["late"] == 13
    assert fold(events) == state(comm)


def test_replay_after_dissolution():
    events = []
    comm = formed_community(events=events)
    comm.dissolve(20)
    replayed = fold(events)
    assert replayed["phase"] is Phase.DISSOLVED
    assert replayed["members"] == {}
    assert replayed["tcm"] is None
    assert replayed["peak_size"] == 7
