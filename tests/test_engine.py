"""Engine-level tests: phase order, both topologies, ratings, faults and
communities."""
import gc
import weakref
from collections import Counter
from pathlib import Path

import pytest

from tdgsim import community, engine
from tdgsim.config import AgentGroup, Fault, ScenarioConfig
from tdgsim.engine import Outcome, ReputationStore, World, _cause, stream
from tdgsim.scenario import parse_scenario
from tdgsim.trust import CAUSE_VALUES, ReplicationLimits

from community_log import community_logs, fold, state
from golden_cases import CASES, scenario_file
from ledger_balances import balances

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def make_cfg(**overrides):
    cfg = ScenarioConfig(name="t", horizon_ticks=10, wu_count=1,
                         complexity="3", timeout_ticks=50)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def events_of(world, kind):
    return [e for e in world.events if e.kind == kind]


# ------------------------------------------------------------- plumbing

def test_empty_world_produces_no_events():
    cfg = make_cfg(wu_count=0, agents=[])
    world = World(cfg)
    world.run()
    assert world.events == []


def test_named_streams_are_reproducible_and_distinct():
    a1 = [stream(9, "issuance").random() for _ in range(5)]
    a2 = [stream(9, "issuance").random() for _ in range(5)]
    b = [stream(9, "accept").random() for _ in range(5)]
    assert a1 == a2
    assert a1 != b


def test_same_seed_gives_identical_event_log():
    def go():
        cfg = make_cfg(mode="trust", wu_count=20, horizon_ticks=50,
                       agents=[AgentGroup("rel", 6, "reliable"),
                               AgentGroup("mal", 2, "malicious")])
        world = World(cfg)
        world.run()
        return world.events
    assert go() == go()


# -------------------------------------------------------------- ratings

def test_every_cause_has_its_prebuilt_rating_pair():
    pairs = (engine._ON_TIME, engine._LATE, engine._WRONG, engine._REJECTED,
             engine._DROPPED, engine._TIMED_OUT)
    assert dict(pairs) == CAUSE_VALUES


@pytest.mark.parametrize("outcome, consensus, cause", [
    (Outcome("completed", "ok", False), "ok", "correct_on_time"),
    (Outcome("completed", "ok", True), "ok", "correct_late"),
    (Outcome("completed", "bad", False), "ok", "wrong_result"),
    (Outcome("completed", "bad", True), "ok", "wrong_result"),
    (Outcome("dropped"), "ok", "dropped_wu"),
    (Outcome("dropped"), None, "dropped_wu"),
    (Outcome("timed_out"), "ok", "timed_out"),
    (Outcome("timed_out"), None, "timed_out"),
    (Outcome("completed", "ok", False), None, None),
], ids=["on-time", "late", "wrong", "wrong-late", "dropped", "dropped-no-consensus",
        "timed-out", "timed-out-no-consensus", "completed-no-consensus"])
def test_cause_gives_the_rating_pair_of_each_outcome(outcome, consensus, cause):
    assert _cause(outcome, consensus) == (
        None if cause is None else (cause, CAUSE_VALUES[cause]))


# ------------------------------------------------- trust-mode hand trace

def test_replica_pair_validates_at_tick_four():
    # Two reliable agents, one WU of complexity 3 at speed 1: issued at
    # tick 1, computed over ticks 2-4, validated in tick 4's fifth phase.
    cfg = make_cfg(mode="trust", limits=ReplicationLimits(1, 1),
                   agents=[AgentGroup("rel", 2, "reliable")])
    world = World(cfg)
    world.run()
    issued = events_of(world, "wu_issued")
    validated = events_of(world, "wu_validated")
    assert issued[0].tick == 1
    assert len(issued[0].payload["members"]) == 2
    assert [e.tick for e in validated] == [4]
    assert sorted(validated[0].payload["consensus"]) == ["rel-000", "rel-001"]


def test_on_time_consensus_rates_plus_one_and_splits_credit():
    cfg = make_cfg(mode="trust", limits=ReplicationLimits(2, 2), base_credit=100,
                   agents=[AgentGroup("rel", 3, "reliable")])
    world = World(cfg)
    world.run()
    ratings = events_of(world, "rating_issued")
    assert len(ratings) == 3
    assert all(r.payload["value"] == 1.0 for r in ratings)
    credit = events_of(world, "credit_committed")[0].payload["allocations"]
    # 100 credits x complexity 3 = 300000 millicredits, split three ways
    assert credit == {"rel-000": 100000, "rel-001": 100000, "rel-002": 100000}
    assert world.ledger.total_committed() == 300000


def test_minority_wrong_result_is_outvoted_and_rated():
    cfg = make_cfg(mode="trust", limits=ReplicationLimits(3, 3),
                   agents=[AgentGroup("rel", 3, "reliable"),
                           AgentGroup("mal", 1, "malicious")])
    world = World(cfg)
    world.run()
    validated = events_of(world, "wu_validated")
    assert len(validated) == 1
    assert validated[0].payload["correct"]
    by_subject = {r.payload["subject"]: r.payload["value"]
                  for r in events_of(world, "rating_issued")}
    assert by_subject["mal-000"] == -1.0
    assert all(by_subject[f"rel-{i:03d}"] == 1.0 for i in range(3))
    assert "mal-000" not in balances(world.ledger)


def test_two_member_group_with_drop_fails_and_requeues():
    # One completion out of two members is not a strict majority.
    cfg = make_cfg(mode="trust", limits=ReplicationLimits(1, 1), horizon_ticks=6,
                   agents=[AgentGroup("rel", 1, "reliable"),
                           AgentGroup("fr", 1, "free_rider")])
    world = World(cfg)
    world.run()
    assert events_of(world, "wu_validated") == []
    redistributed = events_of(world, "wu_redistributed")
    assert redistributed and not redistributed[0].payload["terminal"]
    causes = {(r.payload["subject"], r.payload["cause"])
              for r in events_of(world, "rating_issued")}
    assert ("fr-000", "dropped_wu") in causes
    # the completing member is only judged once some round validates
    assert all(subject != "rel-000" for subject, _ in causes)


def test_trust_mode_lapse_rates_timed_out():
    cfg = make_cfg(mode="trust", limits=ReplicationLimits(1, 1),
                   timeout_ticks=5, horizon_ticks=12,
                   agents=[AgentGroup("rel", 2, "reliable")],
                   faults=[Fault(2, "rel-001", True)])
    world = World(cfg)
    world.run()
    timeouts = events_of(world, "wu_timed_out")
    assert [e.tick for e in timeouts] == [6]  # issued tick 1 + timeout 5
    ratings = [(r.payload["subject"], r.payload["cause"], r.payload["value"])
               for r in events_of(world, "rating_issued")]
    assert ("rel-001", "timed_out", -0.75) in ratings


def test_failed_rounds_are_judged_after_late_consensus():
    # rel-000 completes in a failed 2-member round, the requeued WU later
    # validates, and only then does rel-000 receive its positive rating.
    cfg = make_cfg(mode="trust", limits=ReplicationLimits(1, 1), horizon_ticks=20,
                   agents=[AgentGroup("rel", 1, "reliable"),
                           AgentGroup("mal", 1, "malicious"),
                           AgentGroup("late", 2, "reliable")],
                   faults=[Fault(1, "late-000", True), Fault(1, "late-001", True),
                           Fault(6, "late-000", False), Fault(6, "late-001", False)])
    world = World(cfg)
    waiting = []  # per tick, the agents whose completions of wu00000 wait
    for tick in range(1, cfg.horizon_ticks + 1):
        world.step(tick)
        waiting.append([a for a, _ in world.pending_judgments.get("wu00000", ())])
    validated = events_of(world, "wu_validated")
    assert validated and validated[0].payload["correct"]
    rel_ratings = [r for r in events_of(world, "rating_issued")
                   if r.payload["subject"] == "rel-000"]
    assert rel_ratings
    assert rel_ratings[0].tick == validated[0].tick
    assert rel_ratings[0].payload["value"] in (0.5, 1.0)
    # The world held rel-000's completion until the consensus, then let it go.
    assert "rel-000" in waiting[validated[0].tick - 2]
    assert not any(waiting[validated[0].tick - 1:])
    assert world.pending_judgments == {}


def test_max_requeues_terminates_hopeless_work():
    cfg = make_cfg(mode="trust", limits=ReplicationLimits(1, 1), horizon_ticks=30,
                   agents=[AgentGroup("rel", 1, "reliable"),
                           AgentGroup("mal", 1, "malicious")])
    cfg.params.max_requeues = 2
    world = World(cfg)
    world.run()
    terminal = [e for e in events_of(world, "wu_redistributed")
                if e.payload["terminal"]]
    assert [e.payload["wu"] for e in terminal] == ["wu00000"]
    assert events_of(world, "wu_validated") == []
    assert world.pending_judgments == {}  # a failed unit's completions leave


def test_dods_issues_a_short_group_only_when_short_groups_are_allowed():
    # Every f_min is 5, and 3 agents make a group of 3 at most: every dods
    # group is short.  No golden case covers this: each rejections case
    # allows short groups.
    issued = {}
    for allow in (False, True):
        cfg = make_cfg(mode="trust", strategy="dods", limits=ReplicationLimits(5, 5),
                       wu_count=4, horizon_ticks=20,
                       agents=[AgentGroup("rel", 3, "reliable")])
        cfg.params.allow_short_groups = allow
        world = World(cfg)
        world.run()
        issued[allow] = events_of(world, "wu_issued")
    assert issued[False] == []
    assert issued[True] and all(e.payload["short"] for e in issued[True])
    assert {e.payload["group_size"] for e in issued[True]} == {3}


# --------------------------------------------------------- centralized

def test_round_robin_balances_two_servers():
    cfg = make_cfg(mode="centralized", wu_count=10, server_count=2,
                   agents=[AgentGroup("rel", 10, "reliable")])
    world = World(cfg)
    world.step(1)
    issued = events_of(world, "wu_issued")
    assert len(issued) == 10
    by_server = {}
    for e in issued:
        by_server[e.payload["distributor"]] = by_server.get(e.payload["distributor"], 0) + 1
    assert by_server == {"w0": 5, "w1": 5}


def test_offline_servers_issue_nothing():
    cfg = make_cfg(mode="centralized", wu_count=5, horizon_ticks=5,
                   agents=[AgentGroup("rel", 3, "reliable")],
                   faults=[Fault(1, "w0", True)])
    world = World(cfg)
    world.run()
    assert events_of(world, "wu_issued") == []


def test_one_offline_server_routes_to_the_other():
    cfg = make_cfg(mode="centralized", wu_count=10, server_count=2, horizon_ticks=1,
                   agents=[AgentGroup("rel", 5, "reliable")],
                   faults=[Fault(1, "w0", True)])
    world = World(cfg)
    world.run()
    issued = events_of(world, "wu_issued")
    assert len(issued) == 5
    assert all(e.payload["distributor"] == "w1" for e in issued)


def test_timeout_redistributes_without_penalty():
    cfg = make_cfg(mode="centralized", timeout_ticks=10, horizon_ticks=15,
                   agents=[AgentGroup("rel", 1, "reliable")],
                   faults=[Fault(2, "rel-000", True)])
    world = World(cfg)
    world.run()
    assert [e.tick for e in events_of(world, "wu_timed_out")] == [11]
    assert events_of(world, "wu_redistributed")
    assert events_of(world, "rating_issued") == []  # no penalty here


def test_completion_on_deadline_tick_beats_the_timeout():
    # complexity 3 at speed 1 completes in tick 4, exactly the deadline
    # with timeout_ticks = 3; the collect phase runs before timeouts.
    cfg = make_cfg(mode="centralized", timeout_ticks=3, horizon_ticks=8,
                   agents=[AgentGroup("rel", 1, "reliable")])
    world = World(cfg)
    world.run()
    assert events_of(world, "wu_timed_out") == []
    assert [e.tick for e in events_of(world, "wu_validated")] == [4]


def test_outage_buffers_results_until_server_up():
    cfg = make_cfg(mode="centralized", wu_count=1, horizon_ticks=12,
                   agents=[AgentGroup("rel", 1, "reliable")],
                   faults=[Fault(3, "w0", True), Fault(9, "w0", False)])
    world = World(cfg)
    world.run()
    completed = events_of(world, "wu_completed")
    assert completed[0].tick == 4 and completed[0].payload["buffered"]
    assert [e.tick for e in events_of(world, "wu_validated")] == [9]


# ----------------------------------------------------- faults and churn

def test_churn_toggles_with_configured_period():
    cfg = make_cfg(wu_count=0, horizon_ticks=12,
                   agents=[AgentGroup("ch", 1, "churner", churn=(2, 3))])
    world = World(cfg)
    world.run()
    downs = [e.tick for e in events_of(world, "agent_down")]
    ups = [e.tick for e in events_of(world, "agent_up")]
    assert downs == [3, 8]
    assert ups == [6, 11]


@pytest.mark.parametrize("entity, kind", [("w0", "server"), ("rel-000", "agent")],
                         ids=["server", "agent"])
def test_fault_events_only_fire_on_state_change(entity, kind):
    cfg = make_cfg(mode="centralized", wu_count=0, horizon_ticks=5,
                   agents=[AgentGroup("rel", 1, "reliable")],
                   faults=[Fault(2, entity, True), Fault(3, entity, True),
                           Fault(4, entity, False), Fault(5, entity, False)])
    world = World(cfg)
    world.run()
    assert [(e.tick, e.payload) for e in events_of(world, f"{kind}_down")] == [
        (2, {kind: entity})]
    assert [(e.tick, e.payload) for e in events_of(world, f"{kind}_up")] == [
        (4, {kind: entity})]


# ------------------------------------------------------- conservation

def queued_units(world):
    """The work units in the servers' queues: before the first step, all
    of them."""
    return [wu for server in world.servers.values() for wu in server.queue]


def ended_in_log(world):
    """The ids of the work units the log shows validated or failed for good."""
    return [e.payload["wu"] for e in world.events if e.kind == "wu_validated"
            or (e.kind == "wu_redistributed" and e.payload.get("terminal"))]


@pytest.mark.parametrize("mode", ["centralized", "trust"])
def test_work_units_never_vanish(mode):
    # Every unit is in exactly one place after every tick: ended in the log,
    # queued at a server, waiting for a result (it has a deadline), or
    # buffered at a server that is down.
    cfg = make_cfg(mode=mode, wu_count=40, horizon_ticks=60, timeout_ticks=8,
                   agents=[AgentGroup("rel", 6, "reliable"),
                           AgentGroup("mal", 2, "malicious"),
                           AgentGroup("fr", 1, "free_rider"),
                           AgentGroup("ch", 2, "churner", churn=(10, 10))],
                   faults=[Fault(6, "w0", True), Fault(16, "w0", False)])
    world = World(cfg)
    units = queued_units(world)
    everyone = Counter(wu.id for wu in units)
    assert len(everyone) == cfg.wu_count
    for tick in range(1, cfg.horizon_ticks + 1):
        world.step(tick)
        places = (ended_in_log(world)
                  + [wu.id for wu in queued_units(world)]
                  + [wu.id for wu in units if wu.deadline is not None]
                  + [wu.id for buffer in world.buffers.values() for wu, _, _ in buffer])
        assert Counter(places) == everyone, tick
    assert events_of(world, "wu_validated") and events_of(world, "wu_timed_out")
    if mode == "centralized":
        assert any(e.payload["buffered"] for e in events_of(world, "wu_completed"))


def test_egoistic_agents_skip_group_work_invitations():
    # The malicious agents pull the pool's mean tau down, so the reliable
    # ones gain by joining and a community forms.
    cfg = make_cfg(mode="trust", wu_count=30, horizon_ticks=40,
                   agents=[AgentGroup("rel", 6, "reliable"),
                           AgentGroup("mal", 2, "malicious"),
                           AgentGroup("ego", 2, "egoistic")])
    world = World(cfg)
    world.run()
    by_kind = {}
    for e in events_of(world, "tc_event"):
        by_kind.setdefault(e.payload["kind"], set()).add(e.payload["agent"])
    assert {"ego-000", "ego-001"} <= by_kind["invited"]
    assert by_kind["joined"]
    assert not any(agent.startswith("ego-") for agent in by_kind["joined"])


# One bundled scenario per path through the lifecycle, and a tc_event
# kind each must log: a manager failover in a community that is still
# operating at the end, evictions, and two dissolutions.
LIFECYCLE_PATHS = [("tcm_failover.ini", "tcm_failed"),
                   ("etc_throughput.ini", "evicted"),
                   ("malice_dgds.ini", "dissolved")]


@pytest.mark.parametrize("scenario, kind", LIFECYCLE_PATHS)
def test_event_log_alone_rebuilds_every_community(scenario, kind):
    world = World(parse_scenario(SCENARIOS / scenario))
    world.run()
    logs = community_logs(world.events)
    assert any(ev.payload["kind"] == kind for log in logs.values() for ev in log)
    assert set(world.communities) <= set(logs)
    for comm_id, log in logs.items():
        live = comm_id in world.communities
        # Born operating in one step, under its founder, the first member
        # to join; a live community has not dissolved, and any other has.
        assert [ev.payload["detail"] for ev in log if ev.payload["kind"] == "phase"] == (
            ["pre_organisation->formation", "formation->operation"]
            + ([] if live else ["operation->dissolved"]))
        formed = next(ev.tick for ev in log if ev.payload["kind"] == "phase")
        founder = next(ev.payload["agent"] for ev in log if ev.payload["kind"] == "joined")
        first_election = next(ev for ev in log if ev.payload["kind"] == "tcm_elected")
        assert founder in world.servers
        assert (first_election.tick, first_election.payload["agent"]) == (formed, founder)
        if live:
            assert fold(log) == state(world.communities[comm_id])
        else:
            replayed = fold(log)
            assert replayed["phase"] == "dissolved"
            assert replayed["members"] == {} and replayed["tcm"] is None


# The engine checks none of this itself: it relies on every live community
# being operating, led by an available manager and disjoint from the rest,
# and on World.live_members holding exactly their members.  The golden
# failover-dissolution case dissolves a community in _issue_trust's
# failover, which no bundled scenario does.
@pytest.mark.parametrize("scenario, kind",
                         LIFECYCLE_PATHS + [("failover-dissolution", "dissolved")])
def test_live_communities_are_operating_led_and_disjoint(scenario, kind, tmp_path):
    cfg = parse_scenario(SCENARIOS / scenario if scenario.endswith(".ini")
                         else scenario_file(scenario, tmp_path))
    world = World(cfg)
    ticks_with_communities = 0
    for t in range(1, cfg.horizon_ticks + 1):
        world.step(t)
        seen = set()
        for comm in world.communities.values():
            assert world._available(comm.tcm)
            assert seen.isdisjoint(comm.members)
            seen.update(comm.members)
        assert world.live_members == seen
        ticks_with_communities += bool(world.communities)
    assert ticks_with_communities
    assert any(e.kind == "tc_event" and e.payload["kind"] == kind
               for e in world.events)


def test_finished_world_is_freed_by_reference_counting():
    # tcm_failover ends with a community still operating, and a community
    # that held a bound World.emit would keep its World in a cycle.
    world = World(parse_scenario(SCENARIOS / "tcm_failover.ini"))
    world.run()
    assert world.communities
    ref = weakref.ref(world)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del world
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


# World.run pauses the cyclic collector, which is sound only while a run
# makes no reference cycle: everything it allocates is freed by reference
# counting, or kept.  parse_scenario leaves configparser's cycles behind,
# so they are collected before the run.
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_run_creates_no_cyclic_garbage(case, tmp_path):
    world = World(parse_scenario(scenario_file(case, tmp_path)))
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        world.run()
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("before, fail_at", [(True, None), (False, None), (True, 2)],
                         ids=["enabled", "disabled", "step-raises"])
def test_run_leaves_the_collector_as_it_found_it(before, fail_at, monkeypatch):
    world = World(make_cfg(horizon_ticks=3, agents=[AgentGroup("rel", 2, "reliable")]))
    step, paused = world.step, []

    def spy(tick):
        paused.append(not gc.isenabled())
        if tick == fail_at:
            raise RuntimeError("step failed")
        step(tick)

    monkeypatch.setattr(world, "step", spy)
    was_enabled = gc.isenabled()
    (gc.enable if before else gc.disable)()
    try:
        if fail_at is None:
            world.run()
        else:
            with pytest.raises(RuntimeError, match="step failed"):
                world.run()
        assert gc.isenabled() is before
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert paused == [True] * (fail_at or 3)


def spy_on_operate_tick(monkeypatch, world):
    """Record, for each operate_tick call, whether the community was full,
    the ranking of invitees it was given, and whether its members' taus
    were the store's live map."""
    calls = []
    operate_tick = community.operate_tick

    def spy(comm, reputations, ranked, params):
        calls.append((len(comm.members) >= params.max_size, ranked,
                      reputations is world.store.taus))
        return operate_tick(comm, reputations, ranked, params)

    monkeypatch.setattr(community, "operate_tick", spy)
    return calls


def test_a_full_community_is_shown_no_outsider(monkeypatch):
    # malice_dgds's communities are full from the tick they form, so
    # lifecycle ranks no invitee for any of them.
    world = World(parse_scenario(SCENARIOS / "malice_dgds.ini"))
    calls = spy_on_operate_tick(monkeypatch, world)
    for t in range(1, 201):
        world.step(t)
    assert calls
    assert all(full and ranked == () and live for full, ranked, live in calls)


def test_a_community_with_room_still_invites_outsiders(monkeypatch):
    world = World(parse_scenario(SCENARIOS / "tcm_failover.ini"))
    calls = spy_on_operate_tick(monkeypatch, world)
    world.run()
    with_room = [ranked for full, ranked, _ in calls if not full]
    assert with_room and all(with_room)
    operating, invites = set(), 0
    for ev in events_of(world, "tc_event"):
        p = ev.payload
        if p["kind"] == "phase" and p["detail"].endswith("->operation"):
            operating.add(p["community"])
        elif p["kind"] == "invited" and p["community"] in operating:
            invites += 1
    assert invites == 10


def test_each_invite_is_judged_against_the_members_of_that_moment():
    # tc0 (w0 and hi-000, tau 1) invites x-000 (tau 0.72), then y-000
    # (0.71), on one tick; tc1 is full and holds hi-001..hi-005 (tau 1), so
    # the online agents' mean tau is 7.43 / 8 = 0.93.  x-000 joins, as tc0's
    # mean of 1.0 beats it; that drops tc0's mean to 0.86, so y-000 declines.
    cfg = make_cfg(mode="trust", wu_count=10, server_count=2,
                   agents=[AgentGroup("hi", 6, "reliable"),
                           AgentGroup("x", 1, "reliable"), AgentGroup("y", 1, "reliable")])
    cfg.params.min_size, cfg.params.max_size = 1, 4
    world = World(cfg)
    for agent in cfg.agents[0].agent_ids():
        world.store.record(agent, 1.0)
    world.store.record("x-000", 0.44)
    world.store.record("y-000", 0.42)
    for cid, founder, agents in [("tc0", "w0", ["hi-000"]),
                                 ("tc1", "w1", [f"hi-00{i}" for i in range(1, 6)])]:
        comm = community.TrustCommunity(id=cid, founder=founder, events=world.events,
                                        live_members=world.live_members)
        comm.form(0, agents, world.store.taus)
        world.communities[cid] = comm
    world.tick = 1
    world._phase_lifecycle()
    assert [(ev.payload["community"], ev.payload["kind"], ev.payload["agent"])
            for ev in world.events if ev.tick == 1] == [
        ("tc0", "invited", "x-000"), ("tc0", "joined", "x-000"),
        ("tc0", "invited", "y-000")]
    assert world.communities["tc0"].declined == {"y-000"}


def test_an_invite_to_a_community_of_no_agent_is_judged_by_the_invitees_tau():
    # tc0 is its founder alone.  The online agents' mean tau is
    # (1 + 0.72 + 0.1) / 3 = 0.61.  x-000 (tau 1) judges tc0 by its own tau
    # and joins; y-000 (0.72) then judges it by x-000's and joins too.
    # Judged by a neutral 0.5 instead, both would decline.
    cfg = make_cfg(mode="trust", wu_count=10,
                   agents=[AgentGroup("x", 1, "reliable"), AgentGroup("y", 1, "reliable"),
                           AgentGroup("z", 1, "reliable")])
    cfg.params.min_size, cfg.params.max_size = 1, 4
    world = World(cfg)
    for agent, value in [("x-000", 1.0), ("y-000", 0.44), ("z-000", -0.8)]:
        world.store.record(agent, value)
    comm = community.TrustCommunity(id="tc0", founder="w0", events=world.events,
                                    live_members=world.live_members)
    comm.form(0, [], world.store.taus)
    world.communities["tc0"] = comm
    world.tick = 1
    world._phase_lifecycle()
    assert [(ev.payload["kind"], ev.payload["agent"])
            for ev in world.events if ev.tick == 1] == [
        ("invited", "x-000"), ("joined", "x-000"), ("invited", "y-000"), ("joined", "y-000")]


# ------------------------------------------------------------ work count

def test_trust_issuance_work_is_linear_in_agents(monkeypatch):
    # Counts calls, not time.  An idle agent gets one Candidate per tick,
    # plus one more for each rejection that lowers its tau, however many
    # work units the tick issues; and every tau is read a few times per
    # tick, not once per work unit or per invite.  Lifecycle reads members
    # from the store's live map, not through tau().
    cfg = make_cfg(mode="trust", strategy="drds", wu_count=2000,
                   horizon_ticks=50,
                   agents=[AgentGroup("rel", 80, "reliable", accept_prob=0.9),
                           AgentGroup("mal", 20, "malicious")])
    assert cfg.params.formation
    world = World(cfg)
    idle, built, taus = Counter(), Counter(), Counter()

    def counted(counter, fn):
        def wrapper(*args, **kwargs):
            counter[world.tick] += 1
            return fn(*args, **kwargs)
        return wrapper

    # one f_min draw per idle agent per tick
    monkeypatch.setattr(engine, "effective_f_min",
                        counted(idle, engine.effective_f_min))
    monkeypatch.setattr(engine, "Candidate", counted(built, engine.Candidate))
    monkeypatch.setattr(ReputationStore, "tau", counted(taus, ReputationStore.tau))
    world.run()

    rejections = Counter(e.tick for e in events_of(world, "wu_rejected"))
    assert sum(rejections.values()) > 0 and community_logs(world.events)
    assert len(events_of(world, "wu_issued")) > 2 * cfg.horizon_ticks
    for tick in range(1, cfg.horizon_ticks + 1):
        assert built[tick] <= idle[tick] + rejections[tick], tick
        assert taus[tick] <= 3 * len(world.agents), tick


def test_issuance_reads_each_idle_agents_tau_once_per_tick(monkeypatch):
    # An idle agent's f_min draw and its pool candidate share one tau read;
    # only an agent that rejects a work unit is read again, for its
    # candidate's lowered tau.  Communities form, so both community pools
    # and the open pool are drained.
    cfg = make_cfg(mode="trust", strategy="dgds", wu_count=600,
                   horizon_ticks=120,
                   agents=[AgentGroup("rel", 30, "reliable", accept_prob=0.8),
                           AgentGroup("mal", 8, "malicious")])
    assert cfg.params.formation
    world = World(cfg)
    idle, reads = Counter(), Counter()
    operating = set()  # ticks that issue work while a community operates
    issuing = False
    phase_issue, tau = World._phase_issue, ReputationStore.tau

    def counted_issue(self):
        nonlocal issuing
        if self.open_wus:
            idle[self.tick] = sum(a.online and a.current_wu is None
                                  for a in self.agents.values())
            if self.communities:
                operating.add(self.tick)
        issuing = True
        try:
            phase_issue(self)
        finally:
            issuing = False

    def counted_tau(self, subject):
        if issuing:
            reads[world.tick] += 1
        return tau(self, subject)

    monkeypatch.setattr(World, "_phase_issue", counted_issue)
    monkeypatch.setattr(ReputationStore, "tau", counted_tau)
    world.run()

    rejections = Counter(e.tick for e in events_of(world, "wu_rejected"))
    assert sum(rejections.values()) > 0 and operating
    assert reads == idle + rejections


@pytest.mark.parametrize("mode", ["centralized", "trust"])
def test_open_wu_count_tracks_states_every_tick(mode):
    cfg = make_cfg(mode=mode, wu_count=40, horizon_ticks=120, timeout_ticks=6,
                   agents=[AgentGroup("rel", 6, "reliable"),
                           AgentGroup("mal", 5, "malicious"),
                           AgentGroup("fr", 2, "free_rider"),
                           AgentGroup("ch", 3, "churner", churn=(4, 4))],
                   faults=[Fault(5, "rel-000", True), Fault(30, "rel-000", False)])
    cfg.params.max_requeues = 2
    world = World(cfg)
    assert world.open_wus == cfg.wu_count
    for tick in range(1, cfg.horizon_ticks + 1):
        world.step(tick)
        assert world.open_wus == cfg.wu_count - len(ended_in_log(world)), tick
    assert events_of(world, "wu_timed_out")
    assert world.open_wus == 0
    if mode == "trust":
        assert any(e.payload["terminal"] for e in events_of(world, "wu_redistributed"))


@pytest.mark.parametrize("mode", ["centralized", "trust"])
def test_centralized_timeout_queue_is_in_deadline_order_every_tick(mode, tmp_path):
    # A unit has a deadline exactly while one of its issues waits for a
    # result.  In trust mode that is while it has an assignment.  In
    # centralized mode, _validate_centralized stops at the first live entry
    # not yet due, which is exact only while live entries are in deadline
    # order.  Live means the unit has a deadline: a free rider's dropped
    # unit keeps it, held by no agent, until it times out.  Stale entries
    # leave only at the head, so at most timeout_ticks ticks of issues, one
    # per agent each, remain.
    cfg = parse_scenario(scenario_file("centralized-timeouts", tmp_path))
    cfg.mode = mode
    world = World(cfg)
    units = queued_units(world)
    cap = len(world.agents) * (cfg.timeout_ticks + 1)
    for tick in range(1, cfg.horizon_ticks + 1):
        world.step(tick)
        waiting = [wu for wu in units if wu.deadline is not None]
        held = {(a.current_wu.id, a.id) for a in world.agents.values()
                if a.current_wu is not None}
        if mode == "trust":
            assert {wu.id for wu in waiting} == world.assignments.keys(), tick
            assert {wu_id for wu_id, _ in held} <= world.assignments.keys(), tick
            assert not world.central_assigned, tick
            continue
        live = [(wu, holder) for wu, holder in world.central_assigned
                if wu.deadline is not None]
        deadlines = [wu.deadline for wu, _ in live]
        assert deadlines == sorted(deadlines), tick
        assert Counter(wu.id for wu, _ in live) == Counter(wu.id for wu in waiting), tick
        for wu, holder in live:
            agent = world.agents[holder]
            assert (agent.current_wu is wu
                    or agent.profile == "free_rider" and agent.current_wu is not wu), tick
        assert held <= {(wu.id, holder) for wu, holder in live}, tick
        assert len(world.central_assigned) <= cap, tick
    assert events_of(world, "wu_timed_out") and events_of(world, "wu_dropped")


def test_no_f_min_draw_after_the_last_work_unit_ends(monkeypatch):
    # Counts calls, as the linearity test above does.  Once every work
    # unit is validated or failed, issuance draws nothing more.
    cfg = make_cfg(mode="trust", strategy="dgds", wu_count=60, horizon_ticks=200,
                   timeout_ticks=6,
                   agents=[AgentGroup("rel", 6, "reliable"),
                           AgentGroup("mal", 8, "malicious"),
                           AgentGroup("fr", 2, "free_rider"),
                           AgentGroup("ch", 2, "churner", churn=(5, 5))])
    cfg.params.max_requeues = 1
    cfg.params.allow_short_groups = True
    world = World(cfg)
    draws = Counter()
    effective_f_min = engine.effective_f_min

    def counted(*args, **kwargs):
        draws[world.tick] += 1
        return effective_f_min(*args, **kwargs)

    monkeypatch.setattr(engine, "effective_f_min", counted)
    world.run()

    ends = [e.tick for e in world.events if e.kind == "wu_validated"
            or (e.kind == "wu_redistributed" and e.payload["terminal"])]
    assert len(ends) == cfg.wu_count
    assert any(e.payload["terminal"] for e in events_of(world, "wu_redistributed"))
    last = max(ends)
    assert last < cfg.horizon_ticks // 2 and draws[last] > 0
    assert all(tick <= last for tick in draws)
