"""Golden digests: the bundled scenarios' outputs are pinned byte for byte.

The cases and their digests live in `golden_cases.py`, which imports no
test framework, so the same cases also run under every other installed
Python: the determinism contract holds across interpreters, not just
across reruns of one.  Each bundled scenario is also rerun from its
`effective_config.txt` echo, here and under every other interpreter.
"""
import json
from collections import Counter

import pytest

from background import OTHER_PYTHONS
from corpus import CORPUS, pinned as corpus_pinned
from golden_cases import (CASES, GOLDEN, REJECTION_GOLDEN, SCENARIOS, echo_rerun,
                          pinned, run_case, scale_pinned)
from tdgsim import community


def test_every_bundled_scenario_is_pinned():
    assert {p.stem for p in SCENARIOS.glob("*.ini")} == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digests(name, tmp_path):
    _, digests = run_case(name, tmp_path)
    assert digests == pinned(name)
    assert echo_rerun(tmp_path) == []


@pytest.mark.parametrize("strategy", sorted(REJECTION_GOLDEN))
def test_rejection_outputs_match_golden_digests(strategy, tmp_path):
    world, digests = run_case(f"rejections-{strategy}", tmp_path)
    assert any(ev.kind == "wu_rejected" for ev in world.events)
    assert digests == pinned(f"rejections-{strategy}")


def test_failed_tail_outputs_match_golden_digests(tmp_path):
    world, digests = run_case("failed-tail", tmp_path)
    assert any(ev.kind == "wu_redistributed" and ev.payload["terminal"]
               for ev in world.events)
    last_terminal = max(ev.tick for ev in world.events
                        if ev.kind == "wu_validated"
                        or (ev.kind == "wu_redistributed" and ev.payload["terminal"]))
    assert last_terminal < world.config.horizon_ticks // 2
    assert digests == pinned("failed-tail")


def test_centralized_timeout_outputs_match_golden_digests(tmp_path):
    world, digests = run_case("centralized-timeouts", tmp_path)
    assert world.config.complexity == "uniform:1:6"  # drawn per unit
    assert {ev.payload["complexity"] for ev in world.events
            if ev.kind == "wu_issued"} == set(range(1, 7))
    assert sum(ev.kind == "wu_timed_out" for ev in world.events) == 856
    assert digests == pinned("centralized-timeouts")


def test_failover_dissolution_outputs_match_golden_digests(tmp_path):
    world, digests = run_case("failover-dissolution", tmp_path)
    tc0 = [(ev.tick, ev.payload["kind"]) for ev in world.events
           if ev.kind == "tc_event" and ev.payload["community"] == "tc0"]
    assert (3, "tcm_elected") in tc0
    assert [kind for tick, kind in tc0 if tick == 100] == (
        ["tcm_failed", "phase"] + ["left"] * 6 + ["dissolved"])
    assert world.communities == {}
    assert [ev.tick for ev in world.events
            if ev.kind == "agent_down" and ev.payload["agent"] == "rel-005"] == [100]
    assert digests == pinned("failover-dissolution")


def test_many_servers_outputs_match_golden_digests(tmp_path, monkeypatch):
    # Every formation attempt ranks the agents that no community holds;
    # most fall short of the quorum, in invitees or in joiners.
    shortlists = []
    evaluate_formation = community.evaluate_formation

    def spy(ranked, members, params):
        invites = evaluate_formation(ranked, members, params)
        shortlists.append(len(invites) < params.quorum)
        return invites

    monkeypatch.setattr(community, "evaluate_formation", spy)
    world, digests = run_case("many-servers", tmp_path)
    kinds = Counter(ev.payload["kind"] for ev in world.events if ev.kind == "tc_event")
    formed = sum(ev.payload["detail"] == "pre_organisation->formation"
                 for ev in world.events if ev.kind == "tc_event")
    assert (len(shortlists), sum(shortlists), formed) == (256, 8, 8)
    assert (kinds["invited"], kinds["joined"], kinds["evicted"],
            kinds["dissolved"]) == (105, 50, 2, 3)
    assert digests == pinned("many-servers")


# ------------------------------------------------- other interpreters

# `golden_cases.py` runs under each other installed Python, and under this
# one with PYTHONHASHSEED fixed, from the start of the session
# (background.py): the golden cases, the scale rungs and the generated
# corpus, each bundled scenario and each corpus case rerun from its echo.
@pytest.mark.parametrize("variant", OTHER_PYTHONS + ("hashseed",))
def test_golden_digests_under_other_interpreters(variant, background, request):
    returncode, out, err = background.result(request.node.name)
    assert returncode == 0, err[-2000:]
    result = json.loads(out)
    print(f"{variant}: ran under Python {result['python']}")
    wrong = {case: sorted(name for name, digest in pinned(case).items()
                          if result["digests"].get(case, {}).get(name) != digest)
             for case in CASES}
    assert {case: names for case, names in wrong.items() if names} == {}
    assert result["echo"] == {case: [] for case in GOLDEN}
    assert result["scale"] == scale_pinned()
    assert result["corpus"] == corpus_pinned()
    assert result["corpus_echo"] == {case: [] for case in CORPUS}
