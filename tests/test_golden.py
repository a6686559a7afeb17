"""Golden digests: the bundled scenarios' outputs are pinned byte for byte.

The cases and their digests live in `golden_cases.py`, which imports no
test framework, so the same cases also run under every other installed
Python: the determinism contract holds across interpreters, not just
across reruns of one.  Each bundled scenario is also rerun from its
`effective_config.txt` echo, here and under every other interpreter.
"""
import json

import pytest

from background import OTHER_PYTHONS
from golden_cases import (CASES, GOLDEN, REJECTION_GOLDEN, SCENARIOS, echo_rerun,
                          pinned, run_case)
from tdgsim.engine import WuState


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
    assert any(wu.state is WuState.FAILED for wu in world.wus.values())
    last_terminal = max(ev.tick for ev in world.events
                        if ev.kind == "wu_validated"
                        or (ev.kind == "wu_redistributed" and ev.payload["terminal"]))
    assert last_terminal < world.config.horizon_ticks // 2
    assert digests == pinned("failed-tail")


# ------------------------------------------------- other interpreters

# `golden_cases.py` runs under each other installed Python, and under this
# one with PYTHONHASHSEED fixed, from the start of the session
# (background.py).
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
