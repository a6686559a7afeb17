from pathlib import Path

import pytest

from background import CHECKS, Background
from tdgsim.cli import main
from tdgsim.config import AgentGroup, ScenarioConfig
from tdgsim.scenario import run

# The checks of invariants.py report the values they compare, as a test's own do.
pytest.register_assert_rewrite("invariants")


def pytest_collection_modifyitems(items):
    # A test that waits for a subprocess runs last, so that its wait
    # overlaps no in-process test.
    items.sort(key=lambda item: item.name in CHECKS)


@pytest.fixture(scope="session", autouse=True)
def background(request):
    """Starts the subprocess of every selected test in `background.CHECKS`
    before the first test runs (see background.py)."""
    runs = Background()
    for item in request.session.items:
        if item.name in CHECKS:
            runs.start(item.name)
    yield runs
    runs.close()


@pytest.fixture(scope="session")
def small_run(tmp_path_factory):
    """A short trust-mode run with colluders, its reports in `out`; the
    scenario and event-log tests only read it."""
    out = tmp_path_factory.mktemp("out")
    cfg = ScenarioConfig(name="small", mode="trust", strategy="dgds", seed=5,
                         horizon_ticks=80, wu_count=60, timeout_ticks=20,
                         agents=[AgentGroup("rel", 8, "reliable"),
                                 AgentGroup("mal", 2, "malicious")])
    world, report, ledger = run(cfg, out)
    return out, world, report, ledger


@pytest.fixture
def replay_log(tmp_path, capsys):
    """The event log of a 30-tick run of the bundled defaults scenario, for
    the replay and reader tests of test_scenario.py and test_eventlog.py to
    damage."""
    out = tmp_path / "out"
    defaults = Path(__file__).resolve().parent.parent / "scenarios" / "defaults.ini"
    assert main(["run", "--scenario", str(defaults), "--out", str(out), "--ticks", "30"]) == 0
    capsys.readouterr()
    return out / "events.jsonl"
