"""Every invariant of `invariants.py` holds after every tick of the small
pinned cases: the generated corpus and the inline golden cases.  Of the
paths the checks guard, the test here gates those `test_corpus.py` does not."""
import tempfile
from collections import Counter

from corpus import CORPUS
from golden_cases import CASES, GOLDEN, scenario_file
from invariants import Invariants
from tdgsim.engine import World
from tdgsim.scenario import parse_scenario

SMALL = [case for case in (*CASES, *CORPUS) if case not in GOLDEN]


def path(ev, world, holding):
    """The gated path that `ev`, of the tick just stepped, takes, or None."""
    kind, p = ev.kind, ev.payload
    if kind == "wu_timed_out":
        return f"{world.config.mode} timeout"
    if kind == "agent_down" and p["agent"] in holding:
        return "churner down holding a unit"
    if kind == "tc_event" and world.communities and (p["kind"] in ("evicted", "dissolved") or (
            p["kind"] == "tcm_elected" and p["agent"] in world.agents)):  # by a failover
        return f"live community after {p['kind']}"
    return None


def stepped(case):
    """Step `case` with every check after every tick; count its gated paths."""
    with tempfile.TemporaryDirectory() as tmp:
        world = World(parse_scenario(scenario_file(case, tmp)))
    checks, paths, done = Invariants(world), Counter(), None
    for tick in range(1, world.config.horizon_ticks + 1):
        holding = {a.id for a in world.agents.values() if a.churn and a.current_wu}
        world.step(tick)
        paths.update(path(ev, world, holding) for ev in checks.check())
        if done is None and not world.open_wus:
            done = tick  # the last unit ended
    paths["agent fault after the last unit ends"] += done is not None and any(
        f.tick > done and f.entity in world.agents for f in world.config.faults)
    return paths


def test_every_invariant_holds_after_every_tick_of_every_small_case():
    paths = sum(map(stepped, SMALL), Counter())
    assert [p for p in (
        "centralized timeout", "trust timeout", "live community after evicted",
        "live community after dissolved", "live community after tcm_elected",
        # the cases of ROADMAP item 3's fixed-point skip and completion calendar
        "churner down holding a unit", "agent fault after the last unit ends",
    ) if not paths[p]] == []
