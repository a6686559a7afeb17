"""`World.run` stops at the run's fixed point: after the first tick that
leaves no open work unit, no live community and no churner, it steps only
the scheduled fault ticks still to come, and its events are those of
stepping every tick of the horizon."""
import tempfile

from corpus import CORPUS
from golden_cases import CASES, GOLDEN, scenario_file
from tdgsim.config import AgentGroup, Fault, ScenarioConfig
from tdgsim.engine import World
from tdgsim.scenario import parse_scenario
from tdgsim.trust import ReplicationLimits

SMALL = [case for case in (*CASES, *CORPUS) if case not in GOLDEN]


def run_counting_steps(world):
    """`world.run()`; returns the ticks it stepped."""
    stepped, step = [], world.step

    def spy(tick):
        stepped.append(tick)
        step(tick)

    world.step = spy
    world.run()
    return stepped


def every_tick(world):
    """Step every tick of the horizon; returns the fixed point, the first
    tick after which no unit is open, no community is live and no agent
    churns, or None if the run never reaches it."""
    fixed = None
    for tick in range(1, world.config.horizon_ticks + 1):
        world.step(tick)
        if fixed is None and not (world.open_wus or world.communities or world.churners):
            fixed = tick
    return fixed


def expected_steps(config, fixed):
    horizon = config.horizon_ticks
    if fixed is None:
        return list(range(1, horizon + 1))
    tail = sorted({f.tick for f in config.faults if fixed < f.tick <= horizon})
    return list(range(1, fixed + 1)) + tail


def test_run_steps_no_tick_past_the_fixed_point_but_the_fault_ticks_of_every_small_case():
    quiet_faults = 0
    for case in SMALL:
        with tempfile.TemporaryDirectory() as tmp:
            cfg = parse_scenario(scenario_file(case, tmp))
        run, stepped = World(cfg), World(cfg)
        ticks = run_counting_steps(run)
        fixed = every_tick(stepped)
        assert ticks == expected_steps(cfg, fixed), case
        assert run.events == stepped.events, case
        quiet_faults += fixed is not None and ticks[-1] > fixed
    # Some case has a fault in its quiet tail, which run steps alone.
    assert quiet_faults


def test_faults_in_the_quiet_tail_are_the_only_ticks_stepped():
    # One unit, validated at tick 4 by a pair; then an agent and a server
    # fault.  A fault past the horizon is never stepped.
    cfg = ScenarioConfig(name="tail", mode="trust", horizon_ticks=100, wu_count=1,
                         complexity="3", timeout_ticks=50,
                         limits=ReplicationLimits(1, 1),
                         agents=[AgentGroup("rel", 2, "reliable")],
                         faults=[Fault(60, "rel-000", True), Fault(40, "w0", True),
                                 Fault(60, "w0", False), Fault(101, "rel-000", False)])
    cfg.params.formation = False
    run, stepped = World(cfg), World(cfg)
    ticks = run_counting_steps(run)
    assert every_tick(stepped) == 4
    assert ticks == [1, 2, 3, 4, 40, 60]
    assert run.events == stepped.events
    assert [(ev.tick, ev.kind) for ev in run.events if ev.tick > 4] == [
        (40, "server_down"), (60, "agent_down"), (60, "server_up")]


def quiet_case(horizon):
    """The etc_throughput population (40 reliable, 8 malicious agents)
    under drds with formation off and 2 000 units."""
    cfg = ScenarioConfig(name="quiet", mode="trust", strategy="drds",
                         horizon_ticks=horizon, wu_count=2000, complexity="3",
                         timeout_ticks=30,
                         agents=[AgentGroup("rel", 40, "reliable"),
                                 AgentGroup("mal", 8, "malicious")])
    cfg.params.formation = False
    return World(cfg)


def test_a_ten_times_longer_horizon_steps_the_same_ticks():
    short, long = quiet_case(30_000), quiet_case(300_000)
    ticks = run_counting_steps(short)
    assert ticks == run_counting_steps(long)
    assert ticks[-1] < 30_000 and short.events == long.events
