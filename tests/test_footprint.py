"""What a work unit costs to hold: the memory `World(cfg)` keeps per unit,
and the memory that writing a run's reports takes on top of the run.

A run's work-unit count is one of its scale axes, so each unit should
cost only what it holds.  Object sizes differ across interpreters, so the
bounds are set for the tier-1 interpreter (CPython 3.11) and this file
stays out of the CI job that runs on the others.
"""
import gc
import tracemalloc
from pathlib import Path

from tdgsim.config import AgentGroup, ScenarioConfig
from tdgsim.engine import World
from tdgsim.scenario import emit_report, parse_scenario, run

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

UNITS = 20_000
# Measured at 137 B per unit on CPython 3.11.7 (slotted WorkUnit without a
# state field, held only by its server's queue, no per-unit pending-judgment
# list or ground-truth string).  With a state field and an id-to-unit map it
# was 166 B; with a per-unit ground truth too, 233 B; and with a dataclass
# __dict__ and that list too, 345 B.  The bound leaves 15 % over the
# measurement.
MAX_BYTES_PER_UNIT = 158


def test_world_init_holds_each_work_unit_in_few_bytes():
    cfg = ScenarioConfig(mode="centralized", wu_count=UNITS, server_count=4,
                         agents=[AgentGroup("rel", 10, "reliable")])
    World(cfg)  # caches and interned names are not the units' cost
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        world = World(cfg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(len(server.queue) for server in world.servers.values()) == UNITS
    assert held / UNITS <= MAX_BYTES_PER_UNIT, f"{held / UNITS:.1f} B per work unit"


# Writing the reports holds a line at a time, never a whole file.  Measured
# on CPython 3.11.7 with the centralized outage scenario: a peak of 62 KB
# at 5 000 work units (20 002 events) and 67 KB at 20 000 (80 002 events).
# A ledger.txt written from one list would add about 3.4 MB at 20 000
# blocks, and an events.jsonl about 12 MB.
MAX_REPORT_PEAK_BYTES = 256 * 1024
MAX_REPORT_BYTES_PER_EVENT = 1


def report_peak(tmp_path, wu_count):
    """The run's event count and block count, and the peak of what
    `emit_report` allocates on top of what the run holds."""
    cfg = parse_scenario(SCENARIOS / "centralized_outage.ini")
    cfg.wu_count = wu_count
    world, report, ledger = run(cfg)
    emit_report(world, report, tmp_path)  # the files exist, as on a rewrite
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        emit_report(world, report, tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return len(world.events), len(ledger), peak


def test_writing_the_reports_takes_a_bound_that_does_not_grow_with_the_run(tmp_path):
    small_events, _, small_peak = report_peak(tmp_path, 5_000)
    events, blocks, peak = report_peak(tmp_path, 20_000)
    assert blocks >= 20_000
    assert peak <= MAX_REPORT_PEAK_BYTES, f"{peak} B"
    per_event = (peak - small_peak) / (events - small_events)
    assert per_event <= MAX_REPORT_BYTES_PER_EVENT, f"{per_event:.2f} B per event"
