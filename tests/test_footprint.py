"""What a work unit costs to hold: the memory `World(cfg)` keeps per unit,
the memory a run keeps per event, the memory that writing a run's reports
takes on top of the run, and the peak of `verify-ledger` per ledger byte.

A run's work-unit count is one of its scale axes, so each unit should
cost only what it holds.  Object sizes differ across interpreters, so the
bounds are set for the tier-1 interpreter (CPython 3.11) and this file
stays out of the CI job that runs on the others.
"""
import gc
import tracemalloc
from pathlib import Path

from tdgsim.cli import main
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


# What `World.run` keeps per event, the ledger's blocks included, measured
# on CPython 3.11.7 with the default seeds.  The centralized outage holds
# 370.8 B per event (80 002 events) and malice_dgds 271.3 B (38 876).
# Before the run shared its repeated payload values (one `[agent]` list per
# agent, one rating payload per subject, rater and cause, one one-entry
# allocations dict and one allocation tuple per agent and amount) they held
# 498.7 B and 347.4 B.  The bound leaves 10 % over the measurement, not
# MAX_BYTES_PER_UNIT's 15 %: built afresh for each event, the three
# `[agent]` lists of a centralized unit add 48 B per event (13 %).
MAX_BYTES_PER_EVENT = {"centralized_outage": 408, "malice_dgds": 298}


def test_a_run_holds_each_event_in_few_bytes():
    held_per_event = {}
    for name in MAX_BYTES_PER_EVENT:
        cfg = parse_scenario(SCENARIOS / f"{name}.ini")
        World(cfg).run()  # caches and interned names are not the events' cost
        world = World(cfg)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            events = world.run()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        held_per_event[name] = round(held / len(events), 1)
    assert all(held_per_event[name] <= bound for name, bound in MAX_BYTES_PER_EVENT.items()), (
        f"{held_per_event} B per event")


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


# `verify-ledger` holds the file's lines and the blocks parsed from them, but
# not the file's text while it parses.  Measured on CPython 3.11.7 with the
# centralized outage at 5 000 work units: a peak of 4.03 B per byte of
# ledger.txt (808 KB).  Holding the text through the parse took 5.03 B.
# The bound leaves 15 % over the measurement.
MAX_VERIFY_PEAK_PER_BYTE = 4.6


def test_verify_ledger_does_not_hold_the_file_text_while_it_parses(tmp_path, capsys):
    cfg = parse_scenario(SCENARIOS / "centralized_outage.ini")
    cfg.wu_count = 5_000
    run(cfg, out_dir=tmp_path)
    ledger = tmp_path / "ledger.txt"
    assert main(["verify-ledger", str(ledger)]) == 0
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert main(["verify-ledger", str(ledger)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.startswith("ok: 5000 blocks")
    per_byte = peak / ledger.stat().st_size
    assert per_byte <= MAX_VERIFY_PEAK_PER_BYTE, f"{per_byte:.2f} B per ledger byte"
