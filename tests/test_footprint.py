"""What a work unit costs to hold: the memory `World(cfg)` keeps per unit.

A run's work-unit count is one of its scale axes, so each unit should
cost only what it holds.  Object sizes differ across interpreters, so the
bound is set for the tier-1 interpreter (CPython 3.11) and this file stays
out of the CI job that runs on the others.
"""
import gc
import tracemalloc

from tdgsim.config import AgentGroup, ScenarioConfig
from tdgsim.engine import World

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
