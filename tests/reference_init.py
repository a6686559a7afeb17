"""Work queues as `World.__init__` built them before it built them in bulk:
one Python iteration per unit, each an f-string id, a modulo for its
owner, a complexity drawn from `rng_work` when the spec is a range, and a
`WorkUnit` appended to its owner's queue.

`test_init.py` holds `World(cfg)`'s queues and its `rng_work` stream to
these, unit for unit."""
from __future__ import annotations

from collections import deque

from tdgsim.config import ScenarioConfig, complexity_range
from tdgsim.draw import below
from tdgsim.engine import WorkUnit, stream


def build_queues(config: ScenarioConfig):
    """Each server id mapped to its queue, in server order, and the
    `rng_work` stream after the draws.  No server and some units raise
    ZeroDivisionError."""
    rng_work = stream(config.seed, "workgen")
    queues = {sid: deque() for sid in config.server_ids()}
    lo, hi = complexity_range(config.complexity)
    owners = list(queues.items())
    for i in range(config.wu_count):
        owner, queue = owners[i % len(owners)]
        complexity = lo if lo == hi else lo + below(rng_work, hi - lo + 1)
        queue.append(WorkUnit(f"wu{i:05d}", owner, complexity))
    return queues, rng_work
