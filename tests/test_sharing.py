"""A run builds each payload value it repeats once and logs that one object
in every event that carries it: one `[agent]` list per agent in a
centralized run, one rating payload per subject, rater and cause, and one
one-entry allocations dict per agent and amount.  Payloads are read-only,
so sharing them must not change a byte of the log or a value of the fold.
This holds for every golden and corpus case, on every interpreter.
"""
import json

import pytest

from corpus import CORPUS
from golden_cases import CASES, scenario_file
from tdgsim.engine import World
from tdgsim.eventlog import SimEvent, write_event_log
from tdgsim.metrics import compute_metrics
from tdgsim.scenario import parse_scenario


def one_object(values, key):
    """Assert that the values equal under `key` are one object."""
    seen = {}
    for value in values:
        assert seen.setdefault(key(value), value) is value, value


@pytest.mark.parametrize("case", [*CASES, *CORPUS])
def test_shared_payload_values_write_and_fold_as_fresh_ones(case, tmp_path):
    world = World(parse_scenario(scenario_file(case, tmp_path)))
    header, events = world.header(), world.run()
    # A JSON round trip builds every payload value afresh, where
    # copy.deepcopy would keep the sharing.
    fresh = [SimEvent(tick, kind, json.loads(json.dumps(payload)))
             for tick, kind, payload in events]
    assert compute_metrics(header, events) == compute_metrics(header, fresh)
    write_event_log(tmp_path / "shared.jsonl", header, events)
    write_event_log(tmp_path / "fresh.jsonl", header, fresh)
    assert (tmp_path / "shared.jsonl").read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()

    one_object((ev.payload for ev in events if ev.kind == "rating_issued"),
               lambda payload: tuple(sorted(payload.items())))
    one_object((ev.payload["allocations"] for ev in events
                if ev.kind == "credit_committed" and len(ev.payload["allocations"]) == 1),
               lambda allocations: tuple(allocations.items()))
    if world.config.mode == "centralized":  # members and consensus alike
        one_object((ev.payload[key] for ev in events
                    if ev.kind in ("wu_issued", "wu_validated")
                    for key in ("members", "consensus") if key in ev.payload), tuple)
