"""`World(cfg)` builds its work queues in C-level passes; these tests hold
them to the per-unit loop they replaced (`reference_init.py`): the same
units with the same ids, owners and complexities, in the same queues and
order, and the same `rng_work` stream state after the draws."""
import pytest

import reference_init
from tdgsim import engine
from tdgsim.config import ScenarioConfig
from tdgsim.engine import World


def built(cfg, monkeypatch):
    """World(cfg)'s servers and its `rng_work` stream after __init__."""
    streams = {}
    make = engine.stream

    def spy(seed, name):
        streams[name] = make(seed, name)
        return streams[name]

    monkeypatch.setattr(engine, "stream", spy)
    world = World(cfg)
    return world.servers, streams["workgen"]


@pytest.mark.parametrize("wu_count", [0, 1, 7, 100_001])
@pytest.mark.parametrize("servers", [1, 2, 3, 4])
@pytest.mark.parametrize("complexity", ["3", "uniform:1:6"])
def test_queues_match_the_per_unit_loop(complexity, servers, wu_count, monkeypatch):
    cfg = ScenarioConfig(seed=11, wu_count=wu_count, complexity=complexity,
                         server_count=servers)
    got, rng_work = built(cfg, monkeypatch)
    queues, ref_rng = reference_init.build_queues(cfg)
    assert list(got) == list(queues) == cfg.server_ids()
    # WorkUnit's __eq__ compares every field: id, owner, complexity and the
    # deadline and requeue count, which start as None and 0.
    assert {sid: server.queue for sid, server in got.items()} == queues
    assert rng_work.getstate() == ref_rng.getstate()


def test_six_digit_ids_follow_five_digit_ones(monkeypatch):
    cfg = ScenarioConfig(wu_count=100_001, server_count=3)
    got, _ = built(cfg, monkeypatch)
    assert [wu.id for wu in got["w1"].queue][-2:] == ["wu99997", "wu100000"]


@pytest.mark.parametrize("complexity", ["3", "uniform:1:6"])
def test_units_with_no_server_raise(complexity):
    # validate_config rejects a servers count below 1 first; a config built
    # in code reaches World directly, and must not lose its units.
    cfg = ScenarioConfig(wu_count=5, server_count=0, complexity=complexity)
    with pytest.raises(ZeroDivisionError):
        reference_init.build_queues(cfg)
    with pytest.raises(ValueError, match="no server to own 5 work units"):
        World(cfg)


def test_no_units_and_no_server_build_an_empty_world():
    assert World(ScenarioConfig(wu_count=0, server_count=0)).servers == {}
