"""The generated golden corpus (`corpus.py`): its outputs are pinned byte for
byte, and its coverage gate keeps it holding the cases that later changes
to selection, issuance and the tick loop are checked against.

The corpus runs once, in process, with spies on the selectors that change
no output; `test_golden.py` runs it under the other interpreters, each
case also rerun from its echo.
"""
from collections import Counter
from types import SimpleNamespace

import pytest

from corpus import CORPUS, pinned
from event_schema import EVENT_KEYS, RATING_CAUSES, TC_EVENT_KINDS
from golden_cases import run_case
from tdgsim import engine
from tdgsim.distribution import FallbackToDRDS


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Every corpus case run once: the digests of its outputs, what it
    emitted, and the size of every pool each strategy selected from."""
    pools, fallbacks, selecting = {}, Counter(), [False]
    select_group, dgds_select = engine.World._select_group, engine.dgds_select
    drds_select = engine.drds_select

    def spy_select(world, candidates):
        pools.setdefault(world.config.strategy, []).append(len(candidates))
        selecting[0] = True
        try:
            return select_group(world, candidates)
        finally:
            selecting[0] = False

    def spy_drds(candidates, rng):
        # Called outside _select_group only by a drain whose dgds fallback
        # holds: that pool is a dgds pool too.
        if not selecting[0]:
            pools["dgds"].append(len(candidates))
        return drds_select(candidates, rng)

    def spy_dgds(*args, **kwargs):
        try:
            return dgds_select(*args, **kwargs)
        except FallbackToDRDS:
            fallbacks["dgds"] += 1
            raise

    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine.World, "_select_group", spy_select)
        mp.setattr(engine, "dgds_select", spy_dgds)
        mp.setattr(engine, "drds_select", spy_drds)
        for name in CORPUS:
            world, digests = run_case(name, tmp_path_factory.mktemp(name))
            runs[name] = SimpleNamespace(digests=digests, events=world.events)
    return SimpleNamespace(runs=runs, pools=pools, fallbacks=fallbacks)


def test_corpus_outputs_match_their_pinned_digests(corpus):
    pins = pinned()
    assert set(pins) == set(CORPUS)
    wrong = {name: sorted(out for out, digest in pins[name].items()
                          if run.digests.get(out) != digest)
             for name, run in corpus.runs.items()}
    assert {name: outs for name, outs in wrong.items() if outs} == {}


def test_the_corpus_covers_every_kind_cause_and_corner(corpus):
    events = [ev for run in corpus.runs.values() for ev in run.events]
    assert {ev.kind for ev in events} == set(EVENT_KEYS)
    assert {ev.payload["cause"] for ev in events
            if ev.kind == "rating_issued"} == RATING_CAUSES
    assert {ev.payload["kind"] for ev in events if ev.kind == "tc_event"} == TC_EVENT_KINDS
    assert any(ev.kind == "wu_issued" and ev.payload.get("short") for ev in events)
    assert any(ev.kind == "wu_redistributed" and ev.payload.get("terminal")
               for ev in events)
    assert corpus.fallbacks["dgds"] > 0
    # random.sample changes its method above 21 items; drds samples the
    # n - 1 candidates besides its initiator, so a large pool is over 22.
    assert {strategy: (min(sizes) <= 21, max(sizes) > 22)
            for strategy, sizes in corpus.pools.items()} == {
        strategy: (True, True) for strategy in ("drds", "dods", "dgds", "random")}


def test_a_free_riders_dropped_unit_times_out_with_no_units(corpus):
    # The unit keeps its deadline after the drop; at the timeout its holder
    # holds nothing or its next unit, so _release gives 0.
    events = corpus.runs["corpus-free-rider-timeout"].events
    dropped = {(ev.payload["wu"], ev.payload["agent"]) for ev in events
               if ev.kind == "wu_dropped"}
    lapsed = [ev for ev in events if ev.kind == "wu_timed_out"]
    assert dropped and lapsed
    assert {(ev.payload["wu"], ev.payload["agent"]) for ev in lapsed} == dropped
    assert {ev.payload["units"] for ev in lapsed} == {0}


def test_both_servers_flush_their_buffered_completions(corpus):
    events = corpus.runs["corpus-two-server-outage"].events
    up = {ev.payload["server"]: ev.tick for ev in events if ev.kind == "server_up"}
    owner = {ev.payload["wu"]: ev.payload["distributor"] for ev in events
             if ev.kind == "wu_issued"}
    buffered = [ev.payload["wu"] for ev in events
                if ev.kind == "wu_completed" and ev.payload["buffered"]]
    assert set(up) == {"w0", "w1"} and len(set(up.values())) == 1
    assert {owner[wu] for wu in buffered} == {"w0", "w1"}
    validated = {ev.payload["wu"]: ev.tick for ev in events if ev.kind == "wu_validated"}
    assert all(validated[wu] == up[owner[wu]] for wu in buffered)
