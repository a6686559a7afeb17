"""The scale rungs (`golden_cases.SCALE`): their outputs are pinned byte for
byte in `scale_digests.json`, and a coverage gate keeps them reaching
what no golden or corpus case reaches: more than 10 live communities at
once, and, under each strategy, drains and rejections from pools of at
least 200 candidates.  These are the loops whose order and pool sizes
the selection and community rewrites change.

The text order of community ids is pinned on purpose.  Issuance drains
the live communities, and the lifecycle operates them, in
`sorted(self.communities)`: ids compared as text, so `tc10` comes before
`tc2`.  Only a run with more than 10 communities tells that order from
formation order, and these rungs are the pinned runs that have them.
Changing it to formation order is a deliberate digest move, to be made
with re-pinned digests and said in CHANGES.md, not the side effect of a
rewrite.

The rungs run once, in process, with spies that change no output;
`golden_cases.py` runs them under the other interpreters.
"""
from collections import defaultdict
from types import SimpleNamespace

import pytest

from corpus import STRATEGIES
from golden_cases import SCALE, run_case, scale_pinned
from tdgsim import engine

LARGE_POOL = 200


@pytest.fixture(scope="module")
def rungs(tmp_path_factory):
    """Every rung run once: the digests of its outputs, the most live
    communities it held at once, the size of every pool it selected from
    and of the pool behind every rejection."""
    pools, rejected_from, live = defaultdict(list), defaultdict(list), defaultdict(int)
    last_pool = [0]
    select_group, drds_select = engine.World._select_group, engine.drds_select
    rate, step = engine.World._rate, engine.World.step

    def spy_select(world, candidates):
        pools[world.config.strategy].append(len(candidates))
        last_pool[0] = len(candidates)
        return select_group(world, candidates)

    def spy_drds(candidates, rng):
        # Called outside _select_group only by a drain whose dgds fallback
        # holds: that pool is a dgds pool too.
        last_pool[0] = len(candidates)
        return drds_select(candidates, rng)

    def spy_rate(world, subject, rating, rater):
        # A rejection is rated right after the selection of its group.
        if rating is engine._REJECTED:
            rejected_from[world.config.strategy].append(last_pool[0])
        return rate(world, subject, rating, rater)

    def spy_step(world, tick):
        step(world, tick)
        strategy = world.config.strategy
        live[strategy] = max(live[strategy], len(world.communities))

    digests = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine.World, "_select_group", spy_select)
        mp.setattr(engine, "drds_select", spy_drds)
        mp.setattr(engine.World, "_rate", spy_rate)
        mp.setattr(engine.World, "step", spy_step)
        for name in SCALE:
            digests[name] = run_case(name, tmp_path_factory.mktemp(name))[1]
    return SimpleNamespace(digests=digests, pools=pools,
                           rejected_from=rejected_from, live=live)


def test_scale_outputs_match_their_pinned_digests(rungs):
    pins = scale_pinned()
    assert set(pins) == set(SCALE)
    wrong = {name: sorted(out for out, digest in pins[name].items()
                          if rungs.digests[name].get(out) != digest)
             for name in SCALE}
    assert {name: outs for name, outs in wrong.items() if outs} == {}


def test_every_rung_reaches_many_communities_and_large_pools(rungs):
    reached = {strategy: (rungs.live[strategy] > 10,
                          max(rungs.pools[strategy]) >= LARGE_POOL,
                          max(rungs.rejected_from[strategy], default=0) >= LARGE_POOL)
               for strategy in STRATEGIES}
    assert reached == {strategy: (True, True, True) for strategy in STRATEGIES}
