"""tdgsim's own draws equal the `random` helpers they replace.

`draw.below` and `draw.sample_indices` are CPython's `randrange` and
`sample` algorithms over `getrandbits`.  Here they must give the helpers'
values and leave the generator in the helpers' state, on every
interpreter the golden job runs.  If a future `random` changes its
helpers, these tests fail while the golden digests, which rest on
`getrandbits` alone, still hold.

The issuance table (`World.tau_draws`) is held to `effective_f_min` and
`classify`, which it stands in for, from equal generator states.
"""
import random
from math import ceil, log

import pytest
from hypothesis import given, settings, strategies as st

from tdgsim.config import AgentGroup, ScenarioConfig
from tdgsim.draw import below, sample_indices
from tdgsim.engine import World
from tdgsim.trust import (CAUSE_VALUES, NEUTRAL_TAU, ReplicationLimits,
                          ReputationProfile, classify, effective_f_min)

SEEDS = st.integers(0, 2**64 - 1)


def switch(k):
    """The largest n that `Random.sample` draws from by its pool method."""
    return 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0)


@settings(max_examples=300)
@given(st.one_of(st.integers(1, 300), st.integers(1, 2**70)), SEEDS)
def test_below_draws_what_randrange_draws(n, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    assert [below(rng, n) for _ in range(5)] == [ref.randrange(n) for _ in range(5)]
    assert rng.getstate() == ref.getstate()


@settings(max_examples=100)
@given(st.integers(1, 40), st.integers(0, 40), SEEDS)
def test_an_offset_below_draws_what_randint_draws(lo, width, seed):
    # The work generator's complexity, lo + below(rng, hi - lo + 1).
    rng, ref = random.Random(seed), random.Random(seed)
    hi = lo + width
    assert lo + below(rng, hi - lo + 1) == ref.randint(lo, hi)
    assert rng.getstate() == ref.getstate()


@settings(max_examples=400)
@given(st.integers(0, 300).flatmap(lambda n: st.tuples(
           st.just(n), st.integers(0, min(n, 40)))), SEEDS)
def test_sample_indices_draws_what_sample_of_a_range_draws(n_k, seed):
    n, k = n_k
    rng, ref = random.Random(seed), random.Random(seed)
    assert sample_indices(rng, n, k) == ref.sample(range(n), k)
    assert rng.getstate() == ref.getstate()


# Each side of the pool/set switch, for k <= 5 (at n = 21) and for k > 5
# (21 + 64 for k 6 to 21, 21 + 256 for k 22 to 85).
@pytest.mark.parametrize("k", [0, 1, 5, 6, 21, 22])
@pytest.mark.parametrize("side", [0, 1])
def test_sample_indices_draws_alike_on_both_sides_of_the_switch(k, side):
    n = switch(k) + side
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        assert sample_indices(rng, n, k) == ref.sample(range(n), k), (n, k, seed)
        assert rng.getstate() == ref.getstate()


def test_empty_draws_raise_as_the_helpers_do():
    rng = random.Random(0)
    for bad in (lambda: below(rng, 0), lambda: sample_indices(rng, 3, 4),
                lambda: sample_indices(rng, 3, -1)):
        with pytest.raises(ValueError):
            bad()
    assert rng.getstate() == random.Random(0).getstate()


# ------------------------------------------------------- the issuance table

RATINGS = sorted(set(CAUSE_VALUES.values()))


@st.composite
def window_taus(draw):
    """A tau that a reputation window reaches."""
    profile = ReputationProfile(draw(st.integers(1, 50)))
    tau = NEUTRAL_TAU
    for value in draw(st.lists(st.sampled_from(RATINGS), min_size=1, max_size=80)):
        tau = profile.push(value)
    return tau


TAUS = st.one_of(window_taus(), st.sampled_from([0.0, 0.5, 1.0]))
# At tau 1, (1, 1e17) rounds the factor to 0.0, a floor of 0 that
# f_min's lower bound of 1 must lift.
LIMITS = st.sampled_from([ReplicationLimits(), ReplicationLimits(1.0, 1.0),
                          ReplicationLimits(1.0, 3.0), ReplicationLimits(2.5, 7.25),
                          ReplicationLimits(1.0, 1e17)])


@settings(max_examples=200)
@given(st.lists(TAUS, min_size=1, max_size=12), LIMITS, SEEDS)
def test_issuance_table_draws_what_effective_f_min_draws(taus, limits, seed):
    cfg = ScenarioConfig(name="t", mode="trust", strategy="drds", horizon_ticks=1,
                         wu_count=1, complexity="3", timeout_ticks=5, limits=limits,
                         agents=[AgentGroup("a", len(taus), "reliable")])
    world = World(cfg)
    for agent, tau in zip(world.agent_order, taus):
        world.store.taus[agent.id] = tau
    world.rng_issue.seed(seed)
    ref = random.Random(seed)
    pools = []
    # Record the open pool instead of drawing groups from it.
    world._drain_queue = lambda queue, pool, distributor, community: pools.append(pool)
    for _ in range(2):  # the first issue fills the table, the second reads it
        pools.clear()
        world._issue_trust()
        got = [(c.agent, c.f_min, c.trust_class) for c in pools[0].values()]
        want = [(agent.id, max(effective_f_min(tau, limits, ref), 1), classify(tau))
                for agent, tau in zip(world.agent_order, taus)]
        assert got == want
        assert world.rng_issue.getstate() == ref.getstate()
    assert world.tau_draws.keys() == set(taus)
