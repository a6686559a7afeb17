"""`World._drain_queue` against the drain it replaced (`reference_issue.py`).

The drain no longer selects from a pool of fewer than 2 candidates under
drds, dods or dgds, and a dgds fallback holds for the rest of its drain
until a rejection.  Both must leave every group, event, pool and rng state
as the old drain, which selected for every group, left them."""
from collections import deque

from hypothesis import given, settings, strategies as st

import reference_issue
from tdgsim import engine
from tdgsim.config import AgentGroup, ScenarioConfig
from tdgsim.distribution import Candidate, FallbackToDRDS
from tdgsim.engine import WorkUnit, World
from tdgsim.trust import classify

STRATEGIES = ("drds", "dods", "dgds", "random")
# A rating that puts a fresh agent's tau in each class: tau 1 is trusted,
# the neutral 0.5 undecided and 0 untrusted.  One rejection takes a
# trusted agent to undecided, and an undecided one to untrusted.
RATINGS = {"trusted": 1.0, "undecided": None, "untrusted": -1.0}

SPEC = st.tuples(st.sampled_from(sorted(RATINGS)), st.integers(1, 5),
                 st.sampled_from((0.0, 0.5, 1.0)))


def drained(drain, strategy, seed, specs, units, short=False, same_total=True,
            replication=3.0, community=None):
    """Drain `units` work units to a pool of one candidate per spec
    (class, f_min, accept_prob) with `drain`; returns all it changed."""
    cfg = ScenarioConfig(name="drain", mode="trust", strategy=strategy, seed=seed,
                         wu_count=0, agents=[AgentGroup("a", len(specs))])
    cfg.params.allow_short_groups = short
    cfg.params.dgds_same_amount = "total" if same_total else "additional"
    cfg.params.random_replication = replication
    world = World(cfg)
    world.tick = 1
    pool = {}
    for agent, (cls, f_min, accept) in zip(cfg.agent_ids(), specs):
        world.agents[agent].accept_prob = accept
        if RATINGS[cls] is not None:
            world.store.record(agent, RATINGS[cls])
        pool[agent] = Candidate(agent, f_min, classify(world.store.tau(agent)))
    queue = deque(WorkUnit(f"wu{i:05d}", "w0", 3) for i in range(units))
    drain(world, queue, pool, "w0", community)
    return (world.events,
            {wu: (a.members, a.distributor, a.community, a.wu.deadline)
             for wu, a in world.assignments.items()},
            list(pool.items()), [wu.id for wu in queue],
            world.rng_issue.getstate(), world.rng_accept.getstate(), world.store.taus)


def same_as_reference(*args, **kwargs):
    got = drained(World._drain_queue, *args, **kwargs)
    assert got == drained(reference_issue.drain_queue, *args, **kwargs)
    return got


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(STRATEGIES), st.integers(0, 2**32),
       st.lists(SPEC, max_size=30), st.integers(0, 10), st.booleans(),
       st.booleans(), st.sampled_from((1.0, 2.5, 3.0)),
       st.sampled_from((None, "tc0")))
def test_a_drain_leaves_what_the_reference_drain_leaves(
        strategy, seed, specs, units, short, same_total, replication, community):
    same_as_reference(strategy, seed, specs, units, short, same_total,
                      replication, community)


def test_a_rejection_lets_a_drain_that_fell_back_form_a_dgds_group_again(monkeypatch):
    # No candidate is untrusted at first, so dgds falls back, and the
    # fallback holds: drds issues the next groups with no dgds call.  The
    # undecided a-003 takes half its offers; once it rejects one, it is
    # untrusted, and the next unit goes to a dgds group with it.
    outcomes = []
    dgds_select = engine.dgds_select

    def spy(*args, **kwargs):
        try:
            group = dgds_select(*args, **kwargs)
        except FallbackToDRDS:
            outcomes.append("fallback")
            raise
        outcomes.append(group.members)
        return group

    monkeypatch.setattr(engine, "dgds_select", spy)
    specs = [("trusted", 1, 1.0)] * 3 + [("undecided", 1, 0.5)] + [("trusted", 1, 1.0)] * 4
    events = same_as_reference("dgds", 4, specs, 4)[0]
    issued = [tuple(ev.payload["members"]) for ev in events if ev.kind == "wu_issued"]
    assert any(ev.kind == "wu_rejected" for ev in events)
    assert len(issued) == 4 and outcomes == ["fallback", issued[-1]]
    assert "a-003" in issued[-1]
