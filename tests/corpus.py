"""The generated golden corpus: small scenarios across the config space,
each one's four outputs pinned by SHA-256 in `corpus_digests.json`.

The hand-picked cases of `golden_cases.py` each pin the path that one
change touched.  The corpus instead renders scenario texts from a seeded
generator (a fixed seed and no hypothesis, so the texts never change)
across mode, strategy and every profile; churn, agent and server faults
and agents that reject work; formation, short groups, both readings of
`dgds_same_amount` and `max_requeues`; fixed and `uniform:` complexity;
1 to 8 servers; and trust pools on both sides of the 21 candidates at
which `random.sample` changes its method.  Two hand-written centralized
cases follow: a free rider whose dropped unit times out later, and two
servers that both come back up with completions buffered.

`test_corpus.py` runs the corpus in process and holds its coverage gate:
taken together, the corpus must keep emitting every event kind, rating
cause and `tc_event` kind, a short group, a dgds fallback and a terminal
redistribution, and every strategy must draw from pools both below and
above 21 candidates.  `golden_cases.py` runs it too, with an echo rerun
of each case, under every other installed interpreter.  A change that
means to move these bytes re-pins them with

    PYTHONPATH=src python tests/golden_cases.py --pin-corpus

and says why in CHANGES.md.  Like `golden_cases.py`, this module imports
no test framework, and it imports nothing from tdgsim.
"""
import json
import random
from pathlib import Path

PINNED = Path(__file__).resolve().parent / "corpus_digests.json"

SEED = 20211
STRATEGIES = ("drds", "dods", "dgds", "random")
# Each generated case has a reliable group and one group of these, taken in
# turn, so every profile appears under every mode.
OTHER_PROFILES = ("churner", "slow", "malicious", "free_rider", "egoistic")
TRUST_CASES = 28  # seven per strategy
CENTRALIZED_CASES = 8


def _section(title, **keys):
    return [f"[{title}]"] + [f"{key} = {value}" for key, value in keys.items()] + [""]


def _groups(rng, i, n_reliable):
    """The `[agents ...]` sections of case `i`, and the agent ids."""
    other = OTHER_PROFILES[i % len(OTHER_PROFILES)]
    groups = [("rel", n_reliable, "reliable"), ("x", rng.randrange(2, 7), other)]
    if rng.random() < 0.5:  # a second, smaller, colluding group
        groups.append(("mal", rng.randrange(1, 4), "malicious"))
    lines, ids = [], []
    for label, count, profile in groups:
        keys = {"count": count, "profile": profile}
        if profile == "slow" or rng.random() < 0.2:
            keys["speed"] = 1 if profile == "slow" else 2
        if rng.random() < 0.3:
            keys["accept_prob"] = rng.choice((0.5, 0.7, 0.9))
        if profile == "churner" or rng.random() < 0.15:
            keys["churn"] = f"{rng.randrange(2, 9)}/{rng.randrange(1, 6)}"
        lines += _section(f"agents {label}", **keys)
        ids += [f"{label}-{k:03d}" for k in range(count)]
    return lines, ids


def _faults(rng, horizon, servers, agent_ids):
    """A `[faults]` section, or none: a server outage, an agent that goes
    down and up, and sometimes a fault in the quiet tail."""
    faults = []
    if rng.random() < 0.5:
        server = f"w{rng.randrange(servers)}"
        down = rng.randrange(2, horizon // 2)
        faults += [f"{down} {server} down", f"{down + rng.randrange(1, 20)} {server} up"]
    if rng.random() < 0.5:
        agent = rng.choice(agent_ids)
        down = rng.randrange(2, horizon // 2)
        faults += [f"{down} {agent} down", f"{down + rng.randrange(0, 15)} {agent} up"]
    if rng.random() < 0.25:
        faults.append(f"{horizon - rng.randrange(1, 10)} {rng.choice(agent_ids)} down")
    if not faults:
        return []
    return ["[faults]"] + [f"f{k} = {f}" for k, f in enumerate(faults)] + [""]


def _case(rng, i, mode, strategy, large):
    horizon = rng.choice((60, 80, 120, 300))
    servers = rng.randrange(1, 9)
    n_reliable = rng.randrange(24, 34) if large else rng.randrange(4, 14)
    agents, agent_ids = _groups(rng, i, n_reliable)
    lines = _section("scenario", name=f"corpus-{i:02d}", mode=mode, strategy=strategy,
                     seed=rng.randrange(1, 1000), horizon_ticks=horizon)
    lines += _section("work", wu_count=rng.randrange(10, 90 if large else 50),
                      complexity=rng.choice(("1", "2", "3", "uniform:1:4", "uniform:2:6")))
    lines += _section("servers", count=servers, timeout_ticks=rng.randrange(3, 14))
    lines += agents
    lines += _faults(rng, horizon, servers, agent_ids)
    min_size = rng.randrange(0, 5)
    lines += _section(
        "params", window=rng.choice((4, 10, 50)), min_size=min_size,
        max_size=max(min_size, 1) + rng.randrange(0, 8),
        join_threshold=rng.choice((0.55, 0.6, 0.7)),
        formation=rng.choice(("on", "on", "off")),
        allow_short_groups=rng.choice(("on", "off")),
        dgds_same_amount=rng.choice(("total", "additional")),
        max_requeues=rng.randrange(0, 4),
        random_replication=rng.choice((2.0, 2.5, 3.0)))
    return "\n".join(lines)


def generate():
    """Case name -> scenario text, for every generated case."""
    rng = random.Random(SEED)
    cases = {}
    for i in range(TRUST_CASES):
        # Of each eight, the first four (one per strategy) have large pools.
        cases[f"corpus-{i:02d}"] = _case(rng, i, "trust", STRATEGIES[i % 4], large=i % 8 < 4)
    for i in range(TRUST_CASES, TRUST_CASES + CENTRALIZED_CASES):
        cases[f"corpus-{i:02d}"] = _case(rng, i, "centralized", "drds", large=i % 2 == 0)
    return cases


# Free riders drop each unit on their first compute tick.  The unit keeps
# its deadline until it times out, by then held by no one or by the free
# rider's next unit, so the timeout reports 0 units.
FREE_RIDER_TIMEOUT = """\
[scenario]
name = corpus-free-rider-timeout
mode = centralized
horizon_ticks = 40

[work]
wu_count = 30
complexity = 2

[servers]
count = 1
timeout_ticks = 4

[agents rel]
count = 3
profile = reliable

[agents fr]
count = 2
profile = free_rider
"""

# Both servers go down while their units are computed, and both come back
# up on one tick, each flushing the completions it buffered.
TWO_SERVER_OUTAGE = """\
[scenario]
name = corpus-two-server-outage
mode = centralized
horizon_ticks = 50

[work]
wu_count = 40
complexity = uniform:2:5

[servers]
count = 2
timeout_ticks = 30

[agents rel]
count = 6
profile = reliable

[faults]
f0 = 8 w0 down
f1 = 9 w1 down
f2 = 20 w1 up
f3 = 20 w0 up
"""

CORPUS = generate()
CORPUS["corpus-free-rider-timeout"] = FREE_RIDER_TIMEOUT
CORPUS["corpus-two-server-outage"] = TWO_SERVER_OUTAGE


def pinned():
    """Case name -> output file name -> its pinned SHA-256."""
    return json.loads(PINNED.read_text(encoding="utf-8"))
