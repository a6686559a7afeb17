"""The golden cases: scenarios whose outputs are pinned byte for byte.

A change that means to alter behaviour updates these digests and says why
in CHANGES.md; any other change must leave them as they are.
`effective_config.txt` is not pinned: it echoes the config schema, not
the simulation.  Instead each bundled scenario is run again from its own
echo, and all five output files must come out byte for byte the same.

No bundled scenario has agents that reject work, so four inline trust
scenarios, one per strategy, pin the issuance path where a rejection
lowers a candidate's tau in the middle of a tick, a fifth pins a run
whose work units end partly FAILED long before its horizon, a sixth
pins the centralized timeout path, which no bundled scenario reaches, a
seventh pins agent faults and a community that dissolves on failover, and
an eighth pins eight servers whose communities form, invite, evict and
dissolve side by side (no other case here has more than two servers).
Four scale rungs, one per strategy, pin 32 servers and the tens of live
communities and pools of hundreds that only larger runs reach.

This module imports no test framework, so any Python that can import
tdgsim runs it:

    PYTHONPATH=src python3.12 tests/golden_cases.py

runs every case and prints one JSON object: the interpreter's version,
per case the SHA-256 of each output, and per bundled scenario the output
files that its echo rerun changed; per scale rung the SHA-256 of each
output; then the same for every case of the generated corpus
(`corpus.py`), each rerun from its echo.  With `--pin-corpus` it writes
the corpus digests to `corpus_digests.json` instead, and with
`--pin-scale` the scale digests to `scale_digests.json`.  `test_golden.py`
checks the cases in process and runs this under the other installed
interpreters.
"""
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

from corpus import CORPUS, PINNED as CORPUS_PINNED, STRATEGIES
from event_schema import CENTRALIZED_CHURN
from tdgsim.scenario import parse_scenario, run

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

OUTPUTS = ("summary.csv", "series.csv", "ledger.txt", "events.jsonl")
ECHO = "effective_config.txt"

GOLDEN = {
    "centralized_outage": (
        "da9cdaa1b68e3a368c6fb6a0ec00062c240d536163ed012eaf2bf061ff883f1d",
        "0b136a89783a6cb409940fa5ec1fd2669df0ba2a34f752fb5ac4319fa4f99b7f",
        "5877b13c03cf412d773051a99b97b70772d1834c99e711feca6890cd9e99c3dc",
        "734ddbbb6941fbc391fda8aebba27b79c88d0b1ec1894a470fd322f791e27a1a",
    ),
    "defaults": (
        "de9b7577c60faae20be8d642ad931436cc679b41a62597f9d202651d9c3d1b6c",
        "ccc644bd561fa4cbec08ff2c753962da505723e0975891025a4607b77f9a6a09",
        "ca7be56fcfe01c09771c2e857ef0813346f211aa31fa68d53255b5cd4296b3a7",
        "298c597e5746e9335fed20483dd3b1699cd036cef7ade1d34f9b0202b021fa95",
    ),
    "etc_throughput": (
        "c24e6f0421de5852f88c79f43763684c1f2469b862e10512e26c40db60e5ae16",
        "2dc838c696f50e432802dd394398aa96625cb92654156ecb6bb0bec2f1fdc6f3",
        "b8e34b1df9a58caf8efe95ae639e934beb2ada9c7eb256aa2daca4e41e4c7b7f",
        "2500ccee48d09286d65dd611b780ed67f6c9647ed0d90aa5179dd7e9ba75a1ca",
    ),
    "malice_dgds": (
        "400e67d3acd467046779cb11dd8e2f7b1d46b7676db1b2347d57f664e6cf65a6",
        "596aad4ad0919d744718a04a33619a65d9fe47fe54a3387fa3688af73df140eb",
        "817b631f07594de7967ec67d10accb289496eb6f012ab7f0a3e35c8f1983ad51",
        "0a3ca5b6a815b84c4d80e42ffe01ce3c69b9a48155d67b10cfe9199a31662f2a",
    ),
    "tcm_failover": (
        "67bcd688292651b15c77c3fbd8fbbc1648722d93bc23aada197fb0661b0c536d",
        "198743288409f76b1000ca7966d3842a61abd66fdeac967dee95c562463ed166",
        "356fdf7b8dfbfa43466e381dc470e233746d75c5b36412701119c7f758ca7b90",
        "195ffda2639ac94b7ee101a818ff607aa6e030c7d26f21a0fc9bae8609aeb725",
    ),
}


def rejection_scenario(strategy):
    return f"""\
[scenario]
name = rejections-{strategy}
mode = trust
strategy = {strategy}
horizon_ticks = 400

[work]
wu_count = 600

[servers]
count = 2

[agents rel]
count = 30
profile = reliable
accept_prob = 0.7

[agents ego]
count = 6
profile = egoistic
accept_prob = 0.9

[agents mal]
count = 6
profile = malicious

[params]
formation = on
allow_short_groups = on
"""


REJECTION_GOLDEN = {
    "dgds": (
        "6071b63e9f46ff8ae609d899f5d239738ed6ce2bdd26fe99c29d336e136cf0e3",
        "f28783b6464c005286adb6d99f49a3237e22a52fec233b488353f507d01ea2dc",
        "2fad6be817cd4f8368ff86d2ce25c4f3794c662eba9be0120e776dc7f04d078e",
        "fc51437ee70e639da0bd80007788b42a8db0d89490db0d4b3f856d04d4d0d44d",
    ),
    "dods": (
        "46436588ed6f43b8f51c0fd789d457d79f39cdb7c316bc8f0c88ff4a7e4841cb",
        "afd85eac8095eaec204c992901aef8d7e9415f94d2d21e767ac93b794d463f11",
        "1ca9638942bc932b9deefa03342c37a46ee5247a9eb7f348059f292361849128",
        "7b556a0e5a16d2675038ea67ba02f81185df2e1254b10b8dbe722c3a7cfd3d7d",
    ),
    "drds": (
        "11a78a821c26f279569166a886b083a7fee1a1e9b81b128474e42600dffaa563",
        "afa399329f88afd1fe38a2161d789a59a2ee302201e38dc5e2db2b3ee6788847",
        "2c0ea99eab8f3dadac641d947379a603a458fad2358cbbaeafb95580ca006143",
        "c56483d9ab1608dc0dc450fb9174422e43a9584114d23c6f74e2229892f19146",
    ),
    "random": (
        "207a422d2e927b23114254fb0e4a712284effc7fc06ce369936e639b7c914a16",
        "3555f057ca266c9eb08ec21033df189fecf56e1374b9ce590f468b60ad191653",
        "0074c3289a82f05f1f30d8d9f33b8724ff20ff904c5d7f58d55fcf32b8a95e0c",
        "f0951db507bf4914bf73a13e15fa41004ffc019ac105e4a378ec4dd779eb5d0f",
    ),
}


# Colluders outnumber the reliable agents and free riders drop their
# replicas, so many rounds end without a strict majority and, with
# max_requeues = 1, about a quarter of the work units end FAILED.  Every
# work unit is terminal by about tick 100, so the last three hundred
# ticks pin the idle tail, where only churn still emits events.
FAILED_TAIL = """\
[scenario]
name = failed-tail
mode = trust
strategy = dgds
horizon_ticks = 400

[work]
wu_count = 120

[servers]
count = 2
timeout_ticks = 6

[agents rel]
count = 8
profile = reliable

[agents mal]
count = 10
profile = malicious

[agents fr]
count = 4
profile = free_rider

[agents ch]
count = 4
profile = churner
churn = 5/5

[params]
max_requeues = 1
allow_short_groups = on
"""

FAILED_TAIL_GOLDEN = (
    "dad759cfb7a1af1070e5560e997f11575307f2e2305667b1d3126f298bb185c3",
    "a5c2ada4e024399906a2a602dd7b6a033584b18050e7481334b4f6fa7fbd111e",
    "58fb356b14e0ac5fd16d387be679b35974c78dcc15fc5070a5bb423b783329fc",
    "6756600988be8840ab0fb006620e5b5f4097dd4958aae5eabe2a7648aa25a6fa",
)


# event_schema's centralized-churn, widened: its rejections, churners, free
# riders and server outage lapse hundreds of assignments, each timed out
# and redistributed by the assignment server.
CENTRALIZED_TIMEOUTS = (
    CENTRALIZED_CHURN.replace("centralized-churn", "centralized-timeouts")
    .replace("horizon_ticks = 60", "horizon_ticks = 400")
    .replace("wu_count = 40", "wu_count = 300")
    .replace("complexity = 2", "complexity = uniform:1:6"))

CENTRALIZED_TIMEOUTS_GOLDEN = (
    "9ccd1e4c200d16bbf90bd81082eaffa8b27a84241ac192224fd84968eef331f4",
    "2bf8cc72453ae922fed7b4b5c15b5e84d09dc493713b00396d52c4cab5637894",
    "5d80eb736f523a86e496077fbd29b8f3060b51f39da60a63df1073d78dc4999e",
    "6d12a42e9d6a8e9e639160856f9702990373076345260ec722380297839eb451",
)


# A community whose manager and members all go down on one tick finds no
# member to take over: failover dissolves it.  The agent faults reach the
# `[faults]` agent branch, a repeated `down` included, which no bundled
# scenario does.
FAILOVER_DISSOLUTION = """\
[scenario]
name = failover-dissolution
mode = trust
strategy = drds
seed = 3
horizon_ticks = 160

[work]
wu_count = 400
complexity = 2

[servers]
count = 1
timeout_ticks = 10

[agents rel]
count = 6
profile = reliable

[faults]
f0 = 100 w0 down
f1 = 100 rel-000 down
f2 = 100 rel-001 down
f3 = 100 rel-002 down
f4 = 100 rel-003 down
f5 = 100 rel-004 down
f6 = 100 rel-005 down
f7 = 100 rel-005 down
f8 = 120 rel-000 up
f9 = 120 w0 up
"""

FAILOVER_DISSOLUTION_GOLDEN = (
    "b66f5c0eecdd916c4816b92a682f7a9e7701193e8d40dc95a8b38f1f723178f5",
    "f13baabd4eab8370e1178f613d79054e06d9da44c140bfde95140bdce02a89d7",
    "56f9d37a2769be528d6ff9cea3c84f783d173f7511c0b9f95b813cfbf5d7084f",
    "4d641e4a6a0fdaf006d2c1caabb41c30bb041e2fcf0aba3f776b4f012fb1f355",
)


# Eight servers compete for 64 agents: most formation attempts fall short
# of the quorum, of invitees or of joiners, and the communities that do form
# take in churning members who leave and come back.
MANY_SERVERS = """\
[scenario]
name = many-servers
mode = trust
strategy = drds
seed = 5
horizon_ticks = 400

[work]
wu_count = 3000
complexity = uniform:1:4

[servers]
count = 8
timeout_ticks = 20

[agents rel]
count = 40
profile = reliable

[agents ego]
count = 6
profile = egoistic

[agents mal]
count = 10
profile = malicious

[agents flaky]
count = 8
profile = reliable
accept_prob = 0.7
churn = 30/10

[params]
min_size = 4
max_size = 6
"""

MANY_SERVERS_GOLDEN = (
    "3b29290007578bdf2c8d64522eade990405854fe2210eb155e27cffcea892e3b",
    "37dffb720dd76c32cc816c7e1b3808c6fcbb3cf1a13eb368baa1737db43247ea",
    "34f1fe529e34fab8fc809ea551c379e2fac9bcfa816c2a6dcc8ae4e63739f2fa",
    "d129ec7f5c5621e683c8e902453d9b17a3015247eefaa67ae6aaa2c1b74c8b0e",
)


# case name -> (scenario text, or None for the bundled file of that name;
# the pinned digests of OUTPUTS)
CASES = {name: (None, pins) for name, pins in GOLDEN.items()}
CASES.update({f"rejections-{strategy}": (rejection_scenario(strategy), pins)
              for strategy, pins in REJECTION_GOLDEN.items()})
CASES["failed-tail"] = (FAILED_TAIL, FAILED_TAIL_GOLDEN)
CASES["centralized-timeouts"] = (CENTRALIZED_TIMEOUTS, CENTRALIZED_TIMEOUTS_GOLDEN)
CASES["failover-dissolution"] = (FAILOVER_DISSOLUTION, FAILOVER_DISSOLUTION_GOLDEN)
CASES["many-servers"] = (MANY_SERVERS, MANY_SERVERS_GOLDEN)


# The scale rungs: bench/workloads.py's etc_throughput population x10
# (400 reliable, 80 malicious) with 32 servers, 1 000 work units per x1
# and 300 ticks, one rung per strategy, plus 40 agents that take 80 % of
# their offers, so that rejections reach pools of hundreds.  Only these
# cases hold more than 10 live communities at once and drain pools of
# hundreds of candidates.  Their digests are in SCALE_PINNED, which
# `--pin-scale` writes; `test_scale.py` holds their coverage gate.
SCALE_PINNED = Path(__file__).resolve().parent / "scale_digests.json"


def scale_rung(strategy):
    return f"""\
[scenario]
name = scale-{strategy}
mode = trust
strategy = {strategy}
horizon_ticks = 300

[work]
wu_count = 10000
complexity = 3

[servers]
count = 32
timeout_ticks = 30

[agents rel]
count = 400
profile = reliable

[agents mal]
count = 80
profile = malicious

[agents flaky]
count = 40
profile = reliable
accept_prob = 0.8

[params]
formation = on
"""


SCALE = {f"scale-{strategy}": scale_rung(strategy) for strategy in STRATEGIES}


def pinned(case):
    return dict(zip(OUTPUTS, CASES[case][1]))


def scale_pinned():
    return json.loads(SCALE_PINNED.read_text(encoding="utf-8"))


def scenario_file(case, out_dir):
    """The scenario file of `case`, a golden, scale or corpus case; an inline
    one is written to `out_dir`."""
    text = CASES[case][0] if case in CASES else SCALE.get(case) or CORPUS[case]
    if text is None:
        return SCENARIOS / f"{case}.ini"
    scenario = Path(out_dir) / "scenario.ini"
    scenario.write_text(text, encoding="utf-8")
    return scenario


def run_case(case, out_dir):
    """Run one case with its outputs in `out_dir`; returns the World and
    the SHA-256 of each output."""
    world, _, _ = run(parse_scenario(scenario_file(case, out_dir)), out_dir=out_dir)
    return world, {out: hashlib.sha256((Path(out_dir) / out).read_bytes()).hexdigest()
                   for out in OUTPUTS}


def echo_rerun(out_dir):
    """Run again from the `effective_config.txt` of the run in `out_dir`,
    into its `echo/` subdirectory; returns the names of the output files,
    the echo included, whose bytes differ between the two runs."""
    out = Path(out_dir)
    rerun = out / "echo"
    run(parse_scenario(out / ECHO), out_dir=rerun)
    return [name for name in OUTPUTS + (ECHO,)
            if (rerun / name).read_bytes() != (out / name).read_bytes()]


def main():
    digests, echo, corpus, corpus_echo, scale = {}, {}, {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in [*CASES, *SCALE, *CORPUS]:
            out = Path(tmp) / case
            out.mkdir()
            into, echoes = ((digests, echo) if case in CASES else
                            (scale, None) if case in SCALE else (corpus, corpus_echo))
            into[case] = run_case(case, out)[1]
            if case in GOLDEN or case in CORPUS:
                echoes[case] = echo_rerun(out)
    if sys.argv[1:] == ["--pin-corpus"]:
        CORPUS_PINNED.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
        return
    if sys.argv[1:] == ["--pin-scale"]:
        SCALE_PINNED.write_text(json.dumps(scale, indent=1) + "\n", encoding="utf-8")
        return
    json.dump({"python": platform.python_version(), "digests": digests,
               "echo": echo, "corpus": corpus, "corpus_echo": corpus_echo,
               "scale": scale}, sys.stdout)
    print()


if __name__ == "__main__":
    main()
