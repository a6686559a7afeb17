"""Acceptance suite: one pass/fail line per criterion (AC-1 .. AC-9).

These are end-to-end experiments over the bundled scenario files plus the
statistical unit checks; each prints its verdict even under pytest's
output capture so the gate is visible in any run log.
"""
import copy
import multiprocessing
import os
import random
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from tdgsim.config import AgentGroup, ScenarioConfig
from tdgsim.distribution import (Candidate, FallbackToDRDS, SelectionFailed,
                                 dgds_select)
from tdgsim.ledger import parse_ledger_lines
from tdgsim.scenario import parse_scenario, run
from tdgsim.trust import (ReplicationLimits, classify, raw_replication_factor,
                          roulette_round)

from community_log import community_logs
from ledger_balances import balances

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SEEDS = range(1, 11)


def verdict(capsys, criterion: str, ok: bool, detail: str) -> None:
    line = f"{criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def digest(cfg):
    """Run a scenario and keep only what the criteria below consume."""
    world, report, ledger = run(cfg, None)
    return {
        "report": report,
        "events": world.events,
        "malicious_taus": {a: world.store.tau(a)
                           for a, m in world.agents.items()
                           if m.profile == "malicious"},
        "balances_sum": sum(balances(ledger).values()),
        "committed": ledger.total_committed(),
        "event_credit": sum(sum(e.payload["allocations"].values())
                            for e in world.events
                            if e.kind == "credit_committed"),
        "ledger_lines": list(ledger.export_lines()),
        "communities": list(community_logs(world.events).values()),
        "min_size": cfg.params.min_size,
    }


def swept(cfg):
    """`digest(cfg)` less its event list: no criterion reads a swept
    run's events, and pickling them back from a worker costs about as
    much as the run."""
    result = digest(cfg)
    del result["events"]
    return result


def sweep(pair):
    """`[pair(seed) for seed in SEEDS]`, one worker process per core.
    Each run is a pure function of its scenario and seed, so the results
    are those of running the seeds one after another."""
    with ProcessPoolExecutor(min(len(SEEDS), os.cpu_count() or 1),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(pair, SEEDS))


def ac3_pair(seed):
    cfg = parse_scenario(SCENARIOS / "malice_dgds.ini")
    cfg.seed = seed
    dgds = swept(cfg)
    rnd_cfg = copy.deepcopy(cfg)
    rnd_cfg.strategy = "random"
    rnd_cfg.params.random_replication = dgds["report"].replication_overhead
    return seed, dgds, swept(rnd_cfg)


def ac6_pair(seed):
    cfg = parse_scenario(SCENARIOS / "etc_throughput.ini")
    cfg.seed = seed
    off_cfg = copy.deepcopy(cfg)
    off_cfg.params.formation = False
    return seed, swept(cfg), swept(off_cfg)


# --------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def ac3_data():
    return sweep(ac3_pair)


@pytest.fixture(scope="module")
def ac4_data():
    return digest(parse_scenario(SCENARIOS / "centralized_outage.ini"))


@pytest.fixture(scope="module")
def ac5_data():
    cfg = parse_scenario(SCENARIOS / "tcm_failover.ini")
    baseline_cfg = copy.deepcopy(cfg)
    baseline_cfg.faults = []
    return {"fault": digest(cfg), "baseline": digest(baseline_cfg)}


@pytest.fixture(scope="module")
def ac6_data():
    return sweep(ac6_pair)


# -------------------------------------------------------------- criteria

def test_ac1_replication_factor_and_rounding(capsys):
    exact = (raw_replication_factor(1.0) == 1.5
             and raw_replication_factor(0.0) == 5.0)
    rng = random.Random(2024)
    worst = 0.0
    for x in (1.5, 3.25, 4.9):
        draws = [roulette_round(x, rng) for _ in range(10**5)]
        worst = max(worst, abs(sum(draws) / len(draws) - x))
    verdict(capsys, "AC-1", exact and worst <= 0.02,
            f"factor endpoints exact; max |mean-x| = {worst:.4f} <= 0.02")


def test_ac2_dgds_no_untrusted_majority(capsys):
    rng = random.Random(7)
    emitted = 0
    violations = 0
    while emitted < 10**4:
        pool = []
        for cls, label in (("untrusted", "u"), ("trusted", "t"), ("undecided", "m")):
            for i in range(rng.randint(0, 10)):
                # Draw a busy coin per candidate and leave busy ones out of
                # the pool, so the random stream and the groups checked stay
                # those the suite has always checked.
                tau, f_min, busy = rng.random(), rng.randint(1, 6), rng.random() < 0.2
                if busy:
                    continue
                pool.append(Candidate(agent=f"{label}{i}", tau=tau,
                                      f_min=f_min, trust_class=cls))
        try:
            group = dgds_select(pool, rng)
        except (FallbackToDRDS, SelectionFailed):
            continue
        emitted += 1
        classes = {c.agent: c.trust_class for c in pool}
        untrusted = sum(classes[m] == "untrusted" for m in group.members)
        trusted = sum(classes[m] == "trusted" for m in group.members)
        if untrusted > trusted:
            violations += 1
    verdict(capsys, "AC-2", violations == 0,
            f"{violations} untrusted-majority groups in {emitted} emitted")


def test_ac3_trust_suppresses_malice(ac3_data, capsys):
    lower_wrong = 0
    stray = []
    for seed, dgds, rnd in ac3_data:
        if (dgds["report"].wrong_result_acceptance_rate
                < rnd["report"].wrong_result_acceptance_rate):
            lower_wrong += 1
        stray += [(seed, a) for a, tau in dgds["malicious_taus"].items()
                  if classify(tau) != "untrusted"]
    ok = lower_wrong >= 9 and not stray
    verdict(capsys, "AC-3", ok,
            f"dgds wrong-rate below matched random baseline on {lower_wrong}/10 "
            f"seeds; malicious agents not ending Untrusted: {len(stray)}")


def test_ac4_centralized_outage_halts_issuance(ac4_data, capsys):
    events = ac4_data["events"]
    inside = [e for e in events
              if e.kind == "wu_issued" and 1000 < e.tick < 2000]
    buffered = [e.payload["wu"] for e in events
                if e.kind == "wu_completed" and e.payload.get("buffered")]
    flushed = [e.payload["wu"] for e in events
               if e.kind == "wu_validated" and e.tick == 2000]
    fifo = bool(buffered) and flushed[:len(buffered)] == buffered
    verdict(capsys, "AC-4", not inside and fifo,
            f"{len(inside)} issuance events during the outage; "
            f"{len(buffered)} buffered results flushed FIFO at tick 2000")


def test_ac5_tcm_failover_continuity(ac5_data, capsys):
    fault, base = ac5_data["fault"], ac5_data["baseline"]
    gap = fault["report"].issuance_gap_ticks
    elected = [e.tick for e in fault["events"]
               if e.kind == "tc_event" and e.payload["kind"] == "tcm_elected"
               and 1000 <= e.tick <= 1001]
    ratio = fault["report"].throughput / base["report"].throughput
    ok = gap <= 2 and bool(elected) and ratio >= 0.9
    verdict(capsys, "AC-5", ok,
            f"issuance gap {gap} <= 2; TcmElected at tick "
            f"{elected[0] if elected else 'never'} <= 1001; "
            f"throughput ratio {ratio:.3f} >= 0.9")


def test_ac6_etc_throughput_advantage(ac6_data, capsys):
    better = 0
    for seed, on, off in ac6_data:
        if (on["report"].throughput > off["report"].throughput
                and on["report"].replication_overhead
                < off["report"].replication_overhead):
            better += 1
    verdict(capsys, "AC-6", better >= 9,
            f"formation strictly better in throughput and overhead on "
            f"{better}/10 seeds")


def test_ac7_ledger_mutation_detection_and_conservation(ac4_data, ac5_data, ac6_data, capsys):
    small = digest(parse_scenario(SCENARIOS / "defaults.ini"))
    raw = ("\n".join(small["ledger_lines"]) + "\n").encode()
    rng = random.Random(99)
    detected = 0
    for _ in range(10**3):
        mutated = bytearray(raw)
        pos = rng.randrange(len(mutated))
        mutated[pos] ^= 1 << rng.randrange(8)
        try:
            ledger = parse_ledger_lines(
                bytes(mutated).decode("utf-8").split("\n"))
        except (ValueError, UnicodeDecodeError):
            detected += 1
            continue
        if ledger.verify_chain() is not None:
            detected += 1
    runs = [small, ac4_data, ac5_data["fault"], ac5_data["baseline"]]
    runs += [d for _, on, off in ac6_data for d in (on, off)]
    conserved = all(d["balances_sum"] == d["committed"] == d["event_credit"]
                    for d in runs)
    verdict(capsys, "AC-7", detected == 1000 and conserved,
            f"{detected}/1000 single-bit mutations detected; credit "
            f"conservation held on {len(runs)} runs")


def test_ac8_bundled_scenarios_deterministic(tmp_path, capsys):
    names = ["defaults.ini", "centralized_outage.ini", "tcm_failover.ini",
             "malice_dgds.ini", "etc_throughput.ini"]
    identical = True
    for name in names:
        dirs = []
        for attempt in range(2):
            out = tmp_path / f"{name}-{attempt}"
            run(parse_scenario(SCENARIOS / name), out)
            dirs.append(out)
        for artifact in ("summary.csv", "series.csv", "ledger.txt"):
            if ((dirs[0] / artifact).read_bytes()
                    != (dirs[1] / artifact).read_bytes()):
                identical = False
    verdict(capsys, "AC-8", identical,
            f"summary.csv, series.csv and ledger.txt byte-identical across "
            f"reruns of {len(names)} bundled scenarios")


# A community is born operating and may then dissolve; it does nothing else.
LEGAL_PHASES = ["pre_organisation->formation", "formation->operation", "operation->dissolved"]


def _phase_log_legal(events):
    phases = [ev.payload["detail"] for ev in events
              if ev.payload["kind"] == "phase"]
    return phases in (LEGAL_PHASES[:2], LEGAL_PHASES)


def test_ac9_lifecycle_soundness(ac3_data, ac5_data, ac6_data, capsys):
    logs = []
    for _, dgds, rnd in ac3_data:
        logs += dgds["communities"] + rnd["communities"]
    logs += ac5_data["fault"]["communities"]
    logs += ac5_data["baseline"]["communities"]
    min_size = 5
    for _, on, off in ac6_data:
        logs += on["communities"] + off["communities"]
    illegal = sum(not _phase_log_legal(events) for events in logs)
    under_quorum = 0
    for events in logs:
        formation_ticks = [ev.tick for ev in events
                           if ev.payload["kind"] == "phase"
                           and ev.payload["detail"].endswith("->formation")]
        joined = sum(ev.payload["kind"] == "joined"
                     and ev.tick == formation_ticks[0] for ev in events)
        if joined < min_size:
            under_quorum += 1
    verdict(capsys, "AC-9", logs and illegal == 0 and under_quorum == 0,
            f"{len(logs)} community logs: {illegal} illegal phase "
            f"transitions, {under_quorum} formations below quorum")
