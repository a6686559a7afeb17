"""Scenario parsing, report emission, metrics recomputation and the CLI."""
import configparser
import dataclasses
import json
from pathlib import Path

import pytest

from tdgsim.cli import main
from tdgsim.config import AgentGroup, Params, ScenarioConfig
from tdgsim.engine import World
from tdgsim.ledger import Ledger
from tdgsim.metrics import compute_metrics
from tdgsim.scenario import (ConfigError, parse_scenario, read_event_log,
                             render_config, run)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
[scenario]
horizon_ticks = 20

[work]
wu_count = 1

[agents solo]
count = 1
profile = reliable
"""


def write(tmp_path, text, name="s.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# -------------------------------------------------------------- parsing

def test_minimal_file_fills_documented_defaults(tmp_path):
    cfg = parse_scenario(write(tmp_path, MINIMAL))
    assert cfg.mode == "centralized"
    assert cfg.strategy == "drds"
    assert cfg.seed == 1
    assert cfg.wu_count == 1
    assert cfg.params.window == 50
    assert cfg.limits.lo == 1.5 and cfg.limits.hi == 5.0
    assert cfg.agents[0].agent_ids() == ["solo-000"]


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError):
        parse_scenario(tmp_path / "nope.ini")


def test_dangling_fault_reference_names_the_entity(tmp_path):
    text = MINIMAL + "\n[faults]\nf0 = 5 w9 down\n"
    with pytest.raises(ConfigError) as exc:
        parse_scenario(write(tmp_path, text))
    assert any("w9" in err for err in exc.value.errors)


def test_all_errors_reported_together(tmp_path):
    text = MINIMAL + """
[faults]
f0 = 5 w9 down

[params]
window = not-a-number
bogus_key = 1
election_delay = 1
"""
    with pytest.raises(ConfigError) as exc:
        parse_scenario(write(tmp_path, text))
    joined = "\n".join(exc.value.errors)
    assert len(exc.value.errors) >= 4
    assert "w9" in joined and "window" in joined and "bogus_key" in joined
    assert "election_delay" in joined


def test_defaults_file_documents_every_param():
    path = SCENARIOS / "defaults.ini"
    ini = configparser.ConfigParser(delimiters=("=",), inline_comment_prefixes=("#",))
    ini.read(path, encoding="utf-8")
    assert set(ini.options("params")) == {f.name for f in dataclasses.fields(Params)}
    assert parse_scenario(path).params == Params()


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError) as exc:
        parse_scenario(write(tmp_path, MINIMAL + "\n[wat]\nx = 1\n"))
    assert any("[wat]" in err for err in exc.value.errors)


def test_non_positive_horizon_rejected(tmp_path):
    with pytest.raises(ConfigError) as exc:
        parse_scenario(write(tmp_path, MINIMAL.replace("horizon_ticks = 20",
                                                       "horizon_ticks = 0")))
    assert any("horizon" in err for err in exc.value.errors)


def test_effective_config_round_trips(tmp_path):
    original = parse_scenario(SCENARIOS / "tcm_failover.ini")
    echoed = parse_scenario(write(tmp_path, render_config(original)))
    assert echoed == original


@pytest.mark.parametrize("name", ["defaults.ini", "centralized_outage.ini",
                                  "tcm_failover.ini", "malice_dgds.ini",
                                  "etc_throughput.ini"])
def test_bundled_scenarios_parse(name):
    cfg = parse_scenario(SCENARIOS / name)
    assert cfg.horizon_ticks > 0


# ------------------------------------------------------------- reports

@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    cfg = ScenarioConfig(name="small", mode="trust", strategy="dgds", seed=5,
                         horizon_ticks=80, wu_count=60, timeout_ticks=20,
                         agents=[AgentGroup("rel", 8, "reliable"),
                                 AgentGroup("mal", 2, "malicious")])
    world, report, ledger = run(cfg, out)
    return out, world, report, ledger


def test_report_files_written(small_run):
    out, _, report, _ = small_run
    for name in ("summary.csv", "series.csv", "ledger.txt",
                 "effective_config.txt", "events.jsonl"):
        assert (out / name).exists()
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "metric,value"
    assert any(line.startswith("throughput,") for line in lines)
    series = (out / "series.csv").read_text().splitlines()
    assert series[0] == "tick,issued,validated,active_agents,etc_size"
    assert len(series) == 1 + report.horizon


def test_zero_tick_report_emits_header_only(tmp_path):
    from tdgsim.scenario import emit_report
    cfg = ScenarioConfig(horizon_ticks=1, wu_count=0, agents=[])
    world = World(cfg)
    report = compute_metrics({**world.header(), "horizon": 0}, [])
    emit_report(world, report, tmp_path)
    assert (tmp_path / "series.csv").read_text() == \
        "tick,issued,validated,active_agents,etc_size\n"


def test_summary_metrics_recomputable_from_event_log(small_run):
    out, _, report, _ = small_run
    header, events = read_event_log(out / "events.jsonl")
    sizes, validated, issued, wrong = [], 0, 0, 0
    for ev in events:
        if ev.kind == "wu_validated":
            validated += 1
            sizes.append(ev.payload["group_size"])
            wrong += 0 if ev.payload["correct"] else 1
        elif ev.kind == "wu_issued":
            issued += 1
    assert report.issued == issued
    assert report.validated == validated
    assert report.throughput == validated / header["horizon"]
    assert report.replication_overhead == sum(sizes) / validated
    assert report.wrong_result_acceptance_rate == wrong / validated


def test_issuance_gap_matches_brute_force(small_run):
    out, _, report, _ = small_run
    header, events = read_event_log(out / "events.jsonl")
    ticks = sorted({e.tick for e in events if e.kind == "wu_issued"})
    best = max((b - a - 1 for a, b in zip(ticks, ticks[1:])), default=0)
    assert report.issuance_gap_ticks == best


def test_replay_reproduces_the_report(small_run):
    out, _, report, _ = small_run
    header, events = read_event_log(out / "events.jsonl")
    replayed = compute_metrics(header, events)
    assert replayed == report


def test_ledger_conserves_committed_credit(small_run):
    out, _, report, ledger = small_run
    assert ledger.verify_chain() is None
    assert sum(ledger.balances().values()) == ledger.total_committed()
    assert sum(report.credit_millis_by_profile.values()) == ledger.total_committed()


def test_run_rerun_is_identical(small_run, tmp_path):
    out, _, report, _ = small_run
    cfg = ScenarioConfig(name="small", mode="trust", strategy="dgds", seed=5,
                         horizon_ticks=80, wu_count=60, timeout_ticks=20,
                         agents=[AgentGroup("rel", 8, "reliable"),
                                 AgentGroup("mal", 2, "malicious")])
    _, again, _ = run(cfg, tmp_path)
    assert again == report
    for name in ("summary.csv", "series.csv", "ledger.txt"):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


# ------------------------------------------------------------------ CLI

def test_cli_run_prints_metrics(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(SCENARIOS / "defaults.ini"),
                 "--out", str(out), "--ticks", "50"])
    captured = capsys.readouterr()
    assert code == 0
    assert "throughput," in captured.out
    assert (out / "summary.csv").exists()


def test_cli_flag_overrides_apply(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(SCENARIOS / "defaults.ini"),
                 "--out", str(out), "--ticks", "40", "--seed", "99",
                 "--mode", "trust", "--strategy", "dods"])
    assert code == 0
    echo = (out / "effective_config.txt").read_text()
    assert "seed = 99" in echo
    assert "mode = trust" in echo
    assert "strategy = dods" in echo
    assert "horizon_ticks = 40" in echo


def test_cli_config_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(MINIMAL + "\n[faults]\nf0 = 5 w9 down\n", encoding="utf-8")
    assert main(["run", "--scenario", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def trust_defaults(tmp_path, window):
    text = (SCENARIOS / "defaults.ini").read_text(encoding="utf-8")
    edited = (text.replace("mode = centralized ", "mode = trust ")
              .replace("window = 50 ", f"window = {window} "))
    assert edited.count("mode = trust ") == 1
    assert edited.count(f"window = {window} ") == 1
    return write(tmp_path, edited)


def test_cli_negative_window_is_a_config_error(tmp_path, capsys):
    assert main(["run", "--scenario", str(trust_defaults(tmp_path, -1))]) == 1
    err = capsys.readouterr().err
    assert "config error: window must be >= 0, got -1" in err
    assert "Traceback" not in err


def test_cli_zero_window_keeps_every_tau_neutral(tmp_path, capsys):
    scenario = trust_defaults(tmp_path, 0)
    assert main(["run", "--scenario", str(scenario), "--ticks", "200"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    taus = {metric: value for metric, value in rows
            if metric.startswith("mean_tau_")}
    assert taus and int(dict(rows)["issued"]) > 0
    assert set(taus.values()) == {"0.5"}


def test_cli_ledger_audit_failure_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(Ledger, "verify_chain", lambda self: 0)
    assert main(["run", "--scenario", str(SCENARIOS / "defaults.ini"),
                 "--ticks", "20"]) == 3
    assert "ledger block 0" in capsys.readouterr().err


def test_cli_other_runtime_error_exits_two(monkeypatch, capsys):
    def fail(self):
        raise RuntimeError("ledger append raced")
    monkeypatch.setattr(World, "run", fail)
    assert main(["run", "--scenario", str(SCENARIOS / "defaults.ini")]) == 2
    assert "ledger append raced" in capsys.readouterr().err


def test_cli_verify_ledger(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", str(SCENARIOS / "defaults.ini"),
          "--out", str(out), "--ticks", "60"])
    capsys.readouterr()
    assert main(["verify-ledger", str(out / "ledger.txt")]) == 0
    assert "ok:" in capsys.readouterr().out

    ledger_lines = (out / "ledger.txt").read_text().splitlines()
    assert ledger_lines, "expected at least one committed block"
    parts = ledger_lines[0].split(" ")
    agent, _, mc = parts[3].split(",")[0].rpartition(":")
    parts[3] = f"{agent}:{int(mc) + 1}"
    (out / "ledger.txt").write_text("\n".join([" ".join(parts)]
                                              + ledger_lines[1:]) + "\n")
    assert main(["verify-ledger", str(out / "ledger.txt")]) == 3
    assert "FAILED at block 0" in capsys.readouterr().err


def test_cli_replay_matches_run_output(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(SCENARIOS / "defaults.ini"),
                 "--out", str(out), "--ticks", "60"])
    run_stdout = capsys.readouterr().out
    assert code == 0
    assert main(["replay", "--log", str(out / "events.jsonl")]) == 0
    assert capsys.readouterr().out == run_stdout


def test_cli_replay_missing_log_exits_one(capsys):
    assert main(["replay", "--log", "/no/such/events.jsonl"]) == 1
