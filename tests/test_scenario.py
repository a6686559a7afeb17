"""Scenario parsing, report emission, metrics recomputation and the CLI."""
import configparser
import dataclasses
import gc
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tdgsim.cli import main
from tdgsim.config import AgentGroup, Params, ScenarioConfig
from tdgsim.engine import SimEvent, World
from tdgsim.ledger import Ledger
from tdgsim.metrics import compute_metrics
from tdgsim.scenario import (ConfigError, EventLogError, parse_scenario,
                             read_event_log, render_config, run,
                             write_event_log)

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
    for name in ("summary.csv", "series.csv", "ledger.txt", "events.jsonl"):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


# ------------------------------------------------------- event log codec

HEADER = {"horizon": 3, "agents": {"a-000": "reliable"}}
EVENT = '{"k": "wu_issued", "p": {"wu": "wu-0"}, "t": 1}'
UNDECODABLE = EVENT[:10].encode() + b"\xff" + EVENT[10:].encode()


def loads_per_line(path):
    """The reference reader: `json.loads` on every line.  Returns the
    events and the 1-based number and message of the first bad line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    events = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            raw = json.loads(line)
            events.append(SimEvent(raw["t"], raw["k"], raw["p"]))
        except json.JSONDecodeError as exc:
            return events, number, f"not JSON: {exc}"
        except (KeyError, TypeError) as exc:
            return events, number, f"event lacks 't', 'k' or 'p': {exc!r}"
    return events, None, None


# Each case is the text after the header line, and the line the reference
# reader rejects (None when it accepts the whole log).
READER_CASES = {
    "leading spaces": ("  " + EVENT + "\n" + EVENT + "\n", None),
    # text mode reads "\r\n" as "\n", as it did for json.loads
    "trailing json whitespace": (EVENT + " \t\r\n" + EVENT + "\n", None),
    "form feed after the value": (EVENT + "\n" + EVENT + "\f\n", 3),
    "vertical tab after the value": (EVENT + "\x0b\n" + EVENT + "\n", 2),
    "nbsp after the value": (EVENT + "\xa0\n", 2),
    "two values on one line": (EVENT + "\n" + EVENT + " " + EVENT + "\n", 3),
    "blank line mid-file": (EVENT + "\n\n" + EVENT + "\n", 3),
    "bom on an event line": (EVENT + "\n\ufeff" + EVENT + "\n", 3),
    "last line without newline": (EVENT + "\n" + EVENT, None),
    "bare value": (EVENT + "\n7\n", 3),
}


@pytest.mark.parametrize("body, bad_line", READER_CASES.values(), ids=READER_CASES)
def test_reader_accepts_exactly_what_json_loads_does(tmp_path, body, bad_line):
    log = tmp_path / "events.jsonl"
    log.write_text(json.dumps(HEADER, sort_keys=True) + "\n" + body, encoding="utf-8")
    expected, line, message = loads_per_line(log)
    assert line == bad_line
    if bad_line is None:
        assert read_event_log(log) == (HEADER, expected)
        return
    with pytest.raises(EventLogError) as exc:
        read_event_log(log)
    assert exc.value.line == bad_line
    assert str(exc.value) == f"line {bad_line}: {message}"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("raises", [False, True], ids=["ok", "raises"])
def test_reader_restores_the_collector_state(tmp_path, enabled, raises):
    log = tmp_path / "events.jsonl"
    log.write_text(json.dumps(HEADER) + "\n" + EVENT + "\n" + ("{\n" if raises else ""),
                   encoding="utf-8")
    before = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if raises:
            with pytest.raises(EventLogError):
                read_event_log(log)
        else:
            read_event_log(log)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if before else gc.disable()


json_leaves = (st.none() | st.booleans() | st.integers()
               | st.floats(allow_nan=False)
               | st.sampled_from([-0.0, 1e300, -1e-300, 0.1])
               | st.text() | st.sampled_from(['"', "\\", "\x00", "\x1f\x7f",
                                              "caf\xe9", "\u6f22\u5b57", "\u2028"]))
json_values = st.recursive(
    json_leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=5)),
    max_leaves=12)


@pytest.fixture(scope="module")
def codec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0), st.text(max_size=12),
                          st.dictionaries(st.text(max_size=6), json_values, max_size=5)
                          | json_values),
                max_size=6))
def test_writer_lines_equal_json_dumps(codec_dir, triples):
    log = codec_dir / "events.jsonl"
    events = [SimEvent(t, k, p) for t, k, p in triples]
    write_event_log(log, HEADER, events)
    lines = log.read_bytes().decode("ascii").split("\n")
    assert lines[0] == json.dumps(HEADER, sort_keys=True)
    assert lines[1:-1] == [json.dumps({"t": t, "k": k, "p": p}, sort_keys=True)
                           for t, k, p in triples]
    assert lines[-1] == ""
    # tuples come back as lists, as from any JSON round trip
    assert read_event_log(log) == (HEADER, [SimEvent(t, k, json.loads(json.dumps(p)))
                                            for t, k, p in triples])


def test_writer_without_the_c_encoder_writes_the_same_bytes(small_run, tmp_path,
                                                            monkeypatch):
    _, world, _, _ = small_run
    events = world.events + [SimEvent(7, "caf\xe9  ", {
        "b": [1.5, -0.0, 1e300, -1e-300], "a": ("x", None, True),
        "漢": {"z": "\x00\x1f\"\\", "y": 2}})]
    write_event_log(tmp_path / "c.jsonl", world.header(), events)
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    write_event_log(tmp_path / "py.jsonl", world.header(), events)
    assert (tmp_path / "py.jsonl").read_bytes() == (tmp_path / "c.jsonl").read_bytes()


def test_event_log_round_trips_the_engine_events(small_run, tmp_path):
    _, world, _, _ = small_run
    write_event_log(tmp_path / "events.jsonl", world.header(), world.events)
    header, events = read_event_log(tmp_path / "events.jsonl")
    assert header == world.header()
    assert events == world.events
    assert all(type(ev) is SimEvent for ev in events)


@pytest.mark.parametrize("bad", [b"{", UNDECODABLE], ids=["not JSON", "not UTF-8"])
def test_bad_line_after_a_bare_cr_is_numbered_as_it_is_read(tmp_path, bad):
    # Universal newlines end line 2 at the bare "\r", so the bad line is 3
    # whichever way it is bad.
    log = tmp_path / "events.jsonl"
    log.write_bytes(json.dumps(HEADER).encode() + b"\n" + EVENT.encode() + b"\r"
                    + bad + b"\n" + EVENT.encode() + b"\n")
    with pytest.raises(EventLogError) as exc:
        read_event_log(log)
    assert exc.value.line == 3


@pytest.mark.parametrize("line3, line5, reason", [
    (b"{", UNDECODABLE, "not JSON"),
    (UNDECODABLE, b"{", "not UTF-8"),
], ids=["bad JSON first", "not UTF-8 first"])
def test_the_first_bad_line_is_named_whichever_way_it_is_bad(tmp_path, line3,
                                                              line5, reason):
    # The text layer decodes a whole chunk, lines 1-5 here, before line 3
    # is parsed, so a byte that is not UTF-8 on line 5 is seen first.
    log = tmp_path / "events.jsonl"
    event = EVENT.encode()
    log.write_bytes(b"\n".join([json.dumps(HEADER).encode(), event, line3,
                                event, line5, event, b""]))
    with pytest.raises(EventLogError) as exc:
        read_event_log(log)
    assert exc.value.line == 3
    assert str(exc.value).startswith(f"line 3: {reason}")


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


def test_cli_verify_ledger_names_a_bad_integer_line(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", str(SCENARIOS / "defaults.ini"),
          "--out", str(out), "--ticks", "60"])
    capsys.readouterr()
    ledger_lines = (out / "ledger.txt").read_text().splitlines()
    assert len(ledger_lines) >= 3
    parts = ledger_lines[2].split(" ")
    parts[4] = "x9"  # the tick field
    ledger_lines[2] = " ".join(parts)
    (out / "ledger.txt").write_text("\n".join(ledger_lines) + "\n")
    assert main(["verify-ledger", str(out / "ledger.txt")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ledger parse error: line 3: ")
    assert "'x9'" in err

    (out / "ledger.txt").write_bytes(b"\xff\n")
    assert main(["verify-ledger", str(out / "ledger.txt")]) == 3
    assert "ledger parse error" in capsys.readouterr().err


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


@pytest.fixture
def replay_log(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(SCENARIOS / "defaults.ini"),
                 "--out", str(out), "--ticks", "30"]) == 0
    capsys.readouterr()
    return out / "events.jsonl"


def test_cli_replay_truncated_line_names_it(replay_log, capsys):
    lines = replay_log.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[4] = lines[4][:len(lines[4]) // 2] + "\n"
    replay_log.write_text("".join(lines), encoding="utf-8")
    assert main(["replay", "--log", str(replay_log)]) == 2
    assert "line 5" in capsys.readouterr().err


def test_cli_replay_missing_key_names_the_line(replay_log, capsys):
    lines = replay_log.read_text(encoding="utf-8").splitlines(keepends=True)
    event = json.loads(lines[7])
    del event["k"]
    lines[7] = json.dumps(event) + "\n"
    replay_log.write_text("".join(lines), encoding="utf-8")
    assert main(["replay", "--log", str(replay_log)]) == 2
    assert "line 8" in capsys.readouterr().err


def test_cli_replay_bad_header_names_line_one(replay_log, capsys):
    lines = replay_log.read_text(encoding="utf-8").splitlines(keepends=True)
    replay_log.write_text("[]\n" + "".join(lines[1:]), encoding="utf-8")
    assert main(["replay", "--log", str(replay_log)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_cli_replay_bad_payload_exits_two(replay_log, capsys):
    lines = replay_log.read_text(encoding="utf-8").splitlines(keepends=True)
    validated = next(i for i, line in enumerate(lines)
                     if json.loads(line).get("k") == "wu_validated")
    event = json.loads(lines[validated])
    del event["p"]["group_size"]
    lines[validated] = json.dumps(event) + "\n"
    replay_log.write_text("".join(lines), encoding="utf-8")
    assert main(["replay", "--log", str(replay_log)]) == 2
    assert "group_size" in capsys.readouterr().err


def test_cli_replay_undecodable_line_names_it(replay_log, capsys):
    lines = replay_log.read_bytes().splitlines(keepends=True)
    lines[5] = lines[5][:10] + b"\xff" + lines[5][10:]
    replay_log.write_bytes(b"".join(lines))
    with pytest.raises(EventLogError) as exc:
        read_event_log(replay_log)
    assert exc.value.line == 6
    assert main(["replay", "--log", str(replay_log)]) == 2
    assert "line 6" in capsys.readouterr().err
