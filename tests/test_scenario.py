"""Scenario parsing, report emission, metrics recomputation and the CLI."""
import configparser
import dataclasses
import errno
import json
import sys
from pathlib import Path

import pytest

from tdgsim.cli import main
from tdgsim.config import AgentGroup, Params, ScenarioConfig, complexity_range
from tdgsim.engine import World
from tdgsim.eventlog import read_event_log
from tdgsim.ledger import Ledger
from tdgsim.metrics import compute_metrics
from tdgsim.scenario import (ConfigError, parse_scenario, render_config, run,
                             validate_config)
from tdgsim.trust import ReplicationLimits

from ledger_balances import balances

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
    # Every section's keys, in the order render_config writes them from the
    # section tables, each with its default value.  The name is a label and
    # an [agents] count is required, so neither has a default to show.
    echo = configparser.ConfigParser(delimiters=("=",))
    echo.read_string(render_config(ScenarioConfig(agents=[AgentGroup("workers")])))
    assert ini.sections() == echo.sections()
    for section in echo.sections():
        assert ini.options(section) == echo.options(section), section
        for key in echo.options(section):
            if (section, key) not in {("scenario", "name"), ("agents workers", "count")}:
                assert ini.get(section, key) == echo.get(section, key), (section, key)


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError) as exc:
        parse_scenario(write(tmp_path, MINIMAL + "\n[wat]\nx = 1\n"))
    assert any("[wat]" in err for err in exc.value.errors)


def test_misspelled_agents_section_is_unknown(tmp_path):
    # Each was taken as an unlabelled group, and two of them as one label
    # used twice.
    text = MINIMAL + "\n[agentsrel]\ncount = 2\n\n[agents_mal]\ncount = 1\n"
    with pytest.raises(ConfigError) as exc:
        parse_scenario(write(tmp_path, text))
    assert exc.value.errors == ["unknown section [agentsrel]",
                                "unknown section [agents_mal]"]


def test_agents_label_may_follow_any_whitespace(tmp_path):
    cfg = parse_scenario(write(tmp_path, MINIMAL.replace("[agents solo]",
                                                         "[agents\tsolo ]")))
    assert cfg.agents[0].agent_ids() == ["solo-000"]


def test_non_positive_horizon_rejected(tmp_path):
    with pytest.raises(ConfigError) as exc:
        parse_scenario(write(tmp_path, MINIMAL.replace("horizon_ticks = 20",
                                                       "horizon_ticks = 0")))
    assert any("horizon" in err for err in exc.value.errors)


# Every [params] key set away from its default.
EVERY_PARAM = """
[params]
window = 7
min_size = 3
max_size = 9
join_threshold = 0.65
evict_threshold = 0.45
drop_delta = 0.15
dissolve_fraction = 0.25
formation = off
allow_short_groups = on
dgds_same_amount = additional
max_requeues = 4
random_replication = 2.5
"""
ALL_PARAMS = MINIMAL + EVERY_PARAM

# Every key of every section set away from its default.
EVERY_KEY = """
[scenario]
name = every-key
mode = trust
strategy = dgds
seed = 11
horizon_ticks = 40

[work]
wu_count = 12
complexity = uniform:1:3
base_credit = 7

[servers]
count = 2
timeout_ticks = 9

[agents fast]
count = 3
profile = churner
speed = 2
accept_prob = 0.75
churn = 5/2

[agents odd]
count = 2
profile = slow
speed = 3
accept_prob = 0.5
churn = 0/4

[faults]
f0 = 5 w1 down
f1 = 9 fast-000 down
f2 = 12 w1 up

[limits]
lo = 1.25
hi = 4.5
""" + EVERY_PARAM

BUNDLED = ["defaults.ini", "centralized_outage.ini", "tcm_failover.ini",
           "malice_dgds.ini", "etc_throughput.ini"]


def defaults_kept(obj, default):
    """Names of the fields of `obj` still equal to those of `default`."""
    return [f.name for f in dataclasses.fields(obj)
            if getattr(obj, f.name) == getattr(default, f.name)]


def test_effective_config_round_trips(tmp_path):
    all_params = parse_scenario(write(tmp_path, ALL_PARAMS, "all_params.ini"))
    for f in dataclasses.fields(Params):
        assert getattr(all_params.params, f.name) != f.default, f.name
    every_key = parse_scenario(write(tmp_path, EVERY_KEY, "every_key.ini"))
    pairs = [(every_key, ScenarioConfig()), (every_key.params, Params()),
             (every_key.limits, ReplicationLimits())]
    for obj, default in pairs + [(g, AgentGroup("agents")) for g in every_key.agents]:
        assert defaults_kept(obj, default) == [], type(obj).__name__
    originals = [parse_scenario(SCENARIOS / name) for name in BUNDLED]
    for original in originals + [all_params, every_key]:
        echoed = parse_scenario(write(tmp_path, render_config(original)))
        assert echoed == original


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_parse(name):
    cfg = parse_scenario(SCENARIOS / name)
    assert cfg.horizon_ticks > 0


# ------------------------------------------------------------- reports

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
    assert sum(balances(ledger).values()) == ledger.total_committed()
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


# validate_config makes these checks, so run(cfg) gets them too; when only
# the parser made them, run(cfg) ran the first three and died in the engine
# on the unknown profile.
@pytest.mark.parametrize("change, message", [
    ({"speed": 0}, "[agents rel] speed must be >= 1"),
    ({"speed": -1}, "[agents rel] speed must be >= 1"),
    ({"count": 0}, "[agents rel] count must be >= 1"),
    ({"profile": "saint"}, "[agents rel] unknown profile 'saint'"),
], ids=["speed-zero", "speed-negative", "count-zero", "profile-unknown"])
def test_run_rejects_a_bad_agent_group(change, message):
    group = dataclasses.replace(AgentGroup("rel", 2, "reliable"), **change)
    cfg = ScenarioConfig(horizon_ticks=20, wu_count=1, agents=[group])
    with pytest.raises(ConfigError) as exc:
        run(cfg)
    assert exc.value.errors == [message]


# One parser, `complexity_range`, reads the spec for validate_config and
# for World, so every spec it cannot read, and every negative bound, gets
# the one message.
@pytest.mark.parametrize("spec", [
    "abc", "-2", "uniform:3:1", "uniform:-1:2", "uniform:-3:-1", "uniform:1",
    "uniform:1:2:3", "uniform:a:2", "uniform:", "", "1.5", "3:3", "Uniform:1:2"])
def test_run_rejects_a_malformed_or_negative_complexity(spec):
    cfg = ScenarioConfig(horizon_ticks=20, wu_count=1, complexity=spec,
                         agents=[AgentGroup("rel", 2, "reliable")])
    with pytest.raises(ConfigError) as exc:
        run(cfg)
    assert exc.value.errors == [f"complexity must be an int >= 0 or uniform:LO:HI "
                                f"with 0 <= LO <= HI, got {spec!r}"]


@pytest.mark.parametrize("spec, bounds", [
    ("0", (0, 0)), ("3", (3, 3)), ("uniform:0:0", (0, 0)), ("uniform:3:3", (3, 3)),
    ("uniform:1:6", (1, 6))])
def test_a_valid_complexity_reads_as_its_bounds(spec, bounds):
    assert complexity_range(spec) == bounds
    assert validate_config(ScenarioConfig(complexity=spec)) == []


@pytest.mark.parametrize("mode", ["centralized", "trust"])
def test_a_one_value_uniform_complexity_runs_as_the_fixed_value(mode, tmp_path):
    # A spec of one value draws nothing from the work stream, however it
    # is written; the outputs are the same bytes.
    for out, spec in (("fixed", "3"), ("uniform", "uniform:3:3")):
        cfg = ScenarioConfig(name="one-value", mode=mode, seed=3, horizon_ticks=80,
                             wu_count=40, complexity=spec, timeout_ticks=20,
                             agents=[AgentGroup("rel", 6, "reliable"),
                                     AgentGroup("mal", 1, "malicious")])
        world, _, _ = run(cfg, tmp_path / out)
        assert {e.payload["complexity"] for e in world.events
                if e.kind == "wu_issued"} == {3}
    for name in ("summary.csv", "series.csv", "ledger.txt", "events.jsonl"):
        assert ((tmp_path / "fixed" / name).read_bytes()
                == (tmp_path / "uniform" / name).read_bytes()), name


def test_unlabelled_group_errors_name_the_agents_label(tmp_path):
    text = MINIMAL.replace("[agents solo]\ncount = 1", "[agents]\nspeed = 0")
    with pytest.raises(ConfigError) as exc:
        parse_scenario(write(tmp_path, text))
    assert exc.value.errors == ["[agents agents] count must be >= 1",
                                "[agents agents] speed must be >= 1"]


# Two groups of one profile, labelled out of sorted order, with seed 29:
# run folded the profile's taus in group order and replay in the log's
# sorted order, so mean_tau_reliable differed in its last digits.
SHARED_PROFILE = """
[scenario]
mode = trust
strategy = drds
seed = 29
horizon_ticks = 200

[work]
wu_count = 300
complexity = uniform:1:4

[servers]
count = 2

[agents zed]
count = 7
profile = reliable

[agents abc]
count = 5
profile = reliable

[agents mid]
count = 3
profile = reliable
accept_prob = 0.8

[agents mal]
count = 4
profile = malicious
"""


def test_cli_replay_matches_run_when_groups_share_a_profile(tmp_path, capsys):
    out = tmp_path / "out"
    scenario = write(tmp_path, SHARED_PROFILE)
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    run_stdout = capsys.readouterr().out
    assert "mean_tau_reliable," in run_stdout
    assert main(["replay", "--log", str(out / "events.jsonl")]) == 0
    assert capsys.readouterr().out == run_stdout


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


def test_cli_unreadable_scenario_is_a_config_error(tmp_path, capsys):
    # configparser.read skips what it cannot open, which ran the defaults.
    assert main(["run", "--scenario", str(tmp_path), "--ticks", "5"]) == 1
    captured = capsys.readouterr()
    assert f"config error: cannot read scenario file {tmp_path}:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_cli_unwritable_out_is_a_config_error_before_the_run(tmp_path, capsys,
                                                             monkeypatch, out):
    (tmp_path / "file").write_text("taken", encoding="utf-8")
    monkeypatch.setattr(World, "run", lambda self: pytest.fail("the run started"))
    scenario = write(tmp_path, MINIMAL)
    out = tmp_path / out
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cannot write reports to {out}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""


REPORTS = ["summary.csv", "series.csv", "ledger.txt", "effective_config.txt",
           "events.jsonl"]  # in the order emit_report writes them


# A report path taken by a directory made the run end, after the whole
# horizon, in an IsADirectoryError traceback from the writer.
@pytest.mark.parametrize("report", REPORTS)
def test_cli_unwritable_report_is_a_config_error_after_the_run(tmp_path, capsys, report):
    out = tmp_path / "out"
    (out / report).mkdir(parents=True)
    scenario = write(tmp_path, MINIMAL)
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"config error: cannot write report {out / report}: Is a directory"
                            f" (reports written before it stay in {out})\n")
    assert captured.out == ""
    written = REPORTS[:REPORTS.index(report)]
    assert sorted(path.name for path in out.iterdir() if path.is_file()) == sorted(written)


# A fault that is not the path's, such as a full disk, is not a config
# error; it is still one line, with no traceback.
def test_cli_report_write_fault_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    def full_disk(world, report, out_dir):
        raise OSError(errno.ENOSPC, "No space left on device")
    monkeypatch.setattr("tdgsim.scenario.emit_report", full_disk)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(write(tmp_path, MINIMAL)), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"runtime error: cannot write reports to {out}: [Errno 28]"
                            f" No space left on device (reports written before it stay there)\n")
    assert captured.out == ""


def test_cli_non_utf8_scenario_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"[scenario]\nname = \xff\n")
    assert main(["run", "--scenario", str(bad), "--ticks", "5"]) == 1
    err = capsys.readouterr().err
    assert f"config error: cannot read scenario file {bad}:" in err
    assert "Traceback" not in err


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


def test_run_rejects_a_window_past_a_deques_maxlen():
    # It used to die at the first rating, in deque(maxlen=window).
    cfg = ScenarioConfig(mode="trust", horizon_ticks=20, wu_count=4,
                         agents=[AgentGroup("rel", 4, "reliable")],
                         params=Params(window=sys.maxsize + 1))
    with pytest.raises(ConfigError) as exc:
        run(cfg)
    assert exc.value.errors == [f"window must be <= {sys.maxsize}, got {sys.maxsize + 1}"]


def test_cli_zero_window_keeps_every_tau_neutral(tmp_path, capsys):
    scenario = trust_defaults(tmp_path, 0)
    assert main(["run", "--scenario", str(scenario), "--ticks", "200"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    taus = {metric: value for metric, value in rows
            if metric.startswith("mean_tau_")}
    assert taus and int(dict(rows)["issued"]) > 0
    assert set(taus.values()) == {"0.5"}


def edited_defaults(tmp_path, old, new):
    text = (SCENARIOS / "defaults.ini").read_text(encoding="utf-8")
    assert text.count(old) == 1
    return write(tmp_path, text.replace(old, new))


# Each of these made `tdgsim run` die with a traceback before validate_config
# checked it: a ValueError, a LedgerError, a ZeroDivisionError or a
# trust.ValidationError from deep in the engine.  The timeout_ticks and
# accept_prob values ran silently instead: a deadline on or before the
# issuing tick validates nothing, and a NaN accept_prob accepted every
# offer in centralized mode but rejected every one in trust mode.  So did
# negative community sizes: a max_size of -1 cut the last agent off the
# invitation list, and with a min_size below 0 a founder formed a
# community alone.  A max_requeues of -1 ran with exit 0 and failed every
# work unit at its first round without a majority.  A [work] value past
# sys.maxsize died too: a 400-digit complexity overflowed the float
# division of a completion's lateness test (OverflowError), and a 4 298-digit
# base_credit made a block's credit too long for str() in Ledger.commit
# (ValueError).
@pytest.mark.parametrize("old, new, flags, message", [
    ("complexity = 3 ", "complexity = abc ", [], "complexity must be"),
    ("complexity = 3 ", "complexity = -2 ", [], "complexity must be"),
    ("complexity = 3 ", "complexity = uniform:3:1 ", [], "complexity must be"),
    ("base_credit = 100 ", "base_credit = -1 ", [],
     "base_credit must be >= 0, got -1"),
    ("complexity = 3 ", f"complexity = {'9' * 400} ", [],
     f"complexity must be <= {sys.maxsize}, got '{'9' * 400}'"),
    ("complexity = 3 ", f"complexity = uniform:1:{'9' * 400} ", [],
     f"complexity must be <= {sys.maxsize}, got 'uniform:1:{'9' * 400}'"),
    ("base_credit = 100 ", f"base_credit = {'9' * 4298} ", [],
     f"base_credit must be <= {sys.maxsize}, got {'9' * 4298}"),
    ("# churn = 50/50", "churn = 0/0", [],
     "[agents workers] churn must be UP/DOWN"),
    ("# churn = 50/50", "churn = -1/1", [],
     "[agents workers] churn must be UP/DOWN"),
    ("random_replication = 3.0 ", "random_replication = -1 ",
     ["--mode", "trust", "--strategy", "random"],
     "random_replication must be a finite number >= 0, got -1.0"),
    ("[agents workers]", "[agents a b]", [],
     "[agents a b] label may not contain a space or a comma"),
    ("[agents workers]", "[agents a,b]", [],
     "[agents a,b] label may not contain a space or a comma"),
    ("timeout_ticks = 50 ", "timeout_ticks = 0 ", [],
     "timeout_ticks must be >= 1, got 0"),
    ("timeout_ticks = 50 ", "timeout_ticks = -5 ", [],
     "timeout_ticks must be >= 1, got -5"),
    ("accept_prob = 1.0 ", "accept_prob = nan ", [],
     "[agents workers] accept_prob must be in [0, 1], got nan"),
    ("accept_prob = 1.0 ", "accept_prob = -0.1 ", [],
     "[agents workers] accept_prob must be in [0, 1], got -0.1"),
    ("accept_prob = 1.0 ", "accept_prob = 1.5 ", [],
     "[agents workers] accept_prob must be in [0, 1], got 1.5"),
    ("min_size = 5 ", "min_size = -3 ", [], "min_size must be >= 0, got -3"),
    ("max_size = 20 ", "max_size = -1 ", [], "max_size must be >= 0, got -1"),
    ("max_requeues = 0 ", "max_requeues = -1 ", ["--mode", "trust"],
     "max_requeues must be >= 0, got -1"),
], ids=["complexity-abc", "complexity-negative", "complexity-empty-range",
        "base-credit-negative", "complexity-past-maxsize",
        "uniform-complexity-past-maxsize", "base-credit-past-maxsize",
        "churn-0/0", "churn-negative", "random-replication-negative",
        "label-space", "label-comma", "timeout-zero", "timeout-negative",
        "accept-prob-nan", "accept-prob-negative", "accept-prob-above-one",
        "min-size-negative", "max-size-negative", "max-requeues-negative"])
def test_cli_bad_value_is_a_config_error(tmp_path, capsys, old, new, flags,
                                         message):
    scenario = edited_defaults(tmp_path, old, new)
    assert main(["run", "--scenario", str(scenario), "--ticks", "50"] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err


# Each bound itself runs: a credit of 3 * sys.maxsize * 1000 millicredits
# is written, replayed and verified, and so is a work unit that never ends.
@pytest.mark.parametrize("mode", ["centralized", "trust"])
def test_cli_work_values_at_sys_maxsize_run_and_replay(tmp_path, capsys, mode):
    scenario = edited_defaults(tmp_path, "base_credit = 100 ",
                               f"base_credit = {sys.maxsize} ")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--ticks", "60",
                 "--mode", mode, "--out", str(out)]) == 0
    ran = capsys.readouterr().out
    credit = int(dict(row.split(",") for row in ran.splitlines())["credit_millis_reliable"])
    assert credit > 0 and credit % (3 * sys.maxsize * 1000) == 0
    assert main(["replay", "--log", str(out / "events.jsonl")]) == 0
    assert capsys.readouterr().out == ran
    assert main(["verify-ledger", str(out / "ledger.txt")]) == 0
    scenario = edited_defaults(tmp_path, "complexity = 3 ",
                               f"complexity = uniform:0:{sys.maxsize} ")
    assert main(["run", "--scenario", str(scenario), "--ticks", "60",
                 "--mode", mode]) == 0


# A NaN or infinite community threshold ran with exit 0: every tau test
# against it always or never held, so with join_threshold = nan, say, no
# community ever formed.
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["join_threshold", "evict_threshold", "drop_delta",
                                 "dissolve_fraction"])
def test_cli_non_finite_community_threshold_is_a_config_error(tmp_path, capsys, key,
                                                              value):
    default = getattr(Params(), key)
    scenario = edited_defaults(tmp_path, f"{key} = {default} ", f"{key} = {value} ")
    assert main(["run", "--scenario", str(scenario), "--ticks", "50",
                 "--mode", "trust"]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {key} must be a finite number, got {float(value)}\n"


# An infinite replication limit passed ReplicationLimits' `1 <= lo <= hi`
# check, and the run died in roulette_round on a NaN replication factor.
@pytest.mark.parametrize("edits", [{"hi = 5.0 ": "hi = inf "},
                                   {"lo = 1.5 ": "lo = inf ", "hi = 5.0 ": "hi = inf "}],
                         ids=["hi", "lo-and-hi"])
def test_cli_non_finite_replication_limit_is_a_config_error(tmp_path, capsys, edits):
    text = (SCENARIOS / "defaults.ini").read_text(encoding="utf-8")
    for old, new in edits.items():
        assert text.count(old) == 1
        text = text.replace(old, new)
    assert main(["run", "--scenario", str(write(tmp_path, text)), "--ticks", "50",
                 "--mode", "trust"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: [limits] invalid replication limits (")
    assert "Traceback" not in err


# Finite limits run, though for some `hi - tau * (hi - lo)` falls below lo
# at tau 1: (1.1, 6.0) by one ulp, (1.0, 1e17) to 0.0.
@pytest.mark.parametrize("lo, hi", [("1.2", "5.0"), ("1.1", "5.0"), ("1.1", "5.3"),
                                    ("1.1", "6.0"), ("1.0", "1e17")])
def test_cli_finite_replication_limits_run(tmp_path, capsys, lo, hi):
    text = (SCENARIOS / "defaults.ini").read_text(encoding="utf-8")
    assert text.count("lo = 1.5 ") == text.count("hi = 5.0 ") == 1
    text = text.replace("lo = 1.5 ", f"lo = {lo} ").replace("hi = 5.0 ", f"hi = {hi} ")
    assert main(["run", "--scenario", str(write(tmp_path, text)), "--ticks", "50",
                 "--mode", "trust"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("issued,")


def test_min_size_zero_still_needs_an_agent_to_form(tmp_path):
    # With min_size = 0 a founder once formed tc0 on tick 1 with no agent
    # in it: an empty invitation list met a quorum of 0.
    text = (SCENARIOS / "etc_throughput.ini").read_text(encoding="utf-8")
    assert text.count("formation = on\n") == 1
    cfg = parse_scenario(write(tmp_path, text.replace(
        "formation = on\n", "formation = on\nmin_size = 0\n")))
    cfg.horizon_ticks = 30
    world, _, _ = run(cfg)
    formed = {}  # community -> the members that joined on its formation tick
    for ev in world.events:
        if ev.kind == "tc_event" and ev.payload["kind"] == "joined":
            tick, members = formed.setdefault(ev.payload["community"], (ev.tick, []))
            if ev.tick == tick:
                members.append(ev.payload["agent"])
    assert formed
    for community, (_, members) in formed.items():
        assert set(members) & set(world.agents), (community, members)


# evaluate_formation invites at most max_size agents, so with a quorum above
# it a run exited 0 and formed no community.
@pytest.mark.parametrize("sizes, quorum, max_size", [
    ("min_size = 21\nmax_size = 20\n", 21, 20), ("min_size = 0\nmax_size = 0\n", 1, 0)],
    ids=["min-size-above-max-size", "both-zero"])
def test_cli_quorum_above_max_size_is_a_config_error(tmp_path, capsys, sizes, quorum,
                                                     max_size):
    text = (SCENARIOS / "etc_throughput.ini").read_text(encoding="utf-8")
    assert text.count("formation = on\n") == 1
    on = write(tmp_path, text.replace("formation = on\n", "formation = on\n" + sizes))
    assert main(["run", "--scenario", str(on), "--ticks", "50"]) == 1
    assert capsys.readouterr().err == (
        f"config error: max_size must be >= the formation quorum {quorum} "
        f"(min_size, and at least 1), got {max_size}\n")
    # Without formation the sizes act on nothing.
    off = write(tmp_path, text.replace("formation = on\n", "formation = off\n" + sizes),
                "off.ini")
    assert main(["run", "--scenario", str(off), "--ticks", "50"]) == 0


def test_label_with_colon_dot_and_underscore_verifies(tmp_path, capsys):
    # An agent id ends up in every ledger line that credits it.
    scenario = edited_defaults(tmp_path, "[agents workers]", "[agents w:1.x_y]")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out),
                 "--ticks", "60"]) == 0
    assert "w:1.x_y-000:" in (out / "ledger.txt").read_text(encoding="utf-8")
    capsys.readouterr()
    assert main(["verify-ledger", str(out / "ledger.txt")]) == 0
    assert capsys.readouterr().out.startswith("ok: ")


def test_agents_section_with_only_trailing_space_is_unlabelled(tmp_path):
    cfg = parse_scenario(write(tmp_path, MINIMAL.replace("[agents solo]",
                                                         "[agents ]")))
    assert cfg.agents[0].agent_ids() == ["agents-000"]


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

    for unreadable in (out, out / "no-such-ledger.txt"):
        assert main(["verify-ledger", str(unreadable)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read ledger file {unreadable}: ")
        assert err.count("\n") == 1


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
    assert capsys.readouterr().err.startswith(
        "config error: cannot read event log /no/such/events.jsonl: ")


def test_cli_replay_directory_log_exits_one(tmp_path, capsys):
    assert main(["replay", "--log", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read event log {tmp_path}: ")
    assert err.count("\n") == 1


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
