"""The event log: every payload against its schema row, `replay` on a
log whose lines parse but whose values the metrics fold cannot read, and
the metrics fold against the reference fold it replaced."""
import contextlib
import copy
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from background import SRC
from event_schema import EVENT_KEYS, SCENARIOS, TRUST_ONLY_KINDS, payload_keys
from golden_cases import CASES, pinned, run_case, scenario_file
from reference_fold import compute_metrics as reference_fold
from tdgsim.cli import main
from tdgsim.eventlog import EventLogError, SimEvent
from tdgsim.metrics import compute_metrics, tick_rows
from tdgsim.scenario import parse_scenario, run


def test_every_payload_has_the_keys_of_its_schema_row(tmp_path):
    seen = set()
    for name in list(CASES) + list(SCENARIOS):
        if name in CASES:
            scenario = scenario_file(name, tmp_path)
        else:
            scenario = tmp_path / "scenario.ini"
            scenario.write_text(SCENARIOS[name], encoding="utf-8")
        world, _, _ = run(parse_scenario(scenario))
        for ev in world.events:
            assert set(ev.payload) == payload_keys(ev.kind, world.trust_mode), (name, ev)
            seen.add((ev.kind, world.trust_mode))
    assert seen == ({(kind, True) for kind in EVENT_KEYS}
                    | {(kind, False) for kind in EVENT_KEYS if kind not in TRUST_ONLY_KINDS})


# Churn, a free rider, short deadlines, colluders and a community: every
# kind the fold reads, in 142 lines.
SHORT_RUN = """\
[scenario]
mode = trust
strategy = dgds
horizon_ticks = 25

[work]
wu_count = 20

[servers]
count = 1
timeout_ticks = 4

[agents rel]
count = 6
profile = reliable

[agents mal]
count = 2
profile = malicious

[agents fr]
count = 1
profile = free_rider

[agents ch]
count = 2
profile = churner
churn = 3/2

[params]
min_size = 3
join_threshold = 0.6
"""


@pytest.fixture(scope="module")
def short_log(tmp_path_factory):
    out = tmp_path_factory.mktemp("short-log")
    (out / "scenario.ini").write_text(SHORT_RUN, encoding="utf-8")
    run(parse_scenario(out / "scenario.ini"), out_dir=out)
    lines = [json.loads(line) for line in
             (out / "events.jsonl").read_text(encoding="utf-8").splitlines()]
    kinds = {line["k"] for line in lines[1:]}
    assert kinds >= {"wu_validated", "wu_completed", "wu_dropped", "wu_timed_out",
                     "agent_up", "agent_down", "rating_issued", "credit_committed",
                     "tc_event"}
    return out / "events.jsonl", lines


def replay(log, lines):
    """Write `lines` (one JSON value each) to `log` and replay it; returns
    the exit code and stderr."""
    return replay_text(log, [json.dumps(line) for line in lines])


def replay_text(log, texts):
    """`replay`, for lines given as their text."""
    log.write_text("".join(text + "\n" for text in texts), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["replay", "--log", str(log)])
    return code, err.getvalue()


def paths(value, at=()):
    """The path of `value` and of every value inside it, as tuples of keys
    and indices."""
    yield at
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from paths(item, at + (key,))


def first_break_line(lines):
    """The line of the first event whose tick the fold rejects (see
    `first_break`), or None if there is none or the reader rejects the
    header or an event's keys first."""
    try:
        events = [SimEvent(line["t"], line["k"], line["p"]) for line in lines[1:]]
        breaking = first_break(lines[0]["horizon"], events)
    except (KeyError, TypeError):
        return None
    return None if breaking is None else breaking + 2


def first_orphan_credit(lines, agents):
    """The line of the first credit to an agent that `agents` lacks."""
    return next((number for number, line in enumerate(lines[1:], start=2)
                 if line["k"] == "credit_committed"
                 and not line["p"]["allocations"].keys() <= agents.keys()), None)


# Integers are small, or any horizon the reader accepts.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000)
    | st.integers(0, sys.maxsize) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_replay_of_one_changed_value_exits_zero_or_names_its_line(short_log, data):
    log, lines = short_log
    log = log.with_name("changed.jsonl")  # the fixture's log stays the engine's
    index = data.draw(st.integers(0, len(lines) - 1), label="line index")
    line = copy.deepcopy(lines[index])
    path = data.draw(st.sampled_from(list(paths(line))), label="path")
    parent = line
    for key in path[:-1]:
        parent = parent[key]
    if path and isinstance(parent, dict) and data.draw(st.booleans(), label="drop"):
        del parent[path[-1]]
    else:
        value = data.draw(json_values, label="value")
        if path:
            parent[path[-1]] = value
        else:
            line = value
    changed = lines[:index] + [line] + lines[index + 1:]

    code, err = replay(log, changed)

    named = {index + 1}
    if index == 0 and isinstance(line, dict) and isinstance(line.get("agents"), dict):
        # A header the reader accepts may no longer list an agent that an
        # event credits; the fold names that event's line.
        named.add(first_orphan_credit(changed, line["agents"]))
    # A changed tick, or horizon, may make a later line the first whose tick
    # does not rise within [1, horizon]: the line after a tick raised above
    # it, or the first event past a lowered horizon.
    named.add(first_break_line(changed))
    if code != 0:
        assert code == 2, err
        assert any(err.startswith(f"runtime error: {log}: line {n}: ") for n in named), err


def _first_agent(header):
    return header["agents"][min(header["agents"])]


@pytest.mark.parametrize("edit", [
    lambda h: h.update(window=-1),
    lambda h: h.update(window=2 ** 63),
    lambda h: h.update(window="50"),
    lambda h: h.update(window=None),
    lambda h: h.update(horizon=2 ** 70),
    lambda h: h.update(horizon=-1),
    lambda h: h.update(horizon=True),
    lambda h: h.update(window=False),
    lambda h: h["agents"].update({min(h["agents"]): "reliable"}),
    lambda h: _first_agent(h).update(profile=None),
    lambda h: _first_agent(h).pop("online"),
    lambda h: _first_agent(h).update(online="yes"),
], ids=["negative window", "window past a deque's maxlen", "str window", "null window",
        "horizon past sys.maxsize", "negative horizon", "bool horizon", "bool window",
        "agent not an object", "profile not a str", "no online", "online not a bool"])
def test_a_header_the_fold_cannot_read_is_line_one(short_log, tmp_path, edit):
    _, lines = short_log
    header = copy.deepcopy(lines[0])
    edit(header)
    code, err = replay(tmp_path / "events.jsonl", [header] + lines[1:])
    assert code == 2
    assert err.startswith(f"runtime error: {tmp_path / 'events.jsonl'}: line 1: header ")


@pytest.mark.parametrize("number, key", [(1, "horizon"), (4, "t")])
def test_an_int_past_jsons_digit_limit_names_its_line(short_log, tmp_path, number, key):
    # json refuses an int literal of over 4300 digits with a plain
    # ValueError, not a JSONDecodeError, and cannot write one either.
    _, lines = short_log
    texts = [json.dumps(line) for line in lines]
    old = f'"{key}": {lines[number - 1][key]}'
    assert texts[number - 1].count(old) == 1
    texts[number - 1] = texts[number - 1].replace(old, f'"{key}": ' + "7" * 5000)
    log = tmp_path / "events.jsonl"
    code, err = replay_text(log, texts)
    assert code == 2
    assert err.startswith(f"runtime error: {log}: line {number}: not JSON: ")


def run_child(code, *args):
    """The stdout of `code` run with `args` in a fresh interpreter that
    imports tdgsim from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("horizon", [sys.maxsize, sys.maxsize - 1],
                         ids=["maxsize", "maxsize-1"])
def test_a_one_line_log_of_any_horizon_replays(tmp_path, horizon):
    # The fold holds nothing per tick, so every horizon the reader accepts
    # folds.  Its per-tick lists once made these a line-1 error.
    assert replay(tmp_path / "events.jsonl", [{"agents": {}, "horizon": horizon}]) == (0, "")


def test_a_ten_million_tick_replay_stays_below_40_mb(tmp_path):
    # Four per-tick lists took this replay to 325 MB of peak RSS.  A child's
    # ru_maxrss counts the RSS of the process that started it, so the
    # replay is started by a bare interpreter, not by this one.
    log = tmp_path / "events.jsonl"
    log.write_text(json.dumps({"agents": {}, "horizon": 10 ** 7}) + "\n", encoding="utf-8")
    code, peak_mb = run_child(
        "import subprocess, sys\n"
        "sys.exit(subprocess.call(sys.argv[1:]))",
        sys.executable, "-c",
        "import contextlib, io, resource, sys\n"
        "from tdgsim.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['replay', '--log', sys.argv[1]])\n"
        "scale = 2 ** 20 if sys.platform == 'darwin' else 2 ** 10  # ru_maxrss unit\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale)",
        log).split()
    assert code == "0"
    assert float(peak_mb) < 40


def test_replay_and_verify_ledger_load_no_simulator(short_log):
    log, _ = short_log
    ledger = log.with_name("ledger.txt")
    out = run_child(
        "import contextlib, io, json, sys\n"
        "import tdgsim.cli, tdgsim.metrics, tdgsim.eventlog, tdgsim.ledger\n"
        "simulator = ('tdgsim.engine', 'tdgsim.distribution', 'tdgsim.community')\n"
        "loaded = [[name for name in simulator if name in sys.modules]]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [tdgsim.cli.main(['replay', '--log', sys.argv[1]]),\n"
        "             tdgsim.cli.main(['verify-ledger', sys.argv[2]])]\n"
        "loaded.append([name for name in simulator if name in sys.modules])\n"
        "print(json.dumps([codes, loaded]))",
        log, ledger)
    assert json.loads(out) == [[0, 0], [[], []]]


def test_a_credit_to_an_agent_the_header_lacks_names_its_line(short_log, tmp_path):
    _, lines = short_log
    header = copy.deepcopy(lines[0])
    credited = next(line for line in lines[1:] if line["k"] == "credit_committed")
    del header["agents"][min(credited["p"]["allocations"])]
    changed = [header] + lines[1:]
    code, err = replay(tmp_path / "events.jsonl", changed)
    assert code == 2
    number = first_orphan_credit(changed, header["agents"])
    assert err.startswith(f"runtime error: {tmp_path / 'events.jsonl'}: line {number}: "
                          f"credit_committed event: KeyError(")


def test_the_fold_names_the_line_of_an_event_it_cannot_read():
    # The fold reads in log order, so the tick-1 event on line 3, after a
    # tick-2 event, is an error for its tick before its payload is read.
    header = {"horizon": 2, "agents": {"a": {"profile": "reliable", "online": True}}}
    events = [SimEvent(2, "wu_completed", {"units": 1}),
              SimEvent(1, "rating_issued", {"subject": "a", "value": 7})]
    with pytest.raises(EventLogError) as exc:
        compute_metrics(header, events)
    assert exc.value.line == 3
    assert str(exc.value).startswith("line 3: rating_issued event: ValueError('tick 1 ")


def test_replay_names_the_later_of_two_swapped_lines(tmp_path):
    # Two adjacent event lines of a golden log, of different ticks, swapped:
    # the later line's tick is below the one before it.
    _, digests = run_case("defaults", tmp_path)
    assert digests["events.jsonl"] == pinned("defaults")["events.jsonl"]
    log = tmp_path / "events.jsonl"
    texts = log.read_text(encoding="utf-8").splitlines()
    ticks = [json.loads(text)["t"] for text in texts[1:]]
    i = next(i for i in range(len(ticks) - 1) if ticks[i] != ticks[i + 1]) + 1
    texts[i], texts[i + 1] = texts[i + 1], texts[i]
    code, err = replay_text(log, texts)
    assert code == 2
    assert err.startswith(f"runtime error: {log}: line {i + 2}: "), err


# ---------------------------------------------- the fold and its reference

LISTABLE = ("a", "b", "c")  # a header lists some of these
AGENT = st.sampled_from(LISTABLE + ("z",))
# A payload the fold can read, of the keys it reads, for each kind; an
# empty one for wu_issued and for two kinds the fold skips.
PAYLOADS = {
    "wu_issued": st.builds(dict),
    "wu_validated": st.fixed_dictionaries({
        "group_size": st.integers(1, 5), "correct": st.booleans(),
        "consensus": st.lists(AGENT, max_size=3), "complexity": st.integers(0, 4)}),
    **{kind: st.fixed_dictionaries({"units": st.integers(0, 9)})
       for kind in ("wu_completed", "wu_dropped", "wu_timed_out")},
    "rating_issued": st.fixed_dictionaries({
        "subject": AGENT, "value": st.sampled_from([-1, -0.5, 0, 0.25, 1.0])}),
    "credit_committed": st.fixed_dictionaries({"allocations": st.dictionaries(
        st.sampled_from(LISTABLE), st.integers(0, 99), max_size=2)}),
    "agent_up": st.fixed_dictionaries({"agent": AGENT}),
    "agent_down": st.fixed_dictionaries({"agent": AGENT}),
    "tc_event": st.fixed_dictionaries({
        "community": st.sampled_from(["tc0", "tc1"]),
        "kind": st.sampled_from(["joined", "joined", "left", "evicted", "dissolved",
                                 "invited"]),
        "agent": AGENT}),
    "wu_redistributed": st.builds(dict),
    "server_down": st.builds(dict),
}
KINDS_AND_PAYLOADS = st.one_of([st.tuples(st.just(kind), payload)
                                for kind, payload in PAYLOADS.items()])
# Ticks as the engine writes them, but for some that are an equal True or
# float, and ticks of any other kind.
EQUAL_TICK = {"same": lambda t: t, "float": float, "bool": lambda t: True if t == 1 else t}
ANY_TICKS = st.lists(st.integers(0, 14) | st.sampled_from(
    [True, False, 1.0, 2.0, 2.5, float("nan"), "1", None, [1]]), min_size=1, max_size=25)
# Changes that break a payload: (event index, change, key index, value).
BREAKS = st.lists(st.tuples(st.integers(0, 9), st.sampled_from(["drop", "value", "whole"]),
                            st.integers(0, 3), json_values), max_size=4)


@st.composite
def fold_inputs(draw):
    """A header and an event list: every tick rises within [1, horizon]
    as the engine writes them, or all but one pair do, or the ticks are
    any mix of ints in and out of range, floats, strings, null and a list.  Some payloads may be
    broken; a credit names only agents the header lists, unless broken."""
    horizon = draw(st.integers(0, 12))
    listed = draw(st.lists(st.sampled_from(LISTABLE), unique=True))
    header = {"horizon": horizon, "agents": {
        agent: {"profile": profile, "online": online} for agent, (profile, online)
        in zip(listed, draw(st.lists(st.tuples(st.sampled_from(["reliable", "malicious"]),
                                               st.booleans()), min_size=3, max_size=3)))}}
    window = draw(st.none() | st.integers(0, 4))
    if window is not None:
        header["window"] = window
    order = draw(st.sampled_from(["rising", "one pair swapped", "any"]))
    if horizon and order != "any":
        equal = EQUAL_TICK[draw(st.sampled_from(sorted(EQUAL_TICK)))]
        ticks = [equal(t) if t % 2 else t for t in sorted(draw(st.lists(
            st.integers(1, horizon), min_size=1, max_size=25)))]
        if order == "one pair swapped":
            i, j = (draw(st.integers(0, len(ticks) - 1)) for _ in range(2))
            ticks[i], ticks[j] = ticks[j], ticks[i]
    else:
        ticks = draw(ANY_TICKS)
    kinds_and_payloads = [
        (kind, {"allocations": {agent: millis for agent, millis
                                in payload["allocations"].items() if agent in listed}}
         if kind == "credit_committed" else payload)
        for kind, payload in draw(st.lists(KINDS_AND_PAYLOADS, min_size=len(ticks),
                                           max_size=len(ticks)))]
    for i, change, key, value in draw(BREAKS):
        if i >= len(ticks):
            continue
        kind, payload = kinds_and_payloads[i]
        if change == "whole" or not payload or not isinstance(payload, dict):
            payload = value
        elif change == "drop":
            del payload[sorted(payload)[key % len(payload)]]
        else:
            payload[sorted(payload)[key % len(payload)]] = value
        kinds_and_payloads[i] = kind, payload
    return header, [SimEvent(tick, kind, payload)
                    for tick, (kind, payload) in zip(ticks, kinds_and_payloads)]


def fold_outcome(fold, header, events):
    """What `fold` makes of a log: its scalar rows (as text, so NaN equals
    NaN) and a series row for every tick from 1 to the horizon, or the
    error it raises."""
    try:
        report = fold(header, events)
    except Exception as exc:  # an EventLogError, or an error the fold lets through
        return type(exc), str(exc)
    if fold is reference_fold:  # a list per column, indexed by tick
        s = report.series
        rows = zip(range(1, report.horizon + 1), *(
            s[column][1:] for column in ("issued", "validated", "active_agents", "etc_size")))
    else:
        rows = tick_rows(report)
    return repr(report.scalar_rows()), list(rows)


def first_break(horizon, events):
    """The index of the first event that starts a run of equal ticks whose
    tick is not an int above the last run's and at most `horizon`, or
    None.  A run holds the events whose ticks equal its first one's."""
    last = 0
    for i, (tick, _, _) in enumerate(events):
        if i and tick == last:
            continue
        if type(tick) is not int or not last < tick <= horizon:
            return i
        last = tick
    return None


# An error on a rising prefix, then an earlier tick whose event fails too,
# or a tick that no dict can hold: the prefix's error is the one named.
@example(({"horizon": 2, "agents": {}},
          [SimEvent(2, "wu_completed", {}), SimEvent(1, "wu_dropped", {})]))
@example(({"horizon": 2, "agents": {}},
          [SimEvent(1, "wu_completed", {}), SimEvent([1], "wu_issued", {})]))
@settings(max_examples=400, deadline=None)
@given(fold_inputs())
def test_the_fold_gives_what_the_reference_fold_gives(log):
    # A log whose ticks rise as runs folds as the reference folds it.  Any
    # other log fails as the reference fails on the events before its
    # first breaking line, or, if that folds, names that line.
    header, events = log
    outcome = fold_outcome(compute_metrics, header, events)
    breaking = first_break(header["horizon"], events)
    if breaking is None:
        assert outcome == fold_outcome(reference_fold, header, events)
        if isinstance(outcome[0], str):  # it folds: tick 0's row, then one per event tick
            series = compute_metrics(header, events).series
            assert len(series) == 1 + len({tick for tick, _, _ in events})
        return
    try:
        reference_fold(header, events[:breaking])
    except Exception as exc:  # an EventLogError, or an error the fold lets through
        assert outcome == (type(exc), str(exc))
    else:
        assert outcome[0] is EventLogError
        assert outcome[1].startswith(
            f"line {breaking + 2}: {events[breaking].kind} event: ValueError("), outcome
        assert " is not an int after tick " in outcome[1], outcome
