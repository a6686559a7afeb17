"""The event log: the writer's bytes against `json.dumps`, every payload
against its schema row, `replay` on a log whose lines parse but whose
values the metrics fold cannot read, the reader against `json.loads` on
every line, and the metrics fold against the reference fold it replaced."""
import contextlib
import copy
import gc
import io
import json
import math
import os
import subprocess
import sys
import types
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from background import SRC
from event_schema import (EVENT_KEYS, PROFILES, RATING_CAUSES, SCENARIOS,
                          TC_EVENT_KINDS, TRUST_ONLY_KINDS, payload_keys)
from golden_cases import CASES, pinned, run_case, scenario_file
from reference_fold import compute_metrics as reference_fold
from tdgsim import config
from tdgsim.cli import main
from tdgsim.eventlog import (LINE_TEMPLATES, EventLogError, SimEvent, read_event_log,
                             write_event_log)
from tdgsim.metrics import compute_metrics, tick_rows
from tdgsim.scenario import parse_scenario, run
from tdgsim.trust import CAUSE_VALUES


@pytest.fixture(scope="module")
def engine_runs(tmp_path_factory):
    """(name, trust mode, header, events) of every golden case, the
    bundled scenarios among them, and of the scenarios in event_schema.py."""
    tmp = tmp_path_factory.mktemp("engine-runs")
    runs = []
    for name in list(CASES) + list(SCENARIOS):
        if name in CASES:
            scenario = scenario_file(name, tmp)
        else:
            scenario = tmp / "scenario.ini"
            scenario.write_text(SCENARIOS[name], encoding="utf-8")
        world, _, _ = run(parse_scenario(scenario))
        runs.append((name, world.trust_mode, world.header(), world.events))
    return runs


def test_every_payload_has_the_keys_of_its_schema_row(engine_runs):
    seen = set()
    for name, trust_mode, _, events in engine_runs:
        for ev in events:
            assert set(ev.payload) == payload_keys(ev.kind, trust_mode), (name, ev)
            seen.add((ev.kind, trust_mode))
    assert seen == ({(kind, True) for kind in EVENT_KEYS}
                    | {(kind, False) for kind in EVENT_KEYS if kind not in TRUST_ONLY_KINDS})


def test_every_cause_kind_and_profile_is_in_its_closed_set(engine_runs):
    # The runs also show every value of each set.
    seen = {"cause": set(), "kind": set(), "profile": set()}
    for name, _, header, events in engine_runs:
        seen["profile"].update(agent["profile"] for agent in header["agents"].values())
        for ev in events:
            if ev.kind == "rating_issued":
                seen["cause"].add(ev.payload["cause"])
            elif ev.kind == "tc_event":
                seen["kind"].add(ev.payload["kind"])
    assert seen == {"cause": RATING_CAUSES, "kind": TC_EVENT_KINDS, "profile": PROFILES}
    assert set(CAUSE_VALUES) == RATING_CAUSES and set(config.PROFILES) == PROFILES


# ---------------------------------------------------------------- writer

HEADER = {"horizon": 3, "agents": {"a-000": {"profile": "reliable", "online": True}}}

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


def dumps_line(tick, kind, payload):
    """What the writer must write for an event."""
    return json.dumps({"t": tick, "k": kind, "p": payload}, sort_keys=True) + "\n"


def dumps_lines(header, events):
    return json.dumps(header, sort_keys=True) + "\n" + "".join(
        dumps_line(*event) for event in events)


def written(path, header, events):
    """The writer's text for `events`, with the C encoder and without it,
    which must be the same."""
    write_event_log(path, header, events)
    text = path.read_bytes().decode("ascii")
    with mock.patch.object(json.encoder, "c_make_encoder", None):
        write_event_log(path, header, events)
    assert path.read_bytes().decode("ascii") == text
    return text


@pytest.fixture(scope="module")
def codec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(json_leaves, st.text(max_size=12),
                          st.dictionaries(st.text(max_size=6), json_values, max_size=5)
                          | json_values),
                max_size=6))
@example([(True, "wu_issued", {})])  # str(True) is not JSON
@example([("3", "wu_issued", {})])  # nor is str("3")
def test_writer_lines_equal_json_dumps(codec_dir, triples):
    log = codec_dir / "events.jsonl"
    assert written(log, HEADER, [SimEvent(t, k, p) for t, k, p in triples]) == \
        dumps_lines(HEADER, triples)
    # tuples come back as lists, as from any JSON round trip
    header, events = read_event_log(log)
    assert (header, list(events)) == (HEADER, [SimEvent(t, k, json.loads(json.dumps(p)))
                                               for t, k, p in triples])


def test_writer_without_the_c_encoder_writes_the_same_bytes(small_run, tmp_path):
    _, world, _, _ = small_run
    events = world.events + [SimEvent(7, "caf\xe9  ", {
        "b": [1.5, -0.0, 1e300, -1e-300], "a": ("x", None, True),
        "漢": {"z": "\x00\x1f\"\\", "y": 2}})]
    assert written(tmp_path / "events.jsonl", world.header(), events) == \
        dumps_lines(world.header(), events)


def test_event_log_round_trips_the_engine_events(small_run, tmp_path):
    _, world, _, _ = small_run
    write_event_log(tmp_path / "events.jsonl", world.header(), world.events)
    header, events = read_event_log(tmp_path / "events.jsonl")
    events = list(events)
    assert header == world.header()
    assert events == world.events
    assert all(type(ev) is SimEvent for ev in events)


def templated(kind, payload, tick=1):
    """The line the writer takes from the template of `kind`, or None where
    it leaves the event to the encoder."""
    if type(tick) is not int:
        return None
    try:
        return LINE_TEMPLATES[kind](payload, str(tick))
    except (KeyError, TypeError):
        return None


class Name(str):
    """A str subclass: the encoder writes the str it holds."""


# Each value type the engine writes under a templated kind: what a
# template takes, and what it must leave to the encoder.
TEXT = (st.text(max_size=8) | st.text(max_size=8).map(Name)
        | st.sampled_from(['"', "\\", "\x00", "\x1f\x7f", "caf\xe9", "\u6f22", "\u2028",
                           "\ud800"]))
TAKEN = {
    str: TEXT,
    int: st.integers(),
    bool: st.booleans(),
    float: (st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 5e-324, 1e300, 0.1])),
    list: st.lists(TEXT, max_size=4),
    dict: st.dictionaries(TEXT, st.integers(), max_size=4),
}
LEFT = {
    str: st.none() | st.integers() | st.booleans() | st.lists(TEXT, max_size=2),
    int: st.booleans() | st.floats() | st.integers().map(str),
    bool: st.integers(0, 1) | st.floats() | st.none(),
    float: (st.sampled_from([math.inf, -math.inf, math.nan])
            | st.integers() | st.booleans()),
    list: (st.lists(TEXT, max_size=3).map(tuple)
           | st.lists(st.integers() | st.none() | TEXT, min_size=1, max_size=3).filter(
               lambda items: not all(isinstance(x, str) for x in items))
           | TEXT),
    dict: (st.dictionaries(st.integers(), st.integers(), min_size=1, max_size=3)
           | st.dictionaries(TEXT, st.booleans() | st.floats(), min_size=1, max_size=3)
           | st.lists(st.tuples(TEXT, st.integers()), max_size=2)),
}
VALUE_TYPES = {
    "wu": str, "agent": str, "initiator": str, "distributor": str, "subject": str,
    "rater": str, "cause": str, "members": list, "consensus": list,
    "group_size": int, "complexity": int, "units": int, "credit": int,
    "late": bool, "buffered": bool, "short": bool, "correct": bool,
    "value": float, "allocations": dict,
}
# Each payload shape a template takes: its kind and key set, by id.
SHAPES = {f"{kind}-{len(keys)}": (kind, sorted(keys)) for kind in LINE_TEMPLATES
          for keys in {frozenset(payload_keys(kind, mode)) for mode in (False, True)}}


@st.composite
def templated_events(draw, kind, keys):
    """An event of `kind` with the engine's key set and value types, and
    whether the template must take it; or the same with one thing changed:
    a value of another type, a key missing, a key more, a tick that is not
    an int, or a mapping that is not a dict."""
    payload = {key: draw(TAKEN[VALUE_TYPES[key]]) for key in keys}
    tick = draw(st.integers(min_value=0))
    change = draw(st.sampled_from([None, "value", "missing", "extra", "tick", "mapping"]))
    key = draw(st.sampled_from(keys))
    if change == "value":
        payload[key] = draw(LEFT[VALUE_TYPES[key]])
    elif change == "missing":
        del payload[key]
    elif change == "extra":
        payload[draw(TEXT.filter(lambda extra: extra not in payload))] = draw(json_leaves)
    elif change == "tick":
        tick = draw(json_leaves.filter(lambda t: type(t) is not int))
    elif change == "mapping":
        payload = types.MappingProxyType(payload)
    return SimEvent(tick, kind, payload), change is None


@pytest.mark.parametrize("kind, keys", SHAPES.values(), ids=SHAPES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_templates_write_what_json_dumps_writes(codec_dir, kind, keys, data):
    drawn = data.draw(st.lists(templated_events(kind, keys), min_size=1, max_size=3))
    events = [event for event, _ in drawn]
    log = codec_dir / "templated.jsonl"
    try:
        expected = dumps_lines(HEADER, events)
    except TypeError:  # json.dumps encodes no mapping but a dict
        with pytest.raises(TypeError):
            write_event_log(log, HEADER, events)
        return
    assert written(log, HEADER, events) == expected
    for event, taken in drawn:
        line = templated(event.kind, event.payload, event.tick)
        if taken:  # the engine's key set and value types
            assert line is not None, event
        if line is not None:
            assert line == dumps_line(*event), event


# The engine's value of each type, and values of other types that a
# template must leave to the encoder, as it leaves them all.  A list or dict
# of one element takes a path of its own, so each has one-element values.
ENGINE_VALUES = {str: "a", int: 2, bool: True, float: 0.5, list: ["b", "a"],
                 dict: {"b": 1, "a": 2}}
OTHER_VALUES = {
    str: [None, 7, True, ["a"]],
    int: [True, 3.0, "3", None],
    bool: [1, 0, 1.0, None, "true"],
    float: [math.inf, -math.inf, math.nan, 1, True],
    list: [("a",), ["a", 1], ["a", None], "ab", {"a": 1}, [1], [None], [True]],
    dict: [{1: 2}, {"a": True}, {"a": 1.5}, [("a", 1)], "a"],
}


def test_every_value_of_another_type_goes_to_the_encoder(codec_dir):
    items = [x[0] for x in OTHER_VALUES[list] if type(x) is list and len(x) == 1]
    pairs = [pair for x in OTHER_VALUES[dict] if type(x) is dict and len(x) == 1
             for pair in x.items()]
    assert {type(item) for item in items} >= {int, type(None), bool}
    assert any(type(agent) is not str for agent, _ in pairs)
    assert any(type(millis) is not int for _, millis in pairs)
    events = []
    for kind, keys in SHAPES.values():
        payload = {key: ENGINE_VALUES[VALUE_TYPES[key]] for key in keys}
        assert templated(kind, payload) is not None, kind
        for key in keys:
            for value in OTHER_VALUES[VALUE_TYPES[key]]:
                events.append(SimEvent(1, kind, {**payload, key: value}))
                assert templated(kind, events[-1].payload) is None, events[-1]
    assert written(codec_dir / "other-values.jsonl", HEADER, events) == \
        dumps_lines(HEADER, events)


def test_engine_events_take_their_template(engine_runs):
    shapes = {}  # kind -> the key sets its template was seen to take
    for name, trust_mode, _, events in engine_runs:
        for ev in events:
            if ev.kind in LINE_TEMPLATES:
                assert templated(ev.kind, ev.payload, ev.tick) is not None, (name, ev)
                shapes.setdefault(ev.kind, {})[frozenset(ev.payload)] = ev.payload
    assert set(shapes) == set(LINE_TEMPLATES)
    # A template takes the key set of payload_keys in either mode, and one
    # key fewer or one more only where that is the other mode's key set.
    for kind, payloads in shapes.items():
        modes = {frozenset(payload_keys(kind, mode)) for mode in (False, True)}
        assert set(payloads) == modes, kind
        for payload in payloads.values():
            variants = [{k: v for k, v in payload.items() if k != key} for key in payload]
            variants.append({**payload, "zz": 0})
            for variant in variants:
                taken = templated(kind, variant) is not None
                assert taken == (frozenset(variant) in modes), (kind, sorted(variant))


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


@pytest.mark.parametrize("number", [1, 4], ids=["header", "event"])
def test_a_line_nested_too_deep_names_its_line(short_log, tmp_path, number):
    # json's decoder raises RecursionError, not a ValueError, on a value
    # nested deeper than the interpreter's recursion limit.
    _, lines = short_log
    texts = [json.dumps(line) for line in lines]
    texts[number - 1] = "[" * 100_000
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


def ten_million_ticks(log, engine_runs):
    log.write_text(json.dumps({"agents": {}, "horizon": 10 ** 7}) + "\n", encoding="utf-8")


def central_outage(log, engine_runs):
    _, _, header, events = next(run for run in engine_runs
                                if run[0] == "centralized_outage")
    assert len(events) >= 80_000
    write_event_log(log, header, events)


# Four per-tick lists took the ten-million-tick replay to 325 MB of peak
# RSS, and an event list the central-outage replay, of 80 002 events, to
# 100 MB.  The fold now holds nothing per tick and the reader nothing per
# event.
@pytest.mark.parametrize("make_log", [ten_million_ticks, central_outage],
                         ids=["ten-million-ticks", "central-outage"])
def test_a_replay_stays_below_40_mb(engine_runs, tmp_path, make_log):
    log = tmp_path / "events.jsonl"
    make_log(log, engine_runs)
    # A child's ru_maxrss counts the RSS of the process that started it, so
    # the replay is started by a bare interpreter, not by this one.
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


@pytest.mark.parametrize("line3", [
    '{"k": "wu_issued", "p": {}, "t": 1}',
    '{"k": "wu_completed", "p": {"units": "x"}, "t": 2}',
], ids=["tick goes back", "payload the fold cannot read"])
def test_the_first_bad_line_in_file_order_is_named(tmp_path, line3):
    # The fold reads each event as the reader yields it, so its error on
    # line 3 is named before the reader reaches the bad JSON on line 5.
    texts = [json.dumps({"agents": {}, "horizon": 3}),
             '{"k": "wu_issued", "p": {}, "t": 2}', line3,
             '{"k": "wu_issued", "p": {}, "t": 3}', "{"]
    log = tmp_path / "events.jsonl"
    code, err = replay_text(log, texts)
    assert code == 2
    assert err.startswith(f"runtime error: {log}: line 3: "), err
    with pytest.raises(EventLogError) as exc:
        compute_metrics(*read_event_log(log))
    assert exc.value.line == 3
    # Without the line-3 error, the reader's own error passes through the
    # fold as it is.
    texts[2] = texts[1]
    log.write_text("".join(text + "\n" for text in texts), encoding="utf-8")
    with pytest.raises(EventLogError) as exc:
        compute_metrics(*read_event_log(log))
    assert str(exc.value).startswith("line 5: not JSON: ")


# -------------------------------------------------------------- reader

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
        header, events = read_event_log(log)
        assert (header, list(events)) == (HEADER, expected)
        return
    with pytest.raises(EventLogError) as exc:
        list(read_event_log(log)[1])
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
                list(read_event_log(log)[1])
        else:
            list(read_event_log(log)[1])
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if before else gc.disable()


@pytest.mark.parametrize("bad", [b"{", UNDECODABLE], ids=["not JSON", "not UTF-8"])
def test_bad_line_after_a_bare_cr_is_numbered_as_it_is_read(tmp_path, bad):
    # Universal newlines end line 2 at the bare "\r", so the bad line is 3
    # whichever way it is bad.
    log = tmp_path / "events.jsonl"
    log.write_bytes(json.dumps(HEADER).encode() + b"\n" + EVENT.encode() + b"\r"
                    + bad + b"\n" + EVENT.encode() + b"\n")
    with pytest.raises(EventLogError) as exc:
        list(read_event_log(log)[1])
    assert exc.value.line == 3


@pytest.mark.parametrize("line3, line5, reason", [
    (b"{", UNDECODABLE, "not JSON"),
    (UNDECODABLE, b"{", "not UTF-8"),
], ids=["bad JSON first", "not UTF-8 first"])
def test_the_first_bad_line_is_named_whichever_way_it_is_bad(tmp_path, line3,
                                                              line5, reason):
    # The text layer decodes a whole chunk, lines 1-5 here, before line 3
    # is parsed, so a byte that is not UTF-8 on line 5 is decoded first.
    log = tmp_path / "events.jsonl"
    event = EVENT.encode()
    log.write_bytes(b"\n".join([json.dumps(HEADER).encode(), event, line3,
                                event, line5, event, b""]))
    with pytest.raises(EventLogError) as exc:
        list(read_event_log(log)[1])
    assert exc.value.line == 3
    assert str(exc.value).startswith(f"line 3: {reason}")


def test_cli_replay_undecodable_line_names_it(replay_log, capsys):
    lines = replay_log.read_bytes().splitlines(keepends=True)
    lines[5] = lines[5][:10] + b"\xff" + lines[5][10:]
    replay_log.write_bytes(b"".join(lines))
    with pytest.raises(EventLogError) as exc:
        list(read_event_log(replay_log)[1])
    assert exc.value.line == 6
    assert main(["replay", "--log", str(replay_log)]) == 2
    assert "line 6" in capsys.readouterr().err


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
