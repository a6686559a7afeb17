"""The event log: every payload against its schema row, and `replay` on a
log whose lines parse but whose values the metrics fold cannot read."""
import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from event_schema import EVENT_KEYS, SCENARIOS, TRUST_ONLY_KINDS, payload_keys
from golden_cases import CASES, scenario_file
from tdgsim.cli import main
from tdgsim.eventlog import EventLogError, SimEvent
from tdgsim.metrics import compute_metrics
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


def first_orphan_credit(lines, agents):
    """The line of the first credit to an agent that `agents` lacks."""
    return next((number for number, line in enumerate(lines[1:], start=2)
                 if line["k"] == "credit_committed"
                 and not line["p"]["allocations"].keys() <= agents.keys()), None)


# Integers stay within +-1000.  A header's horizon sizes the lists the fold
# allocates, and the reader bounds it only by sys.maxsize, so a large random
# one could exhaust the host's memory: a known gap this test leaves out.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_replay_of_one_changed_value_exits_zero_or_names_its_line(short_log, data):
    log, lines = short_log
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
    lambda h: h["agents"].update({min(h["agents"]): "reliable"}),
    lambda h: _first_agent(h).update(profile=None),
    lambda h: _first_agent(h).pop("online"),
    lambda h: _first_agent(h).update(online="yes"),
], ids=["negative window", "window past a deque's maxlen", "str window", "null window",
        "horizon past sys.maxsize", "negative horizon",
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
    # The fold reads by tick, so the tick-1 event on line 3 is read before
    # the tick-2 event on line 2; the error still names the list position.
    header = {"horizon": 2, "agents": {"a": {"profile": "reliable", "online": True}}}
    events = [SimEvent(2, "wu_completed", {"units": 1}),
              SimEvent(1, "rating_issued", {"subject": "a", "value": 7})]
    with pytest.raises(EventLogError) as exc:
        compute_metrics(header, events)
    assert exc.value.line == 3
    assert str(exc.value).startswith("line 3: rating_issued event: ValidationError(")
