"""The event log, `events.jsonl`: the run's one record, which `replay`
folds again.  Its event type and its codec."""
from __future__ import annotations

import json
import sys
from typing import Iterator, NamedTuple, Tuple


class SimEvent(NamedTuple):
    # A tuple, not a frozen dataclass: one is built per emit and per log
    # line read, and a frozen dataclass pays a setattr call per field.
    tick: int
    kind: str
    payload: dict


class EventLogError(ValueError):
    """A line of an event log that is not a well-formed header or event."""

    def __init__(self, line: int, reason: str) -> None:
        super().__init__(f"line {line}: {reason}")
        self.line = line  # 1-based; the header is line 1


def write_event_log(path, header: dict, events) -> None:
    """One line per event, each the text of
    `json.dumps({"t": tick, "k": kind, "p": payload}, sort_keys=True)`.

    The kinds in LINE_TEMPLATES, nearly every line of a run, are written
    from one f-string per kind with the keys in their sorted order, in a
    third to a half of the encoder's time per line.  A template writes only
    an int tick and the key set and value types the engine emits, which it
    spells as the encoder does; any other event, and every other kind, goes
    to the encoder."""
    encode = json.JSONEncoder(sort_keys=True).encode
    templates = LINE_TEMPLATES
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write = fh.write
        write(encode(header) + "\n")
        last_tick = t = None
        for tick, kind, payload in events:
            line = None
            if type(tick) is int:  # so not a bool, whose str() is not JSON
                if tick is not last_tick:  # the events of a tick share its int
                    last_tick, t = tick, str(tick)
                try:
                    line = templates[kind](payload, t)
                except (KeyError, TypeError):  # another kind, or a key or value
                    pass                       # of another shape
            if line is None:
                line = encode({"t": tick, "k": kind, "p": payload}) + "\n"
            write(line)


# A template takes a payload and the str() of an int tick.  It returns the
# event's line, or None, or raises KeyError or TypeError, where the encoder
# must write the line instead.  Its checks are what make its bytes the
# encoder's: a dict or list of exactly that type, exact ints, bools by type
# (so never 0 or 1), finite floats, and strings through the encoder's own
# escaper, which raises TypeError on anything that is not a str.  A list or
# dict of one element, every one in a centralized run, is written as that
# element, with no join and no sort.
_str = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _wu_issued(p, t):
    if type(p) is not dict:
        return None
    if len(p) == 7:  # a trust-mode run's, with `short`
        short = p["short"]
        if type(short) is not bool:
            return None
        short = ', "short": true' if short else ', "short": false'
    elif len(p) == 6:
        short = ""
    else:
        return None
    complexity, group_size, members = p["complexity"], p["group_size"], p["members"]
    if type(complexity) is not int or type(group_size) is not int or type(members) is not list:
        return None
    members = _str(members[0]) if len(members) == 1 else ", ".join(map(_str, members))
    return (f'{{"k": "wu_issued", "p": {{"complexity": {complexity}, '
            f'"distributor": {_str(p["distributor"])}, "group_size": {group_size}, '
            f'"initiator": {_str(p["initiator"])}, "members": [{members}]'
            f'{short}, "wu": {_str(p["wu"])}}}, "t": {t}}}\n')


def _wu_completed(p, t):
    if type(p) is not dict or len(p) != 5:
        return None
    buffered, late, units = p["buffered"], p["late"], p["units"]
    if type(buffered) is not bool or type(late) is not bool or type(units) is not int:
        return None
    return (f'{{"k": "wu_completed", "p": {{"agent": {_str(p["agent"])}, '
            f'"buffered": {"true" if buffered else "false"}, '
            f'"late": {"true" if late else "false"}, "units": {units}, '
            f'"wu": {_str(p["wu"])}}}, "t": {t}}}\n')


def _wu_validated(p, t):
    if type(p) is not dict or len(p) != 7:
        return None
    complexity, consensus, correct = p["complexity"], p["consensus"], p["correct"]
    credit, group_size, members = p["credit"], p["group_size"], p["members"]
    if (type(complexity) is not int or type(consensus) is not list
            or type(correct) is not bool or type(credit) is not int
            or type(group_size) is not int or type(members) is not list):
        return None
    consensus = _str(consensus[0]) if len(consensus) == 1 else ", ".join(map(_str, consensus))
    members = _str(members[0]) if len(members) == 1 else ", ".join(map(_str, members))
    return (f'{{"k": "wu_validated", "p": {{"complexity": {complexity}, '
            f'"consensus": [{consensus}], '
            f'"correct": {"true" if correct else "false"}, "credit": {credit}, '
            f'"group_size": {group_size}, "members": [{members}], '
            f'"wu": {_str(p["wu"])}}}, "t": {t}}}\n')


def _credit_committed(p, t):
    if type(p) is not dict or len(p) != 2:
        return None
    allocations = p["allocations"]
    if type(allocations) is not dict:
        return None
    if len(allocations) == 1:
        [(agent, millis)] = allocations.items()
        if type(millis) is not int:
            return None
        shares = f"{_str(agent)}: {millis}"
    else:
        shares = []
        # Sorted as the encoder sorts a dict: its (key, value) pairs.  A key
        # that is not a str fails _str, after the same sort the encoder does.
        for agent, millis in sorted(allocations.items()):
            if type(millis) is not int:
                return None
            shares.append(f"{_str(agent)}: {millis}")
        shares = ", ".join(shares)
    return (f'{{"k": "credit_committed", "p": {{"allocations": {{{shares}}}, '
            f'"wu": {_str(p["wu"])}}}, "t": {t}}}\n')


def _rating_issued(p, t):
    if type(p) is not dict or len(p) != 4:
        return None
    value = p["value"]
    if type(value) is not float or not -_INF < value < _INF:  # NaN fails both
        return None
    return (f'{{"k": "rating_issued", "p": {{"cause": {_str(p["cause"])}, '
            f'"rater": {_str(p["rater"])}, "subject": {_str(p["subject"])}, '
            f'"value": {value!r}}}, "t": {t}}}\n')


LINE_TEMPLATES = {"wu_issued": _wu_issued, "wu_completed": _wu_completed,
                  "wu_validated": _wu_validated, "credit_committed": _credit_committed,
                  "rating_issued": _rating_issued}


_JSON_WS = " \t\n\r"  # what json.loads skips around a value; not str.isspace()


def read_event_log(path) -> Tuple[dict, Iterator[SimEvent]]:
    """Open a log written by `write_event_log` and read its header.  The
    events are read as they are iterated, so a log is never held whole.
    Either raises EventLogError naming the first line that does not
    parse, is not UTF-8 or lacks a required key.

    Each line is read exactly as `json.loads(line)` would: a value that
    `raw_decode` takes from the start of the line, followed only by JSON
    whitespace, is that value; any other line goes to `json.loads`."""
    lines = _read_lines(path)
    return next(lines), lines


def _read_lines(path) -> Iterator:
    """The checked header, then each event."""
    raw_decode, loads = json.JSONDecoder().raw_decode, json.loads
    new = tuple.__new__  # as World.emit: skips the __new__ NamedTuple adds
    # Each byte that is not UTF-8 is read as one of U+DC80..U+DCFF, which
    # no UTF-8 decodes to and `str.encode` refuses, so the error names the
    # first bad line, whichever way it is bad.  The writer writes ASCII.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = enumerate(fh, start=1)
        number, line = next(lines, (1, ""))
        try:
            if not line.isascii():
                line.encode()
            header = loads(line)
            # The header has all that the metrics fold reads from it.  A window
            # is a deque's maxlen, and a horizon is held to the same bound.
            window = header.get("window", 0) if isinstance(header, dict) else -1
            horizon = header.get("horizon") if isinstance(header, dict) else -1
            # type(), not isinstance(): JSON true and false load as bools, which are ints.
            if not (type(window) is int and 0 <= window <= sys.maxsize
                    and type(horizon) is int and 0 <= horizon <= sys.maxsize
                    and isinstance(header.get("agents"), dict)
                    and all(isinstance(a, dict) and isinstance(a.get("profile"), str)
                            and isinstance(a.get("online"), bool)
                            for a in header["agents"].values())):
                raise EventLogError(1, f"header lacks an int 'horizon' and an int 'window' "
                                       f"in [0, {sys.maxsize}], or 'agents' of "
                                       "{'profile': str, 'online': bool}")
            yield header
            for number, line in lines:
                if not line.isascii():
                    line.encode()
                try:
                    raw, end = raw_decode(line)
                except json.JSONDecodeError:
                    raw = loads(line)
                else:
                    if line[end:].strip(_JSON_WS):
                        raw = loads(line)
                yield new(SimEvent, (raw["t"], raw["k"], raw["p"]))
        except EventLogError:
            raise  # a bad header
        except UnicodeEncodeError:
            raise EventLogError(number, "not UTF-8") from None
        # A JSONDecodeError, an int past json's digit limit, or nesting too deep.
        except (ValueError, RecursionError) as exc:
            raise EventLogError(number, f"not JSON: {exc}") from None
        except (KeyError, TypeError) as exc:
            raise EventLogError(number, f"event lacks 't', 'k' or 'p': {exc!r}") from None
