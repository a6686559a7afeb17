"""The event log, `events.jsonl`: the run's one record, which `replay`
folds again.  Its event type and its codec."""
from __future__ import annotations

import gc
import json
import sys
from typing import Iterator, List, NamedTuple, Tuple


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
    The keys sort as k < p < t, so a line is the encoded kind, the encoded
    payload and the int tick, joined in that order.

    `JSONEncoder.encode` builds a new C encoder on every call, so the file
    builds its own once, with the arguments `JSONEncoder.iterencode` passes
    for `JSONEncoder(sort_keys=True)`.  Without the C accelerator, `encode`
    gives the same text."""
    encoder = json.JSONEncoder(sort_keys=True)
    make_encoder = json.encoder.c_make_encoder
    if make_encoder is None:
        encode = encoder.encode
    else:
        chunks = make_encoder(
            {}, encoder.default, json.encoder.encode_basestring_ascii, None,
            encoder.key_separator, encoder.item_separator, encoder.sort_keys,
            encoder.skipkeys, encoder.allow_nan)
        join = "".join

        def encode(obj) -> str:
            return join(chunks(obj, 0))

    prefixes = {}  # kind -> '{"k": <kind>, "p": '
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write = fh.write
        write(encode(header) + "\n")
        for tick, kind, payload in events:
            prefix = prefixes.get(kind)
            if prefix is None:
                prefix = prefixes[kind] = '{"k": ' + encode(kind) + ', "p": '
            write(prefix + encode(payload) + ', "t": ' + str(tick) + "}\n")


_JSON_WS = " \t\n\r"  # what json.loads skips around a value; not str.isspace()


def read_event_log(path) -> Tuple[dict, List[SimEvent]]:
    """Load a log written by `write_event_log`; raises EventLogError naming
    the first line that does not parse or lacks a required key.

    Each line is read exactly as `json.loads(line)` would: a value that
    `raw_decode` takes from the start of the line, followed only by JSON
    whitespace, is that value; any other line goes to `json.loads`.  The
    cyclic collector is paused while the list grows: parsed events hold no
    reference cycles, so it would only rescan them."""
    with open(path, encoding="utf-8") as fh:
        try:
            return _parse_event_lines(fh)
        except UnicodeDecodeError:  # raised per read chunk, not per line
            pass
    # Parse again, with each byte that is not UTF-8 mapped to U+DC80..U+DCFF,
    # so the error names the first bad line, whichever way it is bad.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return _parse_event_lines(_decodable_lines(fh))


def _decodable_lines(lines):
    for number, line in enumerate(lines, start=1):
        if any("\udc80" <= ch <= "\udcff" for ch in line):
            raise EventLogError(number, "not UTF-8")
        yield line


def _parse_event_lines(lines: Iterator[str]) -> Tuple[dict, List[SimEvent]]:
    header = None
    events: List[SimEvent] = []
    append, raw_decode, loads = events.append, json.JSONDecoder().raw_decode, json.loads
    new = tuple.__new__  # as World.emit: skips the __new__ NamedTuple adds
    gc_was_enabled = gc.isenabled()
    gc.disable()
    # Each good event line adds one event, so a bad one is line
    # len(events) + 2; a bad header is line 1.
    try:
        header = loads(next(lines, ""))
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
        for line in lines:
            try:
                raw, end = raw_decode(line)
            except json.JSONDecodeError:
                raw = loads(line)
            else:
                if line[end:].strip(_JSON_WS):
                    raw = loads(line)
            append(new(SimEvent, (raw["t"], raw["k"], raw["p"])))
    except (EventLogError, UnicodeDecodeError):
        raise  # a bad header or line, or a read chunk to decode again
    except ValueError as exc:  # a JSONDecodeError, or an int past json's digit limit
        raise EventLogError(1 if header is None else len(events) + 2,
                            f"not JSON: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise EventLogError(len(events) + 2,
                            f"event lacks 't', 'k' or 'p': {exc!r}") from None
    finally:
        if gc_was_enabled:
            gc.enable()
    return header, events
