"""Scenario parsing, execution and report emission.

Scenario files are INI-style key/value sections.  Unknown keys, dangling
fault references and non-positive horizons are load errors; all errors in
a file are reported together, not just the first.
"""
from __future__ import annotations

import configparser
import gc
import json
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from .config import (MODES, PROFILES, STRATEGIES, AgentGroup, Fault, Params,
                     ScenarioConfig)
from .engine import SimEvent, World
from .ledger import AuditError, Ledger
from .metrics import MetricsReport, compute_metrics
from .trust import ReplicationLimits


class ConfigError(ValueError):
    def __init__(self, errors: List[str]) -> None:
        super().__init__("; ".join(errors))
        self.errors = errors


class EventLogError(ValueError):
    """A line of an event log that is not a well-formed header or event."""

    def __init__(self, line: int, reason: str) -> None:
        super().__init__(f"line {line}: {reason}")
        self.line = line  # 1-based; the header is line 1


_SCENARIO_KEYS = {"name", "mode", "strategy", "seed", "horizon_ticks"}
_WORK_KEYS = {"wu_count", "complexity", "base_credit"}
_SERVER_KEYS = {"count", "timeout_ticks"}
_AGENT_KEYS = {"count", "profile", "speed", "churn", "accept_prob"}
_PARAM_KEYS = {"window", "min_size", "max_size", "join_threshold",
               "evict_threshold", "drop_delta", "dissolve_fraction",
               "formation", "allow_short_groups", "dgds_same_amount",
               "max_requeues", "random_replication"}
_LIMIT_KEYS = {"lo", "hi"}


def _bool(raw: str) -> bool:
    if raw.lower() in ("on", "true", "yes", "1"):
        return True
    if raw.lower() in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def parse_scenario(path) -> ScenarioConfig:
    """Load and validate a scenario file; raises ConfigError listing
    every problem found."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"scenario file not found: {path}"])
    ini = configparser.ConfigParser(delimiters=("=",), inline_comment_prefixes=("#", ";"))
    try:
        ini.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError([f"malformed scenario file: {exc}"])

    errors: List[str] = []
    cfg = ScenarioConfig()

    def get(section: str, key: str, cast, default, errlabel: Optional[str] = None):
        if not ini.has_option(section, key):
            return default
        raw = ini.get(section, key)
        try:
            return cast(raw)
        except (ValueError, TypeError):
            errors.append(f"[{section}] {errlabel or key}: cannot parse {raw!r}")
            return default

    def check_keys(section: str, allowed: set) -> None:
        for key in ini.options(section):
            if key not in allowed:
                errors.append(f"[{section}] unknown key {key!r}")

    for section in ini.sections():
        if section == "scenario":
            check_keys(section, _SCENARIO_KEYS)
            cfg.name = get(section, "name", str, cfg.name)
            cfg.mode = get(section, "mode", str, cfg.mode)
            cfg.strategy = get(section, "strategy", str, cfg.strategy)
            cfg.seed = get(section, "seed", int, cfg.seed)
            cfg.horizon_ticks = get(section, "horizon_ticks", int, cfg.horizon_ticks)
        elif section == "work":
            check_keys(section, _WORK_KEYS)
            cfg.wu_count = get(section, "wu_count", int, cfg.wu_count)
            cfg.complexity = get(section, "complexity", str, cfg.complexity)
            cfg.base_credit = get(section, "base_credit", int, cfg.base_credit)
        elif section == "servers":
            check_keys(section, _SERVER_KEYS)
            cfg.server_count = get(section, "count", int, cfg.server_count)
            cfg.timeout_ticks = get(section, "timeout_ticks", int, cfg.timeout_ticks)
        elif section.startswith("agents"):
            check_keys(section, _AGENT_KEYS)
            label = section.split(None, 1)[1].strip() if " " in section else "agents"
            group = AgentGroup(
                label=label,
                count=get(section, "count", int, 0),
                profile=get(section, "profile", str, "reliable"),
                speed=get(section, "speed", int, 1),
                accept_prob=get(section, "accept_prob", float, 1.0))
            churn_raw = get(section, "churn", str, "")
            if churn_raw:
                try:
                    up, down = (int(x) for x in churn_raw.split("/"))
                    group.churn = (up, down)
                except ValueError:
                    errors.append(f"[{section}] churn: expected UP/DOWN, got {churn_raw!r}")
            if group.profile not in PROFILES:
                errors.append(f"[{section}] unknown profile {group.profile!r}")
            if group.count < 1:
                errors.append(f"[{section}] count must be >= 1")
            if group.speed < 1:
                errors.append(f"[{section}] speed must be >= 1")
            cfg.agents.append(group)
        elif section == "faults":
            for key in ini.options(section):
                raw = ini.get(section, key)
                parts = raw.split()
                if len(parts) != 3 or parts[2] not in ("down", "up"):
                    errors.append(f"[faults] {key}: expected 'TICK ENTITY down|up', got {raw!r}")
                    continue
                try:
                    tick = int(parts[0])
                except ValueError:
                    errors.append(f"[faults] {key}: bad tick {parts[0]!r}")
                    continue
                cfg.faults.append(Fault(tick=tick, entity=parts[1],
                                        down=parts[2] == "down"))
        elif section == "params":
            check_keys(section, _PARAM_KEYS)
            p = cfg.params
            p.window = get(section, "window", int, p.window)
            p.min_size = get(section, "min_size", int, p.min_size)
            p.max_size = get(section, "max_size", int, p.max_size)
            p.join_threshold = get(section, "join_threshold", float, p.join_threshold)
            p.evict_threshold = get(section, "evict_threshold", float, p.evict_threshold)
            p.drop_delta = get(section, "drop_delta", float, p.drop_delta)
            p.dissolve_fraction = get(section, "dissolve_fraction", float, p.dissolve_fraction)
            p.formation = get(section, "formation", _bool, p.formation)
            p.allow_short_groups = get(section, "allow_short_groups", _bool,
                                       p.allow_short_groups)
            p.dgds_same_amount = get(section, "dgds_same_amount", str, p.dgds_same_amount)
            p.max_requeues = get(section, "max_requeues", int, p.max_requeues)
            p.random_replication = get(section, "random_replication", float,
                                       p.random_replication)
        elif section == "limits":
            check_keys(section, _LIMIT_KEYS)
            lo = get(section, "lo", float, cfg.limits.lo)
            hi = get(section, "hi", float, cfg.limits.hi)
            try:
                cfg.limits = ReplicationLimits(lo, hi)
            except ValueError as exc:
                errors.append(f"[limits] {exc}")
        else:
            errors.append(f"unknown section [{section}]")

    errors.extend(validate_config(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def validate_config(cfg: ScenarioConfig) -> List[str]:
    errors: List[str] = []
    if cfg.mode not in MODES:
        errors.append(f"unknown mode {cfg.mode!r}")
    if cfg.strategy not in STRATEGIES:
        errors.append(f"unknown strategy {cfg.strategy!r}")
    if cfg.horizon_ticks <= 0:
        errors.append(f"horizon_ticks must be positive, got {cfg.horizon_ticks}")
    if cfg.server_count < 1:
        errors.append("servers count must be >= 1")
    if cfg.wu_count < 0:
        errors.append("wu_count must be >= 0")
    known = set(cfg.agent_ids()) | set(cfg.server_ids())
    seen = set()
    for g in cfg.agents:
        for aid in g.agent_ids():
            if aid in seen:
                errors.append(f"duplicate agent group label {g.label!r}")
                break
            seen.add(aid)
    for f in cfg.faults:
        if f.entity not in known:
            errors.append(f"fault at tick {f.tick} references unknown entity {f.entity!r}")
        if f.tick < 1:
            errors.append(f"fault tick {f.tick} must be >= 1")
    if cfg.params.window < 0:
        errors.append(f"window must be >= 0, got {cfg.params.window}")
    if cfg.params.dgds_same_amount not in ("total", "additional"):
        errors.append(f"dgds_same_amount must be total|additional, "
                      f"got {cfg.params.dgds_same_amount!r}")
    return errors


def render_config(cfg: ScenarioConfig) -> str:
    """Effective configuration echo, itself a parseable scenario file."""
    p = cfg.params
    lines = [
        "[scenario]",
        f"name = {cfg.name}",
        f"mode = {cfg.mode}",
        f"strategy = {cfg.strategy}",
        f"seed = {cfg.seed}",
        f"horizon_ticks = {cfg.horizon_ticks}",
        "",
        "[work]",
        f"wu_count = {cfg.wu_count}",
        f"complexity = {cfg.complexity}",
        f"base_credit = {cfg.base_credit}",
        "",
        "[servers]",
        f"count = {cfg.server_count}",
        f"timeout_ticks = {cfg.timeout_ticks}",
    ]
    for g in cfg.agents:
        lines += ["", f"[agents {g.label}]",
                  f"count = {g.count}", f"profile = {g.profile}",
                  f"speed = {g.speed}", f"accept_prob = {g.accept_prob}"]
        if g.churn:
            lines.append(f"churn = {g.churn[0]}/{g.churn[1]}")
    if cfg.faults:
        lines += ["", "[faults]"]
        for i, f in enumerate(cfg.faults):
            lines.append(f"f{i} = {f.tick} {f.entity} {'down' if f.down else 'up'}")
    lines += [
        "",
        "[params]",
        f"window = {p.window}",
        f"min_size = {p.min_size}",
        f"max_size = {p.max_size}",
        f"join_threshold = {p.join_threshold}",
        f"evict_threshold = {p.evict_threshold}",
        f"drop_delta = {p.drop_delta}",
        f"dissolve_fraction = {p.dissolve_fraction}",
        f"formation = {'on' if p.formation else 'off'}",
        f"allow_short_groups = {'on' if p.allow_short_groups else 'off'}",
        f"dgds_same_amount = {p.dgds_same_amount}",
        f"max_requeues = {p.max_requeues}",
        f"random_replication = {p.random_replication}",
        "",
        "[limits]",
        f"lo = {cfg.limits.lo}",
        f"hi = {cfg.limits.hi}",
        "",
    ]
    return "\n".join(lines)


def run(cfg: ScenarioConfig,
        out_dir=None) -> Tuple[World, MetricsReport, Ledger]:
    """Drive the engine for the full horizon, audit the ledger, compute
    metrics from the event log, and optionally write all artifacts."""
    errors = validate_config(cfg)
    if errors:
        raise ConfigError(errors)
    world = World(cfg)
    world.run()
    bad = world.ledger.verify_chain()
    if bad is not None:
        raise AuditError(f"internal consistency failure: ledger block {bad} invalid")
    report = compute_metrics(world.header(), world.events)
    if out_dir is not None:
        emit_report(world, report, out_dir)
    return world, report, world.ledger


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(world: World, report: MetricsReport, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "summary.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("metric,value\n")
        for metric, value in report.scalar_rows():
            fh.write(f"{metric},{_fmt(value)}\n")
    with open(out / "series.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tick,issued,validated,active_agents,etc_size\n")
        s = report.series
        for i in range(len(s.get("tick", ()))):
            fh.write(f"{s['tick'][i]},{s['issued'][i]},{s['validated'][i]},"
                     f"{s['active_agents'][i]},{s['etc_size'][i]}\n")
    with open(out / "ledger.txt", "w", encoding="utf-8", newline="\n") as fh:
        for line in world.ledger.export_lines():
            fh.write(line + "\n")
    with open(out / "effective_config.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_config(world.config))
    write_event_log(out / "events.jsonl", world.header(), world.events)


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
    gc_was_enabled = gc.isenabled()
    gc.disable()
    # Each good event line adds one event, so a bad one is line
    # len(events) + 2; a bad header is line 1.
    try:
        header = loads(next(lines, ""))
        if not (isinstance(header, dict) and isinstance(header.get("horizon"), int)
                and isinstance(header.get("agents"), dict)):
            raise EventLogError(1, "header lacks an int 'horizon' or an 'agents' object")
        for line in lines:
            try:
                raw, end = raw_decode(line)
            except json.JSONDecodeError:
                raw = loads(line)
            else:
                if line[end:].strip(_JSON_WS):
                    raw = loads(line)
            append(SimEvent(raw["t"], raw["k"], raw["p"]))
    except json.JSONDecodeError as exc:
        raise EventLogError(1 if header is None else len(events) + 2,
                            f"not JSON: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise EventLogError(len(events) + 2,
                            f"event lacks 't', 'k' or 'p': {exc!r}") from None
    finally:
        if gc_was_enabled:
            gc.enable()
    return header, events
