"""Scenario parsing, execution and report emission.

Scenario files are INI-style key/value sections.  Unknown keys, dangling
fault references and non-positive horizons are load errors; all errors in
a file are reported together, not just the first.
"""
from __future__ import annotations

import configparser
import dataclasses
import math
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Tuple

from .config import (MODES, PROFILES, STRATEGIES, AgentGroup, Fault, Params,
                     ScenarioConfig, complexity_range)
# bench/ imports read_event_log from here and patches write_event_log here
from .eventlog import read_event_log, write_event_log  # noqa: F401
from .ledger import AuditError, Ledger
from .metrics import MetricsReport, compute_metrics, tick_rows

if TYPE_CHECKING:  # `run` imports it: replay and verify-ledger load no simulator
    from .engine import World


class ConfigError(ValueError):
    def __init__(self, errors: List[str]) -> None:
        super().__init__("; ".join(errors))
        self.errors = errors


def _bool(raw: str) -> bool:
    if raw.lower() in ("on", "true", "yes", "1"):
        return True
    if raw.lower() in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# Each section's keys in file order, as (key, attribute, cast).  Parsing,
# the unknown-key check and render_config all read these tables.  The
# [params] rows are the Params fields, each cast by its annotation (a
# string: config.py postpones annotations).
_SCENARIO = (("name", "name", str), ("mode", "mode", str),
             ("strategy", "strategy", str), ("seed", "seed", int),
             ("horizon_ticks", "horizon_ticks", int))
_WORK = (("wu_count", "wu_count", int), ("complexity", "complexity", str),
         ("base_credit", "base_credit", int))
_SERVERS = (("count", "server_count", int), ("timeout_ticks", "timeout_ticks", int))
_AGENTS = (("count", "count", int), ("profile", "profile", str),
           ("speed", "speed", int), ("accept_prob", "accept_prob", float))
_PARAM_CASTS = {"int": int, "float": float, "bool": _bool, "str": str}
_PARAMS = tuple((f.name, f.name, _PARAM_CASTS[f.type])
                for f in dataclasses.fields(Params))
_LIMITS = (("lo", "lo", float), ("hi", "hi", float))
_TOP_LEVEL = {"scenario": _SCENARIO, "work": _WORK, "servers": _SERVERS}
# "agents", or "agents" then whitespace then the group's label.
_AGENTS_SECTION = re.compile(r"agents(?:\s+(.*\S))?\s*")


def _ini_value(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    return str(value)


def parse_scenario(path) -> ScenarioConfig:
    """Load and validate a scenario file; raises ConfigError listing
    every problem found."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read scenario file {path}: {exc}"]) from None
    ini = configparser.ConfigParser(delimiters=("=",), inline_comment_prefixes=("#", ";"))
    try:
        ini.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError([f"malformed scenario file: {exc}"])

    errors: List[str] = []
    cfg = ScenarioConfig()

    def get(section: str, key: str, cast, default):
        if not ini.has_option(section, key):
            return default
        raw = ini.get(section, key)
        try:
            return cast(raw)
        except (ValueError, TypeError):
            errors.append(f"[{section}] {key}: cannot parse {raw!r}")
            return default

    def read(section: str, table, obj, extra: Tuple[str, ...] = ()):
        """`obj` with each key of `table` that `section` sets, cast; the
        section's unknown keys and unparsable values become errors."""
        known = {key for key, _, _ in table}.union(extra)
        for key in ini.options(section):
            if key not in known:
                errors.append(f"[{section}] unknown key {key!r}")
        return dataclasses.replace(obj, **{
            attr: get(section, key, cast, getattr(obj, attr))
            for key, attr, cast in table})

    for section in ini.sections():
        agents = _AGENTS_SECTION.fullmatch(section)
        if section in _TOP_LEVEL:
            cfg = read(section, _TOP_LEVEL[section], cfg)
        elif agents:
            group = read(section, _AGENTS, AgentGroup(agents[1] or "agents"),
                         ("churn",))
            churn_raw = get(section, "churn", str, "")
            if churn_raw:
                try:
                    up, down = (int(x) for x in churn_raw.split("/"))
                    group.churn = (up, down)
                except ValueError:
                    errors.append(f"[{section}] churn: expected UP/DOWN, got {churn_raw!r}")
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
            cfg.params = read(section, _PARAMS, cfg.params)
        elif section == "limits":
            try:  # ReplicationLimits checks its own values
                cfg.limits = read(section, _LIMITS, cfg.limits)
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
    if cfg.timeout_ticks < 1:
        errors.append(f"timeout_ticks must be >= 1, got {cfg.timeout_ticks}")
    if cfg.wu_count < 0:
        errors.append("wu_count must be >= 0")
    try:  # World reads the spec with complexity_range too
        lo, hi = complexity_range(cfg.complexity)
    except ValueError:
        lo = hi = -1
    if not 0 <= lo <= hi:
        errors.append(f"complexity must be an int >= 0 or uniform:LO:HI with "
                      f"0 <= LO <= HI, got {cfg.complexity!r}")
    elif hi > sys.maxsize:  # a completion's lateness test divides it as a float
        errors.append(f"complexity must be <= {sys.maxsize}, got {cfg.complexity!r}")
    if cfg.base_credit < 0:
        errors.append(f"base_credit must be >= 0, got {cfg.base_credit}")
    elif cfg.base_credit > sys.maxsize:  # a credit must stay within str()'s digit limit
        errors.append(f"base_credit must be <= {sys.maxsize}, got {cfg.base_credit}")
    known = set(cfg.agent_ids()) | set(cfg.server_ids())
    seen = set()
    for g in cfg.agents:
        if g.profile not in PROFILES:
            errors.append(f"[agents {g.label}] unknown profile {g.profile!r}")
        if g.count < 1:
            errors.append(f"[agents {g.label}] count must be >= 1")
        if g.speed < 1:
            errors.append(f"[agents {g.label}] speed must be >= 1")
        # A ledger line separates its fields by spaces and its allocations
        # by commas, so an agent id may hold neither.
        if " " in g.label or "," in g.label:
            errors.append(f"[agents {g.label}] label may not contain "
                          f"a space or a comma")
        if not 0 <= g.accept_prob <= 1:
            errors.append(f"[agents {g.label}] accept_prob must be in [0, 1], "
                          f"got {g.accept_prob}")
        if g.churn is not None:
            up, down = g.churn
            if up < 0 or down < 0 or up + down < 1:
                errors.append(f"[agents {g.label}] churn must be UP/DOWN with "
                              f"UP, DOWN >= 0 and UP + DOWN >= 1, got {up}/{down}")
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
    # A negative max_size slices from the end; a negative max_requeues fails
    # every unit at its first round without a majority.
    for key in ("min_size", "max_size", "max_requeues"):
        value = getattr(cfg.params, key)
        if value < 0:
            errors.append(f"{key} must be >= 0, got {value}")
    # evaluate_formation invites at most max_size agents, so no run forms one.
    if cfg.params.formation and cfg.params.quorum > cfg.params.max_size:
        errors.append(f"max_size must be >= the formation quorum {cfg.params.quorum} "
                      f"(min_size, and at least 1), got {cfg.params.max_size}")
    if cfg.params.window < 0:
        errors.append(f"window must be >= 0, got {cfg.params.window}")
    elif cfg.params.window > sys.maxsize:  # a deque's maxlen
        errors.append(f"window must be <= {sys.maxsize}, got {cfg.params.window}")
    if not 0 <= cfg.params.random_replication < math.inf:
        errors.append(f"random_replication must be a finite number >= 0, "
                      f"got {cfg.params.random_replication}")
    for key in ("join_threshold", "evict_threshold", "drop_delta", "dissolve_fraction"):
        value = getattr(cfg.params, key)
        if not math.isfinite(value):  # a tau test against it always or never holds
            errors.append(f"{key} must be a finite number, got {value}")
    if cfg.params.dgds_same_amount not in ("total", "additional"):
        errors.append(f"dgds_same_amount must be total|additional, "
                      f"got {cfg.params.dgds_same_amount!r}")
    return errors


def render_config(cfg: ScenarioConfig) -> str:
    """Effective configuration echo, itself a parseable scenario file."""
    lines: List[str] = []

    def section(name: str, table, obj) -> None:
        lines.extend(["", f"[{name}]"])
        lines.extend(f"{key} = {_ini_value(getattr(obj, attr))}"
                     for key, attr, _ in table)

    for name, table in _TOP_LEVEL.items():
        section(name, table, cfg)
    for g in cfg.agents:
        section(f"agents {g.label}", _AGENTS, g)
        if g.churn:
            lines.append(f"churn = {g.churn[0]}/{g.churn[1]}")
    if cfg.faults:
        lines += ["", "[faults]"]
        for i, f in enumerate(cfg.faults):
            lines.append(f"f{i} = {f.tick} {f.entity} {'down' if f.down else 'up'}")
    section("params", _PARAMS, cfg.params)
    section("limits", _LIMITS, cfg.limits)
    return "\n".join(lines[1:] + [""])


def run(cfg: ScenarioConfig,
        out_dir=None) -> Tuple[World, MetricsReport, Ledger]:
    """Drive the engine for the full horizon, audit the ledger, compute
    metrics from the event log, and optionally write all artifacts to
    `out_dir`, which is made before the run: a ConfigError if it cannot be."""
    from .engine import World
    errors = validate_config(cfg)
    if errors:
        raise ConfigError(errors)
    if out_dir is not None:  # before the run, not after the whole horizon
        try:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError([f"cannot write reports to {out_dir}: {exc}"]) from None
    world = World(cfg)
    world.run()
    bad = world.ledger.verify_chain()
    if bad is not None:
        raise AuditError(f"internal consistency failure: ledger block {bad} invalid")
    report = compute_metrics(world.header(), world.events)
    if out_dir is not None:
        emit_report(world, report, out_dir)
    return world, report, world.ledger


def emit_report(world: World, report: MetricsReport, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "summary.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("metric,value\n")
        for metric, value in report.scalar_rows():
            fh.write(f"{metric},{value}\n")
    with open(out / "series.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tick,issued,validated,active_agents,etc_size\n")
        for tick, issued, validated, active, etc in tick_rows(report):
            fh.write(f"{tick},{issued},{validated},{active},{etc}\n")
    with open(out / "ledger.txt", "w", encoding="utf-8", newline="\n") as fh:
        for line in world.ledger.export_lines():
            fh.write(line + "\n")
    with open(out / "effective_config.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_config(world.config))
    write_event_log(out / "events.jsonl", world.header(), world.events)
