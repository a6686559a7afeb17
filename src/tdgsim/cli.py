"""Command-line entry point.

Exit codes: 0 ok, 1 config error, 2 runtime error, 3 ledger-audit failure.
"""
from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .config import MODES, STRATEGIES
from .eventlog import EventLogError, read_event_log
from .ledger import AuditError, LedgerError, parse_ledger_lines
from .metrics import compute_metrics
from .scenario import ConfigError, parse_scenario, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdgsim",
        description="Deterministic volunteer-grid simulator with trust-based "
                    "work distribution")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("--scenario", required=True, help="scenario file path")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument("--out", help="output directory for reports")
    p_run.add_argument("--mode", choices=MODES, help="override the scenario mode")
    p_run.add_argument("--strategy", choices=STRATEGIES,
                       help="override the distribution strategy")
    p_run.add_argument("--ticks", type=int, dest="horizon_ticks", metavar="TICKS",
                       help="override horizon_ticks")

    p_verify = sub.add_parser("verify-ledger", help="audit an exported ledger file")
    p_verify.add_argument("ledger", help="ledger.txt path")

    p_replay = sub.add_parser("replay", help="recompute metrics from an event log")
    p_replay.add_argument("--log", required=True, help="events.jsonl path")
    return parser


def cmd_run(args) -> int:
    try:
        cfg = parse_scenario(args.scenario)
        for attr in ("seed", "mode", "strategy", "horizon_ticks"):
            if getattr(args, attr) is not None:
                setattr(cfg, attr, getattr(args, attr))
        _, report, _ = run(cfg, out_dir=args.out)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, AuditError) else 2
    except OSError as exc:  # a fault while writing the reports, such as a full disk
        print(f"runtime error: cannot write reports to {args.out}: {exc}"
              f" (reports written before it stay there)", file=sys.stderr)
        return 2
    for metric, value in report.scalar_rows():
        print(f"{metric},{value}")
    return 0


# A block line whose every field reads.  It stands in for the first line
# that is not UTF-8, so the parse names any bad line above that one first,
# an empty line among them (only empty lines may follow an empty line).
_READABLE_LINE = "0 - - - 0 -"


def cmd_verify_ledger(args) -> int:
    path = Path(args.ledger)
    try:
        # Each byte that is not UTF-8 reads as one of U+DC80..U+DCFF, which
        # no UTF-8 decodes to.
        text = path.read_text(encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        print(f"config error: cannot read ledger file {path}: {exc}", file=sys.stderr)
        return 1
    lines = text.split("\n")
    found = re.search("[\udc80-\udcff]", text)
    if found is not None:  # parse no further than its line
        lineno = text.count("\n", 0, found.start()) + 1
        lines = lines[:lineno - 1] + [_READABLE_LINE]
    try:
        ledger = parse_ledger_lines(lines)
    except LedgerError as exc:
        print(f"ledger parse error: {exc}", file=sys.stderr)
        return 3
    if found is not None:
        print(f"ledger parse error: line {lineno}: not UTF-8", file=sys.stderr)
        return 3
    bad = ledger.verify_chain()
    if bad is not None:
        print(f"ledger audit FAILED at block {bad}", file=sys.stderr)
        return 3
    print(f"ok: {len(ledger)} blocks, {ledger.total_committed()} millicredits committed")
    return 0


def cmd_replay(args) -> int:
    path = Path(args.log)
    try:
        report = compute_metrics(*read_event_log(path))
    except OSError as exc:
        print(f"config error: cannot read event log {path}: {exc}", file=sys.stderr)
        return 1
    except EventLogError as exc:
        print(f"runtime error: {path}: {exc}", file=sys.stderr)
        return 2
    for metric, value in report.scalar_rows():
        print(f"{metric},{value}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "verify-ledger":
        return cmd_verify_ledger(args)
    return cmd_replay(args)


if __name__ == "__main__":
    sys.exit(main())
