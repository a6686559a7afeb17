"""Every function and method in tdgsim is reached from its entry points.

`tdgsim run`, `replay` and `verify-ledger` are driven on two small
scenarios: a centralized one, and a trust one under each strategy.  Under
`sys.setprofile` they must call every function and method defined in
`src/tdgsim`, nested functions included, but for the two groups named
below.  A function that none of them calls is code the program does not
use: delete it, or add the case that needs it.  Class bodies, which run at
import, and the methods a dataclass or NamedTuple generates are not
counted.
"""
import sys
import types

import tdgsim
from tdgsim import (cli, community, config, distribution, engine, eventlog,
                    ledger, metrics, scenario, trust)
from tdgsim.cli import main

from event_schema import CENTRALIZED_CHURN

MODULES = (cli, community, config, distribution, engine, eventlog, ledger,
           metrics, scenario, trust, tdgsim)

# Patched by name by bench/layertrace.py, so kept though the program does
# not call them.
TRACER_HOOKS = {"trust.aggregate_reputation", "ledger.split_credits",
                "ledger.Ledger.append_block"}
# Reached only when an input is bad: each is pinned by the tests of that
# error instead.
ERROR_PATHS = {"scenario.ConfigError.__init__", "eventlog.EventLogError.__init__",
               "eventlog._decodable_lines"}

# Every profile, rejected offers, short groups, a requeue limit, churn,
# and an outage of w0 that fails its community over to a member; the
# communities dissolve as the work runs out.
TRUST_REACH = """\
[scenario]
name = trust-reach
mode = trust
horizon_ticks = 60

[work]
wu_count = 80

[servers]
count = 2
timeout_ticks = 6

[agents rel]
count = 12
profile = reliable
accept_prob = 0.9

[agents slow]
count = 2
profile = slow

[agents ego]
count = 2
profile = egoistic

[agents mal]
count = 3
profile = malicious

[agents fr]
count = 1
profile = free_rider

[agents ch]
count = 2
profile = churner
churn = 5/5

[faults]
f0 = 15 w0 down
f1 = 20 w0 up

[params]
min_size = 2
max_size = 6
max_requeues = 1
allow_short_groups = on
"""


def package_functions():
    """The code object of every function and method defined in a module of
    tdgsim, by its dotted name: module functions, the functions, static
    and class methods and property accessors of the classes the modules
    define, and the named functions nested in any of them."""
    found = {}

    def add(module, name, func):
        code = getattr(func, "__code__", None)
        if code is None or code.co_filename != module.__file__:
            return  # generated by dataclass or NamedTuple
        found[name] = code
        nested = [c for c in code.co_consts
                  if isinstance(c, types.CodeType) and not c.co_name.startswith("<")]
        for inner in nested:
            found[f"{name}.{inner.co_name}"] = inner

    for module in MODULES:
        prefix = module.__name__.removeprefix("tdgsim.")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            if isinstance(obj, type):
                for attr, member in vars(obj).items():
                    if isinstance(member, property):
                        for accessor in (member.fget, member.fset, member.fdel):
                            if accessor is not None:
                                add(module, f"{prefix}.{name}.{attr}", accessor)
                    else:
                        add(module, f"{prefix}.{name}.{attr}",
                            getattr(member, "__func__", member))
            elif isinstance(obj, types.FunctionType):
                add(module, f"{prefix}.{name}", obj)
    return found


def drive(tmp_path):
    """Run, replay and verify the ledger of each case through the CLI."""
    (tmp_path / "central.ini").write_text(CENTRALIZED_CHURN, encoding="utf-8")
    (tmp_path / "trust.ini").write_text(TRUST_REACH, encoding="utf-8")
    cases = [("central", "central.ini", [])] + [
        (strategy, "trust.ini", ["--strategy", strategy])
        for strategy in config.STRATEGIES]
    for name, scenario_file, flags in cases:
        out = tmp_path / name
        assert main(["run", "--scenario", str(tmp_path / scenario_file),
                     "--out", str(out)] + flags) == 0, name
        assert main(["replay", "--log", str(out / "events.jsonl")]) == 0, name
        assert main(["verify-ledger", str(out / "ledger.txt")]) == 0, name


def test_every_function_is_called_by_the_entry_points(tmp_path):
    functions = package_functions()
    assert TRACER_HOOKS | ERROR_PATHS <= functions.keys()
    called = set()
    record = called.add

    def profile(frame, event, arg):
        record(frame.f_code)

    sys.setprofile(profile)
    try:
        drive(tmp_path)
    finally:
        sys.setprofile(None)
    uncalled = sorted(name for name, code in functions.items() if code not in called)
    assert uncalled == sorted(TRACER_HOOKS | ERROR_PATHS)
