"""The event-log format: each kind the engine emits and its payload keys.

`test_eventlog.py` runs every golden case and the two scenarios below and
checks each emitted payload against this table, so a change to an
`emit` call shows up here.  Like `golden_cases.py`, this module imports
no test framework.
"""

EVENT_KEYS = {
    "agent_up": {"agent"},
    "agent_down": {"agent"},
    "server_up": {"server"},
    "server_down": {"server"},
    "wu_issued": {"wu", "members", "initiator", "distributor", "group_size",
                  "complexity", "short"},
    "wu_rejected": {"wu", "agent"},
    "wu_completed": {"wu", "agent", "units", "late", "buffered"},
    "wu_dropped": {"wu", "agent", "units"},
    "wu_timed_out": {"wu", "agent", "units"},
    "wu_validated": {"wu", "members", "consensus", "group_size", "correct",
                     "complexity", "credit"},
    "wu_redistributed": {"wu", "terminal"},
    "rating_issued": {"subject", "rater", "cause", "value"},
    "credit_committed": {"wu", "allocations"},
    "tc_event": {"community", "kind", "agent", "detail"},
}

# Keys only a trust-mode run writes, and kinds only a trust-mode run emits.
TRUST_ONLY_KEYS = {"wu_issued": {"short"}, "wu_redistributed": {"terminal"}}
TRUST_ONLY_KINDS = {"rating_issued", "tc_event"}


def payload_keys(kind, trust_mode):
    """The keys of a `kind` payload in a run of the given mode."""
    if trust_mode:
        return EVENT_KEYS[kind]
    return EVENT_KEYS[kind] - TRUST_ONLY_KEYS.get(kind, set())


# Of the golden cases, only centralized-timeouts, which `golden_cases.py`
# widens from CENTRALIZED_CHURN, emits a centralized wu_rejected,
# wu_timed_out, wu_redistributed, agent_up or agent_down, and none emits a
# trust-mode server_up.  These two short scenarios emit them all.
CENTRALIZED_CHURN = """\
[scenario]
name = centralized-churn
mode = centralized
horizon_ticks = 60

[work]
wu_count = 40
complexity = 2

[servers]
count = 2
timeout_ticks = 3

[agents rel]
count = 4
profile = reliable
accept_prob = 0.8

[agents ch]
count = 3
profile = churner
churn = 4/3

[agents fr]
count = 2
profile = free_rider

[faults]
f0 = 10 w0 down
f1 = 20 w0 up
"""

TRUST_SERVER_FAULT = """\
[scenario]
name = trust-server-fault
mode = trust
horizon_ticks = 40

[work]
wu_count = 30

[servers]
count = 2

[agents rel]
count = 8
profile = reliable

[faults]
f0 = 5 w1 down
f1 = 15 w1 up
"""

SCENARIOS = {"centralized-churn": CENTRALIZED_CHURN,
             "trust-server-fault": TRUST_SERVER_FAULT}
