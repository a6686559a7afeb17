"""The event-log format: each kind the engine emits, its payload keys, and
the closed sets of values that three fields take.

`test_eventlog.py` runs every golden case and the two scenarios below and
checks each emitted payload against these tables, so a change to an
`emit` call, or a new cause, community event or profile, shows up here.
The values are spelled out, not imported from tdgsim.  Like
`golden_cases.py`, this module imports no test framework.
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

# A `rating_issued` event's `cause`, a `tc_event`'s `kind`, and the
# `profile` of each agent in the header.
RATING_CAUSES = {"correct_on_time", "correct_late", "wrong_result",
                 "rejected_wu", "dropped_wu", "timed_out"}
TC_EVENT_KINDS = {"invited", "joined", "left", "evicted", "tcm_elected",
                  "tcm_failed", "dissolved", "phase"}
PROFILES = {"reliable", "churner", "slow", "malicious", "free_rider",
            "egoistic"}

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
# trust-mode server_up.  These two short scenarios emit them all, and
# the second has the only slow agents.
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

[agents slow]
count = 2
profile = slow

[faults]
f0 = 5 w1 down
f1 = 15 w1 up
"""

SCENARIOS = {"centralized-churn": CENTRALIZED_CHURN,
             "trust-server-fault": TRUST_SERVER_FAULT}
