"""Scenario generators for the benchmark workloads.

The benchmark owns its inputs: each workload is an INI text rendered here
from a seed, written into the output directory, and handed to the
program's own parser.  Nothing is read from the repository's `scenarios/`,
so editing a bundled scenario never changes what the benchmark measures.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict


def _central_outage(seed: int) -> str:
    # scenarios/centralized_outage.ini as bundled.
    return f"""\
[scenario]
name = centralized-outage
mode = centralized
seed = {seed}
horizon_ticks = 3000

[work]
wu_count = 20000
complexity = 3

[servers]
count = 1
timeout_ticks = 30

[agents rel]
count = 40
profile = reliable

[faults]
f0 = 1000 w0 down
f1 = 2000 w0 up
"""


def _trust_malice(seed: int) -> str:
    # scenarios/malice_dgds.ini as bundled.
    return f"""\
[scenario]
name = malice-dgds
mode = trust
strategy = dgds
seed = {seed}
horizon_ticks = 5000

[work]
wu_count = 2000
complexity = 3

[servers]
count = 2
timeout_ticks = 30

[agents rel]
count = 80
profile = reliable

[agents mal]
count = 20
profile = malicious

[limits]
lo = 3.0
hi = 5.0
"""


def etc_population(seed: int, scale: int, ticks: int) -> str:
    """scenarios/etc_throughput.ini with its population multiplied by
    `scale` and its horizon set to `ticks`: one rung of the scaling ladder."""
    return f"""\
[scenario]
name = etc-throughput-x{scale}
mode = trust
strategy = drds
seed = {seed}
horizon_ticks = {ticks}

[work]
wu_count = 20000
complexity = 3

[servers]
count = 1
timeout_ticks = 30

[agents rel]
count = {40 * scale}
profile = reliable

[agents mal]
count = {8 * scale}
profile = malicious

[params]
formation = on
"""


SCALING_TICKS = 300


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    render: Callable[[int], str]  # seed -> scenario file text
    # SHA-256 of each output file at the default seed.  They pin the
    # determinism contract across versions: a change that alters any
    # output fails every timed repetition.
    digests: Dict[str, str]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="central-outage", default_seed=7, render=_central_outage,
        digests={
            "summary.csv":
                "da9cdaa1b68e3a368c6fb6a0ec00062c240d536163ed012eaf2bf061ff883f1d",
            "series.csv":
                "0b136a89783a6cb409940fa5ec1fd2669df0ba2a34f752fb5ac4319fa4f99b7f",
            "ledger.txt":
                "5877b13c03cf412d773051a99b97b70772d1834c99e711feca6890cd9e99c3dc",
            "events.jsonl":
                "734ddbbb6941fbc391fda8aebba27b79c88d0b1ec1894a470fd322f791e27a1a",
        }),
    Workload(
        name="trust-malice", default_seed=1, render=_trust_malice,
        digests={
            "summary.csv":
                "400e67d3acd467046779cb11dd8e2f7b1d46b7676db1b2347d57f664e6cf65a6",
            "series.csv":
                "596aad4ad0919d744718a04a33619a65d9fe47fe54a3387fa3688af73df140eb",
            "ledger.txt":
                "817b631f07594de7967ec67d10accb289496eb6f012ab7f0a3e35c8f1983ad51",
            "events.jsonl":
                "0a3ca5b6a815b84c4d80e42ffe01ce3c69b9a48155d67b10cfe9199a31662f2a",
        }),
    Workload(
        name="trust-scale", default_seed=1,
        render=lambda seed: etc_population(seed, scale=5, ticks=SCALING_TICKS),
        digests={
            "summary.csv":
                "2dcdea26024c4b2f9b0022393b7f3a95b60a3c8b4709cc8767f74916c8b0d662",
            "series.csv":
                "ef7dcb73f0ef1d694e44a9a4eeb7c8b11b5828fbac5db960cd02bcc03e76cdbd",
            "ledger.txt":
                "702ea864f8c3df3a4f4394392e2da2274dec50f9f8149193e7fd073864332121",
            "events.jsonl":
                "b3911b7f7aa1b8eb567cddb8023e98dcaf818b808653076acdc6a415d0f30c0e",
        }),
)}

OUTPUT_FILES = ("summary.csv", "series.csv", "ledger.txt", "events.jsonl")
