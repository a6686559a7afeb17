"""Golden digests: the bundled scenarios' outputs are pinned byte for byte.

A change that means to alter behaviour updates these digests and says why
in CHANGES.md; any other change must leave them as they are.
`effective_config.txt` is not pinned: it echoes the config schema, not
the simulation.
"""
import hashlib
from pathlib import Path

import pytest

from tdgsim.scenario import parse_scenario, run

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

OUTPUTS = ("summary.csv", "series.csv", "ledger.txt", "events.jsonl")

GOLDEN = {
    "centralized_outage": (
        "da9cdaa1b68e3a368c6fb6a0ec00062c240d536163ed012eaf2bf061ff883f1d",
        "0b136a89783a6cb409940fa5ec1fd2669df0ba2a34f752fb5ac4319fa4f99b7f",
        "5877b13c03cf412d773051a99b97b70772d1834c99e711feca6890cd9e99c3dc",
        "734ddbbb6941fbc391fda8aebba27b79c88d0b1ec1894a470fd322f791e27a1a",
    ),
    "defaults": (
        "de9b7577c60faae20be8d642ad931436cc679b41a62597f9d202651d9c3d1b6c",
        "ccc644bd561fa4cbec08ff2c753962da505723e0975891025a4607b77f9a6a09",
        "ca7be56fcfe01c09771c2e857ef0813346f211aa31fa68d53255b5cd4296b3a7",
        "298c597e5746e9335fed20483dd3b1699cd036cef7ade1d34f9b0202b021fa95",
    ),
    "etc_throughput": (
        "c24e6f0421de5852f88c79f43763684c1f2469b862e10512e26c40db60e5ae16",
        "2dc838c696f50e432802dd394398aa96625cb92654156ecb6bb0bec2f1fdc6f3",
        "b8e34b1df9a58caf8efe95ae639e934beb2ada9c7eb256aa2daca4e41e4c7b7f",
        "2500ccee48d09286d65dd611b780ed67f6c9647ed0d90aa5179dd7e9ba75a1ca",
    ),
    "malice_dgds": (
        "400e67d3acd467046779cb11dd8e2f7b1d46b7676db1b2347d57f664e6cf65a6",
        "596aad4ad0919d744718a04a33619a65d9fe47fe54a3387fa3688af73df140eb",
        "817b631f07594de7967ec67d10accb289496eb6f012ab7f0a3e35c8f1983ad51",
        "0a3ca5b6a815b84c4d80e42ffe01ce3c69b9a48155d67b10cfe9199a31662f2a",
    ),
    "tcm_failover": (
        "67bcd688292651b15c77c3fbd8fbbc1648722d93bc23aada197fb0661b0c536d",
        "198743288409f76b1000ca7966d3842a61abd66fdeac967dee95c562463ed166",
        "356fdf7b8dfbfa43466e381dc470e233746d75c5b36412701119c7f758ca7b90",
        "195ffda2639ac94b7ee101a818ff607aa6e030c7d26f21a0fc9bae8609aeb725",
    ),
}


def test_every_bundled_scenario_is_pinned():
    assert {p.stem for p in SCENARIOS.glob("*.ini")} == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digests(name, tmp_path):
    run(parse_scenario(SCENARIOS / f"{name}.ini"), out_dir=tmp_path)
    digests = tuple(hashlib.sha256((tmp_path / out).read_bytes()).hexdigest()
                    for out in OUTPUTS)
    assert dict(zip(OUTPUTS, digests)) == dict(zip(OUTPUTS, GOLDEN[name]))
