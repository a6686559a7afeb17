"""Scenario configuration dataclasses and their documented defaults."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .trust import ReplicationLimits

MODES = ("centralized", "trust")
STRATEGIES = ("drds", "dods", "dgds", "random")
PROFILES = ("reliable", "churner", "slow", "malicious", "free_rider", "egoistic")


@dataclass
class AgentGroup:
    label: str
    count: int = 0  # required in a scenario file: validate_config wants >= 1
    profile: str = "reliable"
    speed: int = 1
    churn: Optional[Tuple[int, int]] = None  # (up_ticks, down_ticks)
    accept_prob: float = 1.0

    def agent_ids(self) -> List[str]:
        return [f"{self.label}-{i:03d}" for i in range(self.count)]


@dataclass(frozen=True)
class Fault:
    tick: int
    entity: str
    down: bool  # False = comes back up


@dataclass
class Params:
    window: int = 50
    min_size: int = 5
    max_size: int = 20
    join_threshold: float = 0.7
    evict_threshold: float = 0.5
    drop_delta: float = 0.2
    dissolve_fraction: float = 0.5
    formation: bool = True
    allow_short_groups: bool = False
    dgds_same_amount: str = "total"  # or "additional"
    max_requeues: int = 0  # 0 = unlimited
    # Group size for the random baseline; non-integers are roulette-rounded
    # per WU so the mean group size matches the target exactly.
    random_replication: float = 3.0

    @property
    def quorum(self) -> int:
        """How many agents must join to form a community: `min_size`, but
        at least one, so that no founder forms a community alone."""
        return max(self.min_size, 1)


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    mode: str = "centralized"
    strategy: str = "drds"
    seed: int = 1
    horizon_ticks: int = 1000
    wu_count: int = 100
    complexity: str = "3"  # fixed int or "uniform:lo:hi"
    base_credit: int = 100  # credits per complexity unit
    server_count: int = 1
    timeout_ticks: int = 50
    agents: List[AgentGroup] = field(default_factory=list)
    faults: List[Fault] = field(default_factory=list)
    params: Params = field(default_factory=Params)
    limits: ReplicationLimits = field(default_factory=ReplicationLimits)

    @property
    def base_credit_millis(self) -> int:
        return self.base_credit * 1000

    def server_ids(self) -> List[str]:
        return [f"w{i}" for i in range(self.server_count)]

    def agent_ids(self) -> List[str]:
        ids: List[str] = []
        for g in self.agents:
            ids.extend(g.agent_ids())
        return ids


def complexity_range(raw: str) -> Tuple[int, int]:
    """The bounds `(lo, hi)` of a complexity spec: a fixed int `c` is
    `(c, c)`, `uniform:lo:hi` is `(lo, hi)`.  Raises ValueError if `raw`
    is neither."""
    if raw.startswith("uniform:"):
        _, lo, hi = raw.split(":")
        return int(lo), int(hi)
    return (int(raw),) * 2
