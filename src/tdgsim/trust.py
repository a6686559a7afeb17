"""Rating values, reputation aggregation, trust classes and replication factors."""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Tuple


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


DEFAULT_WINDOW = 50
TRUSTED_ABOVE = 0.7
UNTRUSTED_AT_OR_BELOW = 0.4
NEUTRAL_TAU = 0.5


# The rating causes, as a `rating_issued` event's `cause` spells them.
CORRECT_ON_TIME = "correct_on_time"
CORRECT_LATE = "correct_late"
WRONG_RESULT = "wrong_result"
REJECTED_WU = "rejected_wu"
DROPPED_WU = "dropped_wu"
TIMED_OUT = "timed_out"

# Fixed value table; all ratings entering the system come from these causes.
CAUSE_VALUES = {
    CORRECT_ON_TIME: 1.0,
    CORRECT_LATE: 0.5,
    REJECTED_WU: -0.25,
    DROPPED_WU: -0.75,
    TIMED_OUT: -0.75,
    WRONG_RESULT: -1.0,
}
# ReputationProfile keeps a running sum of its window.  That sum equals a
# fresh sum() of the window only while every value is a multiple of 0.25,
# so that every partial sum is exact in a float.
if any(v * 4 != int(v * 4) for v in CAUSE_VALUES.values()):
    raise ValidationError("every rating value must be a multiple of 0.25")

# The trust classes that `classify` returns.
TRUSTED = "trusted"
UNDECIDED = "undecided"
UNTRUSTED = "untrusted"


def sum_left(values: Iterable[float]) -> float:
    """The sum of `values` added left to right from the int 0, as the
    built-in sum() of floats does up to Python 3.11.  From 3.12 sum()
    compensates rounding error, which can change the last bit of a mean
    and so the bytes of an output; every float sum in tdgsim uses this."""
    total = 0
    for value in values:
        total += value
    return total


def aggregate_reputation(values: Iterable[float]) -> float:
    """Map a window of ratings in [-1, 1] to a reputation in [0, 1].

    Affine-scaled arithmetic mean; an empty window is neutral (0.5).
    """
    vals = list(values)
    if not vals:
        return NEUTRAL_TAU
    for v in vals:
        if not -1.0 <= v <= 1.0:
            raise ValidationError(f"rating value {v} outside [-1, 1]")
    return (1.0 + sum_left(vals) / len(vals)) / 2.0


class ReputationProfile:
    """Sliding window of the most recent rating values about one subject,
    at most `window_size` of them (the deque's `maxlen`).

    `total` is the running sum of the window, and `push` returns the
    reputation tau it gives, which equals `aggregate_reputation(window)`
    exactly (see CAUSE_VALUES).  Values enter only through `push`; an
    empty window is neutral.
    """

    __slots__ = ("window", "total")

    def __init__(self, window_size: int = DEFAULT_WINDOW) -> None:
        self.window: Deque[float] = deque(maxlen=window_size)
        self.total = 0.0

    def push(self, value: float) -> float:
        if not -1.0 <= value <= 1.0:
            raise ValidationError(f"rating value {value} outside [-1, 1]")
        window = self.window
        if len(window) == window.maxlen:
            if not window:
                return NEUTRAL_TAU  # a zero-size window keeps nothing
            self.total -= window[0]  # the value append() evicts
        window.append(value)
        self.total += value
        return (1.0 + self.total / len(window)) / 2.0


class ReputationStore:
    """A profile per rated subject: the engine's, and the metrics fold's."""

    def __init__(self, window: int) -> None:
        self.window = window
        self.profiles: Dict[str, ReputationProfile] = {}
        # Each rated subject's tau, the only place it is kept; a subject it
        # lacks is neutral.  Lifecycle reads it as a map, without a call
        # per member.
        self.taus: Dict[str, float] = {}

    def tau(self, subject: str) -> float:
        return self.taus.get(subject, NEUTRAL_TAU)

    def record(self, subject: str, value: float) -> None:
        profile = self.profiles.get(subject)
        if profile is None:
            profile = self.profiles[subject] = ReputationProfile(self.window)
        self.taus[subject] = profile.push(value)


def classify(tau: float) -> str:
    if not 0.0 <= tau <= 1.0:
        raise ValidationError(f"tau {tau} outside [0, 1]")
    if tau > TRUSTED_ABOVE:
        return TRUSTED
    if tau <= UNTRUSTED_AT_OR_BELOW:
        return UNTRUSTED
    return UNDECIDED


@dataclass(frozen=True)
class ReplicationLimits:
    lo: float = 1.5
    hi: float = 5.0

    def __post_init__(self) -> None:
        if not 1.0 <= self.lo <= self.hi < math.inf:  # an infinite bound makes the factor NaN
            raise ValidationError(f"invalid replication limits ({self.lo}, {self.hi})")


def raw_replication_factor(tau: float, limits: ReplicationLimits = ReplicationLimits()) -> float:
    """Linear interpolation between the limits; high reputation means low factor.

    Never below lo: float cancellation can take `hi - tau * (hi - lo)` under
    it, to 0.0 at tau 1 for (1.0, 1e17), so an f_min is at least 1."""
    if not 0.0 <= tau <= 1.0:
        raise ValidationError(f"tau {tau} outside [0, 1]")
    return max(limits.lo, limits.hi - tau * (limits.hi - limits.lo))


def roulette_parts(x: float) -> Tuple[int, float]:
    """x's floor and fraction: `roulette_round(x, rng)` is the floor, plus
    one when `rng.random()` falls below the fraction."""
    if x < 0:
        raise ValidationError(f"cannot roulette-round negative value {x}")
    base = math.floor(x)
    return base, x - base


def roulette_round(x: float, rng) -> int:
    """Round x down or up at random so the expected value equals x.

    Consumes exactly one draw from rng.
    """
    base, frac = roulette_parts(x)
    return base + (1 if rng.random() < frac else 0)


def effective_f_min(tau: float, limits: ReplicationLimits, rng) -> int:
    """Number of OTHER agents that must co-compute a work unit."""
    return roulette_round(raw_replication_factor(tau, limits), rng)
