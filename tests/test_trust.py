"""Rating, reputation and replication-factor unit tests."""
import math
import random

import pytest
from hypothesis import given, strategies as st

from tdgsim.trust import (CAUSE_VALUES, Rating, RatingCause, ReplicationLimits,
                          ReputationProfile, TrustClass, ValidationError,
                          aggregate_reputation, classify, effective_f_min,
                          raw_replication_factor, roulette_round)


def test_cause_value_table():
    assert CAUSE_VALUES[RatingCause.CORRECT_ON_TIME] == 1.0
    assert CAUSE_VALUES[RatingCause.CORRECT_LATE] == 0.5
    assert CAUSE_VALUES[RatingCause.REJECTED_WU] == -0.25
    assert CAUSE_VALUES[RatingCause.DROPPED_WU] == -0.75
    assert CAUSE_VALUES[RatingCause.TIMED_OUT] == -0.75
    assert CAUSE_VALUES[RatingCause.WRONG_RESULT] == -1.0


def test_rating_range_validated():
    with pytest.raises(ValidationError):
        Rating("a", "b", 1.5, 1, RatingCause.CORRECT_ON_TIME)
    with pytest.raises(ValidationError):
        Rating("a", "b", -1.01, 1, RatingCause.WRONG_RESULT)
    r = Rating.from_cause("a", "b", RatingCause.CORRECT_LATE, 7)
    assert r.value == 0.5 and r.tick == 7


def test_aggregate_empty_window_is_neutral():
    assert aggregate_reputation([]) == 0.5


def test_aggregate_examples():
    assert aggregate_reputation([1.0, 1.0, -1.0]) == pytest.approx((1 + 1 / 3) / 2)
    assert aggregate_reputation([-1.0] * 5) == 0.0
    assert aggregate_reputation([1.0] * 5) == 1.0
    assert aggregate_reputation([0.0]) == 0.5


def test_aggregate_rejects_out_of_range():
    with pytest.raises(ValidationError):
        aggregate_reputation([0.0, 2.0])


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=100))
def test_aggregate_stays_in_unit_interval(values):
    assert 0.0 <= aggregate_reputation(values) <= 1.0


def test_sliding_window_drops_oldest():
    prof = ReputationProfile("x", window_size=3)
    values = [-1.0, -1.0, 1.0, 1.0]
    for i, v in enumerate(values):
        cause = (RatingCause.CORRECT_ON_TIME if v > 0
                 else RatingCause.WRONG_RESULT)
        prof.record(Rating("r", "x", v, i, cause))
    # only the last three ratings count: mean(-1, 1, 1) = 1/3
    assert prof.tau == pytest.approx((1 + 1 / 3) / 2)
    assert len(prof.window) == 3


def test_profile_rejects_foreign_subject():
    prof = ReputationProfile("x")
    with pytest.raises(ValidationError):
        prof.record(Rating("r", "y", 1.0, 1, RatingCause.CORRECT_ON_TIME))


def test_classify_boundaries():
    assert classify(0.71) is TrustClass.TRUSTED
    assert classify(0.7) is TrustClass.UNDECIDED  # strictly above 0.7
    assert classify(0.41) is TrustClass.UNDECIDED
    assert classify(0.4) is TrustClass.UNTRUSTED  # at or below 0.4
    assert classify(0.0) is TrustClass.UNTRUSTED
    assert classify(1.0) is TrustClass.TRUSTED
    with pytest.raises(ValidationError):
        classify(1.2)


def test_raw_replication_factor_endpoints():
    assert raw_replication_factor(1.0) == 1.5
    assert raw_replication_factor(0.0) == 5.0
    assert raw_replication_factor(0.5) == pytest.approx(3.25)


def test_raw_replication_factor_custom_limits():
    limits = ReplicationLimits(2.0, 4.0)
    assert raw_replication_factor(1.0, limits) == 2.0
    assert raw_replication_factor(0.0, limits) == 4.0
    with pytest.raises(ValidationError):
        raw_replication_factor(-0.1, limits)


def test_replication_limits_validated():
    with pytest.raises(ValidationError):
        ReplicationLimits(0.5, 5.0)  # lo below 1
    with pytest.raises(ValidationError):
        ReplicationLimits(4.0, 2.0)  # inverted


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_factor_monotonically_decreasing_in_tau(t1, t2):
    lo, hi = sorted((t1, t2))
    assert raw_replication_factor(lo) >= raw_replication_factor(hi)


def test_roulette_round_integer_is_exact():
    rng = random.Random(1)
    assert all(roulette_round(3.0, rng) == 3 for _ in range(100))


def test_roulette_round_consumes_one_draw():
    rng_a, rng_b = random.Random(42), random.Random(42)
    roulette_round(2.7, rng_a)
    rng_b.random()
    assert rng_a.getstate() == rng_b.getstate()


def test_roulette_round_rejects_negative():
    with pytest.raises(ValidationError):
        roulette_round(-0.5, random.Random(0))


@given(st.floats(min_value=0.0, max_value=100.0), st.integers(0, 2**32 - 1))
def test_roulette_round_returns_floor_or_ceil(x, seed):
    got = roulette_round(x, random.Random(seed))
    assert got in (math.floor(x), math.ceil(x))


def test_roulette_round_mean_tracks_fraction():
    rng = random.Random(7)
    draws = [roulette_round(2.25, rng) for _ in range(20000)]
    assert abs(sum(draws) / len(draws) - 2.25) < 0.02


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 2**32 - 1))
def test_effective_f_min_brackets_raw_factor(tau, seed):
    limits = ReplicationLimits()
    raw = raw_replication_factor(tau, limits)
    got = effective_f_min(tau, limits, random.Random(seed))
    assert math.floor(raw) <= got <= math.ceil(raw)
