"""Rating value, reputation and replication-factor unit tests."""
import inspect
import math
import random

import pytest
from hypothesis import given, strategies as st

from tdgsim import trust
from tdgsim.engine import ReputationStore
from tdgsim.trust import (CAUSE_VALUES, ReplicationLimits,
                          ReputationProfile, ValidationError,
                          aggregate_reputation, classify, effective_f_min,
                          raw_replication_factor, roulette_round, sum_left)


def test_cause_value_table():
    assert CAUSE_VALUES == {"correct_on_time": 1.0, "correct_late": 0.5,
                            "rejected_wu": -0.25, "dropped_wu": -0.75,
                            "timed_out": -0.75, "wrong_result": -1.0}


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


def test_sum_left_adds_left_to_right_from_int_zero():
    # The built-in sum() gives 1.0 here from Python 3.12 on.
    assert sum_left([0.1] * 10) == 0.9999999999999999
    assert sum_left([0.1, 0.2, 0.3]) == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    assert sum_left([]) == 0 and type(sum_left([])) is int


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=100))
def test_aggregate_stays_in_unit_interval(values):
    assert 0.0 <= aggregate_reputation(values) <= 1.0


def test_sliding_window_drops_oldest():
    prof = ReputationProfile(window_size=3)
    for v in [-1.0, -1.0, 1.0, 1.0]:
        tau = prof.push(v)
    # only the last three ratings count: mean(-1, 1, 1) = 1/3
    assert tau == pytest.approx((1 + 1 / 3) / 2)
    assert len(prof.window) == 3


@given(st.integers(min_value=0, max_value=60),
       st.lists(st.sampled_from(sorted(CAUSE_VALUES)), max_size=200))
def test_running_window_sum_equals_a_fresh_sum(window_size, causes):
    prof = ReputationProfile(window_size=window_size)
    for cause in causes:
        assert prof.push(CAUSE_VALUES[cause]) == aggregate_reputation(list(prof.window))
    assert len(prof.window) == min(window_size, len(causes))


def test_rating_range_validated():
    store = ReputationStore(window=10)
    with pytest.raises(ValidationError):
        store.record("b", 1.5)
    with pytest.raises(ValidationError):
        store.record("b", -1.01)
    assert store.tau("b") == 0.5 and not store.profiles["b"].window
    store.record("b", CAUSE_VALUES["correct_late"])
    assert list(store.profiles["b"].window) == [0.5]
    assert store.tau("b") == 0.75


@given(st.integers(min_value=0, max_value=4),
       st.lists(st.tuples(st.sampled_from("abc"),
                          st.sampled_from(sorted(CAUSE_VALUES.values()) + [1.5, -1.01])),
                max_size=60))
def test_live_tau_map_follows_every_profile(window_size, ratings):
    # Lifecycle reads the store's taus as a map; a subject it lacks is
    # neutral, including one whose every rating was out of range.
    store = ReputationStore(window=window_size)
    for subject, value in ratings:
        try:
            store.record(subject, value)
        except ValidationError:
            assert not -1.0 <= value <= 1.0
        for s in "abc":
            assert store.tau(s) == aggregate_reputation(store.profiles[s].window
                                                        if s in store.profiles else ())
    assert store.taus.keys() <= store.profiles.keys()


def test_push_rejects_out_of_range():
    prof = ReputationProfile()
    with pytest.raises(ValidationError):
        prof.push(1.5)
    with pytest.raises(ValidationError):
        prof.push(-1.01)
    assert not prof.window and prof.total == 0.0


def test_non_dyadic_cause_value_fails_at_import():
    source = inspect.getsource(trust)
    mutant = source.replace("CORRECT_LATE: 0.5,", "CORRECT_LATE: 0.3,")
    assert mutant != source
    # the exec defines its own ValidationError, a ValueError
    with pytest.raises(ValueError, match="multiple of 0.25"):
        exec(compile(mutant, "trust_mutant", "exec"), {"__name__": "trust_mutant"})


def test_classify_boundaries():
    assert classify(0.71) == "trusted"
    assert classify(0.7) == "undecided"  # strictly above 0.7
    assert classify(0.41) == "undecided"
    assert classify(0.4) == "untrusted"  # at or below 0.4
    assert classify(0.0) == "untrusted"
    assert classify(1.0) == "trusted"
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
    # Finite pairs whose `hi - (hi - lo)` is not exactly lo are limits too:
    # 5.0 - (5.0 - 1.2) is 1.2000000000000002, 6.0 - (6.0 - 1.1) is
    # 1.0999999999999996, and 1e17 - (1e17 - 1.0) is 0.0.
    for lo, hi in [(1.2, 5.0), (1.1, 5.0), (1.1, 5.3), (1.1, 6.0), (1.0, 1e17)]:
        assert (ReplicationLimits(lo, hi).lo, ReplicationLimits(lo, hi).hi) == (lo, hi)


# The factor's formula falls below lo at tau 1 for each of these pairs.
@pytest.mark.parametrize("lo, hi, below", [(1.1, 6.0, 1.0999999999999996),
                                           (1.0, 1e17, 0.0)])
def test_the_factor_at_tau_one_is_lo_where_cancellation_takes_it_below(lo, hi, below):
    assert hi - 1.0 * (hi - lo) == below < lo
    assert raw_replication_factor(1.0, ReplicationLimits(lo, hi)) == lo


LIMIT_VALUES = st.floats(min_value=1.0, max_value=1e300) | st.sampled_from(
    [1.0, 1.1, 1.2, 1.5, 5.0, 5.3, 6.0, 2.0 ** 52, 2.0 ** 53, 1e16, 1e17])


@given(LIMIT_VALUES, LIMIT_VALUES, st.floats(min_value=0.0, max_value=1.0)
       | st.sampled_from([0.0, 5e-324, 0.5, 1.0 - 2 ** -53, 1.0]))
def test_the_factor_of_any_finite_limits_lies_within_them(a, b, tau):
    lo, hi = sorted((a, b))
    assert lo <= raw_replication_factor(tau, ReplicationLimits(lo, hi)) <= hi


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
