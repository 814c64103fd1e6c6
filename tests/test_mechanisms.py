"""Closed-form game functions: frozen regression constants, endpoint
contracts, and the shape properties the collapse scan relies on."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tokenfl.mechanisms import (
    MechanismParams,
    baseline_token_reward,
    cost,
    predict_collapse_round,
    reward,
    utility,
    value,
    value_table,
)

PARAMS = MechanismParams()
REL = 1e-12

# Frozen on first computation; any drift in these is a regression.
VALUE_AT = {
    1: 9.8941356516202585,
    2: 33.288109805891217,
    10: 223.03031358576015,
    50: 639.19737490236685,
}
COST_AT = {
    13: 4.65625,
    15: 5.7770543981481488,
    17: 7.2685185185185173,
    20: 10.316532841435183,
}
COLLAPSE_STRIDE1 = {25.0: 11, 20.0: 27, 17.0: 42, 15.0: None}
ZERO_COST = MechanismParams(c_min=0.0, c_max=0.0)
VALUES = value_table(100)
# The budgets of perfbench's game-sweep: 1, 1.25, ..., 25.
SWEEP_GRID = [1.0 + 0.25 * i for i in range(97)]


def paper_utility(t, eps, stride, params):
    """The participation utility as the paper writes it, one round and
    one budget at a time: the reference that utility must reproduce."""
    return value(t + stride) - value(t) - cost(eps, params)


class TestMechanismParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps_min": 20.0},
            {"eps_min": 0.0},
            {"eps_a": 30.0},
            {"C": 0},
            {"C": 1.5},
            {"C": 3, "n": 2},
            {"n": 0},
            {"G": 0},
            {"c_min": -1.0},
            {"c_min": 5.0, "c_max": 4.0},
            {"c_min": math.nan},
            {"c_max": math.nan},
        ],
    )
    def test_rejects_inconsistent_parameters(self, kwargs):
        with pytest.raises(ValueError):
            MechanismParams(**kwargs)

    def test_accepts_c_multiple_of_n(self):
        params = MechanismParams(C=6, n=3)
        assert params.C == 6 and params.n == 3


class TestBaselineTokenReward:
    def test_endpoints_and_midpoint(self):
        lo, hi = PARAMS.eps_min, PARAMS.eps_max
        assert math.isclose(baseline_token_reward(lo, PARAMS), 0.5, rel_tol=REL)
        assert math.isclose(baseline_token_reward(hi, PARAMS), 1.0, rel_tol=REL)
        mid = (lo + hi) / 2.0
        assert math.isclose(baseline_token_reward(mid, PARAMS), 0.75, rel_tol=REL)

    @pytest.mark.parametrize("eps", [0.5, 25.5])
    def test_rejects_out_of_range(self, eps):
        with pytest.raises(ValueError):
            baseline_token_reward(eps, PARAMS)

    def test_rejects_an_empty_budget_range(self):
        # eps_min == eps_max is a valid game, but leaves no range to ramp over.
        params = MechanismParams(eps_min=25.0, eps_a=25.0, eps_max=25.0)
        with pytest.raises(ValueError, match="needs eps_min < eps_max"):
            baseline_token_reward(25.0, params)

    @given(st.floats(min_value=1.0, max_value=25.0))
    def test_image_is_unit_band(self, eps):
        assert 0.5 <= baseline_token_reward(eps, PARAMS) <= 1.0


class TestValue:
    def test_zero_round_is_worthless(self):
        assert value(0) == 0.0

    @pytest.mark.parametrize("t,expected", sorted(VALUE_AT.items()))
    def test_frozen_values(self, t, expected):
        assert math.isclose(value(t), expected, rel_tol=REL)

    def test_documented_increment_ordering(self):
        assert value(10) - value(9) > value(18) - value(17) > value(50) - value(49)

    def test_ramp_then_decay(self):
        # The curve ramps up over the first rounds and shrinks from the
        # fourth increment on; the collapse scan depends on the decay.
        gains = [value(t + 1) - value(t) for t in range(0, 8)]
        assert gains[0] < gains[1] < gains[2] < gains[3]
        assert all(b < a for a, b in zip(gains[3:], gains[4:]))

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            value(-1)

    @given(st.integers(min_value=0, max_value=400))
    def test_strictly_increasing(self, t):
        assert value(t + 1) > value(t)

    @given(st.integers(min_value=3, max_value=400))
    def test_diminishing_increments_after_ramp(self, t):
        assert value(t + 2) - value(t + 1) < value(t + 1) - value(t)

    def test_averaged_gain_nonincreasing_in_window(self):
        # (V(t+n) - V(t)) / n shrinking in n is what makes n = 1 the
        # most durable window choice.
        for t in (10, 20, 40):
            averaged = [(value(t + n) - value(t)) / n for n in (1, 2, 5)]
            assert averaged[0] >= averaged[1] >= averaged[2]


class TestCost:
    def test_floor_at_unit_budget(self):
        assert math.isclose(cost(1.0, PARAMS), PARAMS.c_min, rel_tol=REL)

    @pytest.mark.parametrize("eps", [25.0, 26.0, 1000.0])
    def test_cap_at_and_above_eps_max(self, eps):
        assert math.isclose(cost(eps, PARAMS), PARAMS.c_max, rel_tol=REL)

    def test_midpoint_is_an_eighth_of_the_range(self):
        mid = (1.0 + PARAMS.eps_max) / 2.0
        expected = PARAMS.c_min + (PARAMS.c_max - PARAMS.c_min) / 8.0
        assert math.isclose(cost(mid, PARAMS), expected, rel_tol=REL)

    @pytest.mark.parametrize("eps,expected", sorted(COST_AT.items()))
    def test_frozen_values(self, eps, expected):
        assert math.isclose(cost(eps, PARAMS), expected, rel_tol=REL)

    def test_below_eps_min_rejected(self):
        with pytest.raises(ValueError):
            cost(0.5, PARAMS)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            cost(math.nan, PARAMS)

    @given(
        st.floats(min_value=1.0, max_value=40.0),
        st.floats(min_value=1.0, max_value=40.0),
    )
    def test_nondecreasing_and_clamped(self, a, b):
        lo, hi = sorted((a, b))
        assert cost(lo, PARAMS) <= cost(hi, PARAMS)
        assert PARAMS.c_min <= cost(a, PARAMS) <= PARAMS.c_max


class TestReward:
    def test_floor_at_eps_min(self):
        assert math.isclose(reward(PARAMS.eps_min, PARAMS), 0.5, rel_tol=REL)

    @pytest.mark.parametrize("eps", [15.0, 20.0, 25.0])
    def test_full_share_at_and_above_eps_a(self, eps):
        assert math.isclose(reward(eps, PARAMS), PARAMS.C / PARAMS.n, rel_tol=REL)

    def test_frozen_interior_value(self):
        # ((8 - 1) / (15 - 1))^3 = 1/8, so the ramp sits at 0.5 + 0.5/8.
        assert reward(8.0, PARAMS) == 0.5625

    def test_strictly_below_share_under_eps_a(self):
        assert reward(PARAMS.eps_a - 1e-6, PARAMS) < PARAMS.C / PARAMS.n

    def test_continuous_at_eps_a(self):
        gap = PARAMS.C / PARAMS.n - reward(PARAMS.eps_a - 1e-9, PARAMS)
        assert 0.0 <= gap < 1e-8

    def test_pays_per_round_share_for_wide_windows(self):
        params = MechanismParams(C=6, n=3)
        assert reward(params.eps_a, params) == 2.0
        assert sum(reward(params.eps_a, params) for _ in range(params.n)) == params.C

    def test_below_eps_min_rejected(self):
        with pytest.raises(ValueError):
            reward(0.0, PARAMS)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            reward(math.nan, PARAMS)

    @given(
        st.floats(min_value=1.0, max_value=15.0),
        st.floats(min_value=1.0, max_value=15.0),
    )
    def test_strictly_increasing_below_eps_a(self, a, b):
        # The ramp is flat to float resolution near eps_min:
        # reward(1.0) == reward(1.000001) == 0.5 < reward(1.001).
        lo, hi = sorted((a, b))
        assert reward(lo, PARAMS) <= reward(hi, PARAMS)
        if hi - lo >= 1e-3:
            assert reward(lo, PARAMS) < reward(hi, PARAMS)


class TestUtility:
    def test_zero_cost_equals_value_increment(self):
        for t in (0, 1, 7, 30):
            gain = value(t + 1) - value(t)
            assert math.isclose(utility(t, cost(5.0, ZERO_COST), 1, VALUES), gain, rel_tol=REL)
            assert utility(t, cost(5.0, ZERO_COST), 1, VALUES) > 0

    def test_acceptable_level_stays_positive_through_horizon(self):
        assert all(utility(t, cost(15.0, PARAMS), 1, VALUES) > 0 for t in range(1, 51))

    def test_max_budget_turns_negative_near_round_ten(self):
        first = next(t for t in range(1, 51) if utility(t, cost(25.0, PARAMS), 1, VALUES) < 0)
        assert 4 <= first <= 16

    def test_decreasing_in_round_after_ramp(self):
        series = [utility(t, cost(20.0, PARAMS), 1, VALUES) for t in range(3, 80)]
        assert all(b < a for a, b in zip(series, series[1:]))

    def test_nonincreasing_in_eps(self):
        for eps_lo, eps_hi in ((5.0, 15.0), (15.0, 20.0), (20.0, 25.0)):
            assert (utility(10, cost(eps_hi, PARAMS), 1, VALUES)
                    <= utility(10, cost(eps_lo, PARAMS), 1, VALUES))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            utility(-1, cost(15.0, PARAMS), 1, VALUES)
        with pytest.raises(ValueError):
            utility(1, cost(15.0, PARAMS), 0, VALUES)

    def test_refuses_rounds_past_the_value_table(self):
        assert utility(99, 0.0, 1, VALUES) == VALUES[100] - VALUES[99]
        for t, stride in ((100, 1), (98, 3), (np.array([1, 99]), 2), (np.array([-1, 5]), 1)):
            with pytest.raises(ValueError):
                utility(t, 0.0, stride, VALUES)

    def test_empty_rounds_give_an_empty_result(self):
        costs = np.array([cost(15.0, PARAMS), cost(25.0, PARAMS)])
        assert utility(np.arange(0), 0.0, 1, VALUES).shape == (0,)
        assert utility(np.arange(1, 1)[:, None], costs, 2, VALUES).shape == (0, 2)

    @pytest.mark.parametrize("t", [2.0, np.float64(2.0), np.array([1.0, 2.0]), True],
                             ids=["float", "np-float", "float-array", "bool"])
    def test_non_integer_rounds_rejected(self, t):
        with pytest.raises(ValueError, match="rounds t must be integers"):
            utility(t, 0.0, 1, VALUES)

    @pytest.mark.parametrize("t", [np.int64(4), np.int32(4), np.uint8(4), np.array(4)])
    def test_numpy_integer_rounds_accepted(self, t):
        assert utility(t, 0.0, 1, VALUES) == VALUES[5] - VALUES[4]

    def test_nan_eps_rejected(self):
        # A NaN budget has no privacy cost to pass to utility.
        with pytest.raises(ValueError):
            utility(3, cost(math.nan, PARAMS), 1, VALUES)

    @pytest.mark.parametrize("stride", range(1, 6))
    def test_is_the_papers_formula_bit_for_bit(self, stride):
        # Every round 0..1000 and every game-sweep budget, as one array
        # of rounds per budget and as one lane per budget for a round.
        rounds, values = np.arange(1001), value_table(1000 + stride)
        costs = np.array([cost(eps, PARAMS) for eps in SWEEP_GRID])
        for eps, c in zip(SWEEP_GRID, costs.tolist()):
            want = [paper_utility(t, eps, stride, PARAMS) for t in rounds.tolist()]
            assert utility(rounds, c, stride, values).tolist() == want, eps
        for t in (0, 1, 11, 1000):
            want = [paper_utility(t, eps, stride, PARAMS) for eps in SWEEP_GRID]
            assert utility(t, costs, stride, values).tolist() == want, t

    @pytest.mark.parametrize("stride", range(1, 6))
    def test_collapse_scan_agrees_with_utility(self, stride):
        horizon = 1000
        rounds, values = np.arange(1, horizon + 1), value_table(horizon + stride)
        for eps in SWEEP_GRID:
            negative = np.flatnonzero(utility(rounds, cost(eps, PARAMS), stride, values) < 0)
            first = int(rounds[negative[0]]) if negative.size else None
            assert predict_collapse_round(eps, stride, horizon, PARAMS) == first, eps


class TestValueTable:
    def test_holds_the_value_floats_read_only(self):
        table = value_table(60)
        assert table.tolist() == [value(t) for t in range(61)]
        assert not table.flags.writeable

    def test_builds_no_list_of_python_floats(self):
        # A list of 10**5 floats on the way would peak near four times
        # the table's 0.8 MB: 8 bytes a pointer and 24 a float object.
        value_table.cache_clear()
        tracemalloc.start()
        try:
            table = value_table(10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            value_table.cache_clear()
        assert peak < 1.25 * table.nbytes, peak


class TestPredictCollapseRound:
    @pytest.mark.parametrize("eps,expected", sorted(COLLAPSE_STRIDE1.items()))
    def test_frozen_stride1_rounds(self, eps, expected):
        assert predict_collapse_round(eps, 1, 50, PARAMS) == expected

    def test_group_stride_delays_collapse(self):
        s1 = predict_collapse_round(25.0, 1, 50, PARAMS)
        s2 = predict_collapse_round(25.0, 2, 50, PARAMS)
        assert s2 is not None and s1 is not None and s2 > s1

    def test_stride2_keeps_eps20_alive(self):
        assert predict_collapse_round(20.0, 2, 50, PARAMS) is None

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            predict_collapse_round(25.0, 1, 0, PARAMS)

    def test_nan_eps_rejected(self):
        # Not None: NaN is no budget that never collapses.
        with pytest.raises(ValueError):
            predict_collapse_round(math.nan, 1, 50, PARAMS)


class TestCalibration:
    def test_predictions_at_shipped_range(self):
        rounds = {
            eps: predict_collapse_round(eps, 1, 200, PARAMS) for eps in (25.0, 20.0, 17.0)
        }
        assert rounds == {25.0: 11, 20.0: 27, 17.0: 42}
