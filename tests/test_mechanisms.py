"""Closed-form game functions: frozen regression constants, endpoint
contracts, and the shape properties the collapse scan relies on."""

import math

import pytest
from hypothesis import given, strategies as st

from tokenfl.mechanisms import (
    MechanismParams,
    baseline_token_reward,
    calibrate_cost_range,
    cost,
    predict_collapse_round,
    reward,
    utility,
    value,
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


class TestMechanismParams:
    def test_defaults_match_calibration(self):
        assert (PARAMS.c_min, PARAMS.c_max) == calibrate_cost_range()

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
            {"eps_low": 25.0, "eps_high": 25.0},
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
        lo, hi = PARAMS.eps_low, PARAMS.eps_high
        assert math.isclose(baseline_token_reward(lo, PARAMS), 0.5, rel_tol=REL)
        assert math.isclose(baseline_token_reward(hi, PARAMS), 1.0, rel_tol=REL)
        mid = (lo + hi) / 2.0
        assert math.isclose(baseline_token_reward(mid, PARAMS), 0.75, rel_tol=REL)

    @pytest.mark.parametrize("eps", [0.5, 25.5])
    def test_rejects_out_of_range(self, eps):
        with pytest.raises(ValueError):
            baseline_token_reward(eps, PARAMS)

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

    @given(
        st.floats(min_value=1.0, max_value=15.0),
        st.floats(min_value=1.0, max_value=15.0),
    )
    def test_strictly_increasing_below_eps_a(self, a, b):
        lo, hi = sorted((a, b))
        if lo != hi:
            assert reward(lo, PARAMS) < reward(hi, PARAMS)


class TestUtility:
    def test_zero_cost_equals_value_increment(self):
        for t in (0, 1, 7, 30):
            gain = value(t + 1) - value(t)
            assert math.isclose(utility(t, 5.0, 1, ZERO_COST), gain, rel_tol=REL)
            assert utility(t, 5.0, 1, ZERO_COST) > 0

    def test_acceptable_level_stays_positive_through_horizon(self):
        assert all(utility(t, 15.0, 1, PARAMS) > 0 for t in range(1, 51))

    def test_max_budget_turns_negative_near_round_ten(self):
        first = next(t for t in range(1, 51) if utility(t, 25.0, 1, PARAMS) < 0)
        assert 4 <= first <= 16

    def test_decreasing_in_round_after_ramp(self):
        series = [utility(t, 20.0, 1, PARAMS) for t in range(3, 80)]
        assert all(b < a for a, b in zip(series, series[1:]))

    def test_nonincreasing_in_eps(self):
        for eps_lo, eps_hi in ((5.0, 15.0), (15.0, 20.0), (20.0, 25.0)):
            assert utility(10, eps_hi, 1, PARAMS) <= utility(10, eps_lo, 1, PARAMS)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            utility(-1, 15.0, 1, PARAMS)
        with pytest.raises(ValueError):
            utility(1, 15.0, 0, PARAMS)


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


class TestCalibration:
    def test_grid_scan_reproduces_shipped_range(self):
        assert calibrate_cost_range() == (2.75, 18.0)

    def test_predictions_at_shipped_range(self):
        rounds = {
            eps: predict_collapse_round(eps, 1, 200, PARAMS) for eps in (25.0, 20.0, 17.0)
        }
        assert rounds == {25.0: 11, 20.0: 27, 17.0: 42}
