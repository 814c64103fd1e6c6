"""Client strategy layer: participation decisions, round payoffs, and
the brute-force deviation scan."""

import json
import math

import numpy as np
import pytest

from tokenfl.economy import FreshnessPolicy, TokenLedger
from tokenfl.mechanisms import MechanismParams, cost, value, value_table
from tokenfl.strategy import (
    Deviation,
    NashReport,
    Players,
    client_round_payoff,
    decide_participation,
    nash_check,
    play_round,
)

PARAMS = MechanismParams()
ZERO_COST = MechanismParams(c_min=0.0, c_max=0.0)

# Cumulative 50-round payoff of a client holding the acceptable budget
# under default parameters, frozen on first computation.
PROFILE_PAYOFF_50 = 350.34465499495923


def players(*eps, params=PARAMS):
    return Players.start(list(eps), params)


class TestLaneCounts:
    @pytest.mark.parametrize("lanes", [1, 4])
    def test_one_ledger_lane_per_player_required(self, lanes):
        # A one-lane earn would broadcast to every player in TokenLedger.credit.
        three = players(15.0, 20.0, 25.0)
        ledger = TokenLedger([1.0] * lanes, 1.0, FreshnessPolicy())
        with pytest.raises(ValueError, match=rf"mask of shape \({lanes},\), got shape \(3,\)"):
            play_round(three, ledger, 1, value_table(2))
        assert ledger.lots.tolist() == [[0.0, 0.0]] * lanes
        assert ledger.participations.tolist() == [0] * lanes
        assert not three.evicted.any() and not three.stopped.any()


class TestDecideParticipation:
    def test_acceptable_budget_always_joins(self):
        client, values = players(15.0), value_table(51)
        assert all(decide_participation(client, t, 1, values)[0] for t in range(1, 51))

    def test_max_budget_quits_past_collapse(self):
        client, values = players(25.0), value_table(21)
        assert decide_participation(client, 5, 1, values)[0]
        assert not decide_participation(client, 20, 1, values)[0]

    def test_zero_cost_always_joins(self):
        client = players(25.0, params=ZERO_COST)
        assert decide_participation(client, 500, 1, value_table(501))[0]

    def test_evicted_clients_make_no_decisions(self):
        # An evicted lane neither trains nor records a refusal, even on a
        # round whose utility would make it refuse.
        client = players(25.0)
        client.evicted[:] = True
        ledger = TokenLedger([1.0], 1.0, FreshnessPolicy())
        for r in range(1, 20):  # rounds that credit no lane
            ledger.credit(r, np.array([False]))
        _, participated, _ = play_round(client, ledger, 20, value_table(21), stride=1)
        assert not participated[0]
        assert not client.stopped[0]


class TestClientRoundPayoff:
    def test_idle_round_is_zero(self):
        assert client_round_payoff(False, 0.0, cost(15.0, PARAMS), False) == 0.0

    def test_bought_and_participated_is_gain_minus_cost(self):
        gain = value(7) - value(6)
        expected = gain - cost(15.0, PARAMS)
        assert client_round_payoff(True, gain, cost(15.0, PARAMS), True) == pytest.approx(
            expected, rel=1e-12
        )

    def test_training_without_buying_is_a_pure_loss(self):
        payoff = client_round_payoff(False, 0.0, cost(10.0, PARAMS), True)
        assert payoff == -cost(10.0, PARAMS) < 0

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            client_round_payoff(True, -1.0, cost(15.0, PARAMS), True)


@pytest.fixture(scope="module")
def report():
    grid = [5.0, 10.0, 15.0, 17.0, 20.0, 25.0]
    return nash_check([15.0, 15.0, 15.0], grid, horizon=50, params=PARAMS)


class TestNashCheck:
    def test_acceptable_profile_is_an_equilibrium(self, report):
        assert report.is_nash
        assert report.profitable_deviations == []

    def test_profile_payoff_frozen(self, report):
        for payoff in report.profile_payoffs:
            assert math.isclose(payoff, PROFILE_PAYOFF_50, rel_tol=1e-9)

    def test_high_budget_deviations_lose_exactly_the_cost_gap(self, report):
        for dev in report.deviations:
            if dev.eps > PARAMS.eps_a:
                expected = -dev.participated_rounds * (
                    cost(dev.eps, PARAMS) - cost(PARAMS.eps_a, PARAMS)
                )
                assert math.isclose(dev.delta, expected, rel_tol=0, abs_tol=1e-9)

    def test_low_budget_deviations_starve_after_one_window(self, report):
        for dev in report.deviations:
            if dev.eps < PARAMS.eps_a:
                assert dev.participated_rounds == PARAMS.n
                assert dev.payoff == pytest.approx(-cost(dev.eps, PARAMS))
                assert dev.delta < 0

    def test_deviation_rows_cover_the_grid(self, report):
        per_client = {d.client for d in report.deviations}
        assert per_client == {0, 1, 2}
        assert len(report.deviations) == 3 * 5

    def test_a_repeated_grid_budget_is_one_deviation(self):
        report = nash_check([15], [1, 1, 15, 25], 10, PARAMS)
        assert [(d.client, d.eps) for d in report.deviations] == [(0, 1.0), (0, 25.0)]

    def test_single_client_game_is_still_an_equilibrium(self):
        report = nash_check([15.0], [10.0, 15.0, 20.0], horizon=20, params=PARAMS)
        assert report.is_nash

    def test_report_serializes(self, report):
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["is_nash"] is True
        assert payload["profile"] == [15.0, 15.0, 15.0]
        assert len(payload["deviations"]) == 15

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="profile"):
            nash_check([], [10.0, 15.0, 20.0], 10, PARAMS)
        with pytest.raises(ValueError):
            nash_check([15.0], [], 10, PARAMS)
        with pytest.raises(ValueError):
            nash_check([15.0], [10.0, 20.0], 10, PARAMS)
        with pytest.raises(ValueError):
            nash_check([15.0], [15.0, 20.0], 10, PARAMS)
        with pytest.raises(ValueError):
            nash_check([15.0], [0.5, 15.0, 20.0], 10, PARAMS)
        with pytest.raises(ValueError):
            nash_check([15.0], [10.0, 15.0, 20.0], 0, PARAMS)

    @pytest.mark.parametrize("eps", [30.0, math.inf])
    def test_profile_budgets_are_checked_and_named(self, eps):
        with pytest.raises(ValueError, match=f"^profile eps {eps} outside"):
            nash_check([eps], [10.0, 15.0, 20.0], 10, PARAMS)
        with pytest.raises(ValueError, match=f"^grid eps {eps} outside"):
            nash_check([15.0], [10.0, 15.0, eps], 10, PARAMS)


class TestReportMechanics:
    def test_profitable_filter_controls_the_verdict(self):
        report = NashReport(profile=(15.0,), horizon=5, profile_payoffs=(1.0,))
        report.deviations.append(Deviation(0, 20.0, 0.5, -0.5, 5, False))
        assert report.is_nash
        report.deviations.append(Deviation(0, 10.0, 2.0, 1.0, 5, True))
        assert not report.is_nash
        assert len(report.profitable_deviations) == 1
