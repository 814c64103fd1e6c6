"""Token ledger behavior: FIFO spending, expiry windows, the eviction
rule of a round, and the closed loop that makes the acceptable budget
self-sustaining."""

import pytest
from hypothesis import given, strategies as st

from tokenfl.economy import (
    FreshnessPolicy,
    InsufficientTokens,
    TokenLedger,
    TokenLot,
    model_age,
)
from tokenfl.mechanisms import MechanismParams, reward, value
from tokenfl.strategy import ClientState, play_round


class TestLots:
    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            TokenLot(-0.1, 1)

    def test_round_zero_rejected(self):
        with pytest.raises(ValueError):
            TokenLot(1.0, 0)


class TestCredit:
    def test_single_credit_balance(self):
        ledger = TokenLedger()
        ledger.credit(1.0, 1)
        assert ledger.balance == 1.0

    def test_zero_credit_is_identity(self):
        ledger = TokenLedger()
        ledger.credit(1.0, 1)
        ledger.credit(0.0, 2)
        assert ledger.balance == 1.0

    def test_share_credits_accumulate_to_full_price(self):
        params = MechanismParams(C=3, n=3)
        ledger = TokenLedger()
        for r in range(1, params.n + 1):
            ledger.credit(reward(params.eps_a, params), r)
        assert ledger.balance == params.C

    def test_rounds_must_arrive_in_order(self):
        ledger = TokenLedger()
        ledger.credit(1.0, 5)
        with pytest.raises(ValueError):
            ledger.credit(1.0, 5)

    def test_negative_credit_rejected(self):
        with pytest.raises(ValueError):
            TokenLedger().credit(-1.0, 1)


class TestSpend:
    def test_exact_spend_empties_balance(self):
        ledger = TokenLedger()
        ledger.credit(1.0, 1)
        ledger.spend(1.0, 1)
        assert ledger.balance == 0.0

    def test_shortfall_raises_and_leaves_ledger_untouched(self):
        ledger = TokenLedger()
        ledger.credit(0.9, 1)
        with pytest.raises(InsufficientTokens):
            ledger.spend(1.0, 1)
        assert ledger.balance == 0.9
        assert [(lot.amount, lot.earned_at) for lot in ledger.lots] == [(0.9, 1)]

    def test_fifo_consumption_traced_by_hand(self):
        ledger = TokenLedger()
        ledger.credit(0.6, 1)
        ledger.credit(0.6, 2)
        ledger.spend(1.0, 2)
        assert [(lot.amount, lot.earned_at) for lot in ledger.lots] == [
            (0.0, 1),
            (pytest.approx(0.2), 2),
        ]

    def test_negative_spend_rejected(self):
        with pytest.raises(ValueError):
            TokenLedger().spend(-1.0, 1)


class TestExpire:
    def test_stale_lot_removed(self):
        ledger = TokenLedger()
        ledger.credit(1.0, 1)
        lost = ledger.expire(3, FreshnessPolicy(n=1))
        assert lost == 1.0
        assert ledger.balance == 0.0

    def test_lot_within_window_kept(self):
        ledger = TokenLedger()
        ledger.credit(1.0, 1)
        lost = ledger.expire(2, FreshnessPolicy(n=3))
        assert lost == 0.0
        assert ledger.balance == 1.0

    def test_participated_counting_ignores_skipped_rounds(self):
        # A lot earned at a participated round survives four calendar
        # rounds of sitting out plus one more participated round when
        # only participated rounds age it, even with the tightest window.
        policy = FreshnessPolicy(n=1, counts_participated_only=True)
        ledger = TokenLedger()
        ledger.record_participation(1)
        ledger.credit(1.0, 1)
        ledger.record_participation(6)
        lost = ledger.expire(6, policy)
        assert lost == 0.0
        assert ledger.balance == 1.0

    def test_participated_counting_still_expires(self):
        policy = FreshnessPolicy(n=1, counts_participated_only=True)
        ledger = TokenLedger()
        ledger.record_participation(1)
        ledger.credit(1.0, 1)
        for r in (3, 5):
            ledger.record_participation(r)
        assert ledger.expire(5, policy) == 1.0

    def test_round_validation(self):
        with pytest.raises(ValueError):
            TokenLedger().expire(0, FreshnessPolicy())

    def test_window_validation(self):
        with pytest.raises(ValueError):
            FreshnessPolicy(n=0)


class TestParticipationLog:
    def test_rounds_strictly_increase(self):
        ledger = TokenLedger()
        ledger.record_participation(1)
        with pytest.raises(ValueError):
            ledger.record_participation(1)


class TestModelAgeAndEviction:
    def test_fresh_model_never_evicts(self):
        client = ClientState(id=0, chosen_eps=15.0, owned_model_round=4)
        play_round(client, TokenLedger(), 5, MechanismParams(), FreshnessPolicy(n=1), 1.0, 1.0)
        assert not client.evicted

    def test_stale_and_broke_evicts(self):
        client = ClientState(id=0, chosen_eps=15.0, owned_model_round=1)
        result = play_round(
            client, TokenLedger(), 3, MechanismParams(), FreshnessPolicy(n=1), 1.0, 1.0
        )
        assert client.evicted
        assert result == (0.0, False, False)
        assert client.cumulative_payoff == 0.0

    def test_stale_but_solvent_survives(self):
        client = ClientState(id=0, chosen_eps=15.0, owned_model_round=1)
        ledger = TokenLedger()
        ledger.credit(1.0, 2)
        policy = FreshnessPolicy(n=1)
        assert play_round(client, ledger, 3, MechanismParams(), policy, 1.0, 1.0) == (
            0.0, False, True
        )
        assert not client.evicted
        assert client.owned_model_round == 3
        assert client.cumulative_payoff == value(3) - value(1)
        assert play_round(client, ledger, 4, MechanismParams(), policy, 1.0, 1.0)[1]

    def test_future_model_rejected(self):
        with pytest.raises(ValueError):
            model_age(5, 4, FreshnessPolicy())

    def test_participated_counting_age(self):
        policy = FreshnessPolicy(n=1, counts_participated_only=True)
        assert model_age(2, 9, policy, participated_rounds=(1, 2, 5)) == 1
        assert model_age(2, 9, policy, participated_rounds=(1, 2, 5, 7)) == 2


class TestClosedLoop:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_acceptable_budget_never_starves_or_wastes(self, n, k):
        params = MechanismParams(C=n * k, n=n)
        policy = FreshnessPolicy(n=n)
        ledger = TokenLedger()
        for r in range(1, 101):
            assert ledger.expire(r, policy) == 0.0
            ledger.record_participation(r)
            ledger.credit(reward(params.eps_a, params), r)
            if r % n == 0:
                ledger.spend(params.C, r)
                assert ledger.balance == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_low_budget_starves_at_first_window_purchase(self, n):
        params = MechanismParams(C=n, n=n)
        policy = FreshnessPolicy(n=n)
        ledger = TokenLedger()
        eps = 10.0
        assert reward(eps, params) < params.C / params.n
        for r in range(1, n + 1):
            assert ledger.expire(r, policy) == 0.0
            ledger.record_participation(r)
            ledger.credit(reward(eps, params), r)
        with pytest.raises(InsufficientTokens):
            ledger.spend(params.C, n)


class TestConservation:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["credit", "spend"]),
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            ),
            max_size=40,
        )
    )
    def test_balance_tracks_flows_without_expiry(self, ops):
        ledger = TokenLedger()
        expected = 0.0
        for r, (op, amount) in enumerate(ops, start=1):
            if op == "credit":
                ledger.credit(amount, r)
                expected += amount
            else:
                try:
                    ledger.spend(amount, r)
                    expected -= amount
                except InsufficientTokens:
                    pass
        assert ledger.balance == pytest.approx(expected, abs=1e-9)
