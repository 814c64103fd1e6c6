"""Token ledger behavior: FIFO spending, expiry windows, the eviction
rule of a round, lanes kept apart, and the closed loop that makes the
acceptable budget self-sustaining. Ledgers hold one lane unless a test
says otherwise."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tokenfl.economy import FreshnessPolicy, TokenLedger, frozen_amounts, model_age
from tokenfl.mechanisms import MechanismParams, reward, value, value_table
from tokenfl.strategy import Players, play_round, price_rounds

ONE = np.array([True])
NONE = np.array([False])
CALENDAR = FreshnessPolicy(n=1)
COUNTED = FreshnessPolicy(n=1, counts_participated_only=True)


class TestLots:
    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            TokenLedger(1, CALENDAR).credit(-0.1, 1, ONE)

    def test_round_zero_rejected(self):
        with pytest.raises(ValueError):
            TokenLedger(1, CALENDAR).credit(1.0, 0, ONE)

    def test_no_policy_needs_a_slot_count(self):
        with pytest.raises(ValueError):
            TokenLedger(1, None)

    @pytest.mark.parametrize("slots", [2, 3, 4])
    def test_a_policy_and_a_slot_count_rejected(self, slots):
        # The policy sets the slots: fewer would drop a live lot, more
        # would never be reached by expiry.
        with pytest.raises(ValueError, match="slot count"):
            TokenLedger(1, FreshnessPolicy(n=2), slots=slots)


class TestCredit:
    def test_single_credit_balance(self):
        ledger = TokenLedger(1, CALENDAR)
        ledger.credit(1.0, 1, ONE)
        assert ledger.balance().tolist() == [1.0]

    def test_zero_credit_is_identity(self):
        ledger = TokenLedger(1, CALENDAR)
        ledger.credit(1.0, 1, ONE)
        ledger.credit(0.0, 2, ONE)
        assert ledger.balance().tolist() == [1.0]

    def test_share_credits_accumulate_to_full_price(self):
        params = MechanismParams(C=3, n=3)
        ledger = TokenLedger(1, FreshnessPolicy(n=params.n))
        for r in range(1, params.n + 1):
            ledger.credit(reward(params.eps_a, params), r, ONE)
        assert ledger.balance().tolist() == [params.C]

    def test_rounds_must_arrive_in_order(self):
        ledger = TokenLedger(1, CALENDAR)
        for r in range(1, 6):
            ledger.credit(1.0 if r == 5 else 0.0, r, ONE)
        with pytest.raises(ValueError):
            ledger.credit(1.0, 5, ONE)

    def test_negative_credit_rejected(self):
        with pytest.raises(ValueError):
            TokenLedger(1, CALENDAR).credit(-1.0, 1, ONE)

    @pytest.mark.parametrize("amount", [np.nan, np.array([np.nan]), np.array([1.0, np.nan])])
    def test_nan_credit_rejected_and_books_nothing(self, amount):
        # Also a NaN in the amount of a lane that does not participate.
        ledger = TokenLedger(2, CALENDAR)
        with pytest.raises(ValueError, match=">= 0"):
            ledger.credit(amount, 1, np.array([True, False]))
        assert ledger.lots.tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert ledger.participations.tolist() == [0, 0]

    @pytest.mark.parametrize("amount", [np.inf, np.array([1.0, np.inf]), np.array([np.inf, 1.0])])
    def test_infinite_credit_rejected_and_books_nothing(self, amount):
        # An infinite lot would pay any finite price forever; a lane that
        # does not participate is checked too.
        ledger = TokenLedger(2, CALENDAR)
        ledger.credit(1.0, 1, np.array([True, True]))
        with pytest.raises(ValueError, match="finite and >= 0"):
            ledger.credit(amount, 2, np.array([True, False]))
        assert ledger.lots.tolist() == [[0.0, 1.0], [0.0, 1.0]]
        assert ledger.participations.tolist() == [1, 1]

    def test_a_bad_fresh_array_is_refused_after_a_frozen_one(self):
        # A frozen amount is checked at its first credit; any other
        # amount at every credit.
        ledger, both = TokenLedger(2, FreshnessPolicy(n=3)), np.array([True, True])
        earn = frozen_amounts([1.0, 2.0], "earn")
        ledger.credit(earn, 1, both)
        ledger.credit(earn, 2, both)
        with pytest.raises(ValueError, match="finite and >= 0"):
            ledger.credit(np.array([1.0, np.nan]), 3, both)
        assert ledger.balance().tolist() == [2.0, 4.0]
        ledger.credit(earn, 3, both)
        assert ledger.balance().tolist() == [3.0, 6.0]

    def test_a_frozen_bad_amount_is_refused_at_its_first_credit(self):
        with pytest.raises(ValueError, match="finite and >= 0"):
            TokenLedger(1, CALENDAR).credit(np.frombuffer(np.array([np.nan]).tobytes()), 1, ONE)

    @pytest.mark.parametrize("read_only_once", [False, True])
    def test_an_array_changed_between_credits_is_checked_again(self, read_only_once):
        # Only an array over immutable bytes is trusted: a writable one,
        # or one whose read-only flag can be cleared again, may change.
        ledger, both = TokenLedger(2, CALENDAR), np.array([True, True])
        amount = np.array([1.0, 1.0])
        amount.flags.writeable = not read_only_once
        ledger.credit(amount, 1, both)
        amount.flags.writeable = True
        amount[1] = np.nan
        with pytest.raises(ValueError, match="finite and >= 0"):
            ledger.credit(amount, 2, both)
        assert ledger.lots.tolist() == [[0.0, 1.0], [0.0, 1.0]]

    def test_credit_never_overwrites_tokens(self):
        # Without expiry the third credit shifts the round-1 lot out of two slots.
        ledger = TokenLedger(1, None, slots=2)
        ledger.credit(1.0, 1, ONE)
        ledger.credit(1.0, 2, ONE)
        with pytest.raises(ValueError, match="overwrite"):
            ledger.credit(1.0, 3, ONE)

    def test_one_slot_balance_is_a_copy(self):
        ledger = TokenLedger(1, None, slots=1)
        ledger.credit(2.0, 1, ONE)
        balance = ledger.balance()
        balance[0] = 5.0
        assert ledger.lots.tolist() == [[2.0]]
        assert ledger.balance().tolist() == [2.0]


class TestRoundOrder:
    """A ledger steps once per round: it expires and credits only the
    round after the last credited one, and a refusal changes nothing."""

    @pytest.mark.parametrize("policy", [CALENDAR, COUNTED, None])
    @pytest.mark.parametrize("t", [0, 1, 2, 4, 5])
    def test_credit_and_expire_refuse_any_other_round(self, policy, t):
        ledger = TokenLedger(1, policy, None if policy else 3)
        for r in (1, 2):
            ledger.credit(1.0, r, ONE)
        lots = ledger.lots.tolist()
        for step in (lambda: ledger.credit(1.0, t, ONE), lambda: ledger.expire(t, ONE)):
            with pytest.raises(ValueError, match=f"round {t} is not the round after"):
                step()
        assert ledger.lots.tolist() == lots
        assert ledger.participations.tolist() == [2]
        ledger.expire(3, ONE)
        ledger.credit(1.0, 3, ONE)


class TestSpend:
    def test_exact_spend_empties_balance(self):
        ledger = TokenLedger(1, CALENDAR)
        ledger.credit(1.0, 1, ONE)
        assert ledger.spend(1.0, ONE).tolist() == [True]
        assert ledger.balance().tolist() == [0.0]

    def test_shortfall_raises_and_leaves_ledger_untouched(self):
        # A lane whose balance cannot cover the amount does not pay.
        ledger = TokenLedger(1, CALENDAR)
        ledger.credit(0.9, 1, ONE)
        assert ledger.spend(1.0, ONE).tolist() == [False]
        assert ledger.balance().tolist() == [0.9]
        assert ledger.lots.tolist() == [[0.0, 0.9]]

    def test_fifo_consumption_traced_by_hand(self):
        ledger = TokenLedger(1, CALENDAR)
        ledger.credit(0.6, 1, ONE)
        ledger.credit(0.6, 2, ONE)
        ledger.spend(1.0, ONE)
        assert ledger.lots.tolist() == [[0.0, pytest.approx(0.2)]]

    def test_negative_spend_rejected(self):
        with pytest.raises(ValueError):
            TokenLedger(1, CALENDAR).spend(-1.0, ONE)

    @pytest.mark.parametrize("amount", [np.nan, np.inf])
    def test_nan_and_infinite_spend_rejected(self, amount):
        ledger = TokenLedger(1, CALENDAR)
        ledger.credit(1.0, 1, ONE)
        with pytest.raises(ValueError, match="finite and >= 0"):
            ledger.spend(amount, ONE)
        assert ledger.balance().tolist() == [1.0]


class TestExpire:
    def test_stale_lot_removed(self):
        ledger = TokenLedger(1, CALENDAR)
        ledger.credit(1.0, 1, ONE)
        ledger.credit(0.0, 2, NONE)
        lost = ledger.expire(3, ONE)
        assert lost.tolist() == [1.0]
        assert ledger.balance().tolist() == [0.0]

    def test_lot_within_window_kept(self):
        ledger = TokenLedger(1, FreshnessPolicy(n=3))
        ledger.credit(1.0, 1, ONE)
        lost = ledger.expire(2, ONE)
        assert lost.tolist() == [0.0]
        assert ledger.balance().tolist() == [1.0]

    def test_calendar_lot_outlives_a_short_gap_and_expires_after_a_long_one(self):
        # Credits at rounds 1 and 3 leave the round-1 lot two columns
        # from the end. With no credit from round 4 on, each lot is
        # dropped by expiry in the round it turns n + 1 = 4 rounds old.
        ledger = TokenLedger(1, FreshnessPolicy(n=3))
        ledger.credit(1.0, 1, ONE)
        ledger.credit(0.0, 2, NONE)
        ledger.credit(0.5, 3, ONE)
        lost = []
        for r in range(4, 9):
            lost.append(ledger.expire(r, ONE)[0])
            if r == 4:
                assert ledger.lots.tolist() == [[0.0, 1.0, 0.0, 0.5]]
            ledger.credit(0.0, r, NONE)
        assert lost == [0.0, 1.0, 0.0, 0.5, 0.0]
        assert ledger.expire(9, ONE).tolist() == [0.0]
        ledger.credit(0.25, 9, ONE)
        assert ledger.lots.tolist() == [[0.0, 0.0, 0.0, 0.25]]

    def test_participated_counting_ignores_skipped_rounds(self):
        # A lot earned at a participated round survives four calendar
        # rounds of sitting out plus one more participated round when
        # only participated rounds age it, even with the tightest window.
        ledger = TokenLedger(1, COUNTED)
        ledger.credit(1.0, 1, ONE)
        for r in range(2, 7):
            assert ledger.expire(r, ONE).tolist() == [0.0]
            ledger.credit(0.0, r, ONE if r == 6 else NONE)
        lost = ledger.expire(7, ONE)
        assert lost.tolist() == [0.0]
        assert ledger.balance().tolist() == [1.0]

    def test_participated_counting_still_expires(self):
        # Participations at rounds 1, 3 and 5 age the round-1 lot to
        # n + 1 = 2 participated rounds, past the window.
        ledger = TokenLedger(1, COUNTED)
        ledger.credit(1.0, 1, ONE)
        for r in range(2, 6):
            ledger.credit(0.0, r, ONE if r % 2 else NONE)
        assert ledger.expire(6, ONE).tolist() == [1.0]

    def test_participated_counting_spends_the_aged_lot_in_its_last_round(self):
        # The third participation ages the round-1 lot past the window,
        # yet it stays spendable until the next expiry: three live lots
        # for n = 1, which is why the ledger has n + 2 slots here.
        ledger = TokenLedger(1, COUNTED)
        for r in (1, 2, 3):
            assert ledger.expire(r, ONE).tolist() == [0.0]
            ledger.credit(0.5, r, ONE)
        assert ledger.balance().tolist() == [1.5]
        assert ledger.spend(1.0, ONE).tolist() == [True]
        assert ledger.lots.tolist() == [[0.0, 0.0, 0.5]]

    def test_round_validation(self):
        with pytest.raises(ValueError):
            TokenLedger(1, FreshnessPolicy()).expire(0, ONE)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            FreshnessPolicy(n=0)


class TestParticipationLog:
    def test_rounds_strictly_increase(self):
        ledger = TokenLedger(1, COUNTED)
        ledger.credit(0.0, 1, ONE)
        with pytest.raises(ValueError):
            ledger.credit(0.0, 1, ONE)


class TestLanes:
    def test_operations_touch_only_their_lanes(self):
        ledger = TokenLedger(3, CALENDAR)
        ledger.credit(np.array([1.0, 0.5, 2.0]), 1, np.array([True, True, False]))
        assert ledger.participations.tolist() == [1, 1, 0]
        assert ledger.spend(1.0, np.array([True, True, True])).tolist() == [True, False, False]
        assert ledger.balance().tolist() == [0.0, 0.5, 0.0]
        # At round 3 lane 1's lot is past the window, but lane 1 is not listed.
        ledger.credit(0.0, 2, np.array([False, False, False]))
        assert ledger.expire(3, np.array([True, False, True])).tolist() == [0.0, 0.0, 0.0]
        assert ledger.balance().tolist() == [0.0, 0.5, 0.0]

    def test_integer_mask_credit_refused_and_books_nothing(self):
        # As row indices, [1, 0] would shift lane 1's lots and double its
        # balance although it did not participate.
        ledger = TokenLedger(2, FreshnessPolicy(n=2, counts_participated_only=True))
        ledger.credit(2.0, 1, np.array([True, True]))
        with pytest.raises(TypeError, match="boolean mask, got dtype int"):
            ledger.credit(np.array([5.0, 7.0]), 2, np.array([1, 0]))
        assert ledger.lots.tolist() == [[0.0, 0.0, 0.0, 2.0]] * 2
        assert ledger.participations.tolist() == [1, 1]
        # Lane 1 sits the round out: its row does not move.
        ledger.credit(np.array([5.0, 7.0]), 2, np.array([True, False]))
        assert ledger.lots.tolist() == [[0.0, 0.0, 2.0, 5.0], [0.0, 0.0, 0.0, 2.0]]

    @pytest.mark.parametrize("lanes", [np.array([1, 0]), np.array([1.0, 0.0]), [True, False]],
                             ids=["int", "float", "list"])
    @pytest.mark.parametrize("step", ["expire", "credit", "spend"])
    def test_non_boolean_mask_refused_and_changes_nothing(self, step, lanes):
        ledger = TokenLedger(2, CALENDAR)
        ledger.credit(1.0, 1, np.array([True, True]))
        call = {"expire": lambda: ledger.expire(2, lanes),
                "credit": lambda: ledger.credit(1.0, 2, lanes),
                "spend": lambda: ledger.spend(0.5, lanes)}[step]
        with pytest.raises(TypeError, match="lanes must be a boolean mask"):
            call()
        assert ledger.lots.tolist() == [[0.0, 1.0], [0.0, 1.0]]
        assert ledger.participations.tolist() == [1, 1]

    @pytest.mark.parametrize("lanes", [np.array([True]), np.ones(4, dtype=bool),
                                       np.ones((3, 1), dtype=bool)],
                             ids=["one", "four", "column"])
    @pytest.mark.parametrize("policy", [CALENDAR, None], ids=["calendar", "baseline"])
    @pytest.mark.parametrize("step", ["expire", "credit", "spend"])
    def test_mask_of_another_shape_refused_and_changes_nothing(self, step, policy, lanes):
        # A one-lane mask would broadcast: credit would credit all three
        # lanes, spend make all three pay and expire empty every oldest lot.
        every = np.ones(3, dtype=bool)
        ledger = TokenLedger(3, policy, None if policy else 3)
        ledger.credit(1.0, 1, every)
        ledger.credit(np.array([0.5, 0.25, 2.0]), 2, every)
        lots = ledger.lots.tolist()
        call = {"expire": lambda: ledger.expire(3, lanes),
                "credit": lambda: ledger.credit(1.0, 3, lanes),
                "spend": lambda: ledger.spend(0.5, lanes)}[step]
        with pytest.raises(ValueError, match=r"mask of shape \(3,\), got shape"):
            call()
        assert ledger.lots.tolist() == lots
        assert ledger.participations.tolist() == [2, 2, 2]
        ledger.expire(3, every)  # round 3 is still the next one
        ledger.credit(0.0, 3, every)


def stepped(ledger, rounds):
    """`ledger` after crediting no lane in each of `rounds`."""
    for r in rounds:
        ledger.credit(0.0, r, np.zeros(len(ledger.lots), dtype=bool))
    return ledger


def one_player(model_clock=0, earn=1.0):
    players = Players.start([15.0], [earn], MechanismParams())
    players.model_clock[:] = model_clock
    return players


def priced_round(players, t, result, owned):
    """price_rounds of round t's (expired, participated, bought), the
    owned model bought at round `owned`."""
    _, participated, bought = result
    return price_rounds(participated[None], bought[None], players.cost, value_table(t), t, owned)


class TestModelAgeAndEviction:
    def test_fresh_model_never_evicts(self):
        players = one_player(model_clock=4)
        play_round(players, stepped(TokenLedger(1, CALENDAR), range(1, 5)), 5, 1.0,
                   value_table(5))
        assert not players.evicted[0]

    def test_stale_and_broke_evicts(self):
        players = one_player(model_clock=1)
        ledger = stepped(TokenLedger(1, CALENDAR), range(1, 3))
        result = play_round(players, ledger, 3, 1.0, value_table(3))
        assert players.evicted[0]
        assert [a.tolist() for a in result] == [[0.0], [False], [False]]
        assert priced_round(players, 3, result, 1)[0][0] == 0.0

    def test_stale_but_solvent_survives(self):
        players = one_player(model_clock=1)
        ledger = stepped(TokenLedger(1, CALENDAR), [1])
        ledger.credit(1.0, 2, ONE)
        result = play_round(players, ledger, 3, 1.0, value_table(4))
        assert [a.tolist() for a in result] == [[0.0], [False], [True]]
        assert not players.evicted[0]
        payoff, owned = priced_round(players, 3, result, 1)
        assert owned[0] == 3
        assert payoff[0] == value(3) - value(1)
        assert play_round(players, ledger, 4, 1.0, value_table(4))[1][0]

    def test_future_model_rejected(self):
        with pytest.raises(ValueError):
            model_age(5, 4)

    def test_participated_counting_age(self):
        # Participations at rounds 1, 2 and 5, the model bought at round 2.
        ledger = TokenLedger(1, COUNTED)
        for r in (1, 2):
            ledger.credit(0.0, r, ONE)
        owned = ledger.clock(2).copy()
        stepped(ledger, (3, 4)).credit(0.0, 5, ONE)
        assert model_age(owned, ledger.clock(9)).tolist() == [1]
        stepped(ledger, [6]).credit(0.0, 7, ONE)
        assert model_age(owned, ledger.clock(9)).tolist() == [2]


class TestClosedLoop:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_acceptable_budget_never_starves_or_wastes(self, n, k):
        params = MechanismParams(C=n * k, n=n)
        ledger = TokenLedger(1, FreshnessPolicy(n=n))
        for r in range(1, 101):
            assert ledger.expire(r, ONE).tolist() == [0.0]
            ledger.credit(reward(params.eps_a, params), r, ONE)
            if r % n == 0:
                assert ledger.spend(params.C, ONE).tolist() == [True]
                assert ledger.balance().tolist() == [0.0]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_low_budget_starves_at_first_window_purchase(self, n):
        params = MechanismParams(C=n, n=n)
        ledger = TokenLedger(1, FreshnessPolicy(n=n))
        eps = 10.0
        assert reward(eps, params) < params.C / params.n
        for r in range(1, n + 1):
            assert ledger.expire(r, ONE).tolist() == [0.0]
            ledger.credit(reward(eps, params), r, ONE)
        assert ledger.spend(params.C, ONE).tolist() == [False]


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
        # No policy and a slot per round: nothing expires or shifts out.
        # Each op is one round, and a spend round credits no lane.
        ledger = TokenLedger(1, None, slots=len(ops) + 1)
        expected = 0.0
        for r, (op, amount) in enumerate(ops, start=1):
            if op == "credit":
                ledger.credit(amount, r, ONE)
                expected += amount
                continue
            ledger.credit(0.0, r, NONE)
            if ledger.spend(amount, ONE)[0]:
                expected -= amount
        assert ledger.balance()[0] == pytest.approx(expected, abs=1e-9)
