"""Token ledger behavior: the terms a ledger is built with, FIFO
spending, expiry windows, the eviction rule of a round, lanes kept
apart, and the closed loop that makes the acceptable budget
self-sustaining. Ledgers hold one lane unless a test says otherwise."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tokenfl.economy import FreshnessPolicy, TokenLedger, model_age
from tokenfl.mechanisms import MechanismParams, reward, value, value_table
from tokenfl.strategy import Players, play_round, price_rounds

ONE = np.array([True])
NONE = np.array([False])
CALENDAR = FreshnessPolicy(n=1)
COUNTED = FreshnessPolicy(n=1, counts_participated_only=True)


def ledger_of(earn=1.0, price=1.0, policy=CALENDAR, slots=None):
    """A one-lane ledger earning `earn` a participated round."""
    return TokenLedger([earn], price, policy, slots)


class TestTerms:
    """Each lane's earn and the model price are checked once, when the
    ledger is built, and fixed for good."""

    @pytest.mark.parametrize("earn", [
        *([1.0, bad] for bad in (math.nan, math.inf, -math.inf, -1.0, -0.1, -0.0)),
        [math.nan, math.nan], [math.nan, 1.0], [math.inf, math.inf], [math.inf, 1.0],
        np.frombuffer(np.array([1.0, math.nan]).tobytes()),  # read-only, checked all the same
    ])
    def test_bad_earn_refused(self, earn):
        # Also in a lane that may never participate: an infinite lot
        # would pay any finite price forever.
        with pytest.raises(ValueError, match=r"^earn must be finite and >= 0, got \["):
            TokenLedger(earn, 1.0, CALENDAR)

    @pytest.mark.parametrize("earn", [[], 1.0, [[1.0, 1.0]]], ids=["empty", "scalar", "2-d"])
    def test_one_earn_per_lane_required(self, earn):
        # A scalar earn would broadcast to every lane a mask names.
        with pytest.raises(ValueError, match="one earn per lane"):
            TokenLedger(earn, 1.0, CALENDAR)

    @pytest.mark.parametrize("price", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_price_refused(self, price):
        with pytest.raises(ValueError, match=r"^price must be finite and >= 0, got"):
            TokenLedger([1.0], price, CALENDAR)

    def test_earn_cannot_be_made_writable(self):
        ledger = TokenLedger([1.0, 1.0], 1.0, CALENDAR)
        with pytest.raises(ValueError):
            ledger.earn.flags.writeable = True
        with pytest.raises(ValueError):
            ledger.earn[0] = math.nan
        assert ledger.earn.dtype == np.float64 and ledger.earn.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("kind", ["list", "writable", "read-only once"])
    def test_earn_is_a_private_copy(self, kind):
        # What the caller passed may change later, a read-only array too
        # once its flag is cleared again: the ledger's credits do not.
        earn = [1.0, 2.0] if kind == "list" else np.array([1.0, 2.0])
        if kind == "read-only once":
            earn.flags.writeable = False
        ledger, both = TokenLedger(earn, 1.0, FreshnessPolicy(n=3)), np.array([True, True])
        ledger.credit(1, both)
        if kind == "read-only once":
            earn.flags.writeable = True
        earn[1] = np.nan
        ledger.credit(2, both)
        assert ledger.balance().tolist() == [2.0, 4.0]
        earn[0] = 5.0
        ledger.credit(3, both)
        assert ledger.balance().tolist() == [3.0, 6.0]
        assert ledger.earn.tolist() == [1.0, 2.0]


class TestLots:
    def test_round_zero_rejected(self):
        with pytest.raises(ValueError):
            ledger_of().credit(0, ONE)

    def test_no_policy_needs_a_slot_count(self):
        with pytest.raises(ValueError):
            ledger_of(policy=None)

    @pytest.mark.parametrize("slots", [2, 3, 4])
    def test_a_policy_and_a_slot_count_rejected(self, slots):
        # The policy sets the slots: fewer would drop a live lot, more
        # would never be reached by expiry.
        with pytest.raises(ValueError, match="slot count"):
            ledger_of(policy=FreshnessPolicy(n=2), slots=slots)


class TestCredit:
    def test_single_credit_balance(self):
        ledger = ledger_of()
        ledger.credit(1, ONE)
        assert ledger.balance().tolist() == [1.0]

    def test_zero_credit_is_identity(self):
        # On the round clock a lane that sits a round out gets a 0.0 lot.
        ledger = ledger_of()
        ledger.credit(1, ONE)
        ledger.credit(2, NONE)
        assert ledger.balance().tolist() == [1.0]

    def test_share_credits_accumulate_to_full_price(self):
        params = MechanismParams(C=3, n=3)
        ledger = ledger_of(reward(params.eps_a, params), params.C, FreshnessPolicy(n=params.n))
        for r in range(1, params.n + 1):
            ledger.credit(r, ONE)
        assert ledger.balance().tolist() == [params.C]

    def test_rounds_must_arrive_in_order(self):
        ledger = ledger_of()
        for r in range(1, 6):
            ledger.credit(r, ONE if r == 5 else NONE)
        with pytest.raises(ValueError):
            ledger.credit(5, ONE)

    def test_credit_never_overwrites_tokens(self):
        # Without expiry the third credit shifts the round-1 lot out of two slots.
        ledger = ledger_of(policy=None, slots=2)
        ledger.credit(1, ONE)
        ledger.credit(2, ONE)
        with pytest.raises(ValueError, match="overwrite"):
            ledger.credit(3, ONE)

    def test_one_slot_balance_is_a_copy(self):
        ledger = ledger_of(2.0, policy=None, slots=1)
        ledger.credit(1, ONE)
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
        ledger = ledger_of(policy=policy, slots=None if policy else 3)
        for r in (1, 2):
            ledger.credit(r, ONE)
        lots = ledger.lots.tolist()
        for step in (lambda: ledger.credit(t, ONE), lambda: ledger.expire(t, ONE)):
            with pytest.raises(ValueError, match=f"round {t} is not the round after"):
                step()
        assert ledger.lots.tolist() == lots
        assert ledger.participations.tolist() == [2]
        ledger.expire(3, ONE)
        ledger.credit(3, ONE)


class TestReplay:
    """A round played from a ledger's state books the same on any ledger
    in that state, so `replay` books a recorded one without playing it."""

    def test_state_is_the_lots_and_each_lanes_model_age(self):
        ledger = TokenLedger([1.0, 2.0], 1.0, CALENDAR)
        ledger.credit(1, np.array([True, False]))
        lanes, clock = np.array([True, False]), np.array([0, 1])
        lots = ledger.lots.tobytes()
        assert ledger.state(2, clock, lanes) == lots + np.array([2, 0]).tobytes()
        # Without a policy no age is read.
        baseline = TokenLedger([1.0, 2.0], 1.0, None, 3)
        assert baseline.state(2, np.array([5, 0]), lanes) == baseline.lots.tobytes()
        # model_age refuses a model newer than the clock, also a lane's not listed.
        assert ledger.state(2, np.array([0, 3]), lanes) == lots + np.array([2, -1]).tobytes()
        assert ledger.state(2, np.array([3, 0]), lanes) == lots + np.array([-1, 0]).tobytes()

    @pytest.mark.parametrize("policy", [CALENDAR, COUNTED])
    def test_replay_books_the_recorded_round(self, policy):
        played, replayed = (TokenLedger([1.0, 0.5], 1.0, policy) for _ in range(2))
        lanes = np.array([True, True])
        for ledger in (played, replayed):
            ledger.credit(1, lanes)
        played.expire(2, lanes)
        played.credit(2, np.array([True, False]))
        played.spend(lanes)
        replayed.replay(2, played.lots.copy(), np.array([True, False]))
        assert replayed.lots.tobytes() == played.lots.tobytes()
        assert replayed.participations.tolist() == played.participations.tolist() == [2, 1]
        assert replayed.balance().tobytes() == played.balance().tobytes()
        replayed.expire(3, lanes)  # round 3 is the next one

    @pytest.mark.parametrize("t", [1, 3])
    def test_replay_refuses_any_other_round_and_books_nothing(self, t):
        ledger = ledger_of()
        ledger.credit(1, ONE)
        lots = ledger.lots.tolist()
        with pytest.raises(ValueError, match=f"round {t} is not the round after"):
            ledger.replay(t, np.zeros_like(ledger.lots), ONE)
        with pytest.raises(ValueError, match="lots must have shape"):
            ledger.replay(2, np.zeros(ledger.slots), ONE)
        with pytest.raises(TypeError, match="boolean mask"):
            ledger.replay(2, np.zeros_like(ledger.lots), np.array([1]))
        assert ledger.lots.tolist() == lots
        assert ledger.participations.tolist() == [1]


class TestSpend:
    def test_exact_spend_empties_balance(self):
        ledger = ledger_of()
        ledger.credit(1, ONE)
        assert ledger.spend(ONE).tolist() == [True]
        assert ledger.balance().tolist() == [0.0]

    def test_shortfall_raises_and_leaves_ledger_untouched(self):
        # A lane whose balance cannot cover the price does not pay.
        ledger = ledger_of(0.9)
        ledger.credit(1, ONE)
        assert ledger.spend(ONE).tolist() == [False]
        assert ledger.balance().tolist() == [0.9]
        assert ledger.lots.tolist() == [[0.0, 0.9]]

    def test_fifo_consumption_traced_by_hand(self):
        ledger = ledger_of(0.6)
        ledger.credit(1, ONE)
        ledger.credit(2, ONE)
        ledger.spend(ONE)
        assert ledger.lots.tolist() == [[0.0, pytest.approx(0.2)]]


class TestExpire:
    def test_stale_lot_removed(self):
        ledger = ledger_of()
        ledger.credit(1, ONE)
        ledger.credit(2, NONE)
        lost = ledger.expire(3, ONE)
        assert lost.tolist() == [1.0]
        assert ledger.balance().tolist() == [0.0]

    def test_lot_within_window_kept(self):
        ledger = ledger_of(policy=FreshnessPolicy(n=3))
        ledger.credit(1, ONE)
        lost = ledger.expire(2, ONE)
        assert lost.tolist() == [0.0]
        assert ledger.balance().tolist() == [1.0]

    def test_calendar_lot_outlives_a_short_gap_and_expires_after_a_long_one(self):
        # Credits at rounds 1 and 3, half the round-1 lot spent, leave
        # that lot two columns from the end. With no credit from round 4
        # on, each lot is dropped by expiry in the round it turns
        # n + 1 = 4 rounds old.
        ledger = ledger_of(price=0.5, policy=FreshnessPolicy(n=3))
        ledger.credit(1, ONE)
        ledger.spend(ONE)
        ledger.credit(2, NONE)
        ledger.credit(3, ONE)
        lost = []
        for r in range(4, 9):
            lost.append(ledger.expire(r, ONE)[0])
            if r == 4:
                assert ledger.lots.tolist() == [[0.0, 0.5, 0.0, 1.0]]
            ledger.credit(r, NONE)
        assert lost == [0.0, 0.5, 0.0, 1.0, 0.0]
        assert ledger.expire(9, ONE).tolist() == [0.0]
        ledger.credit(9, ONE)
        assert ledger.lots.tolist() == [[0.0, 0.0, 0.0, 1.0]]

    def test_participated_counting_ignores_skipped_rounds(self):
        # A lot earned at a participated round survives four calendar
        # rounds of sitting out plus one more participated round when
        # only participated rounds age it, even with the tightest window.
        ledger = ledger_of(policy=COUNTED)
        ledger.credit(1, ONE)
        for r in range(2, 7):
            assert ledger.expire(r, ONE).tolist() == [0.0]
            ledger.credit(r, ONE if r == 6 else NONE)
        lost = ledger.expire(7, ONE)
        assert lost.tolist() == [0.0]
        assert ledger.lots.tolist() == [[0.0, 1.0, 1.0]]

    def test_participated_counting_still_expires(self):
        # Participations at rounds 1, 3 and 5 age the round-1 lot to
        # n + 1 = 2 participated rounds, past the window.
        ledger = ledger_of(policy=COUNTED)
        ledger.credit(1, ONE)
        for r in range(2, 6):
            ledger.credit(r, ONE if r % 2 else NONE)
        assert ledger.expire(6, ONE).tolist() == [1.0]

    def test_participated_counting_spends_the_aged_lot_in_its_last_round(self):
        # The third participation ages the round-1 lot past the window,
        # yet it stays spendable until the next expiry: three live lots
        # for n = 1, which is why the ledger has n + 2 slots here.
        ledger = ledger_of(0.5, policy=COUNTED)
        for r in (1, 2, 3):
            assert ledger.expire(r, ONE).tolist() == [0.0]
            ledger.credit(r, ONE)
        assert ledger.balance().tolist() == [1.5]
        assert ledger.spend(ONE).tolist() == [True]
        assert ledger.lots.tolist() == [[0.0, 0.0, 0.5]]

    def test_round_validation(self):
        with pytest.raises(ValueError):
            ledger_of(policy=FreshnessPolicy()).expire(0, ONE)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            FreshnessPolicy(n=0)


class TestParticipationLog:
    def test_rounds_strictly_increase(self):
        ledger = ledger_of(0.0, policy=COUNTED)
        ledger.credit(1, ONE)
        with pytest.raises(ValueError):
            ledger.credit(1, ONE)


class TestLanes:
    def test_operations_touch_only_their_lanes(self):
        ledger = TokenLedger([1.0, 0.5, 2.0], 1.0, CALENDAR)
        ledger.credit(1, np.array([True, True, False]))
        assert ledger.participations.tolist() == [1, 1, 0]
        assert ledger.spend(np.array([True, True, True])).tolist() == [True, False, False]
        assert ledger.balance().tolist() == [0.0, 0.5, 0.0]
        # At round 3 lane 1's lot is past the window, but lane 1 is not listed.
        ledger.credit(2, np.array([False, False, False]))
        assert ledger.expire(3, np.array([True, False, True])).tolist() == [0.0, 0.0, 0.0]
        assert ledger.balance().tolist() == [0.0, 0.5, 0.0]

    def test_integer_mask_credit_refused_and_books_nothing(self):
        # As row indices, [1, 0] would shift lane 1's lots and double its
        # balance although it did not participate.
        ledger = TokenLedger([2.0, 7.0], 1.0, FreshnessPolicy(n=2, counts_participated_only=True))
        ledger.credit(1, np.array([True, True]))
        with pytest.raises(TypeError, match="boolean mask, got dtype int"):
            ledger.credit(2, np.array([1, 0]))
        assert ledger.lots.tolist() == [[0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 0.0, 7.0]]
        assert ledger.participations.tolist() == [1, 1]
        # Lane 1 sits the round out: its row does not move.
        ledger.credit(2, np.array([True, False]))
        assert ledger.lots.tolist() == [[0.0, 0.0, 2.0, 2.0], [0.0, 0.0, 0.0, 7.0]]

    @pytest.mark.parametrize("lanes", [np.array([1, 0]), np.array([1.0, 0.0]), [True, False]],
                             ids=["int", "float", "list"])
    @pytest.mark.parametrize("step", ["expire", "credit", "spend"])
    def test_non_boolean_mask_refused_and_changes_nothing(self, step, lanes):
        ledger = TokenLedger([1.0, 1.0], 0.5, CALENDAR)
        ledger.credit(1, np.array([True, True]))
        call = {"expire": lambda: ledger.expire(2, lanes),
                "credit": lambda: ledger.credit(2, lanes),
                "spend": lambda: ledger.spend(lanes)}[step]
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
        ledger = TokenLedger([0.5, 0.25, 2.0], 0.5, policy, None if policy else 3)
        ledger.credit(1, every)
        ledger.credit(2, every)
        lots = ledger.lots.tolist()
        call = {"expire": lambda: ledger.expire(3, lanes),
                "credit": lambda: ledger.credit(3, lanes),
                "spend": lambda: ledger.spend(lanes)}[step]
        with pytest.raises(ValueError, match=r"mask of shape \(3,\), got shape"):
            call()
        assert ledger.lots.tolist() == lots
        assert ledger.participations.tolist() == [2, 2, 2]
        ledger.expire(3, every)  # round 3 is still the next one
        ledger.credit(3, every)


def stepped(ledger, rounds):
    """`ledger` after crediting no lane in each of `rounds`."""
    for r in rounds:
        ledger.credit(r, np.zeros(len(ledger.lots), dtype=bool))
    return ledger


def one_player(model_clock=0):
    players = Players.start([15.0], MechanismParams())
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
        play_round(players, stepped(ledger_of(), range(1, 5)), 5, value_table(5))
        assert not players.evicted[0]

    def test_stale_and_broke_evicts(self):
        players = one_player(model_clock=1)
        ledger = stepped(ledger_of(), range(1, 3))
        result = play_round(players, ledger, 3, value_table(3))
        assert players.evicted[0]
        assert [a.tolist() for a in result] == [[0.0], [False], [False]]
        assert priced_round(players, 3, result, 1)[0][0] == 0.0

    def test_stale_but_solvent_survives(self):
        players = one_player(model_clock=1)
        ledger = stepped(ledger_of(), [1])
        ledger.credit(2, ONE)
        result = play_round(players, ledger, 3, value_table(4))
        assert [a.tolist() for a in result] == [[0.0], [False], [True]]
        assert not players.evicted[0]
        payoff, owned = priced_round(players, 3, result, 1)
        assert owned[0] == 3
        assert payoff[0] == value(3) - value(1)
        assert play_round(players, ledger, 4, value_table(4))[1][0]

    def test_future_model_rejected(self):
        with pytest.raises(ValueError):
            model_age(5, 4)

    def test_participated_counting_age(self):
        # Participations at rounds 1, 2 and 5, the model bought at round 2.
        ledger = ledger_of(0.0, policy=COUNTED)
        for r in (1, 2):
            ledger.credit(r, ONE)
        owned = ledger.clock(2).copy()
        stepped(ledger, (3, 4)).credit(5, ONE)
        assert model_age(owned, ledger.clock(9)).tolist() == [1]
        stepped(ledger, [6]).credit(7, ONE)
        assert model_age(owned, ledger.clock(9)).tolist() == [2]


class TestClosedLoop:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_acceptable_budget_never_starves_or_wastes(self, n, k):
        params = MechanismParams(C=n * k, n=n)
        ledger = ledger_of(reward(params.eps_a, params), params.C, FreshnessPolicy(n=n))
        for r in range(1, 101):
            assert ledger.expire(r, ONE).tolist() == [0.0]
            ledger.credit(r, ONE)
            if r % n == 0:
                assert ledger.spend(ONE).tolist() == [True]
                assert ledger.balance().tolist() == [0.0]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_low_budget_starves_at_first_window_purchase(self, n):
        params = MechanismParams(C=n, n=n)
        eps = 10.0
        ledger = ledger_of(reward(eps, params), params.C, FreshnessPolicy(n=n))
        assert reward(eps, params) < params.C / params.n
        for r in range(1, n + 1):
            assert ledger.expire(r, ONE).tolist() == [0.0]
            ledger.credit(r, ONE)
        assert ledger.spend(ONE).tolist() == [False]


class TestConservation:
    @given(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.lists(st.sampled_from(["credit", "spend"]), max_size=40),
    )
    def test_balance_tracks_flows_without_expiry(self, earn, price, ops):
        # No policy and a slot per round: nothing expires or shifts out.
        # Each op is one round, and a spend round credits no lane.
        ledger = ledger_of(earn, price, policy=None, slots=len(ops) + 1)
        expected = 0.0
        for r, op in enumerate(ops, start=1):
            if op == "credit":
                ledger.credit(r, ONE)
                expected += earn
                continue
            ledger.credit(r, NONE)
            if ledger.spend(ONE)[0]:
                expected -= price
        assert ledger.balance()[0] == pytest.approx(expected, abs=1e-9)
