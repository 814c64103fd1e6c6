"""The lane game against a scalar oracle.

engine.play_game plays every client of a run, and strategy.nash_check
every budget of an equilibrium scan, as lanes of strategy.play_rounds,
one array-backed strategy.play_round a round over a TokenLedger. The
oracle here plays the same rules one client at a time over a list of
token lots, the way the game reads on paper. Every cell of the played
game's columns, every final player and every ledger balance must agree
bit for bit.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tokenfl import strategy
from tokenfl.economy import FreshnessPolicy, TokenLedger
from tokenfl.engine import (
    BASELINE_PRICE,
    COLUMNS,
    MECHANISMS,
    SimConfig,
    play_game,
)
from tokenfl.mechanisms import (
    MechanismParams,
    baseline_token_reward,
    cost,
    reward,
    value,
    value_table,
)
from tokenfl.presets import PRESETS
from tokenfl.strategy import PRICE_BLOCK, Players, nash_check, play_round, price_rounds

COST_RANGES = [(2.75, 18.0), (0.0, 1.0), (0.0, 0.0)]


class ScalarClient:
    """One client of the oracle: lots are [amount, round earned]."""

    def __init__(self, eps):
        self.eps = eps
        self.owned = 0
        self.evicted = False
        self.stopped = False
        self.payoff = 0.0
        self.lots = []
        self.rounds = []  # participated rounds

    def balance(self):
        return sum((amount for amount, _ in self.lots), 0.0)

    def age(self, stamp, t, counted):
        if counted:
            return sum(1 for p in self.rounds if stamp < p <= t)
        return t - stamp

    def expire(self, t, window, counted):
        lost, kept = 0.0, []
        for lot in self.lots:
            if self.age(lot[1], t, counted) > window:
                lost += lot[0]
            else:
                kept.append(lot)
        self.lots = kept
        return lost

    def credit(self, amount, t):
        self.rounds.append(t)
        self.lots.append([amount, t])

    def spend(self, price):
        """Pay oldest lots first; pay nothing when the balance falls short."""
        if self.balance() < price:
            return False
        remaining = float(price)
        for lot in self.lots:
            if remaining <= 0:
                break
            take = min(lot[0], remaining)
            lot[0] -= take
            remaining -= take
        return True


def scalar_utility(t, eps, stride, params):
    """The paper's participation utility, written out apart from
    mechanisms.utility so that the oracle does not share its code."""
    return value(t + stride) - value(t) - cost(eps, params)


def scalar_round(c, t, params, earn, price, window, counted, scheduled, stride):
    """One round of one client; window None is the baseline scheme.
    Returns (expired, participated, bought)."""
    expired, age, bar = 0.0, 0, 0
    if window is not None:
        expired = c.expire(t, window, counted)
        age, bar = c.age(c.owned, t, counted), window
    if scheduled and age > bar and c.balance() < price:
        c.evicted = True
        return expired, False, False
    participated = scheduled and age <= bar and not c.stopped
    if participated and stride is not None:
        participated = scalar_utility(t, c.eps, stride, params) >= 0.0
        c.stopped = not participated
    if participated:
        c.credit(earn, t)
        if counted:
            age += 1
    bought, gain = False, 0.0
    if age >= bar and c.spend(price):
        bought, gain = True, value(t) - value(c.owned)
        c.owned = t
    c.payoff += (gain if bought else 0.0) - (cost(c.eps, params) if participated else 0.0)
    return expired, participated, bought


def scalar_game(config):
    """Rows of every round, then (payoff, owned model round) per client."""
    params = config.params
    baseline = config.mechanism == "baseline"
    price = BASELINE_PRICE if baseline else float(params.C)
    window = None if baseline else params.n
    counted = params.G > 1
    stride = None if baseline else params.G
    clients = [ScalarClient(e) for e in config.client_eps()]
    rounds = []
    for t in range(1, config.horizon + 1):
        rows = []
        for k, c in enumerate(clients):
            earn = expired = 0.0
            scheduled = participated = bought = False
            if not c.evicted:
                earn = (baseline_token_reward if baseline else reward)(c.eps, params)
                scheduled = k // (config.clients // params.G) == (t - 1) % params.G
                expired, participated, bought = scalar_round(
                    c, t, params, earn, price, window, counted, scheduled, stride
                )
            rows.append((
                scheduled, participated, bought, c.evicted,
                earn if participated else 0.0, price if bought else 0.0, expired, c.balance(),
                None if baseline else scalar_utility(t, c.eps, params.G, params),
            ))
        rounds.append(rows)
    return rounds, [(c.payoff, c.owned) for c in clients]


def scalar_trajectory(eps, horizon, params):
    c = ScalarClient(eps)
    participated = 0
    for t in range(1, horizon + 1):
        trained = scalar_round(c, t, params, reward(eps, params), params.C, params.n,
                               False, True, None)[1]
        if c.evicted:
            break
        participated += trained
    return c.payoff, participated


def priced(budgets, horizon, params):
    """nash_check's (payoff, participated rounds) of each budget: every
    budget is in the grid, and each is a deviation of a client whose
    profile budget, eps_min or eps_max, differs from it."""
    grid = {*budgets, params.eps_min, params.eps_a, params.eps_max}
    report = nash_check([params.eps_min, params.eps_max], grid, horizon, params)
    found = {d.eps: (d.payoff, d.participated_rounds) for d in report.deviations}
    return [found[float(e)] for e in budgets]


def bits(values):
    """Floats as their exact hex spelling, everything else as is."""
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


@st.composite
def games(draw):
    mechanism = draw(st.sampled_from(MECHANISMS))
    n = draw(st.integers(1, 3))
    G = draw(st.integers(1, 3)) if mechanism == "strategic" else 1
    c_min, c_max = draw(st.sampled_from(COST_RANGES))
    params = MechanismParams(C=n * draw(st.integers(1, 3)), n=n, G=G, c_min=c_min, c_max=c_max)
    clients = G * draw(st.integers(1, 3))
    eps = draw(st.lists(st.floats(1.0, 25.0), min_size=clients, max_size=clients))
    return SimConfig(mechanism=mechanism, clients=clients, params=params, eps=eps,
                     horizon=draw(st.integers(0, 40)))


@settings(max_examples=150, deadline=None)
@given(games())
def test_lane_game_equals_the_scalar_oracle(config):
    columns, lanes = play_game(config)
    rounds, players = scalar_game(config)
    assert columns["eps"].tolist() == [config.client_eps()] * config.horizon
    # The oracle's columns; NaN is a utility with no value.
    cells = [columns[name].tolist() for name in list(COLUMNS)[1:]]
    assert [len(column) for column in cells] == [config.horizon] * len(cells)
    for t, want in enumerate(rounds):
        got = zip(*(column[t] for column in cells), strict=True)
        assert [
            bits(None if v != v else v for v in row) for row in got
        ] == [bits(row) for row in want]
    payoff, _ = price_rounds(columns["participated"], columns["bought"], lanes.cost,
                             value_table(config.horizon))
    assert [bits(p) for p in zip(payoff.tolist(), last_purchase(columns["bought"]))] == [
        bits(p) for p in players
    ]


def last_purchase(bought):
    """Each lane's latest purchase round in a (rounds, lanes) mask, or 0."""
    rounds = np.arange(1, len(bought) + 1)[:, None]
    return (bought * rounds).max(axis=0, initial=0).tolist()


def test_refusing_grouped_game_prices_as_the_scalar_oracle():
    # Two groups of two; eps 25 and 23 refuse on utility at stride 2, and
    # the horizon spans three pricing blocks. Priced whole or a block at
    # a time, every lane's payoff is the oracle's float.
    params = MechanismParams(G=2)
    config = SimConfig(clients=4, params=params, eps=[25.0, 15.0, 23.0, 20.0],
                       horizon=2 * PRICE_BLOCK + 1)
    columns, lanes = play_game(config)
    _, players = scalar_game(config)
    refused = columns["scheduled"] & ~columns["participated"] & ~columns["evicted"]
    assert refused[:, [0, 2]].any(axis=0).all()
    values = value_table(config.horizon)
    whole = price_rounds(columns["participated"], columns["bought"], lanes.cost, values)
    payoff, owned = 0.0, 0
    for first in range(1, config.horizon + 1, PRICE_BLOCK):
        rows = slice(first - 1, first - 1 + PRICE_BLOCK)
        payoff, owned = price_rounds(columns["participated"][rows], columns["bought"][rows],
                                     lanes.cost, values, first, owned, payoff)
    want = [bits(p) for p in players]
    assert [bits(p) for p in zip(*(a.tolist() for a in whole))] == want
    assert [bits(p) for p in zip(payoff.tolist(), owned.tolist())] == want
    assert owned.tolist() == last_purchase(columns["bought"])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(1.0, 25.0), min_size=1, max_size=6),
    st.integers(1, 60),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from(COST_RANGES),
)
def test_budget_lanes_equal_the_scalar_oracle(budgets, horizon, n, k, costs):
    params = MechanismParams(C=n * k, n=n, c_min=costs[0], c_max=costs[1])
    want = [scalar_trajectory(e, horizon, params) for e in budgets]
    assert [bits(pair) for pair in priced(budgets, horizon, params)] == [bits(w) for w in want]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ledger_equals_the_scalar_lots(data):
    """Arbitrary credits and spends, one round after another, so lots of
    many sizes are live at once and the order of every sum shows. Each
    lane's row holds the oracle's lots placed by age, the newest last.
    Without a policy nothing expires, and a credit that would shift out
    a lot still holding tokens must raise instead."""
    n, counted = data.draw(st.integers(1, 3)), data.draw(st.booleans())
    lanes = data.draw(st.integers(1, 4))
    masks = st.lists(st.booleans(), min_size=lanes, max_size=lanes)
    if data.draw(st.booleans()):
        ledger = TokenLedger(lanes, FreshnessPolicy(n=n, counts_participated_only=counted))
    else:
        ledger, counted = TokenLedger(lanes, None, data.draw(st.integers(1, 5))), False
    clients = [ScalarClient(None) for _ in range(lanes)]
    for t in range(1, data.draw(st.integers(1, 30)) + 1):
        lost = ledger.expire(t, np.ones(lanes, dtype=bool))
        if ledger.policy is None:
            assert lost.tolist() == [0.0] * lanes
        else:
            assert bits(lost.tolist()) == bits(c.expire(t, n, counted) for c in clients)
        joins = data.draw(masks)
        amounts = data.draw(st.lists(st.floats(0.0, 3.0), min_size=lanes, max_size=lanes))
        if ledger.policy is None and any(
            amount and t - earned >= ledger.slots for c in clients for amount, earned in c.lots
        ):
            with pytest.raises(ValueError, match="overwrite"):
                ledger.credit(np.array(amounts), t, np.array(joins))
            return
        ledger.credit(np.array(amounts), t, np.array(joins))
        for c, joined, amount in zip(clients, joins, amounts):
            if joined:
                c.credit(amount, t)
        price, wants = data.draw(st.floats(0.0, 6.0)), data.draw(masks)
        paid = ledger.spend(price, np.array(wants))
        assert paid.tolist() == [w and c.spend(price) for c, w in zip(clients, wants)]
        assert bits(ledger.balance().tolist()) == bits(c.balance() for c in clients)
        for row, c in zip(ledger.lots.tolist(), clients):
            by_age = [0.0] * ledger.slots
            for amount, earned in c.lots:
                age = c.age(earned, t, counted)
                if age < ledger.slots:
                    by_age[ledger.slots - 1 - age] = amount
                else:  # shifted out, drained
                    assert amount == 0.0
            assert bits(row) == bits(by_age)


def every_round(config):
    """play_game's played columns and final lanes of an ungrouped
    strategic config, from a loop that plays every round of the horizon
    with play_round, also those after the last eviction."""
    params, eps = config.params, config.client_eps()
    players = Players.start(eps, [reward(e, params) for e in eps], params)
    ledger = TokenLedger(config.clients, FreshnessPolicy(params.n))
    values, price = value_table(config.horizon + params.G), float(params.C)
    rows = []
    balance, playing = np.zeros(config.clients), np.ones(config.clients, dtype=bool)
    for t in range(1, config.horizon + 1):
        expired, participated, bought = play_round(players, ledger, t, price, values, True, params.G)
        np.copyto(balance, ledger.balance(), where=playing)
        rows.append({
            "scheduled": playing, "participated": participated, "bought": bought,
            "evicted": players.evicted.copy(), "earned": np.where(participated, players.earn, 0.0),
            "spent": np.where(bought, price, 0.0), "expired": expired, "balance": balance.copy(),
        })
        playing = ~players.evicted
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}, players


@pytest.mark.parametrize("name", ["strategic-10c-eps25", "strategic-3c-eps25"])
def test_game_stops_after_the_last_eviction(name, monkeypatch):
    # Every client of these presets is evicted in round 12 of 50. The
    # rows of the rounds not played are those a played round records.
    config, played = PRESETS[name], []
    original = strategy.play_round
    monkeypatch.setattr(strategy, "play_round", lambda *args: played.append(args[2]) or original(*args))
    columns, lanes = play_game(config)
    assert played == list(range(1, 13))
    want, want_lanes = every_round(config)
    assert want["evicted"][11].all() and not want["evicted"][10].all()
    for column, cells in want.items():
        assert columns[column].dtype == cells.dtype, column
        assert columns[column].tobytes() == cells.tobytes(), column
    for f in fields(Players):
        got, expected = getattr(lanes, f.name), getattr(want_lanes, f.name)
        assert (got.dtype, got.tobytes()) == (expected.dtype, expected.tobytes()), f.name
