"""Round engine: scheduling, freshness enforcement, purchases,
eviction dynamics, conservation, determinism, agreement with the
equilibrium oracle, the shared read-only model arrays, and the thread
pool the clients of a round run on.

These tests run on small synthetic datasets: token mechanics do not
depend on what the model learns, only on the value/cost curves and the
round bookkeeping.
"""

import multiprocessing
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tokenfl import engine, learning, strategy
from tokenfl.economy import FreshnessPolicy, TokenLedger
from tokenfl.engine import (
    BASELINE_PRICE,
    COLUMNS,
    ConfigError,
    LearningParams,
    SimConfig,
    check_inputs,
    init_state,
    play_game,
    run_round,
    run_simulation,
)
from tokenfl.learning import Dataset, ModelParams, evaluate
from tokenfl.mechanisms import (
    MechanismParams,
    baseline_token_reward,
    predict_collapse_round,
    reward,
    value_table,
)
from tokenfl.strategy import Players, play_rounds, price_rounds

from test_lane_game import priced


def config(**overrides):
    base = dict(
        mechanism="strategic",
        clients=3,
        scheme="identical",
        eps=15,
        learning=LearningParams(batches=5, batch_size=16),
        horizon=4,
        seed=0,
        ldp=True,
        stop_accuracy=None,
    )
    base.update(overrides)
    return SimConfig(**base)


def schedules(lanes, G, horizon=7):
    """The scheduled lane ids of each round play_rounds plays at stride G,
    or True where it passes every lane as True."""
    players = Players.start([15.0] * lanes, [1.0] * lanes, MechanismParams())
    ledger = TokenLedger(lanes, FreshnessPolicy(1, counts_participated_only=G > 1))
    return [s if s is True else np.flatnonzero(s).tolist() for _, s, *_ in
            play_rounds(players, ledger, horizon, 1.0, value_table(horizon + G), G)]


class TestGroupScheduling:
    def test_two_groups_of_five(self):
        rounds = schedules(10, 2)
        assert rounds[0] == [0, 1, 2, 3, 4]
        assert rounds[1] == [5, 6, 7, 8, 9]
        assert rounds[2] == [0, 1, 2, 3, 4]

    def test_period_matches_group_count(self):
        rounds = schedules(10, 2)
        assert rounds[6] == rounds[0]

    def test_single_group_is_everyone(self):
        assert schedules(4, 1, horizon=5) == [True] * 5

    @pytest.mark.parametrize("G", [3, 0])
    def test_validation(self, G, monkeypatch):
        played = []
        monkeypatch.setattr(strategy, "play_round", lambda *args: played.append(args))
        with pytest.raises(ValueError, match=f"G={G} must be >= 1 and divide the lane count 10"):
            schedules(10, G)
        assert played == []  # refused before round 1


class TestSimConfig:
    def test_rejects_unknown_mechanism_and_scheme(self):
        with pytest.raises(ValueError):
            config(mechanism="auction")
        with pytest.raises(ValueError):
            config(scheme="sorted")

    @pytest.mark.parametrize("mechanism", ["strategic", "baseline"])
    def test_groups_must_divide_the_clients(self, mechanism):
        with pytest.raises(ValueError, match="G=2 must divide the client count 3"):
            config(mechanism=mechanism, clients=3, params=MechanismParams(G=2))

    def test_groups_only_under_the_strategic_game(self):
        # The baseline schedules everyone every round: G > 1 would not play.
        with pytest.raises(ValueError, match="baseline schedules every client every round"):
            config(mechanism="baseline", clients=4, params=MechanismParams(G=2))
        assert config(clients=4, params=MechanismParams(G=2)).params.G == 2

    def test_baseline_needs_a_budget_range(self):
        with pytest.raises(ValueError, match="baseline rewards ramp over"):
            config(mechanism="baseline", eps=5,
                   params=MechanismParams(eps_min=5, eps_a=5, eps_max=5))
        config(eps=5, params=MechanismParams(eps_min=5, eps_a=5, eps_max=5))  # no ramp to span

    def test_eps_list_length_checked(self):
        with pytest.raises(ValueError):
            config(eps=[15, 15])

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
    def test_clip_radius_must_be_positive(self, radius):
        with pytest.raises(ValueError, match="clip_radius must be > 0"):
            config(clip_radius=radius)

    def test_no_override_is_the_acceptable_level(self):
        params = MechanismParams(eps_a=12.0)  # not the default 15, so eps_a is what is read
        assert config(clients=10, eps=None, params=params).client_eps() == [12.0] * 10

    @pytest.mark.parametrize("override", [0.5, 26.0])
    def test_override_outside_bounds_rejected(self, override):
        with pytest.raises(ValueError, match=rf"eps override {override} outside \[1.0, 25.0\]"):
            config(eps=override)

    def test_eps_resolution(self):
        assert config(eps=None).client_eps() == [15.0, 15.0, 15.0]
        assert config(eps=20).client_eps() == [20.0, 20.0, 20.0]
        assert config(eps=[25, 15, 1]).client_eps() == [25.0, 15.0, 1.0]

    def test_schedule_and_model_clock_follow_params_G(self):
        # G > 1 schedules groups round robin on the participation clock: a
        # model ages by the rounds its holder plays, so each buy records a
        # count of played rounds. G = 1 schedules everyone on the round.
        columns, players = play_game(config(clients=4, eps=20, horizon=8,
                                            params=MechanismParams(G=2)))
        assert [np.flatnonzero(row).tolist() for row in columns["scheduled"]] == [
            [0, 1], [2, 3]] * 4
        assert players.model_clock.tolist() == columns["participated"].sum(0).tolist() == [4] * 4
        columns, players = play_game(config(horizon=8))
        assert columns["scheduled"].all()
        assert players.model_clock.tolist() == [8] * 3


def blank_split(rows, labels=10, pixels=784):
    """A blank split of `rows` images whose labels cycle through `labels` ids."""
    return Dataset(np.zeros((rows, pixels), np.uint8), np.arange(rows) % labels)


TEST_SPLIT = blank_split(20)

# Inputs each config accepts field by field but no run can use:
# (config overrides, (train, test), exit code, message).
BAD_INPUTS = {
    "wide-pixels": (
        {}, (blank_split(40, pixels=100), blank_split(20, pixels=100)), 1,
        "train-images-idx3-ubyte: images of 100 pixels, but the model takes 784"),
    "test-split-0-rows": ({}, (blank_split(40), blank_split(0)), 1,
                          "t10k-images-idx3-ubyte: 0 test images, but scoring needs at least 2"),
    "test-split-1-row": ({}, (blank_split(40), blank_split(1)), 1,
                         "t10k-images-idx3-ubyte: 1 test images, but scoring needs at least 2"),
    "clients-over-rows": ({"clients": 6}, (blank_split(5), TEST_SPLIT), 2,
                          "config.clients: 6 clients exceed the 5 rows of the train split"),
    # SimConfig refuses more than ten disjoint clients before any data, so
    # a client over the labels needs a train split short of a label.
    "clients-over-labels-disjoint": (
        {"clients": 10, "scheme": "disjoint"}, (blank_split(40, labels=9), TEST_SPLIT), 2,
        "config.clients: 10 clients exceed the 9 labels of the train split, "
        "which the disjoint scheme deals out"),
    # Eleven rows share out five, so clients 5-9 get no shared row, and
    # the label deal leaves some of them no row at all.
    "intermediary-over-half-rows": (
        {"clients": 10, "scheme": "intermediary"}, (blank_split(11), TEST_SPLIT), 2,
        "config.clients: 10 clients exceed the 5 shared rows, half the train split"),
}


class TestCheckInputs:
    @pytest.mark.parametrize("name", BAD_INPUTS)
    def test_refused_before_any_training(self, monkeypatch, name):
        overrides, datasets, exit_code, message = BAD_INPUTS[name]
        calls = []
        monkeypatch.setattr(engine, "local_train", lambda *args: calls.append(args))
        with pytest.raises(ConfigError) as err:
            run_simulation(config(**overrides), datasets)
        assert str(err.value).startswith(message)
        assert err.value.exit_code == exit_code
        assert calls == []

    def test_source_names_the_field(self):
        with pytest.raises(ConfigError, match=r"^preset x\.clients: 6 clients exceed"):
            check_inputs(config(clients=6), (blank_split(5), TEST_SPLIT), source="preset x")

    @pytest.mark.parametrize("overrides,train", [
        ({"clients": 5}, blank_split(5)),
        ({"clients": 10, "scheme": "disjoint"}, blank_split(10)),
        ({"clients": 10, "scheme": "intermediary"}, blank_split(20)),
    ], ids=["a-row-each", "a-label-each", "a-shared-row-each"])
    def test_boundaries_give_every_client_rows(self, overrides, train):
        cfg = config(**overrides)
        state = init_state(cfg, (train, blank_split(2)))
        assert [len(c.part) > 0 for c in state.clients] == [True] * cfg.clients


def run_bytes(run):
    """Every column of a Run, and its global accuracy, as (shape, bytes)."""
    arrays = {**run.columns, "global_accuracy": run.global_accuracy}
    return {name: (a.shape, a.tobytes()) for name, a in arrays.items()}


class TestRunSimulation:
    def test_zero_horizon_records_nothing(self, synthetic_datasets):
        run = run_simulation(config(horizon=0), synthetic_datasets)
        assert run.rounds == 0
        assert [len(c) for c in run.columns.values()] == [0] * (len(COLUMNS) + 1)

    def test_deterministic_replay(self, synthetic_datasets):
        a = run_simulation(config(horizon=3), synthetic_datasets)
        b = run_simulation(config(horizon=3), synthetic_datasets)
        assert a.rounds == 3
        assert run_bytes(a) == run_bytes(b)

    def test_per_round_token_conservation(self, synthetic_datasets):
        params = MechanismParams()
        c = run_simulation(config(horizon=4), synthetic_datasets).columns
        rewards = [[reward(e, params) for e in row] for row in c["eps"].tolist()]
        assert (c["earned"] == np.where(c["participated"], rewards, 0.0)).all()

    def test_acceptable_budget_buys_every_round(self, synthetic_datasets):
        c = run_simulation(config(horizon=4), synthetic_datasets).columns
        assert (c["participated"] & c["bought"] & ~c["evicted"]).all()
        assert (c["balance"] == 0.0).all()
        assert (c["spent"] == 1.0).all()

    def test_identical_buyers_share_local_accuracy(self, synthetic_datasets):
        accuracy = run_simulation(config(horizon=3), synthetic_datasets).columns["local_accuracy"]
        assert accuracy.shape == (3, 3)
        assert (accuracy == accuracy[:, :1]).all()

    def test_stop_accuracy_halts_early(self, synthetic_datasets):
        run = run_simulation(config(horizon=4, stop_accuracy=0.0), synthetic_datasets)
        assert run.rounds == 1
        assert [len(c) for c in run.columns.values()] == [1] * (len(COLUMNS) + 1)

    def test_first_purchase_marks_model_ownership(self, synthetic_datasets):
        cfg = config(horizon=1)
        state = init_state(cfg, synthetic_datasets)
        run_round(state)
        assert state.run.columns["bought"][0].all()
        assert all(c.model is state.server for c in state.clients)
        assert state.round == 1

    def test_init_state_holds_the_full_horizon_unscored(self, synthetic_datasets):
        cfg = config(horizon=3)
        state = init_state(cfg, synthetic_datasets)
        run = state.run
        assert run.rounds == 3
        assert list(run.columns) == [*COLUMNS, "local_accuracy"]
        assert np.isnan(run.global_accuracy).all()
        assert np.isnan(run.columns["local_accuracy"]).all()
        assert run.columns["local_accuracy"].shape == (3, 3)
        run_round(state)
        # Round 1 is scored into row 0; the later rows stay NaN.
        assert not np.isnan(run.global_accuracy[0])
        assert not np.isnan(run.columns["local_accuracy"][0]).any()
        assert np.isnan(run.global_accuracy[1:]).all()
        assert np.isnan(run.columns["local_accuracy"][1:]).all()

    def test_stopped_run_is_the_state_cut_to_its_rounds(self, synthetic_datasets):
        cfg = config(horizon=4, stop_accuracy=0.0)
        state = init_state(cfg, synthetic_datasets)
        run_round(state)
        run = run_simulation(cfg, synthetic_datasets)
        assert run.rounds == state.round == 1
        assert run.global_accuracy.tobytes() == state.run.global_accuracy[:1].tobytes()
        for name, column in state.run.columns.items():
            assert run.columns[name].tobytes() == column[:1].tobytes(), name

    def test_played_columns_are_read_only(self):
        columns, _ = play_game(config(horizon=2))
        for name, column in columns.items():
            assert not column.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            columns["balance"][0, 0] = 1.0

    def test_round_past_the_horizon_is_rejected(self, synthetic_datasets):
        cfg = config(horizon=1)
        state = init_state(cfg, synthetic_datasets)
        run_round(state)
        with pytest.raises(ValueError, match="past the horizon"):
            run_round(state)

    @pytest.mark.parametrize("stop_accuracy", [None, 0.0])
    def test_calls_run_round_once_per_recorded_round(self, synthetic_datasets, monkeypatch,
                                                     stop_accuracy):
        # Callers that time rounds wrap engine.run_round; every round must
        # go through the module attribute.
        calls = []
        original = engine.run_round

        def counting(state):
            calls.append(state.round + 1)
            return original(state)

        monkeypatch.setattr(engine, "run_round", counting)
        run = run_simulation(config(horizon=3, stop_accuracy=stop_accuracy), synthetic_datasets)
        assert calls == list(range(1, run.rounds + 1))
        assert len(calls) == (3 if stop_accuracy is None else 1)


EVICTION = config(eps=25, scheme="disjoint", horizon=14)
GROUPED = config(
    clients=4,
    eps=20,
    horizon=8,
    params=MechanismParams(G=2),
)
BASELINE = config(mechanism="baseline", eps=[25, 15, 1], horizon=10)


@pytest.fixture(scope="module")
def eviction_run(synthetic_datasets):
    return run_simulation(EVICTION, synthetic_datasets)


@pytest.fixture(scope="module")
def grouped_run(synthetic_datasets):
    return run_simulation(GROUPED, synthetic_datasets)


@pytest.fixture(scope="module")
def baseline_run(synthetic_datasets):
    return run_simulation(BASELINE, synthetic_datasets)


@pytest.mark.parametrize("cfg", [EVICTION, GROUPED, BASELINE])
def test_economic_columns_are_the_played_game(synthetic_datasets, cfg):
    """The learning pass leaves every column but local_accuracy as
    play_game, which sees no data, played it."""
    run = run_simulation(cfg, synthetic_datasets)
    columns, _ = play_game(cfg)
    assert run.rounds == cfg.horizon
    assert list(columns) == list(COLUMNS)
    assert list(run.columns) == [*COLUMNS, "local_accuracy"]
    for name, column in columns.items():
        assert run.columns[name].tobytes() == column.tobytes(), name


class TestEvictionDynamics:
    def test_everyone_evicted_after_collapse(self, eviction_run):
        evicted = eviction_run.columns["evicted"]
        assert evicted[-1].all()
        first_evicted = 1 + int(np.flatnonzero(evicted.any(axis=1))[0])
        assert 4 <= first_evicted <= 16

    def test_evicted_never_participate_again(self, eviction_run):
        c = eviction_run.columns
        # Rounds after the one a client was first evicted in.
        after = np.zeros_like(c["evicted"])
        after[1:] = np.logical_or.accumulate(c["evicted"], axis=0)[:-1]
        assert after.any()
        assert not (after & (c["participated"] | c["scheduled"] | c["bought"])).any()

    def test_quit_precedes_eviction(self, eviction_run):
        # Collapse order: a client first declines (negative utility),
        # then its model goes stale with an empty ledger, then it is
        # evicted. There must be a non-participating pre-eviction round.
        c = eviction_run.columns
        assert c["evicted"].any(axis=0).all()
        quit_round = (~c["participated"]).argmax(axis=0)
        evict_round = c["evicted"].argmax(axis=0)
        assert (quit_round < evict_round).all()


def test_refusals_agree_with_the_predicted_collapse_round():
    # Every (C, n) pair of the benchmark's game sweep, at G = 1, 2 and 5,
    # for eps 1..25 over 100 rounds: one game per (pair, G), one lane per
    # (eps, group slot). A case (pair, G, eps) refuses when one of its
    # lanes declines on negative utility before any of them is evicted,
    # and each lane's first refusal falls on its first scheduled round at
    # or after the predicted one, inside [pred, pred + G).
    budgets, horizon = list(range(1, 26)), 100
    kinds = {"refused": [], "evicted": [], "neither": []}

    def first(cells):  # each lane's first round with a cell set, else horizon + 1
        return np.where(cells.any(axis=0), cells.argmax(axis=0) + 1, horizon + 1)

    for C, n in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 3), (4, 2)):
        for G in (1, 2, 5):
            params = MechanismParams(C=C, n=n, G=G)
            columns, _ = play_game(SimConfig(
                clients=G * len(budgets), eps=budgets * G, params=params, horizon=horizon,
            ))
            evicted = columns["evicted"]
            refused = (columns["scheduled"] & ~columns["participated"] & ~evicted
                       & (columns["utility"] < 0))
            first_refusal = first(refused).reshape(G, -1)
            first_eviction = first(evicted).reshape(G, -1)
            for i, eps in enumerate(budgets):
                refusal, eviction = first_refusal[:, i].min(), first_eviction[:, i].min()
                if refusal < eviction:
                    pred = predict_collapse_round(eps, G, horizon, params)
                    refusals = first_refusal[:, i][first_refusal[:, i] <= horizon]
                    assert pred is not None and (pred <= refusals).all(), (C, n, G, eps)
                    assert (refusals < pred + G).all(), (C, n, G, eps)
                    kinds["refused"].append((G, eps))
                elif eviction <= horizon:
                    kinds["evicted"].append((G, eps))
                else:
                    kinds["neither"].append((G, eps))
    assert {kind: len(cases) for kind, cases in kinds.items()} == {
        "refused": 126, "evicted": 194, "neither": 130}
    assert max(eps for _, eps in kinds["evicted"]) == 14
    assert {G for G, _ in kinds["neither"]} == {2, 5}


class TestGroupedMode:
    def test_alternating_schedule(self, grouped_run):
        scheduled = [np.flatnonzero(row).tolist() for row in grouped_run.columns["scheduled"]]
        assert scheduled == [[0, 1], [2, 3]] * 4

    def test_everyone_participates_when_scheduled(self, grouped_run):
        c = grouped_run.columns
        assert (c["participated"] == c["scheduled"]).all()
        assert not c["evicted"].any()

    def test_balanced_participation_counts(self, grouped_run):
        assert grouped_run.columns["participated"].sum(axis=0).tolist() == [4] * 4

    def test_utility_reported_at_group_stride(self, grouped_run):
        params = MechanismParams(G=2)
        from tokenfl.mechanisms import cost, utility, value_table

        values = value_table(grouped_run.rounds + 2)
        for r, row in enumerate(grouped_run.columns["utility"].tolist(), 1):
            assert row == pytest.approx([utility(r, cost(20.0, params), 2, values)] * 4)


class TestBaselineMode:
    def test_everyone_participates_every_round(self, baseline_run):
        assert baseline_run.columns["participated"].all()
        assert not baseline_run.columns["evicted"].any()

    def test_legacy_reward_schedule(self, baseline_run):
        params = MechanismParams()
        c = baseline_run.columns
        rewards = [[baseline_token_reward(e, params) for e in row] for row in c["eps"].tolist()]
        assert (c["earned"] == rewards).all()

    def test_purchase_counts_follow_income(self, baseline_run):
        buys = baseline_run.columns["bought"].sum(axis=0).tolist()
        assert buys[0] == 10
        assert buys[2] == 5
        assert buys[0] > buys[1] > buys[2]

    def test_half_income_buys_every_other_round(self, baseline_run):
        assert baseline_run.columns["bought"][:, 2].tolist() == [False, True] * 5

    def test_no_utility_column_in_legacy_mode(self, baseline_run):
        assert np.isnan(baseline_run.columns["utility"]).all()

    def test_price_is_one_token(self, baseline_run):
        c = baseline_run.columns
        assert c["bought"].any()
        assert (c["spent"][c["bought"]] == BASELINE_PRICE).all()


@pytest.mark.parametrize("C,n", [(1, 1), (2, 2), (4, 2)])
class TestOracleAgreement:
    """nash_check prices a client by replaying its ledger alone;
    play_game must play the same game for every client of a run."""

    def test_acceptable_budget_matches_trajectory(self, C, n):
        params = MechanismParams(C=C, n=n)
        columns, players = play_game(config(clients=6, eps=None, horizon=30, params=params))
        ((payoff, participated),) = priced([params.eps_a], 30, params)
        played, _ = price_rounds(columns["participated"], columns["bought"], players.cost,
                                 value_table(30))
        assert played.tolist() == [payoff] * 6
        assert columns["participated"].sum(axis=0).tolist() == [participated] * 6

    def test_eviction_round_matches_trajectory(self, C, n):
        params = MechanismParams(C=C, n=n)
        evicted = play_game(config(clients=6, eps=5, horizon=30, params=params))[0]["evicted"]
        # Every round a client survives moves its payoff (privacy cost or
        # model value), so the trajectory stops at the first horizon that
        # adds nothing. Before round 1 it holds nothing.
        trajectory = [[(0.0, 0)]] + [priced([5.0], h, params) for h in range(1, 31)]
        stop = next(h for h in range(1, 31) if trajectory[h] == trajectory[h - 1])
        assert evicted.any(axis=0).all()
        assert (1 + evicted.argmax(axis=0)).tolist() == [stop] * 6


def _count_evaluations(monkeypatch, split):
    """Patch engine.evaluate to record each model vector scored on `split`."""
    calls = []
    original = engine.evaluate

    def counting(params, dataset, *args, **kwargs):
        if dataset.split == split:
            calls.append(params.vector)
        return original(params, dataset, *args, **kwargs)

    monkeypatch.setattr(engine, "evaluate", counting)
    return calls


def _count_model_params(monkeypatch):
    """Patch ModelParams to record each one built, validated on the way."""
    made = []
    post_init = ModelParams.__post_init__

    def counting(self):
        post_init(self)
        made.append(self)

    monkeypatch.setattr(ModelParams, "__post_init__", counting)
    return made


class TestSharedModels:
    """Buyers share the round's read-only global model, and each model is
    built once, where it is made, and scored once per split for as long
    as it is held."""

    @pytest.fixture
    def local_evals(self, monkeypatch):
        return _count_evaluations(monkeypatch, "local-test")

    @pytest.fixture
    def global_evals(self, monkeypatch):
        return _count_evaluations(monkeypatch, "global-test")

    @staticmethod
    def assert_read_only(state):
        for model in [state.server] + [c.model for c in state.clients]:
            with pytest.raises(ValueError):
                model.params.vector[0] = 0.0

    def test_all_buyers_run_builds_one_model_a_round(self, synthetic_datasets,
                                                     monkeypatch):
        made = _count_model_params(monkeypatch)
        cfg = config()
        state = init_state(cfg, synthetic_datasets)
        assert len(made) == 1 and made[0] is state.server.params
        for _ in range(cfg.horizon):
            run_round(state)
        assert state.run.columns["bought"].all()
        assert len(made) == 1 + cfg.horizon
        assert made[-1] is state.server.params

    def test_drifting_round_builds_one_model_per_drifter(self, synthetic_datasets,
                                                         monkeypatch):
        made = _count_model_params(monkeypatch)
        cfg = config(eps=25, scheme="disjoint", horizon=14)
        state = init_state(cfg, synthetic_datasets)
        columns, all_drift = state.run.columns, 0
        for r in range(1, cfg.horizon + 1):
            made.clear()
            run_round(state)
            drifters = columns["evicted"][: r - 1].any(0).sum()
            all_drift += drifters == cfg.clients
            assert len(made) == columns["participated"][r - 1].any() + drifters
        assert all_drift > 0
        # Built on pool threads, so in any order.
        assert {id(p) for p in made} == {id(c.model.params) for c in state.clients}

    def test_all_buyers_round_scores_one_model(self, synthetic_datasets, local_evals):
        cfg = config()
        state = init_state(cfg, synthetic_datasets)
        for _ in range(3):
            local_evals.clear()
            run_round(state)
            assert state.run.columns["bought"][state.round - 1].all()
            assert len(local_evals) == 1
            assert all(c.model is state.server for c in state.clients)
        self.assert_read_only(state)

    def test_drifters_score_one_model_each(self, synthetic_datasets, local_evals):
        cfg = config(eps=25, scheme="disjoint", horizon=14)
        state = init_state(cfg, synthetic_datasets)
        drifting_rounds = drifters = 0
        for _ in range(cfg.horizon):
            local_evals.clear()
            run_round(state)
            if drifters == cfg.clients:
                drifting_rounds += 1
                assert len(local_evals) == drifters
            # Clients evicted this round drift from the next one on.
            drifters = state.run.columns["evicted"][state.round - 1].sum()
        assert drifting_rounds > 0
        self.assert_read_only(state)

    def test_server_is_scored_once_per_distinct_array(self, synthetic_datasets,
                                                      global_evals):
        cfg = config(eps=25, scheme="disjoint", horizon=14)
        state = init_state(cfg, synthetic_datasets)
        held, distinct = None, 0
        for r in range(1, cfg.horizon + 1):
            accuracy = run_round(state)
            distinct += state.server is not held
            held = state.server
            assert accuracy == state.run.global_accuracy[r - 1] == evaluate(
                state.server.params, state.global_test)
        assert state.run.columns["evicted"][-1].all()
        assert 1 < distinct < cfg.horizon
        assert len(global_evals) == distinct
        assert len({id(v) for v in global_evals}) == distinct

    def test_unchanged_client_model_is_not_scored_again(self, synthetic_datasets,
                                                         local_evals):
        cfg = POOL_CONFIGS["grouped"]
        state = init_state(cfg, synthetic_datasets)
        run_round(state)  # scores the models clients hold from round 0 on
        kept = 0
        for r in range(2, cfg.horizon + 1):
            before = [c.model for c in state.clients]
            local_evals.clear()
            run_round(state)
            for c, model in zip(state.clients, before):
                if c.model is model:
                    kept += 1
                    assert not any(v is model.params.vector for v in local_evals)
                assert state.run.columns["local_accuracy"][r - 1, c.id] == evaluate(
                    c.model.params, state.local_test)
        assert kept > 0

    def test_test_splits_keep_the_loaded_dtype(self, synthetic_datasets):
        _, test = synthetic_datasets
        assert test.images.dtype == np.uint8
        state = init_state(config(), synthetic_datasets)
        assert state.local_test.dataset.images.dtype == np.uint8
        assert state.global_test.dataset.images.dtype == np.uint8


class TestRoundMemory:
    """A round holds about workers + 1 uploads whatever its client count,
    and the test splits are scored in place, not copied."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_live_uploads_do_not_grow_with_the_trainers(self, synthetic_datasets,
                                                        monkeypatch, workers):
        cfg = config(clients=30, horizon=2)
        perturb = engine.perturb_gradients
        lock = threading.Lock()
        counts = {"made": 0, "live": 0, "peak": 0}

        def release():
            with lock:
                counts["live"] -= 1

        def tracked(*args, **kwargs):
            g = perturb(*args, **kwargs)
            with lock:
                counts["made"] += 1
                counts["live"] += 1
                counts["peak"] = max(counts["peak"], counts["live"])
            weakref.finalize(g, release)
            return g

        monkeypatch.setattr(engine, "perturb_gradients", tracked)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            monkeypatch.setattr(learning, "_pool", lambda: pool)
            state = init_state(cfg, synthetic_datasets)
            for _ in range(cfg.horizon):
                run_round(state)
        assert counts["made"] == cfg.clients * cfg.horizon
        assert counts["live"] == 0
        # Up to workers + 1 queued or running, one being added, one let go.
        assert counts["peak"] <= 8

    def test_init_state_keeps_the_test_split_uncopied(self, synthetic_datasets):
        train, _ = synthetic_datasets
        rng = np.random.default_rng(7)
        # 12.5 MB of pixels, a copy of which the bound below would catch.
        test = Dataset(rng.integers(0, 256, (16_000, 784), dtype=np.uint8),
                       np.arange(16_000) % 10)
        tracemalloc.start()
        try:
            state = init_state(config(), (train, test))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < test.images.nbytes / 4
        for split in (state.local_test, state.global_test):
            assert split.dataset is test
        assert len(state.local_test) + len(state.global_test) == len(test)

    def test_round_scores_equal_those_of_copied_splits(self, synthetic_datasets):
        train, test = synthetic_datasets
        cfg = POOL_CONFIGS["all-evicted"]
        # The split init_state made before it scored in place: a fifth of
        # the test rows in a seeded random order, copied out, and the rest.
        perm = engine._stream(cfg.seed, engine._KIND_SPLIT).permutation(len(test))
        cut = max(1, int(len(test) * 0.2))
        local, global_ = (Dataset(test.images[rows], test.labels[rows])
                          for rows in (perm[:cut], perm[cut:]))
        state = init_state(cfg, (train, test))
        assert np.array_equal(state.local_test.rows, perm[:cut])
        assert np.array_equal(state.global_test.rows, perm[cut:])
        for r in range(1, cfg.horizon + 1):
            assert run_round(state) == evaluate(state.server.params, global_)
            assert state.run.columns["local_accuracy"][r - 1].tolist() == [
                evaluate(c.model.params, local) for c in state.clients]
        assert state.run.columns["evicted"][-1].all()


POOL_CONFIGS = {
    "strategic": config(horizon=4),
    "grouped": config(clients=4, eps=20, horizon=4, params=MechanismParams(G=2)),
    "all-evicted": config(eps=25, scheme="disjoint", horizon=14),
}


def _run_and_send(cfg, datasets, conn):
    conn.send(run_simulation(cfg, datasets))
    conn.close()


class TestThreadPool:
    """Clients train and randomize as tasks on learning's thread pool, and
    evaluation scores its chunks there too."""

    @pytest.mark.parametrize("name", sorted(POOL_CONFIGS))
    def test_records_do_not_depend_on_the_worker_count(self, synthetic_datasets,
                                                       monkeypatch, name):
        cfg = POOL_CONFIGS[name]
        runs = []
        for workers in (1, 4):
            with ThreadPoolExecutor(max_workers=workers) as pool:
                monkeypatch.setattr(learning, "_pool", lambda: pool)
                runs.append(run_simulation(cfg, synthetic_datasets))
        assert run_bytes(runs[0]) == run_bytes(runs[1])
        if name == "all-evicted":
            assert runs[0].columns["evicted"][-1].all()

    def test_nested_pool_imap_runs_inline(self, monkeypatch):
        # With one worker, a nested call that waited on the pool would
        # wait on itself; the thread and its timeout turn that into a failure.
        def outer(i):
            return list(learning.pool_imap(lambda j: 10 * i + j, range(3)))

        result = []
        pool = ThreadPoolExecutor(max_workers=1)
        monkeypatch.setattr(learning, "_pool", lambda: pool)
        caller = threading.Thread(
            target=lambda: result.append(list(learning.pool_imap(outer, range(4)))), daemon=True
        )
        try:
            caller.start()
            caller.join(timeout=30)
            assert not caller.is_alive(), "nested pool_imap did not finish within 30 s"
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        assert result == [[[10 * i + j for j in range(3)] for i in range(4)]]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_pool_imap_runs_at_most_one_task_more_than_workers_ahead(self, monkeypatch,
                                                                      workers):
        started = []
        mapped = learning.pool_imap(lambda i: started.append(i) or i * i, range(20))
        assert len(mapped) == 20
        with ThreadPoolExecutor(max_workers=workers) as pool:
            monkeypatch.setattr(learning, "_pool", lambda: pool)
            results = iter(mapped)
            for taken in range(1, 6):
                assert next(results) == (taken - 1) ** 2
                assert len(started) <= taken + workers + 1
            results.close()  # the pending tasks are cancelled, not run
        assert len(started) <= 5 + workers + 1
        assert sorted(started) == list(range(len(started)))

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_forked_child_runs_a_round(self, synthetic_datasets):
        # The parent's pool threads do not survive a fork; a child that
        # reused the parent's pool would wait forever on its first round.
        cfg = config(horizon=1)
        expected = run_simulation(cfg, synthetic_datasets)
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_run_and_send, args=(cfg, synthetic_datasets, sender))
        child.start()
        sender.close()
        try:
            assert receiver.poll(60), "the forked child sent no run within 60 s"
            assert run_bytes(receiver.recv()) == run_bytes(expected)
            child.join(timeout=60)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()
