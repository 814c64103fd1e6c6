"""Round engine: scheduling, freshness enforcement, purchases,
eviction dynamics, conservation, determinism, and agreement with the
equilibrium oracle.

These tests run on small synthetic datasets: token mechanics do not
depend on what the model learns, only on the value/cost curves and the
round bookkeeping.
"""

import pytest

from tokenfl.engine import (
    BASELINE_PRICE,
    SimConfig,
    init_state,
    run_round,
    run_simulation,
    schedule_group,
)
from tokenfl.mechanisms import MechanismParams, baseline_token_reward, reward
from tokenfl.strategy import _trajectory


def config(**overrides):
    base = dict(
        mechanism="strategic",
        clients=3,
        scheme="identical",
        eps=15,
        batches=5,
        batch_size=16,
        horizon=4,
        seed=0,
        ldp=True,
        stop_accuracy=None,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestScheduleGroup:
    def test_two_groups_of_five(self):
        assert schedule_group(1, 10, 2) == [0, 1, 2, 3, 4]
        assert schedule_group(2, 10, 2) == [5, 6, 7, 8, 9]
        assert schedule_group(3, 10, 2) == [0, 1, 2, 3, 4]

    def test_period_matches_group_count(self):
        assert schedule_group(7, 10, 2) == schedule_group(1, 10, 2)

    def test_single_group_is_everyone(self):
        assert schedule_group(5, 4, 1) == [0, 1, 2, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            schedule_group(1, 10, 3)
        with pytest.raises(ValueError):
            schedule_group(1, 10, 0)


class TestSimConfig:
    def test_rejects_unknown_mechanism_and_scheme(self):
        with pytest.raises(ValueError):
            config(mechanism="auction")
        with pytest.raises(ValueError):
            config(scheme="sorted")

    def test_grouped_needs_plural_dividing_groups(self):
        with pytest.raises(ValueError):
            config(mechanism="strategic-grouped")
        with pytest.raises(ValueError):
            config(
                mechanism="strategic-grouped",
                clients=3,
                params=MechanismParams(G=2),
            )

    def test_eps_list_length_checked(self):
        with pytest.raises(ValueError):
            config(eps=[15, 15])

    def test_eps_resolution(self):
        assert config(eps=None).client_eps() == [15.0, 15.0, 15.0]
        assert config(eps=20).client_eps() == [20.0, 20.0, 20.0]
        assert config(eps=[25, 15, 1]).client_eps() == [25.0, 15.0, 1.0]

    def test_stride_and_freshness_follow_the_mechanism(self):
        grouped = config(
            mechanism="strategic-grouped", clients=4, params=MechanismParams(G=2)
        )
        assert grouped.stride == 2
        assert grouped.freshness.counts_participated_only
        assert config().stride == 1
        assert not config().freshness.counts_participated_only


class TestRunSimulation:
    def test_zero_horizon_records_nothing(self, synthetic_datasets):
        assert run_simulation(config(horizon=0), synthetic_datasets) == []

    def test_deterministic_replay(self, synthetic_datasets):
        a = run_simulation(config(horizon=3), synthetic_datasets)
        b = run_simulation(config(horizon=3), synthetic_datasets)
        for ra, rb in zip(a, b):
            assert ra.global_accuracy == rb.global_accuracy
            for ca, cb in zip(ra.clients, rb.clients):
                assert ca == cb

    def test_per_round_token_conservation(self, synthetic_datasets):
        params = MechanismParams()
        records = run_simulation(config(horizon=4), synthetic_datasets)
        for record in records:
            for c in record.clients:
                if c.participated:
                    assert c.earned == reward(c.eps, params)
                else:
                    assert c.earned == 0.0

    def test_acceptable_budget_buys_every_round(self, synthetic_datasets):
        records = run_simulation(config(horizon=4), synthetic_datasets)
        for record in records:
            for c in record.clients:
                assert c.participated and c.bought and not c.evicted
                assert c.balance == 0.0
                assert c.spent == 1.0

    def test_identical_buyers_share_local_accuracy(self, synthetic_datasets):
        records = run_simulation(config(horizon=3), synthetic_datasets)
        for record in records:
            accs = {c.local_accuracy for c in record.clients}
            assert len(accs) == 1

    def test_participants_property(self, synthetic_datasets):
        records = run_simulation(config(horizon=2), synthetic_datasets)
        assert records[0].participants == [0, 1, 2]

    def test_stop_accuracy_halts_early(self, synthetic_datasets):
        records = run_simulation(
            config(horizon=4, stop_accuracy=0.0), synthetic_datasets
        )
        assert len(records) == 1

    def test_first_purchase_marks_model_ownership(self, synthetic_datasets):
        state = init_state(config(), synthetic_datasets)
        run_round(state, config())
        assert all(c.state.owned_model_round == 1 for c in state.clients)
        assert state.round == 1


@pytest.fixture(scope="module")
def eviction_records(synthetic_datasets):
    cfg = config(eps=25, scheme="disjoint", horizon=14)
    return run_simulation(cfg, synthetic_datasets)


@pytest.fixture(scope="module")
def grouped_records(synthetic_datasets):
    cfg = config(
        mechanism="strategic-grouped",
        clients=4,
        eps=20,
        horizon=8,
        params=MechanismParams(G=2),
    )
    return run_simulation(cfg, synthetic_datasets)


@pytest.fixture(scope="module")
def baseline_records(synthetic_datasets):
    cfg = config(mechanism="baseline", eps=[25, 15, 1], horizon=10)
    return run_simulation(cfg, synthetic_datasets)


class TestEvictionDynamics:
    def test_everyone_evicted_after_collapse(self, eviction_records):
        final = eviction_records[-1]
        assert all(c.evicted for c in final.clients)
        first_evicted = min(
            r.round for r in eviction_records for c in r.clients if c.evicted
        )
        assert 4 <= first_evicted <= 16

    def test_evicted_never_participate_again(self, eviction_records):
        evicted_at = {}
        for r in eviction_records:
            for c in r.clients:
                if c.evicted and c.client not in evicted_at:
                    evicted_at[c.client] = r.round
        for r in eviction_records:
            for c in r.clients:
                if c.client in evicted_at and r.round > evicted_at[c.client]:
                    assert not c.participated
                    assert not c.scheduled
                    assert not c.bought

    def test_quit_precedes_eviction(self, eviction_records):
        # Collapse order: a client first declines (negative utility),
        # then its model goes stale with an empty ledger, then it is
        # evicted. There must be a non-participating pre-eviction round.
        for cid in (0, 1, 2):
            rows = [next(c for c in r.clients if c.client == cid) for r in eviction_records]
            quit_round = next(i for i, c in enumerate(rows) if not c.participated)
            evict_round = next(i for i, c in enumerate(rows) if c.evicted)
            assert quit_round < evict_round


class TestGroupedMode:
    def test_alternating_schedule(self, grouped_records):
        for r in grouped_records:
            scheduled = [c.client for c in r.clients if c.scheduled]
            expected = [0, 1] if r.round % 2 == 1 else [2, 3]
            assert scheduled == expected

    def test_everyone_participates_when_scheduled(self, grouped_records):
        for r in grouped_records:
            for c in r.clients:
                assert c.participated == c.scheduled
                assert not c.evicted

    def test_balanced_participation_counts(self, grouped_records):
        counts = {cid: 0 for cid in range(4)}
        for r in grouped_records:
            for c in r.clients:
                counts[c.client] += c.participated
        assert set(counts.values()) == {4}

    def test_utility_reported_at_group_stride(self, grouped_records):
        params = MechanismParams(G=2)
        from tokenfl.mechanisms import utility

        for r in grouped_records:
            for c in r.clients:
                assert c.utility == pytest.approx(utility(r.round, 20.0, 2, params))


class TestBaselineMode:
    def test_everyone_participates_every_round(self, baseline_records):
        for r in baseline_records:
            assert all(c.participated for c in r.clients)
            assert all(not c.evicted for c in r.clients)

    def test_legacy_reward_schedule(self, baseline_records):
        params = MechanismParams()
        for r in baseline_records:
            for c in r.clients:
                assert c.earned == baseline_token_reward(c.eps, params)

    def test_purchase_counts_follow_income(self, baseline_records):
        buys = {c.client: 0 for c in baseline_records[0].clients}
        for r in baseline_records:
            for c in r.clients:
                buys[c.client] += c.bought
        assert buys[0] == 10
        assert buys[2] == 5
        assert buys[0] > buys[1] > buys[2]

    def test_half_income_buys_every_other_round(self, baseline_records):
        bought = [
            next(c for c in r.clients if c.client == 2).bought for r in baseline_records
        ]
        assert bought == [False, True] * 5

    def test_no_utility_column_in_legacy_mode(self, baseline_records):
        assert all(c.utility is None for r in baseline_records for c in r.clients)

    def test_price_is_one_token(self, baseline_records):
        for r in baseline_records:
            for c in r.clients:
                if c.bought:
                    assert c.spent == BASELINE_PRICE


def run_with_state(cfg, datasets):
    state = init_state(cfg, datasets)
    return state, [run_round(state, cfg) for _ in range(cfg.horizon)]


@pytest.mark.parametrize("C,n", [(1, 1), (2, 2), (4, 2)])
class TestOracleAgreement:
    """nash_check prices a client by replaying its ledger alone; the
    engine must play the same game for every client it runs."""

    def test_acceptable_budget_matches_trajectory(self, synthetic_datasets, C, n):
        params = MechanismParams(C=C, n=n)
        cfg = config(clients=6, eps=None, batches=1, horizon=30, params=params)
        state, records = run_with_state(cfg, synthetic_datasets)
        payoff, participated = _trajectory(params.eps_a, 30, params)
        for c in state.clients:
            assert c.state.cumulative_payoff == payoff
            assert sum(r.clients[c.state.id].participated for r in records) == participated

    def test_eviction_round_matches_trajectory(self, synthetic_datasets, C, n):
        params = MechanismParams(C=C, n=n)
        cfg = config(clients=6, eps=5, batches=1, horizon=30, params=params)
        _, records = run_with_state(cfg, synthetic_datasets)
        # Every round a client survives moves its payoff (privacy cost or
        # model value), so the trajectory stops at the first horizon that
        # adds nothing.
        stop = next(
            h for h in range(1, 31)
            if _trajectory(5.0, h, params) == _trajectory(5.0, h - 1, params)
        )
        for k in range(6):
            assert next(r.round for r in records if r.clients[k].evicted) == stop
