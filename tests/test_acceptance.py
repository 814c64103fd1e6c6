"""End-to-end acceptance checks for the incentive simulator.

Each test is one verdict on one headline behavior: formula endpoints,
collapse-round windows, the equilibrium of the uniform conservative
profile, exact token-flow closure at the eligibility budget, the
certified privacy ratio, the local gradient against finite
differences, noiseless convergence, the documented preset dynamics,
and byte-level reproducibility. Tolerances are pinned here and nowhere
else; a failure means the package broke its contract.
"""

import math

import numpy as np
import pytest

from tokenfl.cli import parse_config, write_metrics_csv
from tokenfl.economy import FreshnessPolicy, InsufficientTokens, TokenLedger
from tokenfl.engine import SimConfig, run_simulation
from tokenfl.learning import (
    DataPartition,
    Dataset,
    ModelParams,
    batch_loss,
    init_model,
    local_train,
)
from tokenfl.mechanisms import (
    MechanismParams,
    baseline_token_reward,
    cost,
    predict_collapse_round,
    reward,
    value,
)
from tokenfl.presets import preset_config, preset_names
from tokenfl.privacy import LdpConfig, analytic_ldp_ratio, empirical_ldp_ratio, perturb_gradients
from tokenfl.strategy import nash_check

REL = 1e-12


def test_incentive_formulas_hit_their_endpoints():
    params = MechanismParams()
    assert baseline_token_reward(1.0, params) == pytest.approx(0.5, rel=REL)
    assert baseline_token_reward(25.0, params) == pytest.approx(1.0, rel=REL)
    assert baseline_token_reward(13.0, params) == pytest.approx(0.75, rel=REL)
    assert cost(1.0, params) == pytest.approx(params.c_min, rel=REL)
    assert cost(25.0, params) == pytest.approx(params.c_max, rel=REL)
    assert cost(30.0, params) == pytest.approx(params.c_max, rel=REL)
    assert reward(params.eps_min, params) == pytest.approx(0.5, rel=REL)
    assert reward(params.eps_a, params) == pytest.approx(params.C / params.n, rel=REL)
    assert value(0) == 0.0
    assert value(1) == pytest.approx(9.8941356516202585, rel=REL)


def test_collapse_rounds_fall_in_expected_windows():
    params = MechanismParams()
    horizon = 50
    windows = {25.0: (10, 6), 20.0: (28, 6), 17.0: (42, 6)}
    for eps, (center, slack) in windows.items():
        round_ = predict_collapse_round(eps, 1, horizon, params)
        assert round_ is not None
        assert center - slack <= round_ <= center + slack, (eps, round_)
    assert predict_collapse_round(15.0, 1, horizon, params) is None
    delayed = predict_collapse_round(25.0, 2, horizon, params)
    assert delayed > predict_collapse_round(25.0, 1, horizon, params)


def test_uniform_conservative_profile_is_an_equilibrium():
    params = MechanismParams()
    grid = [1, 5, 10, 13, 15, 17, 20, 23, 25]
    report = nash_check([params.eps_a] * 10, grid, horizon=50, params=params)
    assert report.is_nash
    assert report.profitable_deviations == []
    base_cost = cost(params.eps_a, params)
    for dev in report.deviations:
        assert dev.delta <= 0.0
        if dev.eps > params.eps_a:
            expected = -dev.participated_rounds * (cost(dev.eps, params) - base_cost)
            assert dev.delta == pytest.approx(expected, abs=1e-9)


def test_token_flow_closes_exactly_at_the_eligibility_bar():
    for n in (1, 2, 3):
        for k in (1, 2):
            params = MechanismParams(C=float(n * k), n=n)
            policy = FreshnessPolicy(n=n)
            ledger = TokenLedger()
            for t in range(1, 101):
                assert ledger.expire(t, policy) == 0.0
                ledger.credit(reward(params.eps_a, params), t)
                if t % n == 0:
                    ledger.spend(params.C, t)
                    assert ledger.balance == pytest.approx(0.0, abs=1e-9)

    params = MechanismParams(C=3.0, n=3)
    ledger = TokenLedger()
    for t in (1, 2, 3):
        ledger.credit(reward(10.0, params), t)
    assert ledger.balance < params.C
    with pytest.raises(InsufficientTokens):
        ledger.spend(params.C, 3)


def test_local_privacy_ratio_is_certified():
    for eps in (0.5, 1.0, 5.0):
        cfg = LdpConfig(eps=eps, radius=1.0)
        assert analytic_ldp_ratio(cfg) == math.exp(eps)

        samples = 100_000
        est = empirical_ldp_ratio(
            cfg, cfg.radius, -cfg.radius, samples, rng=np.random.default_rng(int(10 * eps))
        )
        assert not est.degenerate
        p = 0.5 * (1.0 + math.tanh(eps / 2.0))
        se = math.exp(eps) * math.sqrt(
            (1.0 - p) / (samples * p) + p / (samples * (1.0 - p))
        )
        assert abs(est.ratio - math.exp(eps)) <= 3.0 * se

    cfg = LdpConfig(eps=1.0, radius=1.0)
    bound = cfg.radius / math.tanh(cfg.eps / 2.0)
    n = 200_000
    rng = np.random.default_rng(42)
    for w in (-1.0, -0.5, 0.0, 0.5, 1.0):
        draws = perturb_gradients(np.full(n, w), cfg, rng)
        sigma = math.sqrt(bound**2 - w**2)
        assert abs(draws.mean() - w) <= 3.0 * sigma / math.sqrt(n)


def test_local_gradient_matches_finite_differences():
    layers = (6, 5, 3)
    rng = np.random.default_rng(3)
    images = rng.random((10, layers[0])).astype(np.float32)
    labels = rng.integers(0, layers[-1], size=10).astype(np.int64)
    ds = Dataset(images, labels)
    part = DataPartition(np.arange(10), owner=0, scheme="identical")
    model = init_model(3, layers=layers)
    g = local_train(model, ds, part, batches=1, batch_size=10, seed=7)
    h = 1e-6
    for j in np.random.default_rng(0).choice(len(model.vector), size=20, replace=False):
        up, down = model.vector.copy(), model.vector.copy()
        up[j] += h
        down[j] -= h
        fd = (
            batch_loss(ModelParams(up, layers), images, labels)
            - batch_loss(ModelParams(down, layers), images, labels)
        ) / (2.0 * h)
        assert abs(fd - g[j]) / max(abs(fd), abs(g[j]), 1e-8) <= 1e-4


def test_noiseless_training_reaches_target_accuracy(mnist):
    config = SimConfig(
        mechanism="strategic", clients=3, scheme="identical", eps=15.0,
        horizon=50, seed=0, ldp=False, stop_accuracy=0.90,
    )
    records = run_simulation(config, datasets=mnist)
    assert len(records) <= 50
    assert records[-1].global_accuracy >= 0.90


def test_preset_runs_reproduce_the_documented_dynamics(run_preset):
    sustained = run_preset("strategic-10c-eps15")
    assert len(sustained) == 50
    for record in sustained:
        assert all(row.participated and row.bought for row in record.clients)
        assert len({row.local_accuracy for row in record.clients}) == 1

    collapsing = run_preset("strategic-3c-eps25")
    final = collapsing[-1]
    assert all(row.evicted for row in final.clients)
    eviction_rounds = [
        min(rec.round for rec in collapsing if rec.clients[c].evicted)
        for c in range(3)
    ]
    assert all(4 <= r <= 16 for r in eviction_rounds)
    first = min(eviction_rounds)

    def best_local(rec):
        return max(row.local_accuracy for row in rec.clients)

    pre_eviction_peak = max(best_local(rec) for rec in collapsing if rec.round < first)
    assert best_local(collapsing[-1]) < pre_eviction_peak

    grouped = run_preset("grouped-10c-eps20")
    assert not any(row.evicted for rec in grouped for row in rec.clients)
    individual = run_preset("strategic-10c-eps20")
    assert all(row.evicted for row in individual[-1].clients)

    baseline = run_preset("baseline-3c")
    buys = [
        sum(rec.clients[c].bought for rec in baseline) for c in range(3)
    ]
    assert buys[0] > buys[1] > buys[2]


def test_identical_configs_produce_byte_identical_outputs(tmp_path, mnist, run_preset):
    for name in preset_names():
        raw = preset_config(name)
        raw["horizon"] = 4
        raw["learning"]["batches"] = 5
        config = parse_config(raw, name)
        outputs = []
        for attempt in ("a", "b"):
            records = run_simulation(config, datasets=mnist)
            path = tmp_path / f"{name}-{attempt}.csv"
            write_metrics_csv(records, path)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1], name

    witness = "strategic-3c-eps25"
    cached = run_preset(witness)
    fresh = run_simulation(parse_config(preset_config(witness), witness), datasets=mnist)
    for tag, records in (("cached", cached), ("fresh", fresh)):
        write_metrics_csv(records, tmp_path / f"{witness}-{tag}.csv")
    assert (tmp_path / f"{witness}-cached.csv").read_bytes() == (
        tmp_path / f"{witness}-fresh.csv"
    ).read_bytes()
