"""End-to-end acceptance checks for the incentive simulator.

Each test is one verdict on one headline behavior: formula endpoints,
collapse-round windows, the equilibrium of the uniform conservative
profile, exact token-flow closure at the eligibility budget, the
certified privacy ratio, the local gradient against finite
differences, noiseless convergence, the documented preset dynamics
(their token-game half also offline, with no dataset), and byte-level
reproducibility. Tolerances are pinned here and nowhere
else; a failure means the package broke its contract.
"""

import math

import numpy as np
import pytest

from tokenfl.cli import parse_config, write_metrics_csv
from tokenfl.economy import FreshnessPolicy, TokenLedger
from tokenfl.engine import SimConfig, play_game, run_simulation
from tokenfl.learning import (
    Dataset,
    ModelParams,
    Subset,
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
    lane = np.array([True])
    for n in (1, 2, 3):
        for k in (1, 2):
            params = MechanismParams(C=float(n * k), n=n)
            ledger = TokenLedger(1, FreshnessPolicy(n=n))
            for t in range(1, 101):
                assert ledger.expire(t, lane)[0] == 0.0
                ledger.credit(reward(params.eps_a, params), t, lane)
                if t % n == 0:
                    assert ledger.spend(params.C, lane)[0]
                    assert ledger.balance()[0] == pytest.approx(0.0, abs=1e-9)

    params = MechanismParams(C=3.0, n=3)
    ledger = TokenLedger(1, FreshnessPolicy(n=3))
    for t in (1, 2, 3):
        ledger.credit(reward(10.0, params), t, lane)
    assert ledger.balance()[0] < params.C
    assert not ledger.spend(params.C, lane)[0]


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
    part = Subset(ds, np.arange(10), "client-0")
    model = init_model(3, layers=layers)
    g = local_train(model, part, batches=1, batch_size=10, seed=7)
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
    run = run_simulation(config, datasets=mnist)
    assert run.rounds <= 50
    assert run.global_accuracy[-1] >= 0.90


def test_preset_runs_reproduce_the_documented_dynamics(run_preset):
    sustained = run_preset("strategic-10c-eps15")
    assert sustained.rounds == 50
    c = sustained.columns
    assert (c["participated"] & c["bought"]).all()
    assert (c["local_accuracy"] == c["local_accuracy"][:, :1]).all()

    collapsing = run_preset("strategic-3c-eps25").columns
    evicted = collapsing["evicted"]
    assert evicted[-1].all()
    eviction_rounds = 1 + evicted.argmax(axis=0)
    assert all(4 <= r <= 16 for r in eviction_rounds)
    first = min(eviction_rounds)

    best_local = collapsing["local_accuracy"].max(axis=1)
    pre_eviction_peak = best_local[: first - 1].max()
    assert best_local[-1] < pre_eviction_peak

    assert not run_preset("grouped-10c-eps20").columns["evicted"].any()
    assert run_preset("strategic-10c-eps20").columns["evicted"][-1].all()

    buys = run_preset("baseline-3c").columns["bought"].sum(axis=0)
    assert buys[0] > buys[1] > buys[2]


def test_preset_games_reproduce_the_documented_dynamics_offline():
    def game(name):
        return play_game(parse_config(preset_config(name), name)).columns

    sustained = game("strategic-10c-eps15")
    assert sustained["participated"].shape == (50, 10)
    assert (sustained["participated"] & sustained["bought"]).all()

    collapsing = game("strategic-3c-eps25")
    refused = collapsing["scheduled"] & ~collapsing["participated"] & ~collapsing["evicted"]
    first_refusal = 1 + int(np.flatnonzero(refused.any(axis=1))[0])
    assert first_refusal == 11 == predict_collapse_round(25.0, 1, 50, MechanismParams())
    assert collapsing["evicted"][-1].all()
    eviction_rounds = 1 + collapsing["evicted"].argmax(axis=0)
    assert eviction_rounds.tolist() == [12, 12, 12]

    assert not game("grouped-10c-eps20")["evicted"].any()
    assert game("strategic-10c-eps20")["evicted"][-1].all()

    baseline = game("baseline-3c")
    assert baseline["bought"].sum(axis=0).tolist() == [50, 39, 25]


def test_identical_configs_produce_byte_identical_outputs(tmp_path, mnist, run_preset):
    for name in preset_names():
        raw = preset_config(name)
        raw["horizon"] = 4
        raw["learning"]["batches"] = 5
        config = parse_config(raw, name)
        outputs = []
        for attempt in ("a", "b"):
            path = tmp_path / f"{name}-{attempt}.csv"
            write_metrics_csv(run_simulation(config, datasets=mnist), path)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1], name

    witness = "strategic-3c-eps25"
    cached = run_preset(witness)
    fresh = run_simulation(parse_config(preset_config(witness), witness), datasets=mnist)
    for tag, run in (("cached", cached), ("fresh", fresh)):
        write_metrics_csv(run, tmp_path / f"{witness}-{tag}.csv")
    assert (tmp_path / f"{witness}-cached.csv").read_bytes() == (
        tmp_path / f"{witness}-fresh.csv"
    ).read_bytes()


def test_identical_configs_produce_byte_identical_outputs_offline(tmp_path, synthetic_datasets):
    for name in preset_names():
        raw = preset_config(name)
        raw["horizon"] = 4
        raw["learning"]["batches"] = 5
        config = parse_config(raw, name)
        outputs = []
        for attempt in ("a", "b"):
            path = tmp_path / f"{name}-{attempt}.csv"
            write_metrics_csv(run_simulation(config, datasets=synthetic_datasets), path)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1], name
