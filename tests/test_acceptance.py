"""End-to-end acceptance checks for the incentive simulator.

Each test is one verdict on one headline behavior: formula endpoints,
collapse-round windows, the equilibrium of the uniform conservative
profile, exact token-flow closure at the eligibility budget, the
certified privacy ratio, the local gradient against finite
differences, noiseless convergence, the documented preset dynamics
(their token-game half also offline, with no dataset), every preset's
played columns pinned by hash, and byte-level reproducibility.
Tolerances are pinned here and nowhere
else; a failure means the package broke its contract.
"""

import hashlib
import math

import numpy as np
import pytest

from tokenfl.cli import parse_config, write_metrics_csv
from tokenfl.economy import FreshnessPolicy, TokenLedger
from tokenfl.engine import COLUMNS, SimConfig, play_game, run_simulation
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
from tokenfl.privacy import LdpConfig, empirical_ldp_ratio, perturb_gradients
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
    images = rng.integers(0, 256, size=(10, layers[0]), dtype=np.uint8)
    labels = rng.integers(0, layers[-1], size=10).astype(np.int64)
    ds = Dataset(images, labels)
    x = images / 255.0
    part = Subset(ds, np.arange(10), "client-0")
    model = init_model(3, layers=layers)
    g = local_train(model, part, batches=1, batch_size=10, seed=7)
    h = 1e-6
    for j in np.random.default_rng(0).choice(len(model.vector), size=20, replace=False):
        up, down = model.vector.copy(), model.vector.copy()
        up[j] += h
        down[j] -= h
        fd = (
            batch_loss(ModelParams(up, layers), x, labels)
            - batch_loss(ModelParams(down, layers), x, labels)
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
        return play_game(parse_config(preset_config(name), name))[0]

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


# sha256 of the bytes of each played column, in engine.COLUMNS order, of
# every preset's play_game.
PLAYED_SHA256 = {
    "baseline-10c": (
        "6ebab28139553722ca4edad401abde242de2dfc662b594af608863b5b716cd33",
        "13330b8c195c265485dfdd286579e2c161e47cc3d54356b90bbbf751eec8682d",
        "13330b8c195c265485dfdd286579e2c161e47cc3d54356b90bbbf751eec8682d",
        "7543b52315bb46ed94aea945c097aed5303cd02b6e547be3692b6507d5745846",
        "e6304a473c65ecd0ccffbd2f5925a8f51c44b11f59b66cfcc055e4bb911b8fa0",
        "2d8af190dd87eb86ed67388e5f1addc187ffca375b141a9bad492c0726584c78",
        "41b915dda09f1834e998e4a4dc886e20d630ec50e038899c466b12c6be067f32",
        "fc19b1997119425765295aeab72d76faa6927d4f83985d328c26f20468d6cc76",
        "6081555b7a7e851974a6f3a36fad92fe6f3c5f6fd2d2dcb955a5831c6d6a8450",
        "a043c6f4322ebe0976775e0b248b3c319549e262dde24c0472a1e0a5da0f6b4a",
    ),
    "baseline-3c": (
        "368fe8351acad53b0c22ce451840e27969823aa104792052a488bb4e949c73b7",
        "a795c048f28bc4307f8599dc5140fe6e971bce6a34a0349b6c18d6cbb197f75f",
        "a795c048f28bc4307f8599dc5140fe6e971bce6a34a0349b6c18d6cbb197f75f",
        "91bd589c85da4512e0375f332abaebc45542ac4da9fc0ba21f30f60abd2036aa",
        "1d83518b897b14e2943990eff655838246cc0207a7c95a5f3dfccc2e395f8bbf",
        "35f427a0f67c953f4fffc375ddecb46b16bc14e339d51dc1c1dde56010027d85",
        "b075360e65d0b7ee9967445a835c3340813c18e40102b55adca1012b0a20a028",
        "655a3ef0465a9f30fddf25f4dde0c19a05c6f9069b83961800c1944165955273",
        "79c20bee1647d0b71eef11552edce17eb0bc70065bd4103dac7679a6737ef110",
        "9ba589ed6bbc6658d1dfaf8a7f870e3273219e4f90f85c0e47589f361f5ecedf",
    ),
    "grouped-10c-eps20": (
        "987baa1b00cf001c4297a2f78dc753c2aae7758d10ba38ef68f83a7f060c7086",
        "34abed25e14bb3b48680167ca319826db7dd7e58ef0a2f56c7cdbbde5e0c32b7",
        "34abed25e14bb3b48680167ca319826db7dd7e58ef0a2f56c7cdbbde5e0c32b7",
        "34abed25e14bb3b48680167ca319826db7dd7e58ef0a2f56c7cdbbde5e0c32b7",
        "e6304a473c65ecd0ccffbd2f5925a8f51c44b11f59b66cfcc055e4bb911b8fa0",
        "f86b4335b74679e552a85e3a3005c633807d263fab1b57cd69e77d2bc91cba83",
        "f86b4335b74679e552a85e3a3005c633807d263fab1b57cd69e77d2bc91cba83",
        "fc19b1997119425765295aeab72d76faa6927d4f83985d328c26f20468d6cc76",
        "fc19b1997119425765295aeab72d76faa6927d4f83985d328c26f20468d6cc76",
        "edceaa2c95663e874eecfdbf51deccaaeb053a9f2ac41ec34040d874c6769d29",
    ),
    "grouped-10c-eps25": (
        "2aff08196694834bfa1acdedd110fc59868ffa3447b83de2a7ff1568ac04cd9a",
        "34abed25e14bb3b48680167ca319826db7dd7e58ef0a2f56c7cdbbde5e0c32b7",
        "c5f9fa88176793b087595d7276c837b440e80b3be7dd3d127e90bf4522fd7849",
        "c5f9fa88176793b087595d7276c837b440e80b3be7dd3d127e90bf4522fd7849",
        "e6304a473c65ecd0ccffbd2f5925a8f51c44b11f59b66cfcc055e4bb911b8fa0",
        "9ee3573385e539dff91279b201d6c3f177467dced1f1b2df29af80efe06183c9",
        "9ee3573385e539dff91279b201d6c3f177467dced1f1b2df29af80efe06183c9",
        "fc19b1997119425765295aeab72d76faa6927d4f83985d328c26f20468d6cc76",
        "fc19b1997119425765295aeab72d76faa6927d4f83985d328c26f20468d6cc76",
        "d93473f40d2cfcb9243f5bf962ba10179174b1c2cf7111342b5a81a674637bf9",
    ),
    "strategic-10c-eps15": (
        "7c1b0b1c6ba1961aa79972f81cc06f6fc55a75c64cfaffce9f3516545fcb4e10",
        "13330b8c195c265485dfdd286579e2c161e47cc3d54356b90bbbf751eec8682d",
        "13330b8c195c265485dfdd286579e2c161e47cc3d54356b90bbbf751eec8682d",
        "13330b8c195c265485dfdd286579e2c161e47cc3d54356b90bbbf751eec8682d",
        "e6304a473c65ecd0ccffbd2f5925a8f51c44b11f59b66cfcc055e4bb911b8fa0",
        "d1ddda0aa655c9a3ba69e12852de5a2ff86c3f40b57a7006741476c1bbf911e2",
        "d1ddda0aa655c9a3ba69e12852de5a2ff86c3f40b57a7006741476c1bbf911e2",
        "fc19b1997119425765295aeab72d76faa6927d4f83985d328c26f20468d6cc76",
        "fc19b1997119425765295aeab72d76faa6927d4f83985d328c26f20468d6cc76",
        "981e724d749038a0a648d9f3477ea6a0c2a3527eb1c87d1c3f27ce272d178cca",
    ),
    "strategic-10c-eps17": (
        "712c9a873fa148dcb95f371cf6d971054dac7cb662ba03120519d08818e502aa",
        "96337f1727ccedb55a11c6d8ec5d252469eb235b37481f30a8d09b1afdea54c0",
        "0d3345cf3c1dd517efca0af1907ecafa94e6366f5b60212c878896062f6c2a04",
        "0d3345cf3c1dd517efca0af1907ecafa94e6366f5b60212c878896062f6c2a04",
        "78ef8ee0b987a2ae3edbc1b9f83eb13fa4ed995ba8c95a0fd953981757e032d7",
        "48ca1685807693b21d1bd3aeee56c96933990dad98bba8799bccb0c92d192c44",
        "48ca1685807693b21d1bd3aeee56c96933990dad98bba8799bccb0c92d192c44",
        "fc19b1997119425765295aeab72d76faa6927d4f83985d328c26f20468d6cc76",
        "fc19b1997119425765295aeab72d76faa6927d4f83985d328c26f20468d6cc76",
        "e6f06fe65eccd56baa38fdb7e87b74910e0fdb85d1990d2eef475d1c79a1d0b4",
    ),
    "strategic-10c-eps20": (
        "987baa1b00cf001c4297a2f78dc753c2aae7758d10ba38ef68f83a7f060c7086",
        "28fcb3cc044938d9713cb0a7799efa1e239d5e778c6f84847b0048f5ae82886c",
        "7ee335e378674b0b71ebca07ed44ecbfc055b8f3c084adc1c1d793fd3fc69e40",
        "7ee335e378674b0b71ebca07ed44ecbfc055b8f3c084adc1c1d793fd3fc69e40",
        "4e77bb6e53254232f1c817117f10e2da3b81f5d1a6ce7d840f033343ef0cff9d",
        "6a1e139fcbca50a2029840fb3b99611bcebe11d93ca7c97acd36f006b494e5c4",
        "6a1e139fcbca50a2029840fb3b99611bcebe11d93ca7c97acd36f006b494e5c4",
        "fc19b1997119425765295aeab72d76faa6927d4f83985d328c26f20468d6cc76",
        "fc19b1997119425765295aeab72d76faa6927d4f83985d328c26f20468d6cc76",
        "e1ecdcf68ce13f63f3e23795849ab19580b40ecb4fce6423cea36d59860dc877",
    ),
    "strategic-10c-eps25": (
        "2aff08196694834bfa1acdedd110fc59868ffa3447b83de2a7ff1568ac04cd9a",
        "75e369ea7baa83d3c0af7e9ae6a49d2c22e59f61cb6b825c02d20ad32349e6fb",
        "56ac41d9367cb9c92a4dff35fda269a8a0a7d0e81c91b41fb77f14e52ba3155f",
        "56ac41d9367cb9c92a4dff35fda269a8a0a7d0e81c91b41fb77f14e52ba3155f",
        "76fd1be6fcabf6b0bff61a946b437335683c89adf2600688cc694f0dd692eb3f",
        "3d0f64d0a3f1134e0e7193c402d53de71821f7995161ade716b55295deb579d9",
        "3d0f64d0a3f1134e0e7193c402d53de71821f7995161ade716b55295deb579d9",
        "fc19b1997119425765295aeab72d76faa6927d4f83985d328c26f20468d6cc76",
        "fc19b1997119425765295aeab72d76faa6927d4f83985d328c26f20468d6cc76",
        "f4bda27d98ba2c04c50a68e8b867107cd74aeaaf6f8cfdc9c0c5eb91da987803",
    ),
    "strategic-3c-eps15": (
        "4256b06cb8eca280d232cac50698cef172e618666fee9aee9a3bf8583b0cc7a7",
        "a795c048f28bc4307f8599dc5140fe6e971bce6a34a0349b6c18d6cbb197f75f",
        "a795c048f28bc4307f8599dc5140fe6e971bce6a34a0349b6c18d6cbb197f75f",
        "a795c048f28bc4307f8599dc5140fe6e971bce6a34a0349b6c18d6cbb197f75f",
        "1d83518b897b14e2943990eff655838246cc0207a7c95a5f3dfccc2e395f8bbf",
        "4b8f1fdf84b712b0651b192a183f273d6a2bc0aa4df2d8b1d946f03c74c081b7",
        "4b8f1fdf84b712b0651b192a183f273d6a2bc0aa4df2d8b1d946f03c74c081b7",
        "655a3ef0465a9f30fddf25f4dde0c19a05c6f9069b83961800c1944165955273",
        "655a3ef0465a9f30fddf25f4dde0c19a05c6f9069b83961800c1944165955273",
        "8bd731e1e29efc2a916ee2073fb86e80f79bee8356b9d3eaca2b651a7a58c5ad",
    ),
    "strategic-3c-eps17": (
        "09d64ef315d7d7da90c6eb5ed4546000a7fdcb4a1a4daa7c14c44222f6ff4dc2",
        "2bd79a1120f2f097c80c6888e875e5c7f46cd09fe21d5ef955aabd8aa03be8fc",
        "09e448948315a974fa4a649e1f2fb9fdded07fc1564355f910737dd13af07b84",
        "09e448948315a974fa4a649e1f2fb9fdded07fc1564355f910737dd13af07b84",
        "354c6b1d378607077f3f475e929c2d83af94678cac17715f605af0bc1412e092",
        "96dc1d697c9e53180d00c4ff0332db16b323be96f5d2038a2ff581fa1ee1e226",
        "96dc1d697c9e53180d00c4ff0332db16b323be96f5d2038a2ff581fa1ee1e226",
        "655a3ef0465a9f30fddf25f4dde0c19a05c6f9069b83961800c1944165955273",
        "655a3ef0465a9f30fddf25f4dde0c19a05c6f9069b83961800c1944165955273",
        "ea4343c7b455128b9435707704bd2fabb4188f5c607a6fc638d18ef2b0a56dff",
    ),
    "strategic-3c-eps25": (
        "6ff8678f62c98f5e53048e6e8970e6ef34eb009c738b97d96dfa4faaf3230f42",
        "fc478ff92293da9121b75c1feed0ccb3d86ef41f7d36d1a7eec3f55f4aae2040",
        "973c388bb2f3f4919179c29f40687ccce039ffd7fba94fdbf5c1278902f9ff2c",
        "973c388bb2f3f4919179c29f40687ccce039ffd7fba94fdbf5c1278902f9ff2c",
        "acf59deea98877ff9bcbb927651631ff02cd88e42355fabfe9f63bdb1bee4724",
        "90a096c0df2396203e8abddf3d1717f772c510aa784d019ba0c61229cb9b2fba",
        "90a096c0df2396203e8abddf3d1717f772c510aa784d019ba0c61229cb9b2fba",
        "655a3ef0465a9f30fddf25f4dde0c19a05c6f9069b83961800c1944165955273",
        "655a3ef0465a9f30fddf25f4dde0c19a05c6f9069b83961800c1944165955273",
        "6df92af6f4a3140ad3e98bf3a91f7bf0d28654745c1f54b17005194d5e524cfa",
    ),
}


def test_preset_games_match_their_pinned_columns_offline():
    assert sorted(PLAYED_SHA256) == preset_names()
    for name in preset_names():
        columns, _ = play_game(parse_config(preset_config(name), name))
        for column, digest in zip(COLUMNS, PLAYED_SHA256[name], strict=True):
            assert hashlib.sha256(columns[column].tobytes()).hexdigest() == digest, (name, column)


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
