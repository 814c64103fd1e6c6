"""The benchmark (perfbench/run.py) drives tokenfl from outside the
package. Its per-layer tracer wraps tokenfl functions by name, so a
renamed or unbound name fails here rather than only in a traced
benchmark run. Its correctness references pin the played game, so a
change that moves them fails here rather than only as failed benchmark
operations."""

import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tokenfl import cli, economy, engine, mechanisms, strategy
from tokenfl.presets import preset_config

from test_lane_game import bits, priced, scalar_trajectory

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
OWNERS = (cli, economy.TokenLedger, engine, mechanisms, strategy)


@pytest.fixture
def run(monkeypatch):
    """perfbench/run.py as a module; its `checks` is perfbench/checks.py."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes_cleanly(run):
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = run.Tracer()
    run.instrument(tracer)
    try:
        assert economy.TokenLedger.spend is not before[1]["spend"]
        assert engine.model_age is strategy.model_age is not before[2]["model_age"]
    finally:
        tracer.unpatch()
    assert [dict(vars(owner)) for owner in OWNERS] == before


def test_training_presets_play_the_reference_economics(run):
    # The economic columns do not depend on the data, so no training runs.
    for name, spec in run.TRAINING.items():
        csv_text = (PERFBENCH / "reference" / f"{name}.csv").read_text()
        reference = run.checks.read_reference(csv_text)
        game, _ = engine.play_game(cli.parse_config(preset_config(spec["preset"]), name))
        columns = [game[c] for c in run.checks.ECONOMIC]
        rounds, clients = columns[0].shape
        played = {
            (r, k): tuple(float(col[r - 1, k]) for col in columns)
            for r in range(1, rounds + 1)
            for k in range(clients)
        }
        assert played == reference, name


def test_game_sweep_matches_its_reference(run):
    reports = {}
    for C, n in run.PAIRS:
        params = mechanisms.MechanismParams(C=C, n=n)
        reports[(C, n)] = strategy.nash_check([params.eps_a], run.GRID, run.SWEEP_HORIZON, params)
    params = mechanisms.MechanismParams()
    collapse = {
        (stride, eps): mechanisms.predict_collapse_round(eps, stride, run.SWEEP_HORIZON, params)
        for stride in run.STRIDES
        for eps in run.GRID
    }
    reference = json.loads((PERFBENCH / "reference" / "game-sweep.json").read_text())
    record = run.checks.sweep_record(reports, collapse)
    assert run.checks.check_sweep(record, reference) == {}


def test_game_sweep_horizon_equals_the_scalar_oracle(run):
    # The reference allows a relative error of 1e-9, which a reordered
    # float sum passes; this pins every fourth budget, and eps_a, bit for bit.
    for C, n in run.PAIRS:
        params = mechanisms.MechanismParams(C=C, n=n)
        budgets = sorted({*run.GRID[::4], params.eps_a})
        got = priced(budgets, run.SWEEP_HORIZON, params)
        want = [scalar_trajectory(e, run.SWEEP_HORIZON, params) for e in budgets]
        assert [bits(pair) for pair in got] == [bits(w) for w in want], (C, n)


def test_game_sweep_oracle_keeps_no_round_columns(run):
    # A pair's scan holds one round of lane arrays, about 0.05 MB; one
    # recorded (horizon, lanes) float64 column would be 0.78 MB.
    params = mechanisms.MechanismParams(C=2, n=2)
    tracemalloc.start()
    try:
        strategy.nash_check([params.eps_a], run.GRID, run.SWEEP_HORIZON, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def tiny_config(run, name, tmp_path, idx_builder, **overrides):
    """The config file of a training workload on blank 28x28 images, 100
    train and 20 test rows, with one batch of 8 rows a round."""
    data = tmp_path / "data"
    if not data.exists():
        data.mkdir()
        for prefix, rows in (("train", 100), ("t10k", 20)):
            idx_builder(data, np.zeros((rows, 28, 28), np.uint8), np.arange(rows) % 10,
                        prefix=prefix)
    raw = preset_config(run.TRAINING[name]["preset"])
    raw.update(data_dir=str(data), **overrides)
    raw["learning"].update(batches=1, batch_size=8)
    config_path = tmp_path / f"{name}.json"
    config_path.write_text(json.dumps(raw))
    return config_path, raw


def test_traced_run_binds_every_measure(run, tmp_path, idx_builder):
    # The tracer binds the arguments of a wrapped call by parameter name
    # only when the call is made, so installing it proves nothing.
    config_path, _ = tiny_config(run, "train-sustained", tmp_path, idx_builder,
                                 ldp=True, horizon=2)
    tracer = run.Tracer()
    run.instrument(tracer)
    try:
        assert cli.main(["run", str(config_path), "--out-dir", str(tmp_path / "out")]) == 0
    finally:
        tracer.unpatch()
    for key in ("learning.local_train.samples", "privacy.perturb_gradients.coords",
                "learning.aggregate.grads", "learning.evaluate.local.rows",
                "learning.evaluate.global.rows", "cli.write_metrics_csv.bytes"):
        assert tracer.quantities[key] > 0, key


def test_cli_metrics_pass_the_benchmark_check(run, tmp_path, idx_builder):
    # The check reads the economic columns, token flows and accuracy
    # ranges, none of which depends on what the model learns, so a tiny
    # dataset and one noiseless batch a round stand in for MNIST.
    for name, spec in run.TRAINING.items():
        config_path, raw = tiny_config(run, name, tmp_path, idx_builder, ldp=False)
        out = tmp_path / name
        assert cli.main(["run", str(config_path), "--out-dir", str(out)]) == 0
        reference = run.checks.read_reference((PERFBENCH / "reference" / f"{name}.csv").read_text())
        rules = dict(spec["rules"], first_refusal=mechanisms.predict_collapse_round(
            raw["eps"], 1, 50, mechanisms.MechanismParams()))
        text = (out / "metrics.csv").read_text()
        assert run.checks.check_metrics(text, reference, rules) == {}, name
