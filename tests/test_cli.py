"""Command-line front end: config schema enforcement, CSV emission,
manifest replay, the analyze/nash subcommands, and dataset fetching."""

import builtins
import gc
import gzip
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from tokenfl import cli, engine, learning
from tokenfl.cli import (
    DATASET_FILES,
    METRICS_HEADER,
    ConfigError,
    config_to_dict,
    main,
    parse_config,
    write_metrics_csv,
)
from tokenfl.engine import COLUMNS, Run, SimConfig
from tokenfl.learning import DATA_DIR_ENV, MNIST_FILES, load_idx, load_mnist
from tokenfl.presets import PRESETS, preset_config, preset_names

README = Path(__file__).resolve().parents[1] / "README.md"


def write_tiny_dataset(data, idx_builder):
    """Random 28x28 images with cycling labels as the four IDX files in
    `data`: 40 train rows, 20 test rows."""
    rng = np.random.default_rng(0)
    data.mkdir()
    for prefix, count in (("train", 40), ("t10k", 20)):
        images = rng.integers(0, 256, size=(count, 28, 28), dtype=np.uint8)
        idx_builder(data, images, np.arange(count) % 10, prefix=prefix)


def minimal_config(**overrides):
    data = {
        "mechanism": "strategic",
        "clients": 2,
        "scheme": "identical",
        "eps": 15,
        "horizon": 2,
        "seed": 0,
        "learning": {"batches": 5, "batch_size": 16},
    }
    data.update(overrides)
    return data


# A replayed manifest's dataset block naming all four IDX files; no file
# has these md5s.
RECORDED = {name: "0" * 32 for name in DATASET_FILES}


# Two configs that between them set every field of SimConfig,
# LearningParams and MechanismParams off its default: the baseline
# schedules everyone every round, so only the strategic one sets G.
EVERY_FIELD = {
    "mechanism": "baseline",
    "clients": 4,
    "scheme": "disjoint",
    "eps": [15, 17.5, 20, 24],
    "horizon": 7,
    "seed": 5,
    "ldp": False,
    "ldp_mechanism": "laplace",
    "clip_radius": 0.5,
    "stop_accuracy": None,
    "data_dir": "some/data",
    "learning": {"batches": 3, "batch_size": 8, "lr": 0.1},
    "params": {
        "eps_min": 2.0, "eps_max": 24.0, "eps_a": 14.0, "C": 4, "n": 2,
        "c_min": 1.5, "c_max": 20.0,
    },
}
EVERY_FIELD_GROUPED = {**EVERY_FIELD, "mechanism": "strategic",
                       "params": {**EVERY_FIELD["params"], "G": 2}}


class TestParseConfig:
    def test_minimal_config_parses(self):
        config = parse_config(minimal_config())
        assert config.clients == 2
        assert config.learning.batches == 5

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match=r"config: unknown keys \['rounds'\]"):
            parse_config(minimal_config(rounds=5))

    def test_unknown_learning_key_named(self):
        with pytest.raises(ConfigError, match=r"config\.learning: unknown keys"):
            parse_config(minimal_config(learning={"momentum": 0.9}))

    def test_bad_mechanism_choice(self):
        with pytest.raises(ConfigError, match=r"config\.mechanism"):
            parse_config(minimal_config(mechanism="auction"))

    def test_eps_list_element_path(self):
        with pytest.raises(ConfigError, match=r"config\.eps\[1\]"):
            parse_config(minimal_config(clients=2, eps=[15, "high"]))

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match=r"config\.clients"):
            parse_config(minimal_config(clients=True))

    def test_params_violations_carry_the_path(self):
        with pytest.raises(ConfigError, match=r"config\.params"):
            parse_config(minimal_config(params={"eps_min": 20.0}))
        with pytest.raises(ConfigError, match=r"config\.params: unknown keys"):
            parse_config(minimal_config(params={"price": 2}))

    def test_engine_level_violations_carry_the_source(self):
        with pytest.raises(ConfigError, match=r"config: "):
            parse_config(minimal_config(clients=3, eps=[1, 2]))

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(["not", "a", "config"])

    def test_integer_float_field_stays_an_integer(self):
        echo = config_to_dict(parse_config(minimal_config(params={"C": 1, "n": 1})))
        assert echo["params"]["C"] == 1 and isinstance(echo["params"]["C"], int)

    def test_null_stop_accuracy_disables_the_stop(self):
        config = parse_config(minimal_config(stop_accuracy=None))
        assert config.stop_accuracy is None

    def test_round_trip_through_normalized_echo(self):
        config = parse_config(minimal_config())
        echo = config_to_dict(config)
        again = parse_config(echo)
        assert config_to_dict(again) == echo
        assert echo["eps"] == [15.0, 15.0]

    @pytest.mark.parametrize(
        "raw", [*map(preset_config, preset_names()), EVERY_FIELD, EVERY_FIELD_GROUPED],
        ids=[*preset_names(), "every-field", "every-field-grouped"],
    )
    def test_presets_and_every_field_round_trip(self, raw):
        config = parse_config(raw)
        echo = config_to_dict(config)
        again = parse_config(echo)
        assert again == replace(config, eps=echo["eps"])
        assert config_to_dict(again) == echo

    def test_every_field_config_leaves_no_default(self):
        configs, default = [parse_config(c) for c in (EVERY_FIELD, EVERY_FIELD_GROUPED)], SimConfig()
        for part in (lambda c: c, lambda c: c.learning, lambda c: c.params):
            for f in fields(part(default)):
                if f.name not in ("learning", "params"):
                    assert any(getattr(part(c), f.name) != getattr(part(default), f.name)
                               for c in configs), f.name

    def test_readme_schema_block_shows_every_key_and_default(self):
        section = README.read_text(encoding="utf-8").split("### Config schema", 1)[1]
        block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
        raw = json.loads(re.sub(r"//.*", "", block))
        assert parse_config(raw) == SimConfig()
        echo = config_to_dict(SimConfig())
        assert raw.keys() == echo.keys()
        for name in ("learning", "params"):
            assert raw[name].keys() == echo[name].keys()

    def test_readme_presets_table_matches_presets(self):
        table = README.read_text(encoding="utf-8").split("### Presets\n\n", 1)[1]
        header, _, *lines = table.split("\n\n", 1)[0].splitlines()
        cells = lambda line: [c.strip() for c in line.strip("|").split("|")]
        assert cells(header) == ["preset", "mechanism", "clients", "eps per client", "G",
                                 "data split"]
        shown = {cells(line)[0].strip("`"): cells(line)[1:] for line in lines}
        listed = {}
        for name, config in PRESETS.items():
            eps = (", ".join(map(str, config.eps)) if isinstance(config.eps, list)
                   else f"all {config.eps}")
            listed[name] = [config.mechanism, str(config.clients), eps, str(config.params.G),
                            config.scheme]
        assert shown == listed


class TestMetricsCsv:
    def test_golden_header(self):
        assert METRICS_HEADER == [
            "round",
            "client",
            "eps",
            "scheduled",
            "participated",
            "bought",
            "evicted",
            "earned",
            "spent",
            "expired",
            "balance",
            "utility",
            "local_accuracy",
            "global_accuracy",
        ]

    def test_layout_and_formatting(self, tmp_path):
        # numpy floats print as plain floats, not as np.float64(...), and
        # a NaN cell is left empty.
        clients = {
            "eps": [15.0, 25.0], "scheduled": [True, True], "participated": [True, False],
            "bought": [True, False], "evicted": [False, True], "earned": [1.0, 0.0],
            "spent": [1.0, 0.0], "expired": [0.0, 0.5], "balance": [0.0, 0.0],
            "utility": [2.5, np.nan], "local_accuracy": [0.75, 0.5],
        }
        assert list(clients) == [*COLUMNS, "local_accuracy"]
        run = Run({name: np.array([cells]) for name, cells in clients.items()},
                  global_accuracy=np.array([0.625]))
        out = tmp_path / "metrics.csv"
        write_metrics_csv(run, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(METRICS_HEADER)
        assert lines[1] == "1,0,15.0,1,1,1,0,1.0,1.0,0.0,0.0,2.5,0.75,"
        assert lines[2] == "1,1,25.0,1,0,0,1,0.0,0.0,0.5,0.0,,0.5,"
        assert lines[3] == "1,global,,,,,,,,,,,,0.625"
        assert len(lines) == 4

    def test_readme_metrics_block_shows_the_header(self):
        section = README.read_text(encoding="utf-8").split("### Metrics CSV", 1)[1]
        block = section.split("```\n", 1)[1].split("```", 1)[0]
        assert block.splitlines() == [",".join(METRICS_HEADER)]


class TestRunCommand:
    def test_run_writes_metrics_and_manifest(self, tmp_path, mnist):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(minimal_config()))
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out-dir", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * (2 + 1)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifact"] == "tokenfl"
        assert manifest["rounds_recorded"] == 2
        assert manifest["config"]["eps"] == [15.0, 15.0]
        assert set(manifest["dataset"]) == {
            "train-images-idx3-ubyte",
            "train-labels-idx1-ubyte",
            "t10k-images-idx3-ubyte",
            "t10k-labels-idx1-ubyte",
        }

    def test_rerun_is_byte_identical(self, tmp_path, mnist):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(minimal_config()))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(config_path), "--out-dir", str(a)]) == 0
        assert main(["run", str(config_path), "--out-dir", str(b)]) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    def test_manifest_replay_reproduces_the_run(self, tmp_path, mnist):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(minimal_config()))
        first = tmp_path / "first"
        assert main(["run", str(config_path), "--out-dir", str(first)]) == 0
        replay = tmp_path / "replay"
        assert main(["run", str(first / "manifest.json"), "--out-dir", str(replay)]) == 0
        assert (first / "metrics.csv").read_bytes() == (replay / "metrics.csv").read_bytes()
        assert (first / "manifest.json").read_bytes() == (replay / "manifest.json").read_bytes()

    def test_seed_override_lands_in_the_manifest(self, tmp_path, mnist):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(minimal_config()))
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--seed", "9", "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9

    @pytest.fixture
    def offline_config(self, tmp_path, idx_builder):
        """minimal_config on a tiny hand-built IDX dataset, as a file."""
        write_tiny_dataset(tmp_path / "data", idx_builder)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(minimal_config(data_dir=str(tmp_path / "data"))))
        return config_path

    def test_run_writes_metrics_and_manifest_offline(self, tmp_path, offline_config):
        out = tmp_path / "out"
        assert main(["run", str(offline_config), "--out-dir", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * (2 + 1)
        assert lines[0] == ",".join(METRICS_HEADER)
        assert all(len(line.split(",")) == len(METRICS_HEADER) for line in lines)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifact"] == "tokenfl"
        assert manifest["rounds_recorded"] == 2
        assert manifest["config"]["eps"] == [15.0, 15.0]
        assert set(manifest["dataset"]) == {
            "train-images-idx3-ubyte",
            "train-labels-idx1-ubyte",
            "t10k-images-idx3-ubyte",
            "t10k-labels-idx1-ubyte",
        }

    def test_rerun_is_byte_identical_offline(self, tmp_path, offline_config):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(offline_config), "--out-dir", str(a)]) == 0
        assert main(["run", str(offline_config), "--out-dir", str(b)]) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    def test_manifest_replay_reproduces_the_run_offline(self, tmp_path, offline_config):
        first = tmp_path / "first"
        assert main(["run", str(offline_config), "--out-dir", str(first)]) == 0
        replay = tmp_path / "replay"
        assert main(["run", str(first / "manifest.json"), "--out-dir", str(replay)]) == 0
        assert (first / "metrics.csv").read_bytes() == (replay / "metrics.csv").read_bytes()
        assert (first / "manifest.json").read_bytes() == (replay / "manifest.json").read_bytes()

    def test_seed_override_lands_in_the_manifest_offline(self, tmp_path, offline_config):
        out = tmp_path / "out"
        assert main(["run", str(offline_config), "--seed", "9", "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9

    def test_model_past_float32_range_fails_the_run_without_metrics(
        self, tmp_path, idx_builder, capsys
    ):
        # Uploads of +-1e308 step the float64 model past float32's range,
        # where the next scoring would read inf/NaN logits.
        write_tiny_dataset(tmp_path / "data", idx_builder)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(minimal_config(
            data_dir=str(tmp_path / "data"), clip_radius=1e308, horizon=1, clients=3)))
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out-dir", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "run: simulation failed: model parameters overflow float32" in err
        assert len(err.splitlines()) == 1

    def test_failed_run_removes_only_the_directories_it_created(
        self, tmp_path, idx_builder, capsys
    ):
        write_tiny_dataset(tmp_path / "data", idx_builder)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(minimal_config(
            data_dir=str(tmp_path / "data"), clip_radius=1e308, horizon=1, clients=3)))
        nested = tmp_path / "new" / "deeper" / "out"
        assert main(["run", str(config_path), "--out-dir", str(nested)]) == 1
        assert not (tmp_path / "new").exists()
        kept = tmp_path / "kept"
        kept.mkdir()
        assert main(["run", str(config_path), "--out-dir", str(kept)]) == 1
        assert kept.is_dir() and not any(kept.iterdir())
        assert capsys.readouterr().err.count("run: simulation failed:") == 2

    def test_replay_refuses_a_changed_dataset(self, tmp_path, offline_config, capsys,
                                              monkeypatch):
        rounds = []
        real_run_round = engine.run_round

        def counting_run_round(*args, **kwargs):
            rounds.append(1)
            return real_run_round(*args, **kwargs)

        monkeypatch.setattr(engine, "run_round", counting_run_round)
        first = tmp_path / "first"
        assert main(["run", str(offline_config), "--out-dir", str(first)]) == 0
        assert len(rounds) == 2  # the count sees the rounds a run plays
        rounds.clear()
        labels = tmp_path / "data" / "t10k-labels-idx1-ubyte"
        raw = bytearray(labels.read_bytes())
        raw[-1] = (raw[-1] + 1) % 10
        labels.write_bytes(bytes(raw))
        replay = tmp_path / "replay"
        assert main(["run", str(first / "manifest.json"), "--out-dir", str(replay)]) == 1
        assert rounds == []
        assert not replay.exists()
        err = capsys.readouterr().err
        assert err.startswith("run: dataset file t10k-labels-idx1-ubyte has md5 ")
        assert len(err.splitlines()) == 1

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(minimal_config(rounds=5)))
        assert main(["run", str(config_path), "--out-dir", str(tmp_path / "o")]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("{not json")
        assert main(["run", str(config_path), "--out-dir", str(tmp_path / "o")]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_integer_literal_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"seed": ' + "9" * 5000 + "}")
        assert main(["run", str(config_path), "--out-dir", str(tmp_path / "o")]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["run", str(missing), "--out-dir", str(tmp_path / "o")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_config_and_preset_are_exclusive(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(minimal_config()))
        code = main(
            ["run", str(config_path), "--preset", "strategic-3c-eps15",
             "--out-dir", str(tmp_path / "o")]
        )
        assert code == 2
        assert main(["run", "--out-dir", str(tmp_path / "o")]) == 2

    def test_unknown_preset_rejected_by_the_parser(self):
        with pytest.raises(SystemExit):
            main(["run", "--preset", "does-not-exist"])

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"clip_radius": math.nan}, ".clip_radius: expected a finite number"),
            ({"clip_radius": math.inf}, ".clip_radius: expected a finite number"),
            ({"learning": {"lr": math.inf}}, ".learning.lr: expected a finite number"),
            ({"params": {"C": math.inf}}, ".params.C: expected a finite number"),
            ({"params": {"c_min": math.nan}}, ".params.c_min: expected a finite number"),
            ({"eps": [15, -math.inf]}, ".eps[1]: expected a finite number"),
            ({"stop_accuracy": math.nan}, ".stop_accuracy: expected a finite number"),
            ({"learning": 5}, ".learning: expected an object"),
            ({"learning": None}, ".learning: expected an object"),
            ({"params": 5}, ".params: expected an object"),
            ({"params": []}, ".params: expected an object"),
            ({"params": "ab"}, ".params: expected an object"),
            ({"params": {"n": 1.5}}, ".params.n: expected an integer"),
            ({"learning": {"batch_size": "64"}}, ".learning.batch_size: expected an integer"),
            ({"params": {"C": 10**400, "n": 1}}, ".params.C: expected a finite number"),
            ({"clip_radius": 10**400}, ".clip_radius: expected a finite number"),
            ({"eps": [15, -10**400]}, ".eps[1]: expected a finite number"),
        ],
    )
    def test_malformed_field_exits_2_with_its_path_before_the_dataset(
        self, tmp_path, capsys, overrides, message
    ):
        # json.dumps writes nan and inf as the NaN and Infinity tokens that
        # json.loads accepts.
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(minimal_config(data_dir=str(tmp_path / "nowhere"), **overrides))
        )
        assert main(["run", str(config_path), "--out-dir", str(tmp_path / "o")]) == 2
        assert f"{config_path}{message}" in capsys.readouterr().err

    @pytest.mark.parametrize("learning", [{"batch_size": 0}, {"batches": -1}])
    def test_bad_learning_field_exits_2_before_the_dataset(self, tmp_path, capsys, learning):
        # The data directory does not exist either: a config that got as
        # far as the dataset would exit 1.
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(minimal_config(learning=learning, data_dir=str(tmp_path / "nowhere")))
        )
        assert main(["run", str(config_path), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{config_path}.learning: need batches >= 0 and batch_size >= 1" in err

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"ldp_mechanism": "gauss"}, "ldp_mechanism must be one of"),
            ({"clip_radius": -1}, "clip_radius must be > 0"),
            ({"clip_radius": 0}, "clip_radius must be > 0"),
            ({"seed": -3}, "seed must be >= 0"),
        ],
    )
    def test_bad_privacy_or_seed_field_exits_2_before_the_dataset(
        self, tmp_path, capsys, overrides, message
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(minimal_config(data_dir=str(tmp_path / "nowhere"), **overrides))
        )
        assert main(["run", str(config_path), "--out-dir", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"learning": {"lr": -1}}, ".learning: lr must be > 0"),
            ({"learning": {"lr": 0}}, ".learning: lr must be > 0"),
            ({"stop_accuracy": 5}, "stop_accuracy must be in [0, 1]"),
            ({"stop_accuracy": -0.5}, "stop_accuracy must be in [0, 1]"),
            ({"clients": 11, "scheme": "disjoint"}, "disjoint scheme supports at most 10"),
            ({"clients": 11, "scheme": "intermediary"}, "intermediary scheme supports at most 10"),
            ({"eps": 30}, "eps override 30 outside [1.0, 25.0]"),
            ({"clients": 3, "eps": [1, 15, 40]}, "eps override 40 outside [1.0, 25.0]"),
        ],
    )
    def test_bad_rate_stop_or_client_count_exits_2_before_the_dataset(
        self, tmp_path, capsys, overrides, message
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(minimal_config(data_dir=str(tmp_path / "nowhere"), **overrides))
        )
        assert main(["run", str(config_path), "--out-dir", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"clients": 3, "params": {"G": 2}}, ": G=2 must divide the client count 3"),
            ({"mechanism": "baseline", "clients": 4, "params": {"G": 2}},
             ": baseline schedules every client every round, got G=2"),
            ({"mechanism": "strategic-grouped", "clients": 4, "params": {"G": 2}},
             ".mechanism: mechanism must be one of ['baseline', 'strategic'], "
             "got 'strategic-grouped'"),
            ({"params": {"eps_low": 1.0}}, ".params: unknown keys ['eps_low']"),
            ({"params": {"eps_high": 25.0}}, ".params: unknown keys ['eps_high']"),
            ({"mechanism": "baseline", "eps": 5,
              "params": {"eps_min": 5, "eps_a": 5, "eps_max": 5}},
             ": baseline rewards ramp over [eps_min, eps_max], got eps_min = eps_max = 5"),
        ],
    )
    def test_bad_grouping_or_baseline_range_exits_2_before_the_dataset(
        self, tmp_path, capsys, overrides, message
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(minimal_config(
            data_dir=str(tmp_path / "nowhere"), **overrides)))
        assert main(["run", str(config_path), "--out-dir", str(tmp_path / "o")]) == 2
        assert f"{config_path}{message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides", [
        {"stop_accuracy": 0.0}, {"stop_accuracy": 1.0},
        {"clients": 10, "scheme": "disjoint"}, {"clients": 10, "scheme": "intermediary"},
    ])
    def test_boundary_stop_accuracy_and_client_count_parse(self, overrides):
        parse_config(minimal_config(**overrides))

    def test_missing_dataset_exits_1(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(minimal_config(data_dir=str(tmp_path / "nowhere")))
        )
        assert main(["run", str(config_path), "--out-dir", str(tmp_path / "o")]) == 1
        assert "fetch-data" in capsys.readouterr().err

    @pytest.mark.parametrize("dataset", ["missing", "corrupt"])
    def test_unusable_dataset_creates_no_output_directory(self, tmp_path, capsys, dataset):
        data = tmp_path / "data"
        if dataset == "corrupt":
            data.mkdir()
            for name in (n for pair in MNIST_FILES.values() for n in pair):
                (data / name).write_bytes(b"not an IDX file")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(minimal_config(data_dir=str(data), horizon=1)))
        out = tmp_path / "out" / "run"
        assert main(["run", str(config_path), "--out-dir", str(out)]) == 1
        assert not (tmp_path / "out").exists()
        assert ("fetch-data" if dataset == "missing" else "truncated") in capsys.readouterr().err

    def test_more_clients_than_train_rows_exits_2_before_training(
        self, tmp_path, idx_builder, monkeypatch, capsys
    ):
        data = tmp_path / "data"
        data.mkdir()
        for prefix, count in (("train", 50), ("t10k", 20)):
            images = np.zeros((count, 28, 28), dtype=np.uint8)
            idx_builder(data, images, np.arange(count) % 10, prefix=prefix)
        monkeypatch.setattr(cli, "run_simulation", None)  # any training call fails
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(minimal_config(data_dir=str(data), clients=60)))
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out-dir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{config_path}.clients: 60 clients exceed the 50 rows" in err

    @pytest.mark.parametrize("scheme", ["disjoint", "intermediary"])
    def test_more_clients_than_train_labels_exits_2_before_the_out_dir(
        self, tmp_path, idx_builder, monkeypatch, capsys, scheme
    ):
        data = tmp_path / "data"
        data.mkdir()
        for prefix, count in (("train", 40), ("t10k", 20)):
            images = np.zeros((count, 28, 28), dtype=np.uint8)
            idx_builder(data, images, np.arange(count) % 2, prefix=prefix)
        monkeypatch.setattr(cli, "run_simulation", None)  # any training call fails
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(minimal_config(data_dir=str(data), clients=3, scheme=scheme))
        )
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out-dir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{config_path}.clients: 3 clients exceed the 2 labels" in err

    @pytest.mark.parametrize("count", [0, 1])
    def test_test_split_too_small_to_score_exits_1_before_the_out_dir(
        self, tmp_path, idx_builder, monkeypatch, capsys, count
    ):
        data = tmp_path / "data"
        data.mkdir()
        for prefix, rows in (("train", 40), ("t10k", count)):
            images = np.zeros((rows, 28, 28), dtype=np.uint8)
            idx_builder(data, images, np.arange(rows) % 10, prefix=prefix)
        monkeypatch.setattr(cli, "run_simulation", None)  # any training call fails
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(minimal_config(data_dir=str(data))))
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out-dir", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"t10k-images-idx3-ubyte: {count} test images" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("raw", [[], [["seed", 1]], "ab", 5])
    def test_non_object_config_exits_2_before_the_dataset(
        self, tmp_path, monkeypatch, capsys, raw
    ):
        # A config that got as far as the (missing) dataset would exit 1.
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "nowhere"))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["run", str(config_path), "--seed", "3", "--out-dir", str(out)]) == 2
        assert f"{config_path}: expected an object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dataset", [[1], None, {"train-labels-idx1-ubyte": 5}])
    def test_replayed_manifest_with_a_malformed_dataset_exits_2_before_the_dataset(
        self, tmp_path, capsys, dataset
    ):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "artifact": "tokenfl",
            "config": minimal_config(data_dir=str(tmp_path / "nowhere")),
            "dataset": dataset,
        }))
        assert main(["run", str(manifest), "--out-dir", str(tmp_path / "o")]) == 2
        assert f"{manifest}.dataset: expected an object" in capsys.readouterr().err

    def test_replayed_manifest_naming_an_unknown_dataset_file_exits_2_before_the_dataset(
        self, tmp_path, capsys
    ):
        # A manifest that got as far as the (missing) dataset would exit 1.
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "artifact": "tokenfl",
            "config": minimal_config(data_dir=str(tmp_path / "nowhere")),
            "dataset": {"bogus-file": "abc", "train-labels-idx1-ubyte": "abc"},
        }))
        out = tmp_path / "o"
        assert main(["run", str(manifest), "--out-dir", str(out)]) == 2
        assert f"{manifest}.dataset: unknown file 'bogus-file'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("missing", [None, *DATASET_FILES, DATASET_FILES])
    def test_replayed_manifest_missing_a_dataset_file_exits_2_before_the_dataset(
        self, tmp_path, capsys, missing
    ):
        # None drops the whole dataset block. Each recorded md5 is wrong, so
        # a manifest that got as far as the dataset would exit 1.
        raw = {"artifact": "tokenfl", "config": minimal_config(data_dir=str(tmp_path / "nowhere"))}
        if missing is not None:
            dropped = set(missing if isinstance(missing, tuple) else [missing])
            raw["dataset"] = {k: v for k, v in RECORDED.items() if k not in dropped}
        first = DATASET_FILES[0] if missing is None or isinstance(missing, tuple) else missing
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["run", str(manifest), "--out-dir", str(out)]) == 2
        assert f"{manifest}.dataset: missing file {first!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("preset", [{"x": [1]}, "no-such-preset", 5, ["baseline-3c"]])
    def test_replayed_manifest_with_a_bad_preset_exits_2_before_the_dataset(
        self, tmp_path, capsys, preset
    ):
        # A manifest that got as far as the (missing) dataset would exit 1.
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "artifact": "tokenfl",
            "preset": preset,
            "config": minimal_config(data_dir=str(tmp_path / "nowhere")),
        }))
        out = tmp_path / "o"
        assert main(["run", str(manifest), "--out-dir", str(out)]) == 2
        assert f"{manifest}.preset: expected null or a preset name" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change,path", [
        ({"mechanism": "strategic-grouped", "clients": 4, "params": {"G": 2}},
         ".config.mechanism:"),
        ({"params": {"eps_low": 1.0, "eps_high": 25.0}},
         ".config.params: unknown keys ['eps_high', 'eps_low']"),
    ])
    def test_manifest_of_the_older_schema_exits_2_before_the_dataset(
        self, tmp_path, capsys, change, path
    ):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "artifact": "tokenfl",
            "config": minimal_config(data_dir=str(tmp_path / "nowhere"), **change),
            "dataset": RECORDED,
        }))
        assert main(["run", str(manifest), "--out-dir", str(tmp_path / "o")]) == 2
        assert f"{manifest}{path}" in capsys.readouterr().err

    def test_replayed_manifest_with_a_preset_name_reaches_the_dataset(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "artifact": "tokenfl",
            "preset": "baseline-3c",
            "config": minimal_config(data_dir=str(tmp_path / "nowhere")),
            "dataset": RECORDED,
        }))
        assert main(["run", str(manifest), "--out-dir", str(tmp_path / "o")]) == 1
        assert "not found in" in capsys.readouterr().err

    def test_label_outside_the_classes_exits_1_before_the_out_dir(
        self, tmp_path, idx_builder, capsys
    ):
        data = tmp_path / "data"
        write_tiny_dataset(data, idx_builder)
        images = np.zeros((40, 28, 28), dtype=np.uint8)
        _, labels = idx_builder(data, images, np.arange(40) % 11, prefix="train")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(minimal_config(data_dir=str(data))))
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out-dir", str(out)]) == 1
        assert not out.exists()
        assert f"{labels}: labels must be class ids in [0, 9]" in capsys.readouterr().err

    def test_images_the_model_cannot_take_exit_1_before_the_out_dir(
        self, tmp_path, idx_builder, monkeypatch, capsys
    ):
        data = tmp_path / "data"
        data.mkdir()
        for prefix, count in (("train", 40), ("t10k", 20)):
            images = np.zeros((count, 10, 10), dtype=np.uint8)
            idx_builder(data, images, np.arange(count) % 10, prefix=prefix)
        monkeypatch.setattr(cli, "run_simulation", None)  # any training call fails
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(minimal_config(data_dir=str(data))))
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out-dir", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "train-images-idx3-ubyte: images of 100 pixels, but the model takes 784" in err

    @pytest.mark.parametrize("rows", [11, 12, 14])
    def test_intermediary_without_a_shared_row_each_exits_2_before_the_out_dir(
        self, tmp_path, idx_builder, monkeypatch, capsys, rows
    ):
        # Ten clients on these train rows used to leave some partitions
        # empty and fail in round 1.
        data = tmp_path / "data"
        data.mkdir()
        for prefix, count in (("train", rows), ("t10k", 20)):
            images = np.zeros((count, 28, 28), dtype=np.uint8)
            idx_builder(data, images, np.arange(count) % 10, prefix=prefix)
        monkeypatch.setattr(cli, "run_simulation", None)  # any training call fails
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            minimal_config(data_dir=str(data), clients=10, scheme="intermediary")))
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out-dir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{config_path}.clients: 10 clients exceed the {rows // 2} shared rows" in err

    def test_each_dataset_file_is_opened_once(self, tmp_path, idx_builder, monkeypatch):
        data = tmp_path / "data"
        write_tiny_dataset(data, idx_builder)
        for name in MNIST_FILES["test"]:  # one split gzipped, one raw
            (data / (name + ".gz")).write_bytes(gzip.compress((data / name).read_bytes()))
            (data / name).unlink()
        on_disk = {p.name.removesuffix(".gz"): p for p in data.iterdir()}

        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if Path(str(file)).parent == data:
                opened.append(Path(str(file)).name)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(minimal_config(
            data_dir=str(data), horizon=1, learning={"batches": 1, "batch_size": 8}
        )))
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out-dir", str(out)]) == 0
        monkeypatch.undo()

        assert sorted(opened) == sorted(p.name for p in on_disk.values())
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dataset"] == {
            name: hashlib.md5(path.read_bytes()).hexdigest() for name, path in on_disk.items()
        }

    def test_unopenable_dataset_file_exits_1_before_the_out_dir(
        self, tmp_path, offline_config, capsys
    ):
        blocker = tmp_path / "data" / "t10k-labels-idx1-ubyte"
        blocker.unlink()
        blocker.mkdir()
        out = tmp_path / "out"
        assert main(["run", str(offline_config), "--out-dir", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"run: {blocker}: cannot open or map the file: ")
        assert len(err.splitlines()) == 1

    @staticmethod
    def descriptors_under(directory):
        fds = Path("/proc/self/fd")
        if not fds.is_dir():
            pytest.skip("no /proc/self/fd to list open descriptors")
        held = []
        for fd in fds.iterdir():
            try:
                target = Path(os.readlink(fd))
            except OSError:  # closed since the listing, e.g. the listing's own
                continue
            if target.parent == directory.resolve():
                held.append(target.name)
        return held

    def test_no_dataset_descriptor_outlives_the_datasets(self, tmp_path, offline_config):
        data = tmp_path / "data"
        datasets = load_mnist(data)
        # The counting sees a descriptor that a mapping keeps open.
        assert self.descriptors_under(data)
        del datasets
        gc.collect()
        assert self.descriptors_under(data) == []
        assert main(["run", str(offline_config), "--out-dir", str(tmp_path / "out")]) == 0
        gc.collect()
        assert self.descriptors_under(data) == []

    @pytest.mark.parametrize("exit_path", ["success", "simulation-failed",
                                           "unwritable-metrics", "md5-mismatch"])
    def test_nothing_outlives_the_run_command(self, tmp_path, offline_config, monkeypatch,
                                              exit_path):
        config, out = json.loads(offline_config.read_text()), tmp_path / "out"
        if exit_path == "simulation-failed":
            config.update(clip_radius=1e308, horizon=1, clients=3)
        elif exit_path == "unwritable-metrics":
            (out / "metrics.csv").mkdir(parents=True)
        elif exit_path == "md5-mismatch":
            config = {"artifact": "tokenfl", "config": config, "dataset": RECORDED}
        offline_config.write_text(json.dumps(config))
        real_md5s = learning._md5s

        def slow_md5s(files):  # a hash that ends well after a tiny run's first round
            time.sleep(0.1)
            return real_md5s(files)

        monkeypatch.setattr(learning, "_md5s", slow_md5s)
        hashes = []
        real_load_mnist = cli.load_mnist

        def keeping_the_digests(*args, **kwargs):
            loaded = real_load_mnist(*args, **kwargs)
            hashes.append(loaded[-1])
            return loaded

        monkeypatch.setattr(cli, "load_mnist", keeping_the_digests)
        code = main(["run", str(offline_config), "--out-dir", str(out)])
        assert code == (0 if exit_path == "success" else 1)
        (digests,) = hashes
        assert digests.done()
        assert [t.name for t in threading.enumerate() if t is not threading.main_thread()
                and not t.name.startswith("tokenfl_")] == []
        gc.collect()
        assert self.descriptors_under(tmp_path / "data") == []

    def test_replacing_a_mapped_file_keeps_the_loaded_pixels(self, tmp_path, offline_config):
        path = tmp_path / "data" / "train-images-idx3-ubyte"
        train, _ = load_mnist(path.parent)
        pixels = train.images.copy()
        header = path.read_bytes()[:16]
        cli._write_atomically(path, header + (255 - pixels).tobytes())
        assert np.array_equal(train.images, pixels)
        assert np.array_equal(load_mnist(path.parent)[0].images, 255 - pixels)


class TestAnalyzeCommand:
    def test_tables_cover_the_requested_grid(self, tmp_path):
        out = tmp_path / "analysis"
        code = main(
            ["analyze", "--eps", "15", "25", "--horizon", "50",
             "--out-dir", str(out)]
        )
        assert code == 0
        utilities = (out / "utilities.csv").read_text().splitlines()
        assert utilities[0] == "t,eps,stride,utility"
        assert len(utilities) == 1 + 2 * 50
        collapse = (out / "collapse.csv").read_text().splitlines()
        assert collapse[0] == "eps,stride,collapse_round"
        assert collapse[1] == "15.0,1,"
        assert collapse[2] == "25.0,1,11"

    def test_exactly_one_default_curve_never_crosses(self, tmp_path):
        out = tmp_path / "analysis"
        assert main(["analyze", "--out-dir", str(out)]) == 0
        collapse = (out / "collapse.csv").read_text().splitlines()[1:]
        no_crossing = [line for line in collapse if line.endswith(",")]
        assert len(no_crossing) == 1
        assert no_crossing[0].startswith("15.0")

    def test_empty_eps_list_yields_header_only(self, tmp_path):
        out = tmp_path / "analysis"
        assert main(["analyze", "--eps", "--out-dir", str(out)]) == 0
        assert (out / "utilities.csv").read_text().splitlines() == ["t,eps,stride,utility"]
        assert (out / "collapse.csv").read_text().splitlines() == [
            "eps,stride,collapse_round"
        ]

    @pytest.mark.parametrize("argv", [
        ["--stride", "0"], ["--horizon", "0"], ["--eps", "0.5"], ["--eps", "15", "26"],
    ])
    def test_bad_argument_exits_2_and_writes_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "analysis"
        assert main(["analyze", *argv, "--out-dir", str(out)]) == 2
        assert "analyze: need --stride >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_group_stride_delays_the_crossing(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["analyze", "--eps", "25", "--out-dir", str(out1)])
        main(["analyze", "--eps", "25", "--stride", "2", "--out-dir", str(out2)])
        r1 = int((out1 / "collapse.csv").read_text().splitlines()[1].split(",")[2])
        r2 = int((out2 / "collapse.csv").read_text().splitlines()[1].split(",")[2])
        assert r2 > r1


class TestNashCommand:
    def test_default_grid_verdict_is_equilibrium(self, tmp_path, capsys):
        out = tmp_path / "nash"
        code = main(["nash", "--clients", "2", "--horizon", "10",
                     "--out-dir", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_nash"] is True
        assert json.loads((out / "nash.json").read_text()) == payload

    @pytest.mark.parametrize("clients", ["0", "-3"])
    def test_empty_profile_exits_2(self, capsys, clients):
        assert main(["nash", "--clients", clients]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "profile must name at least one client" in captured.err

    def test_one_sided_grid_exits_2(self, capsys):
        assert main(["nash", "--grid", "15", "20", "25"]) == 2
        assert "grid" in capsys.readouterr().err


def nash_report(capsys) -> str:
    """stdout of `tokenfl nash --clients 2 --horizon 10`, which writes no file."""
    assert main(["nash", "--clients", "2", "--horizon", "10"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("under", [False, True], ids=["is-a-file", "under-a-file"])
@pytest.mark.parametrize("command", ["run", "analyze", "nash", "fetch-data"])
def test_out_dir_blocked_by_a_file_exits_1(tmp_path, idx_builder, monkeypatch, capsys,
                                           command, under):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "out" if under else blocker
    argv = {
        "analyze": ["analyze", "--out-dir"],
        "nash": ["nash", "--clients", "2", "--horizon", "10", "--out-dir"],
        "fetch-data": ["fetch-data", "--base-url", (tmp_path / "void").as_uri(), "--dest"],
    }
    if command == "run":
        write_tiny_dataset(tmp_path / "data", idx_builder)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(minimal_config(data_dir=str(tmp_path / "data"))))
        argv["run"] = ["run", str(config_path), "--out-dir"]
        monkeypatch.setattr(cli, "run_simulation", None)  # any training call fails
    assert main([*argv[command], str(out)]) == 1
    captured = capsys.readouterr()
    # nash prints its report before it makes the directory.
    assert captured.out == (nash_report(capsys) if command == "nash" else "")
    assert captured.err.startswith(f"{command}: cannot create output directory {out}: ")
    assert len(captured.err.splitlines()) == 1
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command, name", [
    ("run", "metrics.csv"), ("run", "manifest.json"),
    ("analyze", "utilities.csv"), ("analyze", "collapse.csv"), ("nash", "nash.json"),
])
def test_unwritable_output_file_exits_1_with_one_line(tmp_path, idx_builder, capsys,
                                                      command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)  # a directory where the file goes
    argv = {
        "analyze": ["analyze", "--horizon", "5"],
        "nash": ["nash", "--clients", "2", "--horizon", "10"],
    }
    if command == "run":
        write_tiny_dataset(tmp_path / "data", idx_builder)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(minimal_config(data_dir=str(tmp_path / "data"))))
        argv["run"] = ["run", str(config_path)]
    assert main([*argv[command], "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (nash_report(capsys) if command == "nash" else "")
    assert captured.err.startswith(f"{command}: cannot write {out / name}: ")
    assert len(captured.err.splitlines()) == 1


class TestFetchDataCommand:
    def test_importing_the_cli_loads_no_ssl(self):
        # Only fetch-data downloads, so only it pays for urllib's ssl.
        code = ("import sys, tokenfl.cli; "
                "print(sorted({'ssl', 'urllib.request'} & set(sys.modules)))")
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]"

    @pytest.fixture
    def mirror(self, tmp_path, idx_builder):
        mirror = tmp_path / "mirror"
        mirror.mkdir()
        rng = np.random.default_rng(0)
        for prefix, count in (("train", 4), ("t10k", 2)):
            images = rng.integers(0, 256, size=(count, 2, 2)).astype(np.uint8)
            labels = (np.arange(count) % 10).astype(np.uint8)
            img, lab = idx_builder(mirror, images, labels, prefix=prefix)
            for path in (img, lab):
                gz = mirror / (path.name + ".gz")
                gz.write_bytes(gzip.compress(path.read_bytes()))
                path.unlink()
        return mirror

    def test_downloads_and_unpacks(self, tmp_path, mirror):
        dest = tmp_path / "data"
        code = main(
            ["fetch-data", "--dest", str(dest), "--base-url", mirror.as_uri()]
        )
        assert code == 0
        ds = load_idx(
            dest / "train-images-idx3-ubyte", dest / "train-labels-idx1-ubyte"
        )
        assert len(ds) == 4

    def test_existing_files_are_skipped(self, tmp_path, mirror, capsys):
        dest = tmp_path / "data"
        main(["fetch-data", "--dest", str(dest), "--base-url", mirror.as_uri()])
        capsys.readouterr()
        assert main(
            ["fetch-data", "--dest", str(dest), "--base-url", mirror.as_uri()]
        ) == 0
        assert "skipping" in capsys.readouterr().out

    def test_unreachable_mirror_exits_1(self, tmp_path, capsys):
        dest = tmp_path / "data"
        bad = (tmp_path / "void").as_uri()
        assert main(["fetch-data", "--dest", str(dest), "--base-url", bad]) == 1
        assert "could not download" in capsys.readouterr().err

    @staticmethod
    def damaged_copy(mirror, path, damage):
        """A copy of `mirror` whose train-images .gz is `damage(bytes)`."""
        path.mkdir()
        for gz in mirror.iterdir():
            data = gz.read_bytes()
            (path / gz.name).write_bytes(
                damage(data) if gz.name.startswith("train-images") else data)
        return path

    def test_truncated_gzip_exits_1_and_leaves_no_file(self, tmp_path, mirror, capsys):
        bad = self.damaged_copy(mirror, tmp_path / "bad", lambda b: b[: len(b) // 2])
        dest = tmp_path / "data"
        assert main(["fetch-data", "--dest", str(dest), "--base-url", bad.as_uri()]) == 1
        err = capsys.readouterr().err
        assert "could not download train-images-idx3-ubyte" in err
        assert "Traceback" not in err
        assert list(dest.iterdir()) == []

    def test_corrupt_gzip_falls_back_to_the_next_mirror(self, tmp_path, mirror,
                                                        monkeypatch, capsys):
        bad = self.damaged_copy(mirror, tmp_path / "bad", lambda b: b"not a gzip stream")
        monkeypatch.setattr(cli, "MNIST_URLS", (bad.as_uri(), mirror.as_uri()))
        dest = tmp_path / "data"
        assert main(["fetch-data", "--dest", str(dest)]) == 0
        assert "trying next source" in capsys.readouterr().err
        ds = load_idx(dest / "train-images-idx3-ubyte", dest / "train-labels-idx1-ubyte")
        assert len(ds) == 4
        assert sorted(p.name for p in dest.iterdir()) == sorted(
            name for pair in MNIST_FILES.values() for name in pair)

    def test_interrupted_write_leaves_no_file(self, tmp_path, mirror, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", fail)
        dest = tmp_path / "data"
        with pytest.raises(OSError, match="disk full"):
            main(["fetch-data", "--dest", str(dest), "--base-url", mirror.as_uri()])
        assert list(dest.iterdir()) == []
