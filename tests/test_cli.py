"""Command-line front end: config schema enforcement, CSV emission,
manifest replay, the analyze/nash subcommands, and dataset fetching."""

import gzip
import json

import numpy as np
import pytest

from tokenfl import cli
from tokenfl.cli import (
    METRICS_HEADER,
    ConfigError,
    config_to_dict,
    main,
    parse_config,
    write_metrics_csv,
)
from tokenfl.engine import ClientRound, RoundRecord
from tokenfl.learning import MNIST_FILES, load_idx


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


class TestParseConfig:
    def test_minimal_config_parses(self):
        config = parse_config(minimal_config())
        assert config.clients == 2
        assert config.batches == 5

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

    def test_null_stop_accuracy_disables_the_stop(self):
        config = parse_config(minimal_config(stop_accuracy=None))
        assert config.stop_accuracy is None

    def test_round_trip_through_normalized_echo(self):
        config = parse_config(minimal_config())
        echo = config_to_dict(config)
        again = parse_config(echo)
        assert config_to_dict(again) == echo
        assert echo["eps"] == [15.0, 15.0]


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
        rows = [
            ClientRound(
                client=0, eps=15.0, scheduled=True, participated=True,
                bought=True, evicted=False, earned=1.0, spent=1.0,
                expired=0.0, balance=0.0, utility=2.5, local_accuracy=0.75,
            ),
            ClientRound(
                client=1, eps=25.0, scheduled=True, participated=False,
                bought=False, evicted=True, earned=0.0, spent=0.0,
                expired=0.5, balance=0.0, utility=None, local_accuracy=0.5,
            ),
        ]
        records = [RoundRecord(round=1, clients=rows, global_accuracy=0.625)]
        out = tmp_path / "metrics.csv"
        write_metrics_csv(records, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(METRICS_HEADER)
        assert lines[1] == "1,0,15.0,1,1,1,0,1.0,1.0,0.0,0.0,2.5,0.75,"
        assert lines[2] == "1,1,25.0,1,0,0,1,0.0,0.0,0.5,0.0,,0.5,"
        assert lines[3] == "1,global,,,,,,,,,,,,0.625"
        assert len(lines) == 4


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

    @pytest.mark.parametrize("learning", [{"batch_size": 0}, {"batches": -1}])
    def test_bad_learning_field_exits_2_before_the_dataset(self, tmp_path, capsys, learning):
        # The data directory does not exist either: a config that got as
        # far as the dataset would exit 1.
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(minimal_config(learning=learning, data_dir=str(tmp_path / "nowhere")))
        )
        assert main(["run", str(config_path), "--out-dir", str(tmp_path / "o")]) == 2
        assert "batch_size >= 1" in capsys.readouterr().err

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
            ({"learning": {"lr": -1}}, "lr must be > 0"),
            ({"learning": {"lr": 0}}, "lr must be > 0"),
            ({"stop_accuracy": 5}, "stop_accuracy must be in [0, 1]"),
            ({"stop_accuracy": -0.5}, "stop_accuracy must be in [0, 1]"),
            ({"clients": 11, "scheme": "disjoint"}, "disjoint scheme supports at most 10"),
            ({"clients": 11, "scheme": "intermediary"}, "intermediary scheme supports at most 10"),
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

    def test_one_sided_grid_exits_2(self, capsys):
        assert main(["nash", "--grid", "15", "20", "25"]) == 2
        assert "grid" in capsys.readouterr().err


class TestFetchDataCommand:
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
