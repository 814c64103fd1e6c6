"""Command-line front end: run configs or presets, analyze utility
curves, check the equilibrium, and fetch the dataset.

`run` executes a simulation described by a JSON config file (or a named
preset) and writes a metrics CSV plus a manifest JSON that replays to
byte-identical output. `analyze` tabulates utility curves and collapse
rounds without any training. `nash` prints the deviation report as
JSON. `fetch-data` downloads and unpacks the standard IDX files into
the data directory.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import json
import os
import sys
import tempfile
import zlib
from dataclasses import asdict, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints

from . import __version__
from .engine import COLUMNS, ConfigError, SimConfig, check_inputs, run_simulation
from .learning import MNIST_FILES, IdxParseError, default_data_dir, load_mnist
from .mechanisms import MechanismParams, predict_collapse_round, utility
from .presets import preset_config, preset_names
from .strategy import nash_check

__all__ = ["main", "parse_config", "config_to_dict", "ConfigError"]

# A client row fills every column but global_accuracy, which only the
# round's global row fills.
METRICS_HEADER = ["round", "client", *COLUMNS, "local_accuracy", "global_accuracy"]

DEFAULT_NASH_GRID = [1, 5, 10, 13, 15, 17, 20, 23, 25]

MNIST_URLS = (
    "https://ossci-datasets.s3.amazonaws.com/mnist/",
    "https://storage.googleapis.com/cvdf-datasets/mnist/",
)


# The SimConfig fields that the schema nests under "learning". Every
# other field is a top-level key, and "params" holds the MechanismParams
# fields.
_LEARNING_FIELDS = ("batches", "batch_size", "lr")

_TYPE_NAMES = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "a list of numbers",
    type(None): "null",
}


def _is(value, kind) -> bool:
    """JSON value `value` has Python type `kind`; an integer is a number
    but true/false is neither."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _object(data, schema, path) -> dict:
    """The checked values of object `data`, whose keys must all name
    entries of `schema` (key -> annotation or nested schema)."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {data!r}")
    unknown = sorted(set(data) - set(schema))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}; allowed keys are {sorted(schema)}")
    return {key: _check(value, schema[key], f"{path}.{key}") for key, value in data.items()}


def _check(value, tp, path):
    """`value` checked against annotation `tp`: a nested schema, a
    dataclass, a Literal, or a union of bool, int, float, str, None and
    list[float]. Numbers must be finite."""
    if isinstance(tp, dict):
        return _object(value, tp, path)
    if is_dataclass(tp):
        kwargs = _object(value, get_type_hints(tp), path)
        try:
            return tp(**kwargs)
        except ValueError as err:
            raise ConfigError(f"{path}: {err}") from None
    if get_origin(tp) is Literal:
        if value not in get_args(tp):
            name = path.rpartition(".")[2]
            raise ConfigError(
                f"{path}: {name} must be one of {list(get_args(tp))}, got {value!r}"
            )
        return value
    # Python 3.10's get_type_hints turns `X | None` with a None default
    # into typing.Union.
    kinds = get_args(tp) if get_origin(tp) in (Union, UnionType) else (tp,)
    kind = next((k for k in kinds if _is(value, get_origin(k) or k)), None)
    if kind is None:
        expected = " or ".join(_TYPE_NAMES[get_origin(k) or k] for k in kinds)
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")
    if isinstance(value, list):
        (item,) = get_args(kind)
        return [_check(v, item, f"{path}[{i}]") for i, v in enumerate(value)]
    # Rejects NaN and infinities, and integers too large for a float.
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return value


def parse_config(data: dict, source: str = "config") -> SimConfig:
    """Validate a config dict against the schema of SimConfig's fields.

    Unknown keys, type mismatches and non-finite numbers raise
    ConfigError with the full field path, as do SimConfig's and
    MechanismParams' own value checks. Returns the corresponding
    SimConfig.
    """
    schema = get_type_hints(SimConfig)
    schema["learning"] = {name: schema.pop(name) for name in _LEARNING_FIELDS}
    kwargs = _object(data, schema, source)
    kwargs.update(kwargs.pop("learning", {}))
    try:
        return SimConfig(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{source}: {err}") from None


def config_to_dict(config: SimConfig) -> dict:
    """Normalized schema echo of a SimConfig (eps resolved per client)."""
    echo = asdict(config)
    echo["eps"] = config.client_eps()
    echo["learning"] = {name: echo.pop(name) for name in _LEARNING_FIELDS}
    return echo


def _fmt(x) -> str:
    if x is None or x != x:  # NaN is a cell with no value
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(float(x))  # a numpy float's repr names its type
    return str(x)


def write_metrics_csv(run, out_path: Path) -> None:
    """One row per (round, client) plus one global row per round, from a
    Run's columns; .tolist() keeps each float's repr."""
    names = [*COLUMNS, "local_accuracy"]
    columns = [run.columns[name].tolist() for name in names]
    with open(out_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_HEADER)
        blanks = [""] * len(names)
        for r, accuracy in enumerate(run.global_accuracy.tolist(), 1):
            for k, cells in enumerate(zip(*(column[r - 1] for column in columns))):
                writer.writerow([r, k, *map(_fmt, cells), ""])
            writer.writerow([r, "global", *blanks, _fmt(accuracy)])


def _make_out_dir(out_dir: Path) -> list:
    """Make `out_dir` and its missing parents; returns those made, innermost first."""
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {out_dir}: {err.strerror}",
                          exit_code=1) from None
    return created


def cmd_run(args) -> int:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("provide exactly one of a config file or --preset")
    preset_name, recorded = None, {}
    if args.preset:
        preset_name, source = args.preset, f"preset {args.preset}"
        try:
            raw = preset_config(args.preset)
        except KeyError as err:
            raise ConfigError(err.args[0]) from None
    else:
        config_path = Path(args.config)
        source = str(config_path)
        if not config_path.exists():
            raise ConfigError(f"config file {config_path} does not exist")
        try:
            raw = json.loads(config_path.read_text(encoding="utf-8"))
        except ValueError as err:  # JSONDecodeError, non-UTF-8 bytes, an integer of 4300+ digits
            raise ConfigError(f"{config_path} is not valid JSON: {err}") from None
        if isinstance(raw, dict) and "config" in raw and "artifact" in raw:
            preset_name, recorded = raw.get("preset"), raw.get("dataset", {})
            if preset_name is not None and preset_name not in preset_names():
                raise ConfigError(f"{config_path}.preset: expected null or a preset name, "
                                  f"got {preset_name!r}")
            if not isinstance(recorded, dict) or not all(
                    isinstance(md5, str) for md5 in recorded.values()):
                raise ConfigError(f"{config_path}.dataset: expected an object mapping file "
                                  f"names to md5 strings, got {recorded!r}")
            raw = raw["config"]
    if args.seed is not None and isinstance(raw, dict):  # parse_config rejects a non-object
        raw = {**raw, "seed": args.seed}
    config = parse_config(raw, source=source)

    checksums = {}
    try:
        datasets = load_mnist(config.data_dir, checksums)
    except (FileNotFoundError, IdxParseError) as err:
        raise ConfigError(str(err), exit_code=1) from None
    check_inputs(config, datasets, source)
    for name, md5 in sorted(recorded.items()):
        if checksums.get(name) != md5:
            raise ConfigError(f"dataset file {name} has md5 {checksums.get(name)}, "
                              f"but the manifest records {md5}", exit_code=1)

    out_dir = Path(args.out_dir)
    created = _make_out_dir(out_dir)
    try:
        run = run_simulation(config, datasets)
    except ValueError as err:  # e.g. a model past float32's range
        print(f"run: simulation failed: {err}", file=sys.stderr)
        for d in created:
            d.rmdir()
        return 1

    metrics_path, manifest_path = out_dir / "metrics.csv", out_dir / "manifest.json"
    manifest = {
        "artifact": "tokenfl",
        "version": __version__,
        "preset": preset_name,
        "config": config_to_dict(config),
        "dataset": checksums,
        "outputs": {"metrics": metrics_path.name},
        "rounds_recorded": run.rounds,
    }
    path = metrics_path
    try:
        write_metrics_csv(run, path)
        path = manifest_path
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    except OSError as err:  # e.g. a directory where an output file goes
        raise ConfigError(f"cannot write {path}: {err.strerror}", exit_code=1) from None
    final = run.global_accuracy[-1] if run.rounds else float("nan")
    print(f"run: {run.rounds} rounds recorded, final global accuracy {final:.4f}")
    print(f"run: wrote {metrics_path} and {manifest_path}")
    return 0


def cmd_analyze(args) -> int:
    params = MechanismParams()
    bad_eps = [e for e in args.eps if not params.eps_min <= e <= params.eps_max]
    if args.stride < 1 or args.horizon < 1 or bad_eps:
        raise ConfigError(
            f"need --stride >= 1, --horizon >= 1 and every --eps in "
            f"[{params.eps_min}, {params.eps_max}], got {args.stride}, {args.horizon}, {bad_eps}"
        )
    out_dir = Path(args.out_dir)
    _make_out_dir(out_dir)

    utilities_path = out_dir / "utilities.csv"
    with open(utilities_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["t", "eps", "stride", "utility"])
        writer.writerows([t, _fmt(eps), args.stride, _fmt(utility(t, eps, args.stride, params))]
                         for eps in args.eps for t in range(1, args.horizon + 1))

    collapse_path = out_dir / "collapse.csv"
    with open(collapse_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["eps", "stride", "collapse_round"])
        for eps in args.eps:
            round_index = predict_collapse_round(eps, args.stride, args.horizon, params)
            writer.writerow([_fmt(eps), args.stride, _fmt(round_index)])

    print(f"analyze: wrote {utilities_path} and {collapse_path}")
    return 0


def cmd_nash(args) -> int:
    params = MechanismParams()
    profile = [params.eps_a] * args.clients
    try:
        report = nash_check(profile, args.grid, args.horizon, params)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        _make_out_dir(out_dir)
        (out_dir / "nash.json").write_text(payload + "\n", encoding="utf-8")
    print(payload)
    return 0 if report.is_nash else 1


def _download_idx(url: str) -> bytes:
    """The unpacked IDX bytes of one gzipped file."""
    import urllib.request  # loads ssl, which only fetch-data needs

    with urllib.request.urlopen(url) as resp:
        return gzip.decompress(resp.read())


def _write_atomically(target: Path, data: bytes) -> None:
    """Write through a temp file in the target's directory, then rename,
    so an interrupted write never leaves a partial target behind."""
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_fetch_data(args) -> int:
    dest = Path(args.dest) if args.dest else default_data_dir()
    _make_out_dir(dest)
    bases = [args.base_url] if args.base_url else list(MNIST_URLS)
    names = [name for pair in MNIST_FILES.values() for name in pair]
    for name in names:
        target = dest / name
        if target.exists():
            print(f"fetch-data: {target} already present, skipping")
            continue
        data = None
        for base in bases:
            url = base.rstrip("/") + "/" + name + ".gz"
            try:
                data = _download_idx(url)
                break
            except (OSError, EOFError, zlib.error) as err:  # BadGzipFile is an OSError
                print(f"fetch-data: {url} failed ({err}), trying next source", file=sys.stderr)
        if data is None:
            print(f"fetch-data: could not download {name} from any source", file=sys.stderr)
            return 1
        _write_atomically(target, data)
        print(f"fetch-data: wrote {target}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenfl",
        description="Token-incentivized federated learning simulator",
    )
    parser.add_argument("--version", action="version", version=f"tokenfl {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run a simulation from a config file or preset")
    run.add_argument("config", nargs="?", help="JSON config (or a manifest to replay)")
    run.add_argument("--preset", choices=preset_names(), help="named reference experiment")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out-dir", default="runs/latest", help="output directory")
    run.set_defaults(func=cmd_run)

    analyze = subparsers.add_parser("analyze", help="tabulate utility curves, no training")
    analyze.add_argument("--eps", type=float, nargs="*", default=[15.0, 17.0, 20.0, 25.0])
    analyze.add_argument("--stride", type=int, default=1)
    analyze.add_argument("--horizon", type=int, default=50)
    analyze.add_argument("--out-dir", default="runs/analyze")
    analyze.set_defaults(func=cmd_analyze)

    nash = subparsers.add_parser("nash", help="brute-force unilateral deviation check")
    nash.add_argument("--grid", type=float, nargs="*", default=DEFAULT_NASH_GRID)
    nash.add_argument("--horizon", type=int, default=50)
    nash.add_argument("--clients", type=int, default=10)
    nash.add_argument("--out-dir", default=None)
    nash.set_defaults(func=cmd_nash)

    fetch = subparsers.add_parser("fetch-data", help="download the IDX dataset files")
    fetch.add_argument("--dest", default=None, help="target directory (default: data dir)")
    fetch.add_argument("--base-url", default=None, help="override the download mirror")
    fetch.set_defaults(func=cmd_fetch_data)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:  # a refused input, named by its field, file or directory
        print(f"{args.command}: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
