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
import hashlib
import json
import os
import sys
import tempfile
import urllib.request
import zlib
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .engine import MECHANISMS, SCHEMES, SimConfig, run_simulation
from .learning import MNIST_FILES, _resolve_idx_file, default_data_dir
from .mechanisms import MechanismParams, predict_collapse_round, utility
from .presets import preset_config, preset_names
from .strategy import nash_check

__all__ = ["main", "parse_config", "config_to_dict", "ConfigError"]

METRICS_HEADER = [
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

DEFAULT_NASH_GRID = [1, 5, 10, 13, 15, 17, 20, 23, 25]

MNIST_URLS = (
    "https://ossci-datasets.s3.amazonaws.com/mnist/",
    "https://storage.googleapis.com/cvdf-datasets/mnist/",
)


class ConfigError(ValueError):
    """Config schema violation; the message names the offending field path."""


def _expect(data, path, types, type_name):
    if not isinstance(data, types) or isinstance(data, bool) and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        raise ConfigError(f"{path}: expected {type_name}, got {data!r}")
    return data


def _number(data, path):
    if isinstance(data, bool) or not isinstance(data, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {data!r}")
    return data


def _integer(data, path):
    if isinstance(data, bool) or not isinstance(data, int):
        raise ConfigError(f"{path}: expected an integer, got {data!r}")
    return data


def _check_keys(data, path, allowed):
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}; allowed keys are {sorted(allowed)}")


_PARAM_KEYS = {
    "eps_min", "eps_max", "eps_a", "C", "n", "G",
    "c_min", "c_max", "eps_low", "eps_high",
}
_LEARNING_KEYS = {"batches", "batch_size", "lr"}
_TOP_KEYS = {
    "mechanism", "clients", "scheme", "eps", "horizon", "seed", "ldp",
    "ldp_mechanism", "clip_radius", "stop_accuracy", "data_dir",
    "learning", "params",
}


def parse_config(data: dict, source: str = "config") -> SimConfig:
    """Validate a config dict against the documented schema.

    Unknown keys and type mismatches raise ConfigError with the full
    field path. Returns the corresponding SimConfig.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: expected an object, got {data!r}")
    _check_keys(data, source, _TOP_KEYS)

    def path(key):
        return f"{source}.{key}"

    kwargs = {}
    if "mechanism" in data:
        mech = _expect(data["mechanism"], path("mechanism"), str, "a string")
        if mech not in MECHANISMS:
            raise ConfigError(f"{path('mechanism')}: must be one of {list(MECHANISMS)}")
        kwargs["mechanism"] = mech
    if "scheme" in data:
        scheme = _expect(data["scheme"], path("scheme"), str, "a string")
        if scheme not in SCHEMES:
            raise ConfigError(f"{path('scheme')}: must be one of {list(SCHEMES)}")
        kwargs["scheme"] = scheme
    if "clients" in data:
        kwargs["clients"] = _integer(data["clients"], path("clients"))
    if "horizon" in data:
        kwargs["horizon"] = _integer(data["horizon"], path("horizon"))
    if "seed" in data:
        kwargs["seed"] = _integer(data["seed"], path("seed"))
    if "eps" in data and data["eps"] is not None:
        eps = data["eps"]
        if isinstance(eps, list):
            kwargs["eps"] = [_number(e, f"{path('eps')}[{i}]") for i, e in enumerate(eps)]
        else:
            kwargs["eps"] = _number(eps, path("eps"))
    if "ldp" in data:
        if not isinstance(data["ldp"], bool):
            raise ConfigError(f"{path('ldp')}: expected true or false, got {data['ldp']!r}")
        kwargs["ldp"] = data["ldp"]
    if "ldp_mechanism" in data:
        kwargs["ldp_mechanism"] = _expect(
            data["ldp_mechanism"], path("ldp_mechanism"), str, "a string"
        )
    if "clip_radius" in data:
        kwargs["clip_radius"] = _number(data["clip_radius"], path("clip_radius"))
    if "stop_accuracy" in data and data["stop_accuracy"] is not None:
        kwargs["stop_accuracy"] = _number(data["stop_accuracy"], path("stop_accuracy"))
    elif "stop_accuracy" in data:
        kwargs["stop_accuracy"] = None
    if "data_dir" in data and data["data_dir"] is not None:
        kwargs["data_dir"] = _expect(data["data_dir"], path("data_dir"), str, "a string")

    learning = data.get("learning", {})
    if learning:
        _check_keys(learning, path("learning"), _LEARNING_KEYS)
        if "batches" in learning:
            kwargs["batches"] = _integer(learning["batches"], f"{path('learning')}.batches")
        if "batch_size" in learning:
            kwargs["batch_size"] = _integer(
                learning["batch_size"], f"{path('learning')}.batch_size"
            )
        if "lr" in learning:
            kwargs["lr"] = _number(learning["lr"], f"{path('learning')}.lr")

    raw_params = data.get("params", {})
    if raw_params:
        _check_keys(raw_params, path("params"), _PARAM_KEYS)
        pk = {}
        for key in _PARAM_KEYS & set(raw_params):
            if key in ("n", "G"):
                pk[key] = _integer(raw_params[key], f"{path('params')}.{key}")
            else:
                pk[key] = _number(raw_params[key], f"{path('params')}.{key}")
        try:
            kwargs["params"] = MechanismParams(**pk)
        except ValueError as err:
            raise ConfigError(f"{path('params')}: {err}") from None

    try:
        return SimConfig(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{source}: {err}") from None


def config_to_dict(config: SimConfig) -> dict:
    """Normalized schema echo of a SimConfig (eps resolved per client)."""
    return {
        "mechanism": config.mechanism,
        "clients": config.clients,
        "scheme": config.scheme,
        "eps": config.client_eps(),
        "horizon": config.horizon,
        "seed": config.seed,
        "ldp": config.ldp,
        "ldp_mechanism": config.ldp_mechanism,
        "clip_radius": config.clip_radius,
        "stop_accuracy": config.stop_accuracy,
        "data_dir": str(config.data_dir) if config.data_dir else None,
        "learning": {
            "batches": config.batches,
            "batch_size": config.batch_size,
            "lr": config.lr,
        },
        "params": asdict(config.params),
    }


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_metrics_csv(records, out_path: Path) -> None:
    """One row per (round, client) plus one global row per round."""
    with open(out_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_HEADER)
        for rec in records:
            for c in rec.clients:
                writer.writerow(
                    [
                        rec.round,
                        c.client,
                        _fmt(float(c.eps)),
                        _fmt(c.scheduled),
                        _fmt(c.participated),
                        _fmt(c.bought),
                        _fmt(c.evicted),
                        _fmt(float(c.earned)),
                        _fmt(float(c.spent)),
                        _fmt(float(c.expired)),
                        _fmt(float(c.balance)),
                        _fmt(None if c.utility is None else float(c.utility)),
                        _fmt(float(c.local_accuracy)),
                        "",
                    ]
                )
            writer.writerow(
                [rec.round, "global"] + [""] * 11 + [_fmt(float(rec.global_accuracy))]
            )


def _dataset_checksums(data_dir) -> dict:
    sums = {}
    directory = Path(data_dir) if data_dir else default_data_dir()
    for names in MNIST_FILES.values():
        for name in names:
            resolved = _resolve_idx_file(directory, name)
            sums[name] = hashlib.md5(resolved.read_bytes()).hexdigest()
    return sums


def cmd_run(args) -> int:
    if bool(args.config) == bool(args.preset):
        print("run: provide exactly one of a config file or --preset", file=sys.stderr)
        return 2

    preset_name = None
    if args.preset:
        preset_name = args.preset
        try:
            raw = preset_config(args.preset)
        except KeyError as err:
            print(f"run: {err.args[0]}", file=sys.stderr)
            return 2
        source = f"preset {args.preset}"
    else:
        config_path = Path(args.config)
        if not config_path.exists():
            print(f"run: config file {config_path} does not exist", file=sys.stderr)
            return 2
        try:
            raw = json.loads(config_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            print(f"run: {config_path} is not valid JSON: {err}", file=sys.stderr)
            return 2
        if isinstance(raw, dict) and "config" in raw and "artifact" in raw:
            preset_name = raw.get("preset")
            raw = raw["config"]
        source = str(config_path)

    if args.seed is not None:
        raw = dict(raw)
        raw["seed"] = args.seed

    try:
        config = parse_config(raw, source=source)
    except ConfigError as err:
        print(f"run: {err}", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        checksums = _dataset_checksums(config.data_dir)
    except FileNotFoundError as err:
        print(f"run: {err}", file=sys.stderr)
        return 1

    try:
        records = run_simulation(config)
    except Exception as err:
        print(f"run: simulation failed: {err}", file=sys.stderr)
        raise

    metrics_path = out_dir / "metrics.csv"
    write_metrics_csv(records, metrics_path)
    manifest = {
        "artifact": "tokenfl",
        "version": __version__,
        "preset": preset_name,
        "config": config_to_dict(config),
        "dataset": checksums,
        "outputs": {"metrics": metrics_path.name},
        "rounds_recorded": len(records),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    final = records[-1].global_accuracy if records else float("nan")
    print(f"run: {len(records)} rounds recorded, final global accuracy {final:.4f}")
    print(f"run: wrote {metrics_path} and {out_dir / 'manifest.json'}")
    return 0


def cmd_analyze(args) -> int:
    params = MechanismParams()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    utilities_path = out_dir / "utilities.csv"
    with open(utilities_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["t", "eps", "stride", "utility"])
        for eps in args.eps:
            for t in range(1, args.horizon + 1):
                writer.writerow(
                    [t, _fmt(float(eps)), args.stride,
                     _fmt(utility(t, eps, args.stride, params))]
                )

    collapse_path = out_dir / "collapse.csv"
    with open(collapse_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["eps", "stride", "collapse_round"])
        for eps in args.eps:
            round_index = predict_collapse_round(eps, args.stride, args.horizon, params)
            writer.writerow([_fmt(float(eps)), args.stride, _fmt(round_index)])

    print(f"analyze: wrote {utilities_path} and {collapse_path}")
    return 0


def cmd_nash(args) -> int:
    params = MechanismParams()
    profile = [params.eps_a] * args.clients
    try:
        report = nash_check(profile, args.grid, args.horizon, params)
    except ValueError as err:
        print(f"nash: {err}", file=sys.stderr)
        return 2
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    print(payload)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "nash.json").write_text(payload + "\n", encoding="utf-8")
    return 0 if report.is_nash else 1


def _download_idx(url: str) -> bytes:
    """The unpacked IDX bytes of one gzipped file."""
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
    dest.mkdir(parents=True, exist_ok=True)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
