"""tokenfl benchmark: preset runs and game sweeps, timed end to end and per layer.

    python3 perfbench/run.py --workload train-sustained --seed 1 --seconds 30 --trace 0

Run from the repository root. Prints a human-readable report, then, as
the last line of standard output, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a separate traced run with
`--trace 1`. Workloads, metrics and checks are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# One BLAS thread: on a 2-core box, 20-round runs spread about 10 % with
# one thread and about 30 % with two.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

TRAINING = {
    "train-sustained": {
        "preset": "strategic-10c-eps15",
        "rules": {"evictions": False, "participations": 500},
    },
    "collapse-evict": {
        "preset": "strategic-10c-eps25",
        # first_refusal comes from predict_collapse_round; the reference
        # pins the observed one to round 11.
        "rules": {"all_evicted": True},
    },
}
SETUP_PROBES = 5

# game-sweep: (C, n) pairs with multi-lot windows (n > 1), a fine eps
# grid containing eps_a = 15 and a long horizon.
PAIRS = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 3), (4, 2))
GRID = tuple(1.0 + 0.25 * i for i in range(97))
STRIDES = (1, 2, 3, 4, 5)
SWEEP_HORIZON = 1000
IMPORT_PROBES = 9

# Timings are scaled to a machine on which the workload's reference loop
# takes REFERENCE_S: a shared host slows this code by 20-40 % for seconds
# to minutes at a time, and a fixed loop like the workload's, run next to
# it, slows with it (see perfbench/README.md).
REFERENCE_S = 0.025
PYTHON_STEPS = 100_000
BLAS_STEPS = 32
# Import probes are scaled to a machine on which a fresh interpreter
# imports numpy in REFERENCE_IMPORT_S.
REFERENCE_IMPORT_S = 0.15

WORKLOADS = (*TRAINING, "game-sweep")


def time_for_another(start, seconds, durations):
    """Whether to start another timed operation: always a first one, then
    only while it is expected to end within `seconds` of `start`."""
    return not durations or time.perf_counter() - start + durations[-1] <= seconds


class _Accumulator:
    def __init__(self):
        self.total = 0.0
        self.seen = {}

    def add(self, key, x):
        self.seen[key] = self.seen.get(key, 0) + 1
        self.total += x / self.seen[key]


def python_reference() -> None:
    """A fixed pure-Python loop of method calls, dict lookups and float
    arithmetic, like the game code."""
    acc = _Accumulator()
    for i in range(PYTHON_STEPS):
        acc.add(i % 97, math.log1p(i))


@functools.cache
def _blas_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return (
        rng.integers(0, 256, size=(2000, 784), dtype=np.uint8),
        rng.standard_normal((784, 128)) * 0.01,
        rng.standard_normal((128, 10)) * 0.1,
    )


def blas_reference() -> None:
    """A fixed loop of 64-row batch gradients of a 784-128-10 network on
    uint8 images, like local training."""
    import numpy as np

    images, w1, w2 = _blas_inputs()
    rows = np.arange(64) * 31
    for step in range(BLAS_STEPS):
        x = images[(rows + step) % len(images)].astype(np.float64)
        h = np.maximum(x @ w1, 0.0)
        z = h @ w2
        d = z - z.max(axis=1, keepdims=True)
        h.T @ d
        x.T @ ((d @ w2.T) * (h > 0.0))


def timed(reference) -> float:
    t = time.perf_counter()
    reference()
    return time.perf_counter() - t


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def round_clock(engine):
    """Record the start and end of every `engine.run_round` call, and the
    seconds of the blas_reference() run just before each."""
    starts, ends, refs = [], [], []
    original = engine.run_round

    def clocked(*args, **kwargs):
        refs.append(timed(blas_reference))
        starts.append(time.perf_counter())
        try:
            return original(*args, **kwargs)
        finally:
            ends.append(time.perf_counter())

    engine.run_round = clocked
    try:
        yield starts, ends, refs
    finally:
        engine.run_round = original


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every tokenfl layer where they are looked up."""
    from tokenfl import cli, economy, engine, mechanisms, strategy

    def train_work(a, _):
        layers = a["params"].layers
        pairs = list(zip(layers[:-1], layers[1:]))
        # forward and weight gradients: 2 fi fo each; input gradients for
        # every layer but the first.
        flop = 4 * sum(fi * fo for fi, fo in pairs) + 2 * sum(fi * fo for fi, fo in pairs[1:])
        samples = a["batches"] * a["batch_size"]
        return {"samples": samples, "gflop": samples * flop / 1e9}

    def evaluate_label(a):
        split = a["dataset"].split
        return "learning.evaluate." + {"local-test": "local", "global-test": "global"}.get(split, split)

    p = tracer.patch
    p([cli], "main", "cli.main", span=True)
    p([cli], "write_metrics_csv", "cli.write_metrics_csv", span=True,
      measure=lambda a, _: {"bytes": Path(a["out_path"]).stat().st_size})
    p([cli], "run_simulation", "engine.run_simulation", span=True)
    p([engine], "init_state", "engine.init_state", span=True)
    p([engine], "run_round", "engine.run_round", span=True)
    p([engine], "load_mnist", "learning.load_mnist", span=True)
    p([engine], "partition", "learning.partition", span=True)
    p([engine], "init_model", "learning.init_model", span=True)
    p([engine], "local_train", "learning.local_train", span=True, measure=train_work)
    p([engine], "aggregate", "learning.aggregate", span=True,
      measure=lambda a, _: {"grads": len(a["grads"])})
    p([engine], "evaluate", evaluate_label, span=True,
      measure=lambda a, _: {"rows": len(a["dataset"])})
    p([engine], "perturb_gradients", "privacy.perturb_gradients", span=True,
      measure=lambda a, _: {"coords": len(a["g"])})
    p([strategy], "nash_check", "strategy.nash_check", span=True)
    p([mechanisms], "predict_collapse_round", "mechanisms.predict_collapse_round", span=True)
    for method in ("expire", "credit", "spend"):
        p([economy.TokenLedger], method, f"economy.TokenLedger.{method}")
    p([engine, strategy], "model_age", "economy.model_age")
    p([engine], "decide_participation", "strategy.decide_participation")
    p([engine], "client_round_payoff", "strategy.client_round_payoff")
    p([engine, strategy, mechanisms], "utility", "mechanisms.utility")
    p([engine, strategy], "reward", "mechanisms.reward")
    p([engine, strategy], "value", "mechanisms.value")
    p([strategy], "cost", "mechanisms.cost")


def layer_metrics(tracer: Tracer, ops: int, traced_s: float, untraced_s: float,
                  client_rows: int) -> dict:
    """Per-layer metrics of `ops` traced operations, as means per operation."""
    def calls(name):
        return tracer.total_calls(name) / ops

    def secs(name):
        return tracer.total_seconds(name) / ops

    def qty(key):
        return tracer.quantities[key] / ops

    local_evals = calls("learning.evaluate.local")
    spends = calls("economy.TokenLedger.spend")
    m = {
        "learning.local_train.calls": calls("learning.local_train"),
        "learning.local_train.s": secs("learning.local_train"),
        "learning.local_train.samples": qty("learning.local_train.samples"),
        "learning.local_train.gflop": qty("learning.local_train.gflop"),
        "learning.local_train.gflops": (
            qty("learning.local_train.gflop") / secs("learning.local_train")
            if calls("learning.local_train") else 0.0
        ),
        "learning.evaluate.local.calls": local_evals,
        "learning.evaluate.local.s": secs("learning.evaluate.local"),
        "learning.evaluate.global.calls": calls("learning.evaluate.global"),
        "learning.evaluate.global.s": secs("learning.evaluate.global"),
        "learning.evaluate.rows": qty("learning.evaluate.local.rows") + qty("learning.evaluate.global.rows"),
        "engine.local_accuracy.lookups": client_rows,
        "engine.local_accuracy.hit_ratio": 1.0 - local_evals / client_rows if client_rows else 0.0,
        "engine.run_round.self_s": tracer.self_seconds("engine.run_round") / ops,
        "engine.init_state.s": secs("engine.init_state"),
        "learning.load_mnist.s": secs("learning.load_mnist"),
        "learning.partition.s": secs("learning.partition"),
        "privacy.perturb_gradients.calls": calls("privacy.perturb_gradients"),
        "privacy.perturb_gradients.s": secs("privacy.perturb_gradients"),
        "privacy.perturb_gradients.coords": qty("privacy.perturb_gradients.coords"),
        "learning.aggregate.calls": calls("learning.aggregate"),
        "learning.aggregate.s": secs("learning.aggregate"),
        "learning.aggregate.grads": qty("learning.aggregate.grads"),
    }
    for method in ("expire", "credit", "spend"):
        m[f"economy.TokenLedger.{method}.calls"] = calls(f"economy.TokenLedger.{method}")
        m[f"economy.TokenLedger.{method}.s"] = secs(f"economy.TokenLedger.{method}")
    m["economy.spend.refused_ratio"] = (
        tracer.raised["economy.TokenLedger.spend"] / ops / spends if spends else 0.0
    )
    m["economy.model_age.calls"] = calls("economy.model_age")
    m["strategy.nash_check.self_s"] = tracer.self_seconds("strategy.nash_check") / ops
    m["strategy.decide_participation.calls"] = calls("strategy.decide_participation")
    m["mechanisms.utility.calls"] = calls("mechanisms.utility")
    m["mechanisms.utility.s"] = secs("mechanisms.utility")
    m["mechanisms.predict_collapse_round.s"] = secs("mechanisms.predict_collapse_round")
    m["cli.write_metrics_csv.s"] = secs("cli.write_metrics_csv")
    m["cli.write_metrics_csv.bytes"] = qty("cli.write_metrics_csv.bytes")
    layers = tracer.layer_self_seconds()
    for layer in ("cli", "engine", "learning", "privacy", "economy", "strategy", "mechanisms"):
        m[f"layer.{layer}.self_s"] = layers[layer] / ops
    m["trace.run_s"] = traced_s
    m["trace.overhead_s"] = traced_s - untraced_s
    return m


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, attempted: int, failures: dict) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.reasons.extend(list(failures.values())[: 10 - len(self.reasons)])


def run_cli(cli, argv):
    """Call `cli.main(argv)`; return (exit code, seconds). The program's
    stdout is kept out of the report; an exception counts as exit 1."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:  # the run's operations count as failed; keep measuring
        traceback.print_exc()
        code = 1
    return code, time.perf_counter() - start


def training(name, work, seed, seconds, trace, tally, report):
    import tokenfl.cli as cli
    import tokenfl.engine as engine
    from tokenfl.mechanisms import MechanismParams, predict_collapse_round
    from tokenfl.presets import preset_config

    spec = TRAINING[name]
    rules = dict(spec["rules"])
    if name == "collapse-evict":
        eps = preset_config(spec["preset"])["eps"]
        rules["first_refusal"] = predict_collapse_round(eps, 1, 50, MechanismParams())
    reference = checks.read_reference((HERE / "reference" / f"{name}.csv").read_text())
    rounds = sorted({r for r, _ in reference})
    argv = ["run", "--preset", spec["preset"], "--seed", str(seed)]
    texts = []  # metrics.csv of each full run; all must equal the first

    def full_run(k, tracer=None):
        out = work / f"full-{k}"
        if tracer:
            instrument(tracer)
            try:
                code, wall = run_cli(cli, argv + ["--out-dir", str(out)])
            finally:
                tracer.unpatch()
            starts = ends = refs = []
        else:
            with round_clock(engine) as (starts, ends, refs):
                code, wall = run_cli(cli, argv + ["--out-dir", str(out)])
            wall -= sum(refs)
            refs.append(timed(blas_reference))  # brackets the last round
        text = (out / "metrics.csv").read_text() if code == 0 else ""
        failures = checks.check_metrics(text, reference, rules)
        if texts:
            failures.update(checks.differing_rounds(text, texts[0], rounds))
        tally.add(len(rounds), failures)
        texts.append(text)
        return wall, starts, ends, refs, text

    start = time.perf_counter()
    if trace:
        untraced_s = full_run(0)[0]
        tracer, traced = Tracer(), []
        while time_for_another(start, seconds, traced):
            wall, _, _, _, text = full_run(len(texts), tracer)
            traced.append(wall)
        (work / "trace.json").write_text(json.dumps(tracer.dump()))
        client_rows = len(checks.parse_metrics(text)[0])
        report(f"traced runs: {len(traced)}, spans: {len(tracer.spans)} (written to {work / 'trace.json'})")
        return layer_metrics(tracer, len(traced), statistics.median(traced), untraced_s, client_rows)

    probe_config = preset_config(spec["preset"])
    probe_config.update(horizon=1, seed=seed)
    probe_path = work / "probe-config.json"
    probe_path.write_text(json.dumps(probe_config))
    blas_reference()  # builds its inputs
    setups, probe_texts = [], []
    for k in range(SETUP_PROBES):
        out = work / f"probe-{k}"
        with round_clock(engine) as (starts, _, refs):
            call_start = time.perf_counter()
            code, _ = run_cli(cli, ["run", str(probe_path), "--out-dir", str(out)])
        if starts:
            setups.append((starts[0] - call_start - refs[0]) * REFERENCE_S / refs[0])
        probe_texts.append((out / "metrics.csv").read_text() if code == 0 else "")

    elapsed, raw, refs_s, walls, round_s, updates_per_s = [], [], [], [], [], []
    while time_for_another(start, seconds, elapsed):
        call_start = time.perf_counter()
        wall, starts, ends, refs, text = full_run(len(texts))
        elapsed.append(time.perf_counter() - call_start)
        raw.append(wall)
        refs_s.extend(refs)
        # Seconds on a machine where blas_reference() takes REFERENCE_S,
        # judged by the reference runs between this run's rounds; each
        # round by the two that bracket it.
        scale = REFERENCE_S * len(refs) / sum(refs) if refs else 1.0
        walls.append(wall * scale)
        if starts:
            setups.append((starts[0] - call_start - refs[0]) * scale)
            durations = [(e - s) * 2 * REFERENCE_S / (before + after)
                         for s, e, before, after in zip(starts, ends, refs, refs[1:])]
            round_s.extend(durations)
            updates_per_s.append(checks.client_updates(text) / sum(durations))
    for text in probe_texts:
        tally.add(1, checks.differing_rounds(text, texts[0], [1]))

    report(
        f"full runs: {len(walls)}, rounds timed: {len(round_s)}, setup samples: {len(setups)} "
        f"({SETUP_PROBES} one-round probes), final global accuracy: "
        f"{checks.parse_metrics(texts[0])[1].get(rounds[-1], 'n/a')}"
    )
    report(
        f"unscaled median run: {statistics.median(raw):.4g} s; median blas_reference(): "
        f"{statistics.median(refs_s) * 1e3:.4g} ms, scaled to {REFERENCE_S * 1e3:g} ms"
    )
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(walls),
        "round_p50_s": percentile(round_s, 50),
        "round_p80_s": percentile(round_s, 80),
        "throughput_per_s": statistics.median(updates_per_s),
        "peak_rss_mb": peak_rss_mb(),
    }


def game_sweep(work, seed, seconds, trace, tally, report):
    from tokenfl import mechanisms, strategy
    from tokenfl.mechanisms import MechanismParams

    reference = json.loads((HERE / "reference" / "game-sweep.json").read_text())
    operations = checks.sweep_operations(reference)
    order = random.Random(seed)
    pairs, scans = list(PAIRS), [(s, e) for s in STRIDES for e in GRID]
    order.shuffle(pairs)
    order.shuffle(scans)
    trajectories = len(PAIRS) * len(GRID)

    def sweep(tracer=None):
        """One full sweep. Returns the seconds of its seven timed parts
        (the six nash_check calls, then the collapse scans together) and
        of the python_reference() run just before each."""
        parts, refs = [], []

        def part(work):
            refs.append(timed(python_reference))
            t = time.perf_counter()
            result = work()
            parts.append(time.perf_counter() - t)
            return result

        if tracer:
            instrument(tracer)
        try:
            reports = {}
            for C, n in pairs:
                params = MechanismParams(C=C, n=n)
                reports[(C, n)] = part(
                    lambda: strategy.nash_check([params.eps_a], GRID, SWEEP_HORIZON, params)
                )
            params = MechanismParams()
            collapse = part(lambda: {
                (stride, eps): mechanisms.predict_collapse_round(eps, stride, SWEEP_HORIZON, params)
                for stride, eps in scans
            })
        finally:
            if tracer:
                tracer.unpatch()
        tally.add(operations, checks.check_sweep(checks.sweep_record(reports, collapse), reference))
        return parts, refs

    start = time.perf_counter()
    if trace:
        untraced_s = sum(sweep()[0])
        tracer, traced = Tracer(), []
        while time_for_another(start, seconds, traced):
            traced.append(sum(sweep(tracer)[0]))
        (work / "trace.json").write_text(json.dumps(tracer.dump()))
        report(f"traced sweeps: {len(traced)}, spans: {len(tracer.spans)}")
        return layer_metrics(tracer, len(traced), statistics.median(traced), untraced_s, 0)

    elapsed, raw, refs_s, walls, pair_s, rates = [], [], [], [], [], []
    while time_for_another(start, seconds, elapsed):
        t = time.perf_counter()
        parts, refs = sweep()
        elapsed.append(time.perf_counter() - t)
        # Seconds on a machine where python_reference() takes REFERENCE_S,
        # judged by the reference runs interleaved with this sweep's parts.
        scale = REFERENCE_S * len(refs) / sum(refs)
        raw.append(sum(parts))
        refs_s.extend(refs)
        walls.append(sum(parts) * scale)
        pair_s.extend(p * scale for p in parts[:-1])
        rates.append(trajectories / (sum(parts[:-1]) * scale))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def fresh_import(module):
        return timed(lambda: subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True))

    # Each import of tokenfl is scaled by the numpy imports just before
    # and after it.
    imports, numpy_s = [], [fresh_import("numpy")]
    for _ in range(IMPORT_PROBES):
        tokenfl_s = fresh_import("tokenfl")
        numpy_s.append(fresh_import("numpy"))
        imports.append(tokenfl_s * 2 * REFERENCE_IMPORT_S / (numpy_s[-2] + numpy_s[-1]))
    report(
        f"sweeps: {len(walls)} of {trajectories} trajectories and {len(scans)} collapse scans; "
        f"nash_check calls timed: {len(pair_s)}; import probes: {IMPORT_PROBES}"
    )
    report(
        f"unscaled median sweep: {statistics.median(raw):.4g} s; median python_reference(): "
        f"{statistics.median(refs_s) * 1e3:.4g} ms, scaled to {REFERENCE_S * 1e3:g} ms; "
        f"median numpy import: {statistics.median(numpy_s):.4g} s, scaled to {REFERENCE_IMPORT_S:g} s"
    )
    return {
        "setup_s": statistics.median(imports),
        "run_s": statistics.median(walls),
        "round_p50_s": percentile(pair_s, 50),
        "round_p80_s": percentile(pair_s, 80),
        "throughput_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb(),
    }


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            rev = git.stdout.strip() if git.returncode == 0 else "unknown (git failed)"
        except OSError:
            rev = "unknown (no git)"
    return {
        "git_rev": rev,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "tokenfl" / "__init__.py").is_file():
        print(f"perfbench: no tokenfl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    def report(line):
        print(f"[{args.workload}] {line}", flush=True)

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)
    if args.workload in TRAINING:
        data = WORK / "data"
        subprocess.run([sys.executable, str(HERE / "synth.py"), str(data), str(args.seed)], check=True)
        os.environ["TOKENFL_DATA_DIR"] = str(data)

    env = environment()
    report("environment: " + json.dumps(env, sort_keys=True))
    tally = Tally()
    if args.workload in TRAINING:
        values = training(args.workload, work, args.seed, args.seconds, args.trace, tally, report)
    else:
        values = game_sweep(work, args.seed, args.seconds, args.trace, tally, report)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    for reason in tally.reasons:
        report(f"FAILED: {reason}")
    for name, m in metrics.items():
        report(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps({"environment": env, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
