"""The benchmark's per-layer tracer (perfbench/run.py instrument()) wraps
tokenfl functions by name from outside the package. Installing and
removing it must work on the current code, so a renamed or unbound name
fails here rather than only in a traced benchmark run."""

import importlib.util
from pathlib import Path

from tokenfl import cli, economy, engine, mechanisms, strategy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
OWNERS = (cli, economy.TokenLedger, engine, mechanisms, strategy)


def test_tracer_installs_and_removes_cleanly(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)

    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = run.Tracer()
    run.instrument(tracer)
    try:
        assert economy.TokenLedger.spend is not before[1]["spend"]
        assert engine.model_age is strategy.model_age is not before[2]["model_age"]
    finally:
        tracer.unpatch()
    assert [dict(vars(owner)) for owner in OWNERS] == before
