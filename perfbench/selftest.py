"""Self-test of the benchmark's checks: corrupted outputs must count as failures.

    python3 perfbench/selftest.py

Builds a metrics.csv from the train-sustained reference economics (no
training needed), confirms it passes, then changes one balance and drops
one row and confirms that the rounds they touch are counted as failed.
Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import checks
from run import TRAINING

HEADER = ("round", "client", "eps") + checks.ECONOMIC + ("utility", "local_accuracy", "global_accuracy")


def metrics_from_reference(reference: dict) -> list:
    lines = [",".join(HEADER)]
    for r in sorted({r for r, _ in reference}):
        for (rr, c), values in sorted(reference.items()):
            if rr == r:
                flags = [str(int(v)) for v in values[:4]]
                tokens = [repr(v) for v in values[4:]]
                lines.append(",".join([str(r), str(c), "15.0", *flags, *tokens, "1.0", "0.5", ""]))
        lines.append(",".join([str(r), "global"] + [""] * 11 + ["0.5"]))
    return lines


def main() -> int:
    name = "train-sustained"
    reference = checks.read_reference((Path(__file__).parent / "reference" / f"{name}.csv").read_text())
    rules = TRAINING[name]["rules"]
    lines = metrics_from_reference(reference)
    clean = "\n".join(lines) + "\n"
    balance = HEADER.index("balance")

    corrupted = list(lines)
    at = next(i for i, line in enumerate(corrupted) if line.startswith("5,3,"))
    fields = corrupted[at].split(",")
    fields[balance] = repr(float(fields[balance]) + 1.0)
    corrupted[at] = ",".join(fields)
    corrupted.remove(next(line for line in corrupted if line.startswith("20,7,")))
    corrupted_text = "\n".join(corrupted) + "\n"

    cases = [
        ("clean metrics.csv", checks.check_metrics(clean, reference, rules), set()),
        ("balance of round 5 client 3 changed, row of round 20 client 7 dropped",
         checks.check_metrics(corrupted_text, reference, rules), {5, 20}),
        ("rerun compared byte for byte", checks.differing_rounds(corrupted_text, clean, range(1, 51)),
         {5, 20}),
    ]
    ok = True
    for label, failed, must_fail in cases:
        caught = must_fail <= set(failed) and (must_fail or not failed)
        ok &= bool(caught)
        print(f"{'ok  ' if caught else 'MISS'} {label}: {len(failed)} failed rounds {sorted(failed)}")
        for r in sorted(failed):
            print(f"       round {r}: {failed[r]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
