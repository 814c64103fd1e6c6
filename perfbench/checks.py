"""Correctness checks on the program's outputs.

An operation is one simulation round, or one priced trajectory or
collapse scan of a game sweep. Each check returns the operations that
failed, with the first reason found for each, so the benchmark can
count failed operations against attempted ones.
"""

from __future__ import annotations

import csv
import io
import math

# The economic columns of metrics.csv. They follow from the game rules
# alone, so they are the same for every dataset and seed.
ECONOMIC = ("scheduled", "participated", "bought", "evicted", "earned", "spent", "expired", "balance")
PAYOFF_RTOL = 1e-9


def parse_metrics(text: str):
    """metrics.csv text -> ({(round, client): row}, {round: global accuracy})."""
    clients, global_accuracy = {}, {}
    for row in csv.DictReader(io.StringIO(text)):
        r = int(row["round"])
        if row["client"] == "global":
            global_accuracy[r] = row["global_accuracy"]
        else:
            clients[(r, int(row["client"]))] = row
    return clients, global_accuracy


def read_reference(text: str):
    """Reference CSV (round, client, economic columns) -> {(round, client): values}."""
    return {
        (int(row["round"]), int(row["client"])): tuple(float(row[c]) for c in ECONOMIC)
        for row in csv.DictReader(io.StringIO(text))
    }


def _in_unit_interval(text) -> bool:
    try:
        return 0.0 <= float(text) <= 1.0
    except ValueError:
        return False


def check_metrics(text: str, reference: dict, rules: dict) -> dict:
    """Failed rounds of one 50-round metrics.csv: {round: reason}.

    Checks every client row against the reference economics, token
    conservation (previous balance + earned - spent - expired =
    balance), accuracies in [0, 1], and the workload's `rules`:
    `evictions` (False: nobody may be evicted), `participations` (total
    count), `first_refusal` (first round in which a scheduled client
    does not train) and `all_evicted` (every client evicted at the end).
    """
    failed = {}

    def fail(r, why):
        failed.setdefault(r, why)

    try:
        rows, global_accuracy = parse_metrics(text)
    except (KeyError, ValueError, csv.Error) as err:
        return {r: f"unreadable metrics.csv: {err!r}" for r, _ in reference}

    for key, want in reference.items():
        row = rows.get(key)
        if row is None:
            fail(key[0], f"row round {key[0]} client {key[1]} missing")
        elif tuple(float(row[c]) for c in ECONOMIC) != want:
            fail(key[0], f"economics of round {key[0]} client {key[1]} differ from the reference")
    for r, c in rows.keys() - reference.keys():
        fail(r, f"unexpected row round {r} client {c}")

    for (r, c), row in rows.items():
        before = 0.0 if r == 1 else rows.get((r - 1, c), {}).get("balance")
        if before is None:
            continue
        flow = float(before) + float(row["earned"]) - float(row["spent"]) - float(row["expired"])
        if not math.isclose(flow, float(row["balance"]), abs_tol=1e-9):
            fail(r, f"tokens not conserved for client {c}: {flow} != {row['balance']}")
        if not _in_unit_interval(row["local_accuracy"]):
            fail(r, f"local accuracy {row['local_accuracy']!r} of client {c} outside [0, 1]")

    rounds = sorted({r for r, _ in reference})
    for r in rounds:
        if not _in_unit_interval(global_accuracy.get(r, "")):
            fail(r, f"global accuracy of round {r} missing or outside [0, 1]")

    last = rounds[-1]
    if rules.get("evictions") is False:
        for (r, c), row in rows.items():
            if row["evicted"] == "1":
                fail(r, f"client {c} evicted in round {r}")
    if "participations" in rules:
        count = sum(row["participated"] == "1" for row in rows.values())
        if count != rules["participations"]:
            fail(last, f"{count} participations, expected {rules['participations']}")
    if "first_refusal" in rules:
        refusals = [r for (r, _), row in rows.items()
                    if row["scheduled"] == "1" and row["participated"] == "0"]
        first = min(refusals, default=None)
        if first != rules["first_refusal"]:
            fail(first or last, f"first refusal in round {first}, predicted {rules['first_refusal']}")
    if rules.get("all_evicted"):
        if any(row["evicted"] != "1" for (r, _), row in rows.items() if r == last):
            fail(last, "not every client is evicted at the end")
    return failed


def _lines_by_round(text: str):
    header, *lines = text.splitlines()
    rounds = {}
    for line in lines:
        rounds.setdefault(line.split(",", 1)[0], []).append(line)
    return header, rounds


def differing_rounds(text: str, expected: str, rounds) -> dict:
    """Rounds among `rounds` whose metrics.csv lines are not byte-identical."""
    header, got = _lines_by_round(text)
    want_header, want = _lines_by_round(expected)
    return {
        r: f"round {r} not byte-identical to the first run with this seed"
        for r in rounds
        if header != want_header or got.get(str(r)) != want.get(str(r))
    }


def sweep_record(reports: dict, collapse: dict) -> dict:
    """JSON-ready sweep result: per (C, n) pair each priced eps ->
    [payoff, participated rounds], and per stride each eps -> collapse round.

    `reports` maps (C, n) to a NashReport; the profile eps has no
    participated count in the report, so it is recorded as None.
    """
    pairs = {}
    for (C, n), report in sorted(reports.items()):
        d = report.to_dict()
        base = d["profile_payoffs"][0]
        priced = {repr(float(d["profile"][0])): [base, None]}
        for dev in d["deviations"]:
            consistent = dev["delta"] == dev["payoff"] - base and dev["profitable"] == (dev["delta"] > 0)
            priced[repr(dev["eps"])] = [dev["payoff"], dev["participated_rounds"] if consistent else "inconsistent"]
        pairs[f"C={C},n={n}"] = priced
    scans = {
        f"stride={stride}": {repr(float(eps)): r for (s, eps), r in sorted(collapse.items()) if s == stride}
        for stride in sorted({s for s, _ in collapse})
    }
    return {"pairs": pairs, "collapse": scans}


def check_sweep(record: dict, reference: dict) -> dict:
    """Failed operations of one sweep, {operation: reason}; an operation
    is one reference trajectory or collapse scan."""
    failed = {}
    for pair, priced in reference["pairs"].items():
        got_pair = record["pairs"].get(pair, {})
        for eps, (payoff, participated) in priced.items():
            got = got_pair.get(eps)
            if got is None:
                failed[(pair, eps)] = f"{pair} eps {eps} not priced"
            elif not math.isclose(got[0], payoff, rel_tol=PAYOFF_RTOL) or got[1] != participated:
                failed[(pair, eps)] = f"{pair} eps {eps}: got {got}, expected {[payoff, participated]}"
    for stride, scans in reference["collapse"].items():
        got_scans = record["collapse"].get(stride, {})
        for eps, r in scans.items():
            if eps not in got_scans or got_scans[eps] != r:
                failed[(stride, eps)] = f"{stride} eps {eps}: collapse {got_scans.get(eps)}, expected {r}"
    return failed


def sweep_operations(reference: dict) -> int:
    return sum(len(v) for v in reference["pairs"].values()) + sum(
        len(v) for v in reference["collapse"].values()
    )


def client_updates(text: str) -> int:
    """local_train calls a run made: participants plus clients evicted
    before the round, who keep training their own model."""
    rows, _ = parse_metrics(text)
    return sum(
        row["participated"] == "1" or rows.get((r - 1, c), {}).get("evicted") == "1"
        for (r, c), row in rows.items()
    )
