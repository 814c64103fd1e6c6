"""Time tokenfl's layers by wrapping their public functions from outside.

`engine` and `strategy` bind names such as `local_train` or `utility` at
import, so a wrapper must replace the name in every module that looks it
up, not only in the module that defines it; ledger operations are
wrapped on the `TokenLedger` class. Calls at round granularity or
coarser become spans (name, start, end, parent) kept in memory. Calls
below it (ledger operations, the game functions) only add to a count
and a time per (name, parent span), because a game sweep makes millions
of them. Every wrapped call also subtracts its duration from its
caller's self time, so self times of all names add up to the wrapped
wall time.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent span index or -1]
        self.cells = {}  # (name, parent name) -> [calls, inclusive s, self s]
        self.raised = defaultdict(int)  # name -> calls that raised
        self.quantities = defaultdict(float)  # "name.key" -> summed quantity
        self._stack = [[None, 0.0, -1]]  # open frames: [name, child s, span index]
        self._patches = []

    def _wrap(self, fn, label, span, measure):
        """Return `fn` wrapped; `label` is a name or a function of the bound
        arguments, `measure(arguments, result)` returns quantities to add."""
        stack, spans, cells, perf = self._stack, self.spans, self.cells, time.perf_counter
        signature = inspect.signature(fn) if callable(label) or measure else None

        def wrapper(*args, **kwargs):
            arguments = signature.bind(*args, **kwargs).arguments if signature else None
            name = label(arguments) if callable(label) else label
            parent = stack[-1]
            index = -1
            if span:
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent[2]])
            frame = [name, 0.0, index]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[name] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                parent[1] += duration
                cell = cells.get((name, parent[0]))
                if cell is None:
                    cell = cells[(name, parent[0])] = [0, 0.0, 0.0]
                cell[0] += 1
                cell[1] += duration
                cell[2] += duration - frame[1]
                if span:
                    spans[index][1] = start
                    spans[index][2] = end
            if measure:
                for k, v in measure(arguments, result).items():
                    self.quantities[f"{name}.{k}"] += v
            return result

        return wrapper

    def patch(self, owners, attr, label, span=False, measure=None):
        """Replace `attr` on every object in `owners` (modules or classes)
        by one wrapper around the first owner's current value."""
        wrapped = self._wrap(getattr(owners[0], attr), label, span, measure)
        for owner in owners:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)

    def unpatch(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _sum(self, name, field):
        return sum(cell[field] for (n, _), cell in self.cells.items() if n == name)

    def total_calls(self, name):
        return self._sum(name, 0)

    def total_seconds(self, name):
        return self._sum(name, 1)

    def self_seconds(self, name):
        return self._sum(name, 2)

    def layer_self_seconds(self):
        layers = defaultdict(float)
        for (name, _), cell in self.cells.items():
            layers[name.split(".", 1)[0]] += cell[2]
        return layers

    def dump(self):
        return {
            "spans": self.spans,
            "counters": [
                {"name": n, "parent": p, "calls": c, "s": s, "self_s": own}
                for (n, p), (c, s, own) in sorted(self.cells.items(), key=str)
            ],
        }
