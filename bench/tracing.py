"""Per-layer spans for cci, recorded by wrapping the calls between its layers.

``engine`` and ``kantorovich`` bind the functions they call at import, so
the wrappers replace those names in the calling modules (and ``omega`` on
``PairSystem``); nothing inside cci changes. Each call records a span
(name, start, end, parent, solve id) in memory. A layer's self time is the
sum of its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import contextlib
import csv
import time
from collections import Counter
from pathlib import Path

# (module attribute in cci, name to patch, span name). Several call sites
# may share one span name.
TARGETS = (
    ("engine", "reparametrize", "geometry.reparametrize.square"),
    ("engine", "exclusion_test", "exclusion"),
    ("engine", "test_pairs", "kantorovich.test_pairs"),
    ("engine", "newton_solve", "newton"),
    ("engine", "region_prunes_square", "engine.prune"),
    ("engine", "point_is_known", "engine.prune"),
    ("engine", "eval_net", "geometry.eval_net"),
    ("kantorovich", "reparametrize", "geometry.reparametrize.omega"),
    ("kantorovich", "eval_net", "geometry.eval_net"),
    ("newton", "eval_net", "geometry.eval_net"),
    ("kantorovich.PairSystem", "omega", "kantorovich.omega"),
)
SOLVE_SPAN = "engine"

# Calls whose result is itself a count: a discarded square, a pruned square.
_TRUE_RESULTS = {"exclusion_test": "exclusion.discards", "region_prunes_square": "engine.pruned"}


class Tracer:
    """Records spans, counts and solve reports while installed in cci."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.reports: list = []
        self.solve_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter: str | None = None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.solve_id)
            if counter is not None and result:
                counts[counter] += 1
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, cci):
        """Patch the wrappers into cci for the duration; restore the originals."""
        patched = []
        try:
            for owner_path, attr, name in TARGETS:
                owner = cci
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                patched.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, _TRUE_RESULTS.get(attr)))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def solve(self, solve, c1, c2, config):
        """One ``solve`` call as a root span, with the observer counting outcomes."""
        self.solve_id += 1
        report = self.wrap(SOLVE_SPAN, solve)(c1, c2, config, self.observe)
        self.reports.append(report)
        return report

    def observe(self, event: str, payload: dict) -> None:
        counts = self.counts
        if event == "kantorovich":
            outcome = payload["outcome"]
            for test in outcome.pairs:
                counts[f"kantorovich.pair.{test.status.value}"] += 1
            if outcome.passed is not None:
                counts["kantorovich.passes"] += 1
        elif event == "newton":
            counts["newton.iterations"] += payload["result"].iterations
        elif event == "intersection":
            counts["newton.accepted"] += 1

    def write(self, path: Path, header: dict) -> None:
        """Write every span as CSV, after one comment line per header item."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as f:
            for key, value in header.items():
                f.write(f"# {key}: {value}\n")
            out = csv.writer(f)
            out.writerow(["index", "name", "start", "end", "parent", "solve"])
            for index, span in enumerate(self.spans):
                out.writerow([index, *span])


def self_times(spans, first: int = 0) -> tuple[Counter, Counter]:
    """Self seconds and call counts per span name, for spans[first:]."""
    covered = [0.0] * (len(spans) - first)
    for name, start, end, parent, _ in spans[first:]:
        if parent >= first:
            covered[parent - first] += end - start
    self_s: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for k, (name, start, end, _, _) in enumerate(spans[first:]):
        self_s[name] += end - start - covered[k]
        calls[name] += 1
    return self_s, calls
