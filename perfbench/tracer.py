"""Span tracing from outside the program, for the benchmark's traced runs.

The tracer swaps the module attributes that callers resolve at call time
(``friendly.sieve.sigma_range``, ``friendly.scan.factorize``, ...) for
wrappers that record a span per call: name, start, end and the index of the
enclosing span. Spans stay in memory until the run ends; ``restore`` puts
every original back and checks that nothing else replaced it meanwhile.

Only the calling process is traced: a scan with ``workers > 1`` would
record its segments' spans in the pool workers, and those are discarded.
No workload runs one.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter
from contextlib import contextmanager

from workloads import CHAIN_RULES, SUITES

clock = time.perf_counter

# (module, attribute, span name, counter hook). A name traced through
# several modules is one layer seen from several callers; each binding is
# wrapped separately. The hook, a Tracer method, runs after each call.
SPANS = (
    ("friendly.scan", "scan", "scan.driver", None),
    ("friendly.scan", "scan_range", "scan.scan_range", None),
    ("friendly.scan", "checkpoint_save", "scan.checkpoint_save", "_after_checkpoint_save"),
    ("friendly.scan", "checkpoint_load", "scan.checkpoint_load", None),
    ("friendly.scan", "record_to_json", "scan.record_to_json", "_after_record_to_json"),
    ("friendly.scan", "read_records", "scan.read_records", None),
    ("friendly.sieve", "sigma_range", "sieve.sigma_range", None),
    # scan_range re-verifies each raw matcher hit through this binding.
    ("friendly.scan", "factorize", "arith.factorize", "_after_reverify"),
    ("friendly.verify", "factorize", "arith.factorize", None),
    ("friendly.abundancy", "factorize", "arith.factorize", None),
    ("friendly.friend10", "factorize", "arith.factorize", None),
    ("friendly.arith", "factorize", "arith.factorize", None),
    ("friendly.friend10", "multiplicative_order", "arith.multiplicative_order", None),
    ("friendly.verify", "abundancy_index", "abundancy.abundancy_index", None),
    ("friendly.abundancy", "abundancy_index", "abundancy.abundancy_index", None),
    ("friendly.friend10", "filter_chain", "friend10.filter_chain", None),
)
# Called too often for a span each; only counted.
COUNTS = (("friendly.arith", "is_prime", "arith.is_prime"),)

# Every per-layer metric a traced run reports, with its unit. Layers a
# workload does not exercise report 0.
LAYER_METRICS = {
    "cli.import_s": "s",
    "arith.prime_cache_s": "s",
    "sieve.sigma_range.calls": "count",
    "sieve.sigma_range.busy_s": "s",
    "sieve.sigma_range.seg_ms.p50": "ms",
    "sieve.sigma_range.share": "ratio",
    "scan.scan_range.self_s": "s",
    "scan.reverify.calls": "count",
    "scan.reverify.useful_ratio": "ratio",
    "scan.driver.self_s": "s",
    "scan.checkpoint_save.calls": "count",
    "scan.checkpoint_save.busy_s": "s",
    "scan.checkpoint_save.bytes": "B",
    "scan.record_to_json.busy_s": "s",
    "scan.records.bytes": "B",
    "scan.checkpoint_load.busy_s": "s",
    "scan.read_records.busy_s": "s",
    "scan.segments.rescanned": "count",
    "arith.factorize.calls": "count",
    "arith.factorize.busy_s": "s",
    "arith.factorize.us.p50": "us",
    "arith.factorize.us.p99": "us",
    "arith.is_prime.calls": "count",
    "arith.multiplicative_order.calls": "count",
    "arith.multiplicative_order.busy_s": "s",
    "abundancy.abundancy_index.calls": "count",
    "abundancy.abundancy_index.busy_s": "s",
    "friend10.candidate_build.busy_s": "s",
    "friend10.filter_chain.calls": "count",
    "friend10.filter_chain.busy_s": "s",
    "friend10.filter_chain.us.p50": "us",
    "friend10.filter_chain.us.p99": "us",
    **{f"friend10.killed.{rule}": "count" for rule in CHAIN_RULES},
    "friend10.survived": "count",
    **{
        f"verify.{suite}.{kind}": unit
        for suite in SUITES
        for kind, unit in (("s", "s"), ("checks", "count"))
    },
    "trace.overhead_ratio": "ratio",
}

# Metrics that count work; they must repeat exactly for a given seed.
COUNT_METRICS = tuple(
    name for name, unit in LAYER_METRICS.items() if unit == "count"
)


def _quantile(values: list, q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list = []
        self._saved: list = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _after_reverify(self, args, result) -> None:
        self.counts["scan.reverify.calls"] += 1

    def _after_checkpoint_save(self, args, result) -> None:
        self.counts["scan.checkpoint_save.bytes"] += os.path.getsize(args[0])

    def _after_record_to_json(self, args, result) -> None:
        self.counts["scan.records.bytes"] += len(result.encode("utf-8")) + 1

    def _wrap_span(self, fn, name: str, after):
        span = self.span

        def traced(*args, **kwargs):
            with span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _wrap_count(self, fn, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, module: str, attr: str, wrapper_for) -> None:
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        wrapper = wrapper_for(original)
        setattr(mod, attr, wrapper)
        self._saved.append((mod, attr, original, wrapper))

    def install(self) -> None:
        for module, attr, name, hook in SPANS:
            after = getattr(self, hook) if hook else None
            self._replace(module, attr, lambda fn, n=name, a=after: self._wrap_span(fn, n, a))
        for module, attr, name in COUNTS:
            self._replace(module, attr, lambda fn, n=name: self._wrap_count(fn, n))

    def restore(self) -> None:
        while self._saved:
            mod, attr, original, wrapper = self._saved.pop()
            if getattr(mod, attr) is not wrapper:
                raise RuntimeError(f"{mod.__name__}.{attr} was replaced while traced")
            setattr(mod, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.run_id]) + "\n")

    def layer_metrics(self, wall_s: float, verified_hits: int, extra: dict) -> dict:
        """Per-layer metrics from the spans and counters, plus ``extra``
        values the workload measured itself (set-up timings, rule kills).
        ``verified_hits`` is the number of hits the scan reported."""
        durations: dict = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            durations.setdefault(name, []).append(end - start)
            if parent >= 0:
                child_time[parent] += end - start
        self_time: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - child_time[i]

        def busy(name):
            return sum(durations.get(name, ()))

        def calls(name):
            return len(durations.get(name, ()))

        sieve_calls = durations.get("sieve.sigma_range", [])
        factor_us = [d * 1e6 for d in durations.get("arith.factorize", [])]
        chain_us = [d * 1e6 for d in durations.get("friend10.filter_chain", [])]
        raw_hits = self.counts["scan.reverify.calls"]
        out = {name: 0 for name in LAYER_METRICS}
        out.update({
            "sieve.sigma_range.calls": len(sieve_calls),
            "sieve.sigma_range.busy_s": sum(sieve_calls),
            "sieve.sigma_range.seg_ms.p50": _quantile(sieve_calls, 0.5) * 1e3,
            "sieve.sigma_range.share": sum(sieve_calls) / wall_s,
            "scan.scan_range.self_s": self_time["scan.scan_range"],
            "scan.reverify.calls": raw_hits,
            "scan.reverify.useful_ratio": verified_hits / raw_hits if raw_hits else 0.0,
            "scan.driver.self_s": self_time["scan.driver"],
            "scan.checkpoint_save.calls": calls("scan.checkpoint_save"),
            "scan.checkpoint_save.busy_s": busy("scan.checkpoint_save"),
            "scan.checkpoint_save.bytes": self.counts["scan.checkpoint_save.bytes"],
            "scan.record_to_json.busy_s": busy("scan.record_to_json"),
            "scan.records.bytes": self.counts["scan.records.bytes"],
            "scan.checkpoint_load.busy_s": busy("scan.checkpoint_load"),
            "scan.read_records.busy_s": busy("scan.read_records"),
            "arith.factorize.calls": len(factor_us),
            "arith.factorize.busy_s": busy("arith.factorize"),
            "arith.factorize.us.p50": _quantile(factor_us, 0.5),
            "arith.factorize.us.p99": _quantile(factor_us, 0.99),
            "arith.is_prime.calls": self.counts["arith.is_prime"],
            "arith.multiplicative_order.calls": calls("arith.multiplicative_order"),
            "arith.multiplicative_order.busy_s": busy("arith.multiplicative_order"),
            "abundancy.abundancy_index.calls": calls("abundancy.abundancy_index"),
            "abundancy.abundancy_index.busy_s": busy("abundancy.abundancy_index"),
            "friend10.candidate_build.busy_s": busy("friend10.candidate_build"),
            "friend10.filter_chain.calls": len(chain_us),
            "friend10.filter_chain.busy_s": busy("friend10.filter_chain"),
            "friend10.filter_chain.us.p50": _quantile(chain_us, 0.5),
            "friend10.filter_chain.us.p99": _quantile(chain_us, 0.99),
        })
        for name in durations:
            if name.startswith("verify."):
                out[f"{name}.s"] = busy(name)
        out.update(extra)
        return out
