"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py``, which passes the CLOCK_MONOTONIC reading taken just
before the launch. Set-up runs from that instant to the start of the timed
section: interpreter start, ``import friendly.cli``, the cold
``sigma(factorize(25))`` that ``friendly sigma 25`` pays, and generation of
the seeded inputs. The timed section runs the workload once. The last
stdout line is a JSON object with the timings and the raw outputs, which
``run.py`` checks against its oracles; this process checks nothing itself.

Exit codes: 0 with a result (even when the program failed or raised),
3 when the program under test cannot be imported from ``<root>/src``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from types import SimpleNamespace

import workloads as W

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _records(records) -> list:
    return [[r.lo, r.hi, r.checksum, list(r.hits)] for r in records]


def _summary(outcome) -> dict:
    return {
        "complete": outcome.complete,
        "scanned_count": outcome.scanned_count,
        "hits": list(outcome.hits),
        "checksum": outcome.checksum,
    }


def run_scan(friendly, inputs, span, out_dir):
    tmp = tempfile.mkdtemp(prefix="scan-", dir=out_dir)
    try:
        checkpoint = os.path.join(tmp, "scan.ckpt")
        if os.path.exists(checkpoint):
            raise RuntimeError(f"{checkpoint} exists before the first leg")
        kwargs = dict(segment_size=W.SCAN_SEGMENT, workers=1, checkpoint_path=checkpoint)
        first = friendly.scan.scan(
            inputs["bound"], W.TARGET, max_segments=inputs["stop_after"], **kwargs
        )
        second = friendly.scan.scan(inputs["bound"], W.TARGET, **kwargs)
    finally:
        shutil.rmtree(tmp)
    legs = [_records(first.new_records), _records(second.new_records)]
    hits = sum(len(r.hits) for r in first.new_records + second.new_records)
    return {"legs": legs, "summary": _summary(second)}, hits


def run_scan_high(friendly, inputs, span, out_dir):
    rec = friendly.scan.scan_range(inputs["lo"], inputs["hi"], W.TARGET)
    return {"legs": [_records([rec])], "summary": None}, len(rec.hits)


def run_exact(friendly, inputs, span, out_dir):
    suites = {}
    for name in W.SUITES:
        with span(f"verify.{name}"):
            try:
                [res] = friendly.verify.run_suites(name)
                suites[name] = [res.checks, res.failures]
            except Exception:
                traceback.print_exc()
                suites[name] = [0, 0]
    with span("friend10.candidate_build"):
        Candidate, Factorization = friendly.friend10.Candidate, friendly.arith.Factorization
        candidates = [
            Candidate(a=a, q_factorization=Factorization(pairs)) for a, pairs in inputs["candidates"]
        ]
    orders: Counter = Counter()
    rejected = []
    for c in candidates:
        try:
            report = friendly.friend10.filter_chain(c)
        except Exception as exc:
            rejected.append(f"error:{type(exc).__name__}")
            continue
        orders[tuple(r.rule for r in report.results)] += 1
        rejected.append(report.rejected_by)
    return {
        "suites": suites,
        "orders": [[list(k), v] for k, v in orders.items()],
        "rejected_by": rejected,
    }, None


RUNNERS = {"scan": run_scan, "scan-high": run_scan_high, "exact": run_exact}


def operations(workload: str, inputs: dict, result: dict) -> int:
    """Integers covered for the scans; suite checks plus candidates for exact."""
    if workload == "exact":
        return sum(c for c, _ in result["suites"].values()) + len(result["rejected_by"])
    return sum(hi - lo for lo, hi in inputs["segments"])


def layer_extras(workload: str, result: dict) -> dict:
    """Per-layer values the workload measures from its own outputs."""
    extra = {}
    if workload == "scan":
        first, second = ({(lo, hi) for lo, hi, _, _ in leg} for leg in result["legs"])
        extra["scan.segments.rescanned"] = len(first & second)
    if workload == "exact":
        kills = Counter(result["rejected_by"])
        for rule in W.CHAIN_RULES:
            extra[f"friend10.killed.{rule}"] = kills[rule]
        extra["friend10.survived"] = kills[None]
        for name, (checks, _) in result["suites"].items():
            extra[f"verify.{name}.checks"] = checks
    return extra


def peak_rss_mb() -> float:
    """Highest RSS of this process and of any children it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-id", default="")
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    started = now()
    try:
        importlib.import_module("friendly.cli")  # the import `friendly sigma 25` pays
    except ImportError as exc:
        print(f"cannot import friendly from {SRC}: {exc}", file=sys.stderr)
        return 3
    import_s = now() - started
    # The package re-exports a function named `scan`, so reach modules by name.
    friendly = SimpleNamespace(
        **{name: sys.modules[f"friendly.{name}"] for name in ("arith", "friend10", "scan", "sieve", "verify")}
    )
    if not os.path.abspath(friendly.arith.__file__).startswith(SRC + os.sep):
        print(f"friendly was imported from {friendly.arith.__file__}, not {SRC}", file=sys.stderr)
        return 3
    started = now()
    sigma25 = friendly.arith.sigma(friendly.arith.factorize(25))
    prime_cache_s = now() - started
    inputs = W.make_inputs(args.workload, args.seed)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
    span = tracer.span if tracer else (lambda name: nullcontext())
    error = None
    t0 = now()
    setup_s = t0 - args.launched
    try:
        result, hits = RUNNERS[args.workload](friendly, inputs, span, args.out_dir)
    except Exception:
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        result, hits = {"legs": [], "summary": {}}, None
    wall_s = now() - t0

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops": operations(args.workload, inputs, result) if error is None else 0,
        "peak_rss_mb": peak_rss_mb(),
        "sigma25": sigma25,
        "error": error,
        "result": result,
        "numpy": friendly.sieve.np.__version__,
    }
    if tracer is not None:
        tracer.restore()
        extra = layer_extras(args.workload, result) if error is None else {}
        extra["cli.import_s"] = import_s
        extra["arith.prime_cache_s"] = prime_cache_s
        out["layers"] = tracer.layer_metrics(wall_s, hits or 0, extra)
        # One file per workload and repetition index, overwritten by later runs.
        tracer.write(os.path.join(args.out_dir, f"spans-{args.workload}-r{args.rep}.jsonl"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
