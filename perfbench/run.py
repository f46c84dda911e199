"""Benchmark entry point: one workload, repeated in fresh interpreters.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports ``friendly`` from its
``src/`` directory. Each repetition is a new interpreter (``rep.py``), so
every repetition pays and reports the cold set-up a user pays. Repetitions
start until the next one would end after ``--seconds``; at least one runs.

With ``--trace 0`` every repetition is untraced and the end-to-end metrics
are medians over them. With ``--trace 1`` untraced and traced repetitions
alternate; the per-layer metrics are medians over the traced ones, and
``trace.overhead_ratio`` compares the two kinds' median wall times.

Every output is checked against the oracles in ``oracle.py``; the checkers
themselves are tested on injected faults (``liveness.py``) first. The last
stdout line is the result object; the line before it is a report with
provenance, sample counts, failures and per-repetition values. Both are
also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import liveness
import oracle
import workloads as W
from tracer import COUNT_METRICS, LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REP_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def build_oracle(workload: str, inputs: dict):
    if workload == "exact":
        return [oracle.candidate_is_friend_of_10(raw) for raw in inputs["candidates"]]
    return oracle.segment_checksums(inputs["segments"])


def check(workload: str, inputs: dict, expected, rep: dict) -> oracle.Tally:
    if workload == "exact":
        attempted = sum(W.SUITE_CHECKS.values()) + len(inputs["candidates"])
    else:
        attempted = len(inputs["segments"])
    if rep["error"] is not None:
        return oracle.Tally(attempted, attempted, [rep["error"].strip().splitlines()[-1]])
    result = rep["result"]
    if workload == "exact":
        tally = oracle.check_exact(result, expected)
    else:
        want_hits = [] if workload == "scan-high" else [10]
        tally = oracle.check_segments(
            inputs["segments"], expected, want_hits, result["legs"], result["summary"]
        )
        if workload == "scan" and len(result["legs"][0]) != inputs["stop_after"]:
            tally.fail(f"first leg scanned {len(result['legs'][0])} segments, "
                       f"want {inputs['stop_after']}")
    if rep["sigma25"] != 31:
        tally.fail(f"sigma(25) = {rep['sigma25']} during set-up")
    tally.failed = min(tally.failed, tally.attempted)
    return tally


def run_rep(args, traced: bool, index: int) -> dict:
    run_id = f"{args.workload}-s{args.seed}-r{index}"
    # No FRIENDLY_* option may leak in, and string hashing is fixed so that
    # set and dict orders, and with them the counts, repeat exactly.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FRIENDLY_")}
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(int(traced)), "--run-id", run_id, "--rep", str(index),
        "--out-dir", OUT,
    ]
    launched = now()
    proc = subprocess.Popen(
        cmd + ["--launched", repr(launched)], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        stdout, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"repetition {run_id} did not finish within {REP_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"repetition {run_id} exited with {proc.returncode}")
    rep = json.loads(stdout.strip().splitlines()[-1])
    rep["elapsed_s"] = now() - launched
    rep["traced"] = traced
    return rep


def provenance(args, reps) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "friendly", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"] if reps else None,
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples_untraced": sum(not r["traced"] for r in reps),
        "samples_traced": sum(r["traced"] for r in reps),
    }


def count_drift(args, counts: dict, source: str) -> list:
    """Compare count metrics with an earlier run of the same code and seed."""
    path = os.path.join(OUT, f"counts-{args.workload}-s{args.seed}-{source}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        return [f"{k}: {before.get(k)} earlier, {v} now" for k, v in counts.items() if before.get(k) != v]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(counts, fh)
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "friendly", "__init__.py")):
        print(f"no friendly sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    notes = [f"checker not live: {p}" for p in liveness.run()]
    inputs = W.make_inputs(args.workload, args.seed)
    expected = build_oracle(args.workload, inputs)

    reps: list = []
    attempted = failed = 0
    deadline = now() + args.seconds
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = run_rep(args, traced, len(reps))
        tally = check(args.workload, inputs, expected, rep)
        attempted += tally.attempted
        failed += tally.failed
        notes += [f"rep {len(reps)}: {n}" for n in tally.notes]
        reps.append(rep)
        kinds = {r["traced"] for r in reps}
        enough = kinds == ({False, True} if args.trace else {False})
        typical = statistics.median(r["elapsed_s"] for r in reps)
        if enough and now() + typical > deadline:
            break

    plain = [r for r in reps if not r["traced"]]
    per_rep = {
        "setup_s": [r["setup_s"] for r in plain],
        "wall_s": [r["wall_s"] for r in plain],
        "ops_per_s": [r["ops"] / r["wall_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    report = {
        "provenance": provenance(args, reps),
        "failed_ratio": failed / attempted,
        "notes": notes,
        "per_rep": per_rep,
    }
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        # Counts repeat exactly (drift is reported below); times are medians.
        metrics = {
            name: {
                "value": traced[0]["layers"][name] if name in COUNT_METRICS
                else statistics.median(r["layers"][name] for r in traced),
                "unit": unit,
            }
            for name, unit in LAYER_METRICS.items()
            if name != "trace.overhead_ratio"
        }
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(r["wall_s"] for r in traced)
            / statistics.median(per_rep["wall_s"]) - 1,
            "unit": "ratio",
        }
        counts = {name: traced[0]["layers"][name] for name in COUNT_METRICS}
        drift = [
            f"{name}: {[r['layers'][name] for r in traced]} across repetitions"
            for name in COUNT_METRICS
            if len({r["layers"][name] for r in traced}) > 1
        ]
        drift += count_drift(args, counts, report["provenance"]["source_sha256"])
        report["nondeterministic"] = drift
        report["per_rep_layers"] = [r["layers"] for r in traced]
    else:
        metrics = {
            name: {"value": statistics.median(per_rep[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    result = {
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
