"""Liveness of the checkers: injected faults must be counted as failures.

Each case hands a checker a result that is correct except for one fault
and requires a nonzero failure count; the clean result must count none.
``run.py`` runs this before every benchmark run and reports the result as
incorrect when a checker has gone blind. Run alone: python3 liveness.py
"""

from __future__ import annotations

import copy
import sys

from oracle import (
    candidate_is_friend_of_10,
    check_exact,
    check_segments,
    divisor_sum_prefix,
    segment_checksums,
)
from workloads import CHAIN_RULES, SUITE_CHECKS, grid, make_inputs


def _scan_cases():
    segments = grid(200, 50)
    expected = segment_checksums(segments)
    records = [[lo, hi, expected[(lo, hi)], [10] if lo <= 10 < hi else []] for lo, hi in segments]
    summary = {
        "complete": True,
        "scanned_count": 199,
        "hits": [10],
        "checksum": sum(expected.values()) & ((1 << 64) - 1),
    }

    def check(legs):
        return check_segments(segments, expected, [10], legs, summary)

    off_by_one = copy.deepcopy(records)
    off_by_one[1][2] += 1
    extra_hit = copy.deepcopy(records)
    extra_hit[2][3].append(120)
    return {
        "scan clean": (check([records]), False),
        "checksum off by 1": (check([off_by_one]), True),
        "extra hit": (check([extra_hit]), True),
        "segment scanned twice": (check([records[:3], records[2:]]), True),
    }


def _exact_cases():
    raw = make_inputs("exact", 0)["candidates"][:20]
    survivors = [candidate_is_friend_of_10(c) for c in raw]
    clean = {
        "suites": {name: [checks, 0] for name, checks in SUITE_CHECKS.items()},
        "orders": [[list(CHAIN_RULES), len(raw)]],
        "rejected_by": ["prime_support"] * len(raw),
    }
    one_failure = copy.deepcopy(clean)
    one_failure["suites"]["thm31"][1] = 1
    survivor = copy.deepcopy(clean)
    survivor["rejected_by"][3] = None
    return {
        "exact clean": (check_exact(clean, survivors), False),
        "suite with one failure": (check_exact(one_failure, survivors), True),
        "surviving non-friend": (check_exact(survivor, survivors), True),
    }


def run() -> list:
    """Names of the cases whose failure count is wrong; empty when all hold."""
    problems = []
    brute = 0
    for n in range(1, 301):
        brute += sum(d for d in range(1, n + 1) if n % d == 0)
        if divisor_sum_prefix(n) != brute:
            problems.append(f"divisor_sum_prefix({n})")
            break
    for name, (tally, faulty) in {**_scan_cases(), **_exact_cases()}.items():
        if (tally.failed > 0) != faulty:
            problems.append(f"{name}: failed={tally.failed}")
    return problems


if __name__ == "__main__":
    found = run()
    for line in found:
        print(f"checker not live: {line}")
    print("liveness ok" if not found else f"{len(found)} liveness problems")
    sys.exit(1 if found else 0)
