"""The benchmark workloads and the seeded inputs each one runs on.

This module imports nothing from ``friendly``: the parent process uses it to
build the oracle's copy of the inputs, and each fresh workload interpreter
uses it to build the program's copy, so both sides see the same data.
"""

from __future__ import annotations

import random
from fractions import Fraction

TARGET = Fraction(9, 5)

# scan: the headline command, serial, 32 default segments of 2^20, run with
# a checkpoint, stopped near the middle and resumed to completion.
SCAN_BOUND = 1 << 25
SCAN_SEGMENT = 1 << 20
SCAN_SEGMENTS = -(-(SCAN_BOUND - 1) // SCAN_SEGMENT)

# scan-high: one default segment near 10^12, where the sieve is ~99% of the time.
HIGH_BASE = 10 ** 12
HIGH_SEGMENT = 1 << 20
HIGH_OFFSET_LIMIT = 1 << 32

# exact: the verify suites plus a batch of filter-chain candidates. The
# residue suite is left out; its cost is a 10^7 scan that `scan` covers.
SUITES = ("lemma21", "prop22", "thm31", "mod8", "bounds")
SUITE_CHECKS = {
    "lemma21": 1_894_457,
    "prop22": 10_000,
    "thm31": 414_000,
    "mod8": 66_650,
    "bounds": 8_410,
}
CANDIDATES = 5_000
CANDIDATE_PRIME_POOL = 16  # the smallest primes >= 7 the Q-factors come from
CHAIN_RULES = (
    "structural",
    "prime_support",
    "exponent_mod3",
    "exponent_mod27",
    "mod8_sum",
    "nine_exact",
    "residue_class",
    "eq1",
)

WORKLOADS = ("scan", "scan-high", "exact")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _primes_from_7(count: int) -> list[int]:
    out: list[int] = []
    n = 7
    while len(out) < count:
        if all(n % d for d in range(2, int(n ** 0.5) + 1)):
            out.append(n)
        n += 2
    return out


def grid(bound: int, segment_size: int) -> list[tuple[int, int]]:
    """Segments [lo, hi) covering [1, bound), as the scan driver lays them out."""
    return [(lo, min(lo + segment_size, bound)) for lo in range(1, bound, segment_size)]


def make_inputs(workload: str, seed: int) -> dict:
    """Everything a workload run needs, derived from the seed alone."""
    rng = _rng(workload, seed)
    if workload == "scan":
        half = SCAN_SEGMENTS // 2
        return {
            "bound": SCAN_BOUND,
            "stop_after": rng.randint(half - SCAN_SEGMENTS // 8, half + SCAN_SEGMENTS // 8),
            "segments": grid(SCAN_BOUND, SCAN_SEGMENT),
        }
    if workload == "scan-high":
        lo = HIGH_BASE + rng.randrange(HIGH_OFFSET_LIMIT - HIGH_SEGMENT)
        return {"lo": lo, "hi": lo + HIGH_SEGMENT, "segments": [(lo, lo + HIGH_SEGMENT)]}
    if workload == "exact":
        pool = _primes_from_7(CANDIDATE_PRIME_POOL)
        raw = []
        for _ in range(CANDIDATES):
            a = rng.randint(1, 12)
            primes = sorted(rng.sample(pool, rng.randint(6, 10)))
            raw.append((a, tuple((p, rng.randint(1, 6)) for p in primes)))
        return {"candidates": raw}
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
