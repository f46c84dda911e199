"""Oracles and output checkers for the benchmark workloads.

Nothing here imports ``friendly``: each oracle recomputes the expected
answer by a route that shares no code with the layer it checks.

* Segment checksums come from the divisor-sum prefix
  sum_{n<=x} sigma(n) = sum_{m<=x} m * floor(x/m), summed over runs of equal
  quotients in O(sqrt x) exact-integer steps; the program sieves instead.
* A filter-chain candidate survives exactly when its index, an exact
  ``Fraction`` product of prime-power divisor sums, equals 9/5.
* Verify-suite check counts are pinned to the counts the suites report at
  the commit that introduced this benchmark.

Each checker returns a ``Tally`` whose ``failed`` counts operations that
disagree with the oracle, in the workload's own unit of operation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from workloads import CHAIN_RULES, SUITE_CHECKS, TARGET

U64 = (1 << 64) - 1


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 8:
            self.notes.append(note)


def divisor_sum_prefix(x: int) -> int:
    """sum of sigma(n) for 1 <= n <= x, exactly."""
    total = 0
    m = 1
    while m <= x:
        q = x // m
        last = x // q
        total += q * (m + last) * (last - m + 1) // 2
        m = last + 1
    return total


def segment_checksums(segments) -> dict:
    """Expected checksum (sum of sigma mod 2^64) of every segment [lo, hi)."""
    prefix = {}
    for lo, hi in segments:
        for x in (lo - 1, hi - 1):
            if x not in prefix:
                prefix[x] = divisor_sum_prefix(x)
    return {(lo, hi): (prefix[hi - 1] - prefix[lo - 1]) & U64 for lo, hi in segments}


def _sigma_prime_power(p: int, k: int) -> int:
    return sum(p ** i for i in range(k + 1))


def candidate_is_friend_of_10(raw) -> bool:
    """Index of 5^(2a) * prod p^(2e), as an exact Fraction, equals 9/5."""
    a, pairs = raw
    index = Fraction(_sigma_prime_power(5, 2 * a), 5 ** (2 * a))
    for p, e in pairs:
        index *= Fraction(_sigma_prime_power(p, 2 * e), p ** (2 * e))
    return index == TARGET


def check_segments(segments, expected: dict, want_hits, legs, summary) -> Tally:
    """One operation per grid segment.

    ``legs`` lists, per scan call, the records it produced as
    ``[lo, hi, checksum, [hits]]``. A segment fails when it is missing,
    scanned more than once, has the wrong checksum or the wrong hits.
    ``summary`` is the final aggregate of ``scan()`` (or None for a bare
    ``scan_range``); each wrong field of it counts one more failure.
    """
    t = Tally(attempted=len(segments))
    grid = set(segments)
    seen: Counter = Counter()
    records = {}
    for leg in legs:
        for lo, hi, checksum, hits in leg:
            seen[(lo, hi)] += 1
            records[(lo, hi)] = (checksum, list(hits))
    for seg, n in seen.items():
        if seg not in grid:
            t.fail(f"segment {seg} is not on the grid")
        elif n > 1:
            t.fail(f"segment {seg} scanned {n} times")
    for lo, hi in segments:
        rec = records.get((lo, hi))
        if rec is None:
            t.fail(f"segment {(lo, hi)} never scanned")
            continue
        if seen[(lo, hi)] > 1:
            continue
        checksum, hits = rec
        if checksum != expected[(lo, hi)]:
            t.fail(f"segment {(lo, hi)} checksum {checksum} != {expected[(lo, hi)]}")
        elif hits != [h for h in want_hits if lo <= h < hi]:
            t.fail(f"segment {(lo, hi)} hits {hits}")
    if summary is not None:
        total = sum(hi - lo for lo, hi in segments)
        want = {
            "complete": True,
            "scanned_count": total,
            "hits": list(want_hits),
            "checksum": sum(expected.values()) & U64,
        }
        for key, value in want.items():
            if summary.get(key) != value:
                t.fail(f"outcome {key} = {summary.get(key)!r}, want {value!r}")
    t.failed = min(t.failed, t.attempted)
    return t


def check_exact(result: dict, survivors: list) -> Tally:
    """One operation per suite check plus one per candidate.

    ``result`` carries ``suites`` ({name: [checks, failures]}), ``orders``
    ([[rule, ...], count] per distinct rule order seen in a report) and
    ``rejected_by`` (the killing rule per candidate, None for a survivor).
    ``survivors`` is the oracle's verdict per candidate.
    """
    t = Tally(attempted=sum(SUITE_CHECKS.values()) + len(survivors))
    for name, want in SUITE_CHECKS.items():
        checks, failures = result["suites"].get(name, (0, 0))
        if failures:
            t.fail(f"suite {name}: {failures} failures", failures)
        if checks != want:
            t.fail(f"suite {name}: {checks} checks, want {want}", abs(checks - want))
    for order, count in result["orders"]:
        if tuple(order) != CHAIN_RULES:
            t.fail(f"{count} reports list rules {order}", count)
    rejected = result["rejected_by"]
    if len(rejected) != len(survivors):
        t.fail(f"{len(rejected)} reports for {len(survivors)} candidates", len(survivors))
    else:
        for i, (rule, friend) in enumerate(zip(rejected, survivors)):
            if (rule is None) != friend or (rule is not None and rule not in CHAIN_RULES):
                t.fail(f"candidate {i}: rejected_by {rule!r}, oracle friend={friend}")
    t.failed = min(t.failed, t.attempted)
    return t
