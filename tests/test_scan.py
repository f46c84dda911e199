"""Segmented scanning, checkpointing, and structured enumeration."""

import concurrent.futures
import importlib
import json
import math
import os
import random
import re
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from friendly import sieve
from friendly.arith import factorize, sigma
from friendly.friend10 import enumerate_structured
from friendly.scan import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointCorruptError,
    CheckpointMismatchError,
    CheckpointVersionError,
    DEFAULT_SEGMENT_SIZE,
    WORKERS_PER_CPU,
    checkpoint_load,
    checkpoint_save,
    index_hits,
    max_workers,
    read_records,
    scan,
    scan_range,
)
from friendly.sieve import MAX_SEGMENT, SieveBudgetError, sigma_range


def divisor_sum(n):
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d
            if d != n // d:
                total += n // d
    return total


def divisor_sums(lo, hi):
    """sigma over [lo, hi), one numpy pass per divisor pair d <= n // d."""
    out = np.zeros(hi - lo, dtype=np.int64)
    for d in range(1, math.isqrt(hi - 1) + 1):
        first = -lo % d
        cofactor = np.arange(lo + first, hi, d) // d
        out[first::d] += np.where(cofactor > d, d + cofactor, np.where(cofactor == d, d, 0))
    return out


def sieved(lo, hi):
    """sigma over [lo, hi) as one int64 array, collected from the sieve's blocks."""
    blocks = []
    sigma_range(lo, hi, lambda at, block: blocks.append(block.copy()))
    return np.concatenate(blocks)


BLOCK = sieve._BLOCK
EMPTY_BASE = (1, np.empty(0, dtype=np.int64))


# --- the sieve ----------------------------------------------------------------


def test_sigma_range_matches_divisor_enumeration():
    values = sieved(1, 2001)
    for n in range(1, 2001):
        assert int(values[n - 1]) == divisor_sum(n), n


def test_sigma_range_offset_segment():
    # Short segments, and ones across a period of the 2-3-5 wheel (21600).
    for lo, hi in [(995, 1015), (1, 2), (2, 4), (31, 34), (21590, 21610), (43199, 43202)]:
        values = sieved(lo, hi)
        for n in range(lo, hi):
            assert int(values[n - lo]) == divisor_sum(n), n


# 7 * 21600 - BLOCK puts the first block edge on a period of the 2-3-5 wheel.
@pytest.mark.parametrize("lo", [1, 7 * 21600 - BLOCK])
@pytest.mark.parametrize("size", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_sigma_range_across_block_edges(lo, size):
    assert sieved(lo, lo + size).tolist() == divisor_sums(lo, lo + size).tolist()


# 999983 is above the block length, so its square is one offset in a block.
@pytest.mark.parametrize(
    "lo",
    [
        999983 ** 2 - BLOCK,  # the square opens the second block
        999983 ** 2 - BLOCK + 1,  # the square closes the first block
        999983 ** 2,  # the square opens the segment
    ],
)
def test_sigma_range_large_prime_square_at_a_block_edge(lo):
    hi = lo + BLOCK + 300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = sieved(lo, hi)
    # Every value against a sieve whose blocks are cut elsewhere ...
    assert values.tolist() == sieved(lo - 5, hi)[5:].tolist()
    # ... and the values by the square and at both ends against factorize.
    square = 999983 ** 2
    near = set(range(square - 300, square + 300)) | set(range(lo, lo + 100)) | set(range(hi - 100, hi))
    for n in sorted(v for v in near if lo <= v < hi):
        assert int(values[n - lo]) == sigma(factorize(n)), n


# Prime powers q = p^j for each way a block applies one: by strides
# (q < BLOCK // _STRIDED_MULTIPLES), through the segment's table of sparser
# higher powers (j >= 2), and for a prime (j = 1) by chunked scatters
# (p < BLOCK) or by the offset of its next multiple (p >= BLOCK).
EDGE_POWERS = [7 ** 3, 31 ** 2, 101 ** 2, 7 ** 5, 1021 ** 2, 7 ** 7, 1031, 7919, 131101, 999983]


def edge_path(q):
    ((p, j),) = factorize(q).pairs
    if q < BLOCK // sieve._STRIDED_MULTIPLES:
        return "strided"
    if j > 1:
        return "table"
    return "scatter" if p < BLOCK else "ahead"


def test_edge_powers_cover_every_path():
    paths = ["strided"] * 2 + ["table"] * 4 + ["scatter"] * 2 + ["ahead"] * 2
    assert [edge_path(q) for q in EDGE_POWERS] == paths


@pytest.mark.parametrize("q", EDGE_POWERS)
@pytest.mark.parametrize("edge", [-1, 0])  # a multiple of q ends the first block, or opens the second
def test_sigma_range_prime_power_at_a_block_edge(q, edge):
    m = q * (10 ** 9 // q)
    lo = m - BLOCK - edge
    hi = lo + BLOCK + 300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = sieved(lo, hi)
    near = set(range(m - 300, m + 300)) | {m - q, m + q} | set(range(lo, lo + 100)) | set(range(hi - 100, hi))
    for n in sorted(v for v in near if lo <= v < hi):
        assert int(values[n - lo]) == sigma(factorize(n)), n


# The wheel holds p^k of each (p, k); every higher power below the sieve's
# limit goes by strides (2^6..2^9, 3^4..3^6, 5^3, 5^4) or through the table.
@pytest.mark.parametrize("p, k", sieve._WHEEL_POWERS)
def test_sigma_range_wheel_prime_powers_at_a_block_edge(p, k):
    j = k + 1
    while p ** j + 64 <= sieve._VALUE_LIMIT:  # up to 2^49, 3^31 and 5^21
        c = -(-(BLOCK + 16) // p ** j)  # m = c * p^j, past the first block and with v_p(m) = j
        m = p ** j * (c + (c % p == 0))
        lo = m - BLOCK + j % 2  # m opens the second block, or for odd j ends the first
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns when a scalar wraps
            values = sieved(lo, m + 64)
        for n in range(m - 16, m + 16):
            assert int(values[n - lo]) == sigma(factorize(n)), (p, j, n)
        j += 1


@pytest.mark.parametrize("lo", [1, 10 ** 9 + 3])
def test_sigma_range_visitor_gets_the_array_block_by_block(lo):
    hi = lo + 2 * BLOCK + 777
    seen = []
    assert sigma_range(lo, hi, lambda at, block: seen.append((at, block.copy()))) is None
    assert [at for at, _ in seen] == [lo, lo + BLOCK, lo + 2 * BLOCK]
    assert [len(block) for _, block in seen] == [BLOCK, BLOCK, 777]
    # Against sieves whose blocks are cut elsewhere.
    other = np.concatenate((sieved(lo, lo + 1000), sieved(lo + 1000, hi)))
    assert np.concatenate([block for _, block in seen]).tolist() == other.tolist()


def test_scan_sieves_its_base_primes_once(monkeypatch):
    calls = []
    primes_through = sieve._primes_through
    monkeypatch.setattr(sieve, "_primes_through", lambda limit: calls.append(limit) or primes_through(limit))
    monkeypatch.setattr(sieve, "_base", EMPTY_BASE)
    outcome = scan(10 ** 6, Fraction(9, 5), workers=1, segment_size=1 << 16)
    assert outcome.segments_total == 16
    assert outcome.hits == (10,)
    assert calls == [math.isqrt(10 ** 6 - 1)]


def test_segment_after_a_higher_one_matches_a_fresh_sieve(monkeypatch):
    # hi - 1 is the square of the prime 1009, so the base primes must keep 1009.
    lo, hi = 1009 ** 2 - 2000, 1009 ** 2 + 1
    monkeypatch.setattr(sieve, "_base", EMPTY_BASE)
    fresh = sieved(lo, hi)
    monkeypatch.setattr(sieve, "_base", EMPTY_BASE)
    sieved(10 ** 12, 10 ** 12 + 10)
    assert sieve._base[0] == 10 ** 6
    assert sieved(lo, hi).tolist() == fresh.tolist() == divisor_sums(lo, hi).tolist()


def test_sigma_range_budget():
    with pytest.raises(SieveBudgetError):
        sieved(1, MAX_SEGMENT + 2)  # refused before anything is allocated
    with pytest.raises(ValueError):
        sieved(0, 10)


def test_sieve_agrees_with_factorization_path():
    rng = random.Random(99)
    values = sieved(1, 10 ** 6)
    for _ in range(1000):
        n = rng.randrange(1, 10 ** 6)
        assert int(values[n - 1]) == sigma(factorize(n))


@pytest.mark.parametrize(
    "lo, hi",
    [
        (10 ** 12 - 500, 10 ** 12 + 500),
        (999983 ** 2 - 300, 999983 ** 2 + 300),  # a large prime square inside
        (33554393 ** 2 - 50, 33554393 ** 2 + 50),  # p^3 past int64: p must stay a Python int
        ((1 << 50) - 1000, 1 << 50),  # the top of the int64-exact range
        (2 ** 40 - 300, 2 ** 40 + 300),  # powers of the wheel's primes past the wheel
        (3 ** 25 - 300, 3 ** 25 + 300),
        (5 ** 17 - 300, 5 ** 17 + 300),
        (104021 ** 3 - 300, 104021 ** 3 + 300),  # the highest prime cube below 2^50
        (131101 ** 2 - 300, 131101 ** 2 + 300),  # the square of a prime above 2^17
        # A table entry resolved to e >= 3, for each way p's first power goes
        # in: 37^4, 1021^3 and 17^5 after a strided p (17^2 itself strided),
        # 7^9 after strided 7^2 and 7^3, 1031^3 after a scattered p.
        (37 ** 4 - 300, 37 ** 4 + 300),
        (1021 ** 3 - 300, 1021 ** 3 + 300),
        (17 ** 5 - 300, 17 ** 5 + 300),
        (7 ** 9 - 300, 7 ** 9 + 300),
        (1031 ** 3 - 300, 1031 ** 3 + 300),
        # Several swaps on one value: two table entries in each of the first
        # two; strided powers and two entries (11^3, and 5^5 into e = 6) in
        # the third; entries of both tables (2^10 into e = 12, 3^7, 7^4 and
        # 37^2) in the fourth; three entries, into e = 5, 3 and 2, in the last.
        (101 ** 2 * 103 ** 2 - 300, 101 ** 2 * 103 ** 2 + 300),
        (1021 ** 2 * 1031 ** 2 - 300, 1021 ** 2 * 1031 ** 2 + 300),
        (7 ** 2 * 11 ** 3 * 13 ** 2 * 10 ** 6 - 300, 7 ** 2 * 11 ** 3 * 13 ** 2 * 10 ** 6 + 300),
        (2 ** 12 * 3 ** 8 * 7 ** 4 * 37 ** 2 - 300, 2 ** 12 * 3 ** 8 * 7 ** 4 * 37 ** 2 + 300),
        (7 ** 5 * 37 ** 3 * 1031 ** 2 - 300, 7 ** 5 * 37 ** 3 * 1031 ** 2 + 300),
    ],
)
def test_sigma_range_matches_factorization_at_height(lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns when an int64 scalar wraps
        values = sieved(lo, hi)
    for n in range(lo, hi):
        assert int(values[n - lo]) == sigma(factorize(n)), n


def test_index_hits_overflow_path_agrees_with_vectorized_path():
    values = sieved(1, 10 ** 4)
    big = 1 << 62  # den * sigma(n) no longer fits int64
    perfect = [6, 28, 496, 8128]
    # Targets not in lowest terms: 6/4 hits at 2, a multiple of 4/gcd(6, 4) but not of 4.
    for num, den, expected in [(2, 1, perfect), (4, 2, perfect), (6, 4, [2])]:
        assert index_hits(values, 1, num, den) == expected
        assert index_hits(values, 1, num * big, den * big) == expected


@pytest.mark.parametrize("lo", [7, 996])
def test_index_hits_matches_a_filter_of_the_whole_segment(lo):
    values = sieved(lo, 10 ** 5)
    sigmas = values.tolist()
    targets = [(9, 5), (18, 10), (6, 4), (4, 2), (3, 2), (7, 3)]
    # Numerators past int64; for the second, every k * num / g wraps in uint64.
    targets += [(2 ** 61 + 1, 2 ** 60), (2 ** 65 - 1, 3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns when an integer scalar wraps
        for num, den in targets:
            brute = [n for n, s in enumerate(sigmas, lo) if den * s == num * n]
            assert index_hits(values, lo, num, den) == brute, (num, den)
    assert index_hits(values, lo, 9, 5) == ([10] if lo <= 10 else [])
    # [11, 14) holds no multiple of 5, so nothing is compared.
    assert index_hits(sieved(11, 14), 11, 9, 5) == []


def test_index_hits_false_positive_is_dropped_by_reverification():
    # 5 * 2^64 + 9 is 9 mod 2^64, so the wrapping matcher takes sigma(10) = 9 * 2
    # for a hit; only the exact re-verification tells the indices apart.
    target = Fraction(5 * 2 ** 64 + 9, 5)
    assert index_hits(sieved(1, 100), 1, target.numerator, target.denominator) == [10]
    assert scan_range(1, 100, target).hits == ()
    assert scan(100, target).hits == ()


# --- scan_range -----------------------------------------------------------------


def test_scan_range_perfect_numbers():
    record = scan_range(1, 100, Fraction(2))
    assert record.hits == (6, 28)
    assert record.scanned_count == 99
    assert record.checksum == sum(divisor_sum(n) for n in range(1, 100)) % 2 ** 64


def test_scan_range_only_ten_shares_its_index():
    record = scan_range(1, 10 ** 6, Fraction(9, 5))
    assert record.hits == (10,)


@pytest.mark.parametrize("lo", [1, 10 ** 9 + 3])
def test_scan_range_matches_the_whole_array_across_block_edges(lo):
    # Three blocks, the last one short. Of their first values, at each lo
    # two are not multiples of 5.
    hi = lo + 2 * BLOCK + 777
    values = sieved(lo, hi)
    checksum = int(np.add.reduce(values.view(np.uint64), dtype=np.uint64))
    # The index of the last value of a block and of the first of the next:
    # the block holding n0 starts off and on a multiple of n0's denominator.
    edges = [lo + BLOCK - 1, lo + BLOCK, lo + 2 * BLOCK - 1, lo + 2 * BLOCK]
    cases = [(None, Fraction(9, 5)), (None, Fraction(2))]
    cases += [(n0, Fraction(int(values[n0 - lo]), n0)) for n0 in edges]
    for n0, target in cases:
        record = scan_range(lo, hi, target)
        assert record.checksum == checksum
        assert list(record.hits) == index_hits(values, lo, target.numerator, target.denominator)
        assert n0 is None or n0 in record.hits


def test_scan_range_memory_does_not_grow_with_width():
    block_bytes = BLOCK * 8  # one int64 block buffer
    scan_range(10 ** 12, 10 ** 12 + 2 ** 22, Fraction(9, 5))  # caches the base primes and the wheel
    for lo in (1, 10 ** 12):
        peaks = []
        for width in (2 ** 20, 2 ** 22):
            tracemalloc.start()
            try:
                scan_range(lo, lo + width, Fraction(9, 5))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= block_bytes, (lo, peaks)
        assert max(peaks) < 8 * block_bytes, (lo, peaks)


# The warm peaks of the sieve that built each prime's powers one prime at a
# time were 4,202,385 bytes at 2^24 and 6,573,130 bytes at 10^12. At 2^24
# the ceiling adds about 10%; at 10^12 the level sieve peaks about 18% below
# the old one, and one scatter over all its primes below the block length
# (6.7 MB) goes past the old peak itself.
@pytest.mark.parametrize("lo, ceiling", [(2 ** 24, 4_600_000), (10 ** 12, 6_573_130)])
def test_scan_range_peak_memory_has_a_ceiling(lo, ceiling):
    hi = lo + 2 ** 20
    scan_range(lo, hi, Fraction(9, 5))  # caches the base primes and the wheel
    tracemalloc.start()
    try:
        scan_range(lo, hi, Fraction(9, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ceiling, peak


def test_scan_range_rejects_empty_or_bad_ranges():
    with pytest.raises(ValueError):
        scan_range(2, 2, Fraction(2))
    with pytest.raises(ValueError):
        scan_range(0, 5, Fraction(2))
    with pytest.raises(ValueError):
        scan_range(1, 10, Fraction(-1, 2))


def test_scan_range_hits_carry_the_target_index():
    record = scan_range(1, 500, Fraction(3, 2))
    for h in record.hits:
        assert sigma(factorize(h)) * 2 == 3 * h


# --- the driver -------------------------------------------------------------------


def test_bound_ending_a_segment_is_scanned():
    # Segments [1, 15) and [15, 29): the last value below the bound is a hit.
    assert scan(29, Fraction(2), segment_size=14).hits == (6, 28)


def test_negative_max_segments_is_refused_before_any_file(tmp_path):
    checkpoint = tmp_path / "cp"
    with pytest.raises(ValueError, match="max_segments"):
        scan(1000, Fraction(2), segment_size=100, max_segments=-1, checkpoint_path=checkpoint)
    assert list(tmp_path.iterdir()) == []
    # Zero is a valid cap: the run starts and scans nothing.
    outcome = scan(1000, Fraction(2), segment_size=100, max_segments=0, checkpoint_path=checkpoint)
    assert outcome.segments_done == 0 and outcome.frontier == 1 and not outcome.complete


def test_fewer_than_one_worker_is_refused_before_any_file(tmp_path):
    checkpoint = tmp_path / "cp"
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            scan(1000, Fraction(2), workers=workers, checkpoint_path=checkpoint)
    assert list(tmp_path.iterdir()) == []


def test_more_workers_than_the_cap_are_refused_before_any_pool_or_file(tmp_path, monkeypatch):
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            assert max_workers <= 3 * WORKERS_PER_CPU  # never a pool past the cap
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert max_workers() == 3 * WORKERS_PER_CPU
    checkpoint = tmp_path / "cp"
    for workers in (max_workers() + 1, 10 ** 9):
        with pytest.raises(ValueError, match="workers"):
            scan(1000, Fraction(2), workers=workers, checkpoint_path=checkpoint)
    assert list(tmp_path.iterdir()) == [] and pools == []
    assert scan(1000, Fraction(2), workers=max_workers(), segment_size=100).hits == (6, 28, 496)
    assert pools == [max_workers()]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: counted as one CPU
    assert max_workers() == WORKERS_PER_CPU


def test_scan_past_the_sieve_limit_fails_before_any_file(tmp_path):
    checkpoint = tmp_path / "scan.checkpoint"
    started = time.perf_counter()
    # Two segments, so a check made only when a segment is sieved comes too late.
    with pytest.raises(SieveBudgetError, match="overflow"):
        scan(2 ** 50 + 2, Fraction(9, 5), segment_size=1 << 50, checkpoint_path=checkpoint)
    assert time.perf_counter() - started < 1
    assert list(tmp_path.iterdir()) == []


def test_scan_refuses_a_wide_segment_or_bad_target_before_any_file(tmp_path):
    checkpoint = tmp_path / "scan.checkpoint"
    with pytest.raises(SieveBudgetError, match="exceeds budget"):
        scan(10 ** 8, Fraction(9, 5), segment_size=1 << 25, checkpoint_path=checkpoint)
    for target in (Fraction(-1), Fraction(0)):
        with pytest.raises(ValueError, match="positive"):
            scan(100, target, checkpoint_path=checkpoint)
    with pytest.raises(ValueError, match="bound must be >= 2"):
        scan(1, Fraction(2), checkpoint_path=checkpoint)
    assert list(tmp_path.iterdir()) == []
    # A segment is only as wide as the values it covers.
    assert scan(1000, Fraction(2), segment_size=1 << 40).hits == (6, 28, 496)


def test_one_segment_of_a_long_grid_needs_no_memory_for_the_grid():
    tracemalloc.start()
    try:
        outcome = scan(2 ** 40, Fraction(9, 5), max_segments=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20, peak
    assert outcome.segments_total == 2 ** 20
    assert outcome.segments_done == 1 and outcome.frontier == 2 ** 20 + 1
    assert outcome.hits == (10,)


def test_a_scan_up_to_the_sieve_limit_starts_and_resumes(tmp_path):
    path = tmp_path / "scan.checkpoint"
    bound, seg = 2 ** 50 + 1, DEFAULT_SEGMENT_SIZE
    first = scan(bound, Fraction(9, 5), checkpoint_path=path, max_segments=1)
    second = scan(bound, Fraction(9, 5), checkpoint_path=path, max_segments=1)
    assert (tmp_path / "scan.checkpoint.records").read_bytes().count(b"\n") == 2
    assert first.frontier == 1 + seg and second.frontier == 1 + 2 * seg
    assert second.segments_done == 2 and second.segments_total == 2 ** 30
    assert [(r.lo, r.hi) for r in second.new_records] == [(1 + seg, 1 + 2 * seg)]
    assert second.hits == (10,) and not second.complete


def test_scan_deterministic_across_worker_counts():
    solo = scan(200_000, Fraction(9, 5), workers=1, segment_size=1 << 15)
    multi = scan(200_000, Fraction(9, 5), workers=3, segment_size=1 << 15)
    assert solo.hits == multi.hits == (10,)
    assert solo.checksum == multi.checksum
    assert solo.scanned_count == multi.scanned_count == 199_999
    strip = lambda recs: [(r.lo, r.hi, r.hits, r.checksum, r.scanned_count) for r in recs]
    assert strip(sorted(solo.new_records, key=lambda r: r.lo)) == strip(
        sorted(multi.new_records, key=lambda r: r.lo)
    )


def test_scan_keeps_at_most_two_segments_per_worker_in_flight(monkeypatch):
    counts = {"submitted": 0, "taken": 0, "peak": 0}

    class CountingPool(ThreadPoolExecutor):
        """Counts futures submitted and not yet read by the driver."""

        def submit(self, *args):
            future = super().submit(*args)
            counts["submitted"] += 1
            counts["peak"] = max(counts["peak"], counts["submitted"] - counts["taken"])
            result = future.result

            def taken(timeout=None):
                counts["taken"] += 1
                return result(timeout)

            future.result = taken
            return future

    # scan imports the pool when it needs one, from concurrent.futures.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    pooled = scan(200_000, Fraction(9, 5), workers=2, segment_size=1 << 12)
    solo = scan(200_000, Fraction(9, 5), workers=1, segment_size=1 << 12)
    assert counts["submitted"] == counts["taken"] == 49
    assert counts["peak"] == 4
    assert pooled.hits == solo.hits == (10,)
    assert pooled.checksum == solo.checksum
    assert pooled.scanned_count == solo.scanned_count == 199_999


def test_scan_coverage_has_no_gaps_or_overlap():
    outcome = scan(300_000, Fraction(2), segment_size=1 << 15)
    records = sorted(outcome.new_records, key=lambda r: r.lo)
    edge = 1
    for rec in records:
        assert rec.lo == edge
        edge = rec.hi
    assert edge == 300_000
    assert outcome.complete
    assert outcome.hits == (6, 28, 496, 8128)


# --- checkpointing -----------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    cp = Checkpoint(
        version=CHECKPOINT_VERSION,
        target_index=Fraction(9, 5),
        bound=10 ** 6,
        segment_size=1 << 20,
    )
    path = tmp_path / "scan.checkpoint"
    checkpoint_save(path, cp)
    assert checkpoint_load(path) == cp
    assert [p.name for p in tmp_path.iterdir()] == ["scan.checkpoint"]  # no temp file left


def test_checkpoint_truncated_file_reports_offset(tmp_path):
    path = tmp_path / "scan.checkpoint"
    cp = Checkpoint(version=CHECKPOINT_VERSION, target_index=Fraction(2), bound=100, segment_size=10)
    checkpoint_save(path, cp)
    whole = path.read_text()
    path.write_text(whole[: len(whole) // 2])
    with pytest.raises(CheckpointCorruptError) as info:
        checkpoint_load(path)
    assert isinstance(info.value.offset, int)
    assert "byte" in str(info.value)


def test_checkpoint_unknown_version_refused(tmp_path):
    path = tmp_path / "scan.checkpoint"
    path.write_text(json.dumps({"version": 99}))
    with pytest.raises(CheckpointVersionError):
        checkpoint_load(path)


def test_checkpoint_version_1_refused_with_restart_advice(tmp_path):
    path = tmp_path / "scan.checkpoint"
    path.write_text(json.dumps({
        "version": 1, "target_index": "9/5", "bound": "100", "segment_size": "10",
        "frontier": "1", "pending": [["1", "11"]], "fingerprint": "0123456789abcdef",
    }))
    (tmp_path / "scan.checkpoint.records").write_text("")
    with pytest.raises(CheckpointVersionError) as info:
        scan(100, Fraction(9, 5), segment_size=10, checkpoint_path=path)
    assert "delete" in str(info.value) and "scan.checkpoint.records" in str(info.value)


def test_checkpoint_missing_field_is_corrupt(tmp_path):
    path = tmp_path / "scan.checkpoint"
    path.write_text(json.dumps({"version": CHECKPOINT_VERSION, "bound": "10"}))
    with pytest.raises(CheckpointCorruptError):
        checkpoint_load(path)


def test_checkpoint_is_written_once_per_run(tmp_path, monkeypatch):
    module = importlib.import_module("friendly.scan")  # the package exports a function `scan`
    calls = []
    save = module.checkpoint_save
    monkeypatch.setattr(module, "checkpoint_save", lambda *a: calls.append(a) or save(*a))
    path = tmp_path / "scan.checkpoint"
    fresh = scan(2000, Fraction(2), segment_size=10, checkpoint_path=path, max_segments=150)
    assert fresh.segments_done == 150 and len(calls) == 1
    resumed = scan(2000, Fraction(2), segment_size=10, checkpoint_path=path)
    assert resumed.complete and len(resumed.new_records) == 50 and len(calls) == 1
    assert resumed.hits == (6, 28, 496)


def test_resume_refuses_mismatched_parameters(tmp_path):
    path = tmp_path / "scan.checkpoint"
    scan(100_000, Fraction(9, 5), segment_size=1 << 14, checkpoint_path=path)
    with pytest.raises(CheckpointMismatchError):
        scan(200_000, Fraction(9, 5), segment_size=1 << 14, checkpoint_path=path)
    with pytest.raises(CheckpointMismatchError):
        scan(100_000, Fraction(2), segment_size=1 << 14, checkpoint_path=path)


def test_resume_rescans_nothing_below_frontier(tmp_path):
    path = tmp_path / "scan.checkpoint"
    bound, seg = 2 ** 21, 1 << 18
    first = scan(bound, Fraction(9, 5), segment_size=seg, checkpoint_path=path, max_segments=3)
    assert not first.complete
    assert first.frontier == 1 + 3 * seg
    second = scan(bound, Fraction(9, 5), segment_size=seg, checkpoint_path=path)
    assert second.complete
    assert all(rec.lo >= first.frontier for rec in second.new_records)
    assert second.hits == (10,)
    assert second.scanned_count == bound - 1
    # combined coverage is seamless, and the checkpoint still names the run
    assert second.frontier == bound
    records = read_records(str(path) + ".records")
    assert [(r.lo, r.hi) for r in records] == [(lo, min(lo + seg, bound)) for lo in range(1, bound, seg)]
    assert checkpoint_load(path) == Checkpoint(CHECKPOINT_VERSION, Fraction(9, 5), bound, seg)


def test_resumed_totals_match_a_fresh_run(tmp_path):
    path = tmp_path / "scan.checkpoint"
    bound, seg = 300_000, 1 << 15
    scan(bound, Fraction(2), segment_size=seg, checkpoint_path=path, max_segments=4)
    resumed = scan(bound, Fraction(2), segment_size=seg, checkpoint_path=path)
    fresh = scan(bound, Fraction(2), segment_size=seg)
    assert resumed.hits == fresh.hits
    assert resumed.checksum == fresh.checksum
    assert resumed.scanned_count == fresh.scanned_count


def test_pooled_records_out_of_grid_order_resume_to_a_fresh_runs_totals(tmp_path):
    path = tmp_path / "scan.checkpoint"
    records = tmp_path / "scan.checkpoint.records"
    bound, seg, target = 2 ** 50 + 1, 1 << 16, Fraction(2)
    scan(bound, target, workers=2, segment_size=seg, checkpoint_path=path, max_segments=5)
    lines = records.read_bytes().splitlines(keepends=True)
    assert len(lines) == 5
    # The pool appends records in the order they finish; descending, they are surely out of grid order.
    records.write_bytes(b"".join(sorted(lines, key=lambda line: -int(json.loads(line)["lo"]))))
    resumed = scan(bound, target, workers=1, segment_size=seg, checkpoint_path=path, max_segments=3)
    fresh = scan(bound, target, segment_size=seg, max_segments=8)
    assert resumed.hits == fresh.hits == (6, 28, 496, 8128)
    assert resumed.checksum == fresh.checksum
    assert resumed.scanned_count == fresh.scanned_count == 8 * seg
    assert resumed.frontier == fresh.frontier == 1 + 8 * seg
    assert resumed.segments_done == fresh.segments_done == 8


def test_resume_after_a_crash_at_every_byte_of_the_records_file(tmp_path):
    bound, seg, target = 1200, 100, Fraction(2)
    fresh = scan(bound, target, segment_size=seg)
    grid = [(lo, min(lo + seg, bound)) for lo in range(1, bound, seg)]
    path = tmp_path / "scan.checkpoint"
    records = tmp_path / "scan.checkpoint.records"
    scan(bound, target, segment_size=seg, checkpoint_path=path, max_segments=6)
    data = records.read_bytes()
    assert data.count(b"\n") == 6 and data.endswith(b"\n")
    for cut in range(len(data) + 1):
        records.write_bytes(data[:cut])
        whole = data[:cut].count(b"\n")  # lines that survived with their newline
        resumed = scan(bound, target, segment_size=seg, checkpoint_path=path)
        assert resumed.hits == fresh.hits == (6, 28, 496), cut
        assert resumed.checksum == fresh.checksum, cut
        assert resumed.scanned_count == fresh.scanned_count, cut
        assert [(r.lo, r.hi) for r in resumed.new_records] == grid[whole:], cut
        assert [(r.lo, r.hi) for r in read_records(records)] == grid, cut


def test_corrupt_middle_record_reports_its_offset(tmp_path):
    path = tmp_path / "scan.checkpoint"
    records = tmp_path / "scan.checkpoint.records"
    scan(1200, Fraction(2), segment_size=100, checkpoint_path=path, max_segments=3)
    lines = records.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][: len(lines[1]) // 2] + b"\n"
    records.write_bytes(b"".join(lines))
    with pytest.raises(CheckpointCorruptError) as info:
        scan(1200, Fraction(2), segment_size=100, checkpoint_path=path)
    assert info.value.offset == len(lines[0])
    assert f"at byte {len(lines[0])}" in str(info.value)


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("scanned_count", "7", "scanned_count 7 is not hi - lo = 1000"),
        ("hits", ["10"], "outside [1001, 2001)"),
    ],
    ids=["count", "hit"],
)
def test_resume_refuses_a_record_that_disagrees_with_its_segment(tmp_path, field, value, reason):
    path = tmp_path / "scan.checkpoint"
    records = tmp_path / "scan.checkpoint.records"
    scan(4000, Fraction(9, 5), segment_size=1000, checkpoint_path=path, max_segments=3)
    lines = records.read_bytes().splitlines(keepends=True)
    doc = json.loads(lines[1])
    assert (doc["lo"], doc["hi"]) == ("1001", "2001")
    doc[field] = value
    lines[1] = json.dumps(doc).encode("utf-8") + b"\n"
    records.write_bytes(b"".join(lines))
    before = path.read_bytes(), records.read_bytes()
    with pytest.raises(CheckpointCorruptError, match=re.escape(reason)) as info:
        scan(4000, Fraction(9, 5), segment_size=1000, checkpoint_path=path)
    assert info.value.offset == len(lines[0])
    assert (path.read_bytes(), records.read_bytes()) == before


@pytest.mark.parametrize("other_seg, other_target", [(50, Fraction(2)), (100, Fraction(9, 5))])
def test_resume_refuses_records_of_another_scan(tmp_path, other_seg, other_target):
    path = tmp_path / "scan.checkpoint"
    records = tmp_path / "scan.checkpoint.records"
    scan(1200, Fraction(2), segment_size=100, checkpoint_path=path, max_segments=2)
    mine = records.read_bytes()
    other = tmp_path / "other.checkpoint"
    scan(1200, other_target, segment_size=other_seg, checkpoint_path=other, max_segments=3)
    records.write_bytes(mine + (tmp_path / "other.checkpoint.records").read_bytes())
    with pytest.raises(CheckpointCorruptError, match="not a segment of this scan"):
        scan(1200, Fraction(2), segment_size=100, checkpoint_path=path)


def test_records_file_is_jsonl_with_decimal_strings(tmp_path):
    path = tmp_path / "scan.checkpoint"
    outcome = scan(50_000, Fraction(9, 5), segment_size=1 << 14, checkpoint_path=path)
    records_path = tmp_path / "scan.checkpoint.records"
    assert records_path.exists()
    lines = [json.loads(l) for l in records_path.read_text().splitlines() if l]
    assert len(lines) == outcome.segments_total
    for doc in lines:
        assert set(doc) == {"lo", "hi", "target_index", "hits", "scanned_count", "elapsed", "checksum"}
        for key in ("lo", "hi", "scanned_count", "elapsed", "checksum"):
            assert isinstance(doc[key], str) and doc[key].isdigit()
        assert all(isinstance(h, str) and h.isdigit() for h in doc["hits"])
        assert doc["target_index"] == "9/5"
    loaded = read_records(records_path)
    assert [r.hits for r in loaded if r.hits] == [(10,)]


# --- structured enumeration ---------------------------------------------------------


def test_enumerate_examples():
    assert [c.value for c in enumerate_structured(625)] == [25, 625]
    values = [c.value for c in enumerate_structured(1225)]
    assert values == [25, 625, 1225]
    by_value = {c.value: c for c in enumerate_structured(1225)}
    assert by_value[1225].a == 1 and by_value[1225].q == 7


def test_enumerate_bound_validation():
    with pytest.raises(ValueError):
        list(enumerate_structured(24))


def test_enumerate_matches_double_loop_oracle():
    bound = 10 ** 6
    expected = []
    a = 1
    while 25 ** a <= bound:
        q = 1
        while 25 ** a * q * q <= bound:
            if q % 2 == 1 and q % 3 != 0 and q % 5 != 0:
                expected.append(25 ** a * q * q)
            q += 1
        a += 1
    got = [c.value for c in enumerate_structured(bound)]
    assert sorted(expected) == got
    assert len(got) == 67


def test_enumerate_is_ascending_and_duplicate_free():
    values = [c.value for c in enumerate_structured(5 * 10 ** 6)]
    assert values == sorted(values)
    assert len(values) == len(set(values))
    for c in enumerate_structured(10 ** 5):
        assert c.value <= 10 ** 5
        assert c.q % 2 == 1 and c.q % 3 != 0 and c.q % 5 != 0
