"""Batched sum-of-divisors over integer segments, and index matching on them.

A segmented prime-power sieve that never divides inside its loops. For
every prime p <= sqrt(hi - 1), sigma(p^e) is multiplied into ``sig`` and p^e
into ``smooth`` at each multiple of p, where p^e is the largest power of p
dividing that value. One division at the end, n // smooth, leaves 1 or the
one prime factor of n above sqrt(n), which contributes itself + 1.

The segment is sieved in blocks of _BLOCK values, each finished before the
next starts. ``smooth`` and every other scratch array is block-sized, to
stay in cache. Given a visitor, a call hands each finished block to it and
reuses one block-sized output buffer, so it holds block scratch and
per-prime state of O(pi(sqrt(hi))) entries, whatever the width; only the
form that returns the whole segment allocates an array as long as it.
In each block ``sig`` and ``smooth`` start as a repeated table holding 2, 3
and 5 to low powers (a wheel); those primes are then sieved only where a
higher power divides. Every other prime with many multiples in a block is
sieved with strided slices, one loop iteration per prime. Primes below the
block length with at most about _STRIDED_MULTIPLES multiples per block are
sieved a batch of primes at a time with unbuffered scatter updates. A prime
no smaller than the block length divides at most one value of a block, so
each such prime keeps the offset of its next multiple, and a block touches
only the primes whose next multiple falls inside it (as in T. Oliveira e
Silva, S. Herzog and S. Pardi, Math. Comp. 83 (2014)). All arithmetic is
int64 with an explicit headroom guard, so results are exact, never floating
point.

The base primes are sieved once per process, for the highest segment seen
or the bound given to ``cover``, and sliced for lower segments.

The matcher compares sigma(n) with num * n / den at the multiples of
den / gcd(num, den) only, in wrapping uint64; callers re-verify its hits.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import Callable, Optional

import numpy as np

__all__ = ["MAX_SEGMENT", "SieveBudgetError", "check_height", "check_width", "cover", "index_hits", "sigma_range"]

MAX_SEGMENT = 1 << 24
# Robin (1984): sigma(n)/n < e^gamma ln ln n + 0.6483 / ln ln n for n >= 3,
# which is below 6.5 for 4 <= n <= 2^50. So sigma(n) < 2^53 there and int64
# has 2^10 of headroom (the index does pass 6 below 2^50, at 1.3e14). Every
# sieve intermediate is bounded by n or sigma(n): a power pw <= p^e and every
# partial product in smooth divide n, the quotient n // smooth and its
# successor are <= n + 1, a running sum acc <= sigma(p^e), and every partial
# product in sig <= sigma(n). Scatter index arithmetic stays below 2^45, and
# the square of a base prime below 2^50. Only the sieve relies on this bound.
_VALUE_LIMIT = 1 << 50
# Values sieved at a time: 1 MB of int64, so block scratch stays in cache.
_BLOCK = 1 << 17
# A prime with more multiples than this in a block is sieved by strides.
_STRIDED_MULTIPLES = 128
# Below p^k, how often p divides n repeats with period p^k: these primes
# come from a precomputed table and are sieved by strides only from p^k on.
_WHEEL_POWERS = ((2, 5), (3, 3), (5, 2))
# Primes per scatter batch; bounds its arrays by about 2^19 entries.
_BATCH_PRIMES = 4096

# (limit, the primes <= limit): replaced whole under the lock, never mutated.
_base: tuple[int, np.ndarray] = (1, np.empty(0, dtype=np.int64))
_base_lock = threading.Lock()


class SieveBudgetError(Exception):
    """Requested segment exceeds the in-memory sieve budget; split it."""


def sigma_range(
    lo: int, hi: int, visit: Optional[Callable[[int, np.ndarray], None]] = None
) -> Optional[np.ndarray]:
    """sigma(n) for every n in [lo, hi) as an int64 array, or block by block.

    Without ``visit`` the whole segment is returned. With it, nothing is
    returned: ``visit(at, block)`` is called as each block finishes, in
    ascending order, where ``block[i]`` is sigma(at + i). ``block`` is a view
    into one reused block-sized buffer, valid only during the call. A call
    holds block scratch and O(pi(sqrt(hi))) per-prime state, plus, without
    ``visit``, its output.

    Raises SieveBudgetError when the segment is too wide for the memory
    budget or sits too high for int64 arithmetic.
    """
    if not 1 <= lo < hi:
        raise ValueError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    check_width(hi - lo)
    check_height(hi)

    size = hi - lo
    block = min(size, _BLOCK)
    # The wheel's primes are the first ones; the wheel covers them.
    primes = _base_primes(math.isqrt(hi - 1))[len(_WHEEL_POWERS) :]
    cut = int(np.searchsorted(primes, block // _STRIDED_MULTIPLES))
    top = int(np.searchsorted(primes, block))
    strided = primes[:cut].tolist()
    batched = primes[cut:top]
    # A prime >= block divides at most one value of a block. ahead holds the
    # offset from lo of its next multiple. The rare one whose square divides
    # a value here needs sigma(p^e), so it goes by strides. Only the others
    # with a multiple in the segment are kept, so blocks scan no more primes
    # than can hit them (near 2^50, about a seventh of them).
    large = primes[top:]
    ahead = large * large
    np.remainder(-lo, ahead, out=ahead)
    squared = ahead < size
    strided += large[squared].tolist()
    np.remainder(-lo, large, out=ahead)
    live = np.flatnonzero((ahead < size) & ~squared)
    large, ahead = large[live], ahead[live]

    # The only difference between the two forms: where a block is written.
    sig = np.empty(size if visit is None else block, dtype=np.int64)
    smooth = np.empty(block, dtype=np.int64)
    wheel_sig, wheel_smooth = _wheel()
    for start in range(0, size, block):
        stop = min(start + block, size)
        at = lo + start
        part = sig[start:stop] if visit is None else sig[: stop - start]
        part_smooth = smooth[: stop - start]
        _tile(part, wheel_sig, at)
        _tile(part_smooth, wheel_smooth, at)
        for p, k in _WHEEL_POWERS:
            _sieve_prime(part, part_smooth, at, p, p ** k)
        for p in strided:
            _sieve_prime(part, part_smooth, at, p, p)
        for first in range(0, len(batched), _BATCH_PRIMES):
            _sieve_prime_batch(part, part_smooth, at, batched[first : first + _BATCH_PRIMES])
        hit = np.flatnonzero(ahead < stop)
        if len(hit):
            p = large[hit]
            where = ahead[hit]
            ahead[hit] = where + p
            where -= start
            # Unbuffered: two primes can divide the same value.
            np.multiply.at(part, where, p + 1)
            np.multiply.at(part_smooth, where, p)
        # Exact, since smooth divides n: rest is 1 or a prime. In place, since
        # temporaries here set peak memory.
        rest = np.arange(at, lo + stop, dtype=np.int64)
        rest //= part_smooth
        rest += rest != 1
        part *= rest
        if visit is not None:
            visit(at, part)
    return sig if visit is None else None


def check_height(hi: int) -> None:
    """Raise SieveBudgetError unless every value below hi is low enough to sieve."""
    if hi - 1 > _VALUE_LIMIT:
        raise SieveBudgetError(f"values past {_VALUE_LIMIT} would overflow the sieve")


def check_width(size: int) -> None:
    """Raise SieveBudgetError if a segment of size values is too wide to sieve."""
    if size > MAX_SEGMENT:
        raise SieveBudgetError(f"segment of {size} elements exceeds budget of {MAX_SEGMENT}")


def cover(hi: int) -> None:
    """Sieve now the base primes of every segment below hi.

    A scan calls this with its bound, so that its segments, which rise,
    slice one array instead of each sieving a slightly longer one.
    """
    if hi > 1:
        _base_primes(math.isqrt(hi - 1))


@functools.cache
def _wheel() -> tuple[np.ndarray, np.ndarray]:
    """For each residue r modulo prod p^k over _WHEEL_POWERS: sigma and the
    value of r's part made of those primes, counting p only where p^k does
    not divide r. Read-only."""
    period = math.prod(p ** k for p, k in _WHEEL_POWERS)
    r = np.arange(period)
    sig = np.ones(period, dtype=np.int64)
    smooth = np.ones(period, dtype=np.int64)
    for p, k in _WHEEL_POWERS:
        e = sum((r % p ** j == 0).astype(np.int64) for j in range(1, k))
        e[r % p ** k == 0] = 0
        smooth *= p ** e
        sig *= (p ** (e + 1) - 1) // (p - 1)
    sig.flags.writeable = smooth.flags.writeable = False
    return sig, smooth


def _tile(out: np.ndarray, table: np.ndarray, at: int) -> None:
    """Fill out with the periodic table, value at first."""
    period = len(table)
    shift = at % period
    head = min(len(out), period - shift)
    out[:head] = table[shift : shift + head]
    for i in range(head, len(out), period):
        out[i : i + period] = table[: len(out) - i]


def _base_primes(limit: int) -> np.ndarray:
    """Primes <= limit, ascending, as a read-only slice of the process cache.

    The cache holds the exact cover of the highest limit asked for; a
    higher one replaces it whole.
    """
    global _base
    covered, primes = _base
    if limit > covered:
        with _base_lock:
            covered, primes = _base
            if limit > covered:
                primes = _primes_through(limit)
                primes.flags.writeable = False
                _base = (limit, primes)
    return primes[: int(np.searchsorted(primes, limit, side="right"))]


def _primes_through(limit: int) -> np.ndarray:
    """Primes <= limit, ascending, as int64.

    Not arith.primes_below: its cache doubles past the limit and lives as
    long as the process, which raises the peak memory of every scan. The
    cache in _base_primes keeps only the exact cover.
    """
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def _sieve_prime(sig: np.ndarray, smooth: np.ndarray, lo: int, p: int, q: int) -> None:
    """Sieve one prime p at the multiples of q = p^k, by strides.

    p and q are Python ints, so p^k cannot wrap.
    """
    size = len(sig)
    start = -lo % q
    multiples = slice(start, size, q)
    pk = q * p
    s = -lo % pk
    if s >= size:
        sig[multiples] *= (pk - 1) // (p - 1)
        smooth[multiples] *= q
        return
    # For the j-th multiple of q, acc[j] builds sigma(p^e) and pw[j] builds
    # p^e, one power at a time.
    count = len(range(start, size, q))
    acc = np.full(count, (pk - 1) // (p - 1), dtype=np.int64)
    pw = np.full(count, q, dtype=np.int64)
    while s < size:
        higher = slice((s - start) // q, count, pk // q)
        acc[higher] += pk
        pw[higher] *= p
        pk *= p
        s = -lo % pk
    sig[multiples] *= acc
    smooth[multiples] *= pw


def _sieve_prime_batch(sig: np.ndarray, smooth: np.ndarray, lo: int, primes: np.ndarray) -> None:
    """Sieve primes that each have few multiples in the segment, all at once."""
    size = len(sig)
    squared = -lo % (primes * primes) < size
    # The rare prime whose square divides a value here needs sigma(p^e).
    for p in primes[squared].tolist():
        _sieve_prime(sig, smooth, lo, p, p)
    primes = primes[~squared]
    counts = (lo + size - 1) // primes - (lo - 1) // primes
    step = np.repeat(primes, counts)
    # The k-th entry overall, the j-th multiple of its prime p, sits at
    # start_p + j * p, with j = k - (entries of earlier primes).
    before = np.cumsum(counts) - counts
    at = np.repeat(-lo % primes - before * primes, counts) + np.arange(len(step)) * step
    # Unbuffered: two primes of a batch can divide the same value.
    np.multiply.at(sig, at, step + 1)
    np.multiply.at(smooth, at, step)


def index_hits(sig: np.ndarray, lo: int, num: int, den: int) -> list[int]:
    """Every n in [lo, lo + len(sig)) with den * sig[n - lo] == num * n, ascending.

    ``sig`` is sigma over that segment, as ``sigma_range`` returns it or
    hands one block of it to a visitor, so the hits are the values of
    abundancy index num/den. The test wraps in uint64: it misses no hit, but
    where num * n / den passes 2^64 a value can match mod 2^64 only, so
    callers re-verify hits exactly.
    """
    # den * sigma(n) == num * n makes step = den / g divide n, and for
    # n = step * k it reads sigma(n) == k * (num / g).
    g = math.gcd(num, den)
    step = den // g
    first = -(-lo // step)  # the least k with step * k >= lo
    sub = sig[first * step - lo :: step].view(np.uint64)
    want = np.arange(first, first + len(sub), dtype=np.uint64)
    want *= np.uint64(num // g % (1 << 64))
    return [step * (first + int(j)) for j in np.flatnonzero(sub == want)]
