"""Batched sum-of-divisors over integer segments, and index matching on them.

A segmented prime-power sieve that never divides inside its loops. For
every prime p <= sqrt(hi - 1), sigma(p^e) is multiplied into ``sig`` and p^e
into ``smooth`` at each multiple of p, where p^e is the largest power of p
dividing that value. One division at the end, n // smooth, leaves 1 or the
one prime factor of n above sqrt(n), which contributes itself + 1.

``sig`` and ``smooth`` start as a repeated table holding 2, 3 and 5 to low
powers (a wheel); those primes are then sieved only where a higher power
divides. Every other prime with many multiples in the segment is sieved
with strided slices, one loop iteration per prime. The rest, each with at
most about _STRIDED_MULTIPLES multiples, are sieved a batch of primes at a
time with unbuffered scatter updates. All arithmetic is int64 with an
explicit headroom guard, so results are exact, never floating point.

The matcher compares den * sigma(n) with num * n only where it can hold:
at the multiples of den / gcd(num, den).
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["MAX_SEGMENT", "SieveBudgetError", "index_hits", "sigma_range"]

MAX_SEGMENT = 1 << 24
# Robin (1984): sigma(n)/n < e^gamma ln ln n + 0.6483 / ln ln n for n >= 3,
# which is below 6.5 for 4 <= n <= 2^50. So sigma(n) < 2^53 there and int64
# has 2^10 of headroom (the index does pass 6 below 2^50, at 1.3e14). Every
# sieve intermediate is bounded by n or sigma(n): a power pw <= p^e and every
# partial product in smooth divide n, the quotient n // smooth and its
# successor are <= n + 1, a running sum acc <= sigma(p^e), and every partial
# product in sig <= sigma(n). Scatter index arithmetic stays below 2^45.
_VALUE_LIMIT = 1 << 50
# A prime with more multiples than this in the segment is sieved by strides.
_STRIDED_MULTIPLES = 128
# Below p^k, how often p divides n repeats with period p^k: these primes
# come from a precomputed table and are sieved by strides only from p^k on.
_WHEEL_POWERS = ((2, 5), (3, 3), (5, 2))
# Primes per scatter batch; bounds its arrays by about 2^19 entries.
_BATCH_PRIMES = 4096
# index_hits compares den * sigma(n) with num * n in int64 below this.
_I64_GUARD = 1 << 62


class SieveBudgetError(Exception):
    """Requested segment exceeds the in-memory sieve budget; split it."""


def sigma_range(lo: int, hi: int, *, max_elements: int = MAX_SEGMENT) -> np.ndarray:
    """sigma(n) for every n in [lo, hi) as an int64 array.

    Raises SieveBudgetError when the segment is too wide for the memory
    budget or sits too high for int64 arithmetic.
    """
    if not 1 <= lo < hi:
        raise ValueError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if hi - lo > max_elements:
        raise SieveBudgetError(
            f"segment of {hi - lo} elements exceeds budget of {max_elements}"
        )
    if hi - 1 > _VALUE_LIMIT:
        raise SieveBudgetError(f"values past {_VALUE_LIMIT} would overflow the sieve")

    size = hi - lo
    wheel_sig, wheel_smooth = _wheel()
    shift = lo % len(wheel_sig)
    sig = np.resize(np.roll(wheel_sig, -shift), size)
    smooth = np.resize(np.roll(wheel_smooth, -shift), size)
    for p, k in _WHEEL_POWERS:
        _sieve_prime(sig, smooth, lo, p, p ** k)
    primes = _primes_through(math.isqrt(hi - 1))
    primes = primes[primes > _WHEEL_POWERS[-1][0]]
    cut = int(np.searchsorted(primes, size // _STRIDED_MULTIPLES))
    for p in primes[:cut].tolist():
        _sieve_prime(sig, smooth, lo, p, p)
    for first in range(cut, len(primes), _BATCH_PRIMES):
        _sieve_prime_batch(sig, smooth, lo, primes[first : first + _BATCH_PRIMES])
    # Exact, since smooth divides n: rest is 1 or a prime. In place, since
    # temporaries here set peak memory.
    rest = np.arange(lo, hi, dtype=np.int64)
    rest //= smooth
    rest += rest != 1
    sig *= rest
    return sig


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


def _primes_through(limit: int) -> np.ndarray:
    """Primes <= limit, ascending, as int64.

    Not arith.primes_below: its cache doubles past the limit and lives as
    long as the process, which raises the peak memory of every scan.
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

    ``sig`` is sigma over that segment, as ``sigma_range`` returns it, so
    the hits are the values of abundancy index num/den.
    """
    hi = lo + len(sig)
    # den * sigma(n) == num * n makes den / gcd(num, den) divide n, so only
    # those n are compared.
    step = den // math.gcd(num, den)
    start = -lo % step
    sub = sig[start::step]
    if not len(sub):
        return []
    # Vectorized only while int64 cannot overflow.
    if den * int(sub.max()) < _I64_GUARD and num * (hi - 1) < _I64_GUARD:
        values = np.arange(lo + start, hi, step, dtype=np.int64)
        return [int(v) for v in values[sub * den == values * num]]
    return [n for n, s in zip(range(lo + start, hi, step), sub.tolist()) if s * den == n * num]
