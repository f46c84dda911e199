"""Batched sum-of-divisors over integer segments, and index matching on them.

A segmented prime-power sieve. ``rem`` starts as n itself and ``sig`` as 1.
Every prime p <= sqrt(hi - 1) is divided out of ``rem`` at each multiple of
p^k in the segment, and sigma(p^e) is multiplied into ``sig`` at each
multiple of p. What is left of ``rem`` is then 1 or the one prime factor of
n above sqrt(n), which contributes rem + 1.

A prime with many multiples in the segment is sieved with strided slices,
one loop iteration per prime. The rest, each with at most about
_STRIDED_MULTIPLES multiples, are sieved a batch of primes at a time with
unbuffered scatter updates. All arithmetic is int64 with an explicit
headroom guard, so results are exact, never floating point.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["MAX_SEGMENT", "SieveBudgetError", "index_hits", "sigma_range"]

MAX_SEGMENT = 1 << 24
# Robin (1984): sigma(n)/n < e^gamma ln ln n + 0.6483 / ln ln n for n >= 3,
# which is below 6.5 for 4 <= n <= 2^50. So sigma(n) < 2^53 there and int64
# has 2^10 of headroom (the index does pass 6 below 2^50, at 1.3e14). Every
# sieve intermediate is bounded by n or sigma(n): rem <= n, a running sum
# acc <= sigma(p^e), and every partial product in sig <= sigma(n). Scatter
# index arithmetic stays below 2^45.
_VALUE_LIMIT = 1 << 50
# A prime with more multiples than this in the segment is sieved by strides.
_STRIDED_MULTIPLES = 128
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
    sig = np.ones(size, dtype=np.int64)
    rem = np.arange(lo, hi, dtype=np.int64)
    primes = _primes_through(math.isqrt(hi - 1))
    cut = int(np.searchsorted(primes, size // _STRIDED_MULTIPLES))
    for p in primes[:cut].tolist():
        _sieve_prime(sig, rem, lo, p)
    for first in range(cut, len(primes), _BATCH_PRIMES):
        _sieve_prime_batch(sig, rem, lo, primes[first : first + _BATCH_PRIMES])
    # rem is 1 or a prime now; in place, since temporaries here set peak memory.
    rem += 1
    rem[rem == 2] = 1
    sig *= rem
    return sig


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


def _sieve_prime(sig: np.ndarray, rem: np.ndarray, lo: int, p: int) -> None:
    """Sieve one prime, given as a Python int so p^k cannot wrap, by strides."""
    size = len(sig)
    start = -lo % p
    multiples = slice(start, size, p)
    rem[multiples] //= p
    pk = p * p
    s = -lo % pk
    if s >= size:
        sig[multiples] *= 1 + p
        return
    # acc[j] builds sigma(p^e) for the j-th multiple of p, one power at a time.
    acc = np.full(len(range(start, size, p)), 1 + p, dtype=np.int64)
    while s < size:
        rem[s::pk] //= p
        acc[(s - start) // p :: pk // p] += pk
        pk *= p
        s = -lo % pk
    sig[multiples] *= acc


def _sieve_prime_batch(sig: np.ndarray, rem: np.ndarray, lo: int, primes: np.ndarray) -> None:
    """Sieve primes that each have few multiples in the segment, all at once."""
    size = len(sig)
    squared = -lo % (primes * primes) < size
    # The rare prime whose square divides a value here needs sigma(p^e).
    for p in primes[squared].tolist():
        _sieve_prime(sig, rem, lo, p)
    primes = primes[~squared]
    counts = (lo + size - 1) // primes - (lo - 1) // primes
    step = np.repeat(primes, counts)
    # The k-th entry overall, the j-th multiple of its prime p, sits at
    # start_p + j * p, with j = k - (entries of earlier primes).
    before = np.cumsum(counts) - counts
    at = np.repeat(-lo % primes - before * primes, counts) + np.arange(len(step)) * step
    # Unbuffered: two primes of a batch can divide the same value.
    np.multiply.at(sig, at, step + 1)
    np.floor_divide.at(rem, at, step)


def index_hits(sig: np.ndarray, lo: int, num: int, den: int) -> list[int]:
    """Every n in [lo, lo + len(sig)) with den * sig[n - lo] == num * n, ascending.

    ``sig`` is sigma over that segment, as ``sigma_range`` returns it, so
    the hits are the values of abundancy index num/den.
    """
    hi = lo + len(sig)
    # Vectorized only while int64 cannot overflow.
    if den * int(sig.max()) < _I64_GUARD and num * (hi - 1) < _I64_GUARD:
        values = np.arange(lo, hi, dtype=np.int64)
        return [int(v) for v in values[sig * den == values * num]]
    return [lo + i for i, s in enumerate(sig.tolist()) if s * den == (lo + i) * num]
