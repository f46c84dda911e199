"""Batched sum-of-divisors over integer segments, and index matching on them.

A segmented prime-power sieve. For every prime p <= sqrt(hi - 1), sigma(p^e)
ends up as a factor of ``sig`` and p^e of ``smooth`` at each multiple of p,
where p^e is the largest power of p dividing that value. One division at the
end, n // smooth, leaves 1 or the one prime factor of n above sqrt(n), which
contributes itself + 1.

The segment is sieved in blocks of _BLOCK values, each finished before the
next starts, with block-sized scratch that stays in cache. Given a visitor,
a call hands each finished block to it in one reused buffer, so it holds
block scratch and per-prime state of O(pi(sqrt(hi))) entries, whatever the
width; only the form that returns the whole segment allocates that much.

Each block starts from a repeated table holding 2, 3 and 5 to low powers (a
wheel). Every other prime p multiplies p + 1 into ``sig`` and p into
``smooth`` at each of its multiples, as if every exponent were 1. Then, for
j = 2, 3, ... in turn, each q = p^j swaps sigma(p^(j-1)) for sigma(p^j) at
its multiples: an exact division, since that factor went in one level
below, then a multiplication. A power with more than _STRIDED_MULTIPLES
multiples in a block, and each higher power of the wheel's primes, goes by
strides; the others below the block length by unbuffered scatters, in
chunks of at most about _SCATTER_ENTRIES entries. A power no smaller than
the block length divides at most one value of a block and keeps the offset
of its next multiple (as in T. Oliveira e Silva, S. Herzog and S. Pardi,
Math. Comp. 83 (2014)). All arithmetic is int64 with a headroom guard, so
results are exact, never floating point.

The base primes are sieved once per process, for the highest segment seen
or the bound given to ``cover``, and sliced for lower segments.

The matcher compares sigma(n) with num * n / den at the multiples of
den / gcd(num, den) only, in wrapping uint64; callers re-verify its hits.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import threading
from typing import Callable, Optional

import numpy as np

__all__ = ["MAX_SEGMENT", "SieveBudgetError", "check_height", "check_width", "cover", "index_hits", "sigma_range"]

MAX_SEGMENT = 1 << 24
# Robin (1984): sigma(n)/n < e^gamma ln ln n + 0.6483 / ln ln n for n >= 3,
# which is below 6.5 for 4 <= n <= 2^50. So sigma(n) < 2^53 there and int64
# has 2^10 of headroom (the index does pass 6 below 2^50, at 1.3e14). Every
# sieve intermediate is bounded by n or sigma(n): each power p^j formed is at
# most hi - 1, every partial product in smooth divides n, the quotient
# n // smooth and its successor are <= n + 1, and since a swap divides before
# it multiplies, every partial product in sig divides sigma(n). Scatter index
# arithmetic stays below 2^45. Only the sieve relies on this bound.
_VALUE_LIMIT = 1 << 50
# Values sieved at a time: 1 MB of int64, so block scratch stays in cache.
_BLOCK = 1 << 17
# A prime power with more multiples than this in a block goes by strides.
_STRIDED_MULTIPLES = 128
# Up to p^k, how often p divides n repeats with period p^k: these primes
# come from a precomputed table and are sieved by strides only from p^(k+1).
_WHEEL_POWERS = ((2, 5), (3, 3), (5, 2))
# Entries per scatter chunk, in any block; bounds its index arrays.
_SCATTER_ENTRIES = 1 << 12

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
    levels = _levels(lo, hi, block)

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
            q = p ** (k + 1)
            while -at % q < len(part):  # q's multiples hold every higher power's
                _stride(part, part_smooth, at, q, p)
                q *= p
        for j, (strided, scattered, sparse_q, sparse_p, ahead) in enumerate(levels, 1):
            for q, p in strided:
                _stride(part, part_smooth, at, q, p)
            for q, p in scattered:
                _scatter(part, part_smooth, at, q, p, j)
            hit = np.flatnonzero(ahead < stop)
            if len(hit):
                q, where = sparse_q[hit], ahead[hit]
                ahead[hit] = where + q
                _swap(part, part_smooth, where - start, q, sparse_p[hit], j)
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
    value of r's part made of those primes, each counted to at most p^k.
    Read-only."""
    period = math.prod(p ** k for p, k in _WHEEL_POWERS)
    r = np.arange(period)
    sig = np.ones(period, dtype=np.int64)
    smooth = np.ones(period, dtype=np.int64)
    for p, k in _WHEEL_POWERS:
        e = sum((r % p ** j == 0).astype(np.int64) for j in range(1, k + 1))
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


def _levels(lo: int, hi: int, block: int) -> list[tuple]:
    """For j = 1, 2, ...: the powers q = p^j <= hi - 1 of the primes p >= 7
    that have a multiple in [lo, hi), as (q, p) pairs to stride, chunks of
    (q, p) arrays to scatter, and arrays q and p of the powers >= block with
    ahead, the offset from lo of each one's next multiple."""
    size, top = hi - lo, hi - 1
    levels = []
    # The wheel's primes are the first ones; blocks sieve them by strides.
    p = q = _base_primes(math.isqrt(top))[len(_WHEEL_POWERS) :]
    for j in itertools.count(1):
        cut, dense = np.searchsorted(q, (block // _STRIDED_MULTIPLES, block)).tolist()
        # Only powers >= block with a multiple here are kept (near 2^50, 1 in 7).
        ahead = np.remainder(-lo, q[dense:])
        live = np.flatnonzero(ahead < size)
        ahead = ahead[live]
        kept = np.concatenate((np.arange(dense), live + dense))
        q, p = (q[kept],) * 2 if p is q else (q[kept], p[kept])  # p is q at level 1
        # Chunks of at most about _SCATTER_ENTRIES entries in any block.
        ends = np.cumsum(block // q[cut:dense] + 1).tolist()
        starts = [cut + bisect.bisect_left(ends, e) for e in range(0, ends[-1] if ends else 0, _SCATTER_ENTRIES)]
        scattered = [(q[a:b], p[a:b]) for a, b in zip(starts, starts[1:] + [dense])]
        strided = list(zip(q[:cut].tolist(), p[:cut].tolist()))
        levels.append((strided, scattered, q[dense:], p[dense:], ahead))
        # p^(j+1) <= top, tested before p^(j+1) is formed so that it cannot wrap.
        n = bisect.bisect_right(p, top, key=lambda x: int(x) ** (j + 1))
        if not n:
            return levels
        p, q = p[:n], q[:n] * p[:n]


def _scatter(sig: np.ndarray, smooth: np.ndarray, at: int, q: np.ndarray, p: np.ndarray, j: int) -> None:
    """Swap sigma(p^j) in at every multiple of each q = p^j in a block."""
    counts = (at + len(sig) - 1) // q - (at - 1) // q
    step = np.repeat(q, counts)
    # The k-th entry overall, the i-th multiple of its q, sits at
    # first_q + i * q, with i = k - (entries of earlier powers).
    before = np.cumsum(counts) - counts
    where = np.repeat(-at % q - before * q, counts) + np.arange(len(step)) * step
    _swap(sig, smooth, where, step, np.repeat(p, counts), j)


def _stride(sig: np.ndarray, smooth: np.ndarray, at: int, q: int, p: int) -> None:
    """Turn sigma(p^(j-1)) into sigma(p^j) at every multiple of q = p^j in a
    block, by strides, and multiply p into smooth there."""
    old = (q - 1) // (p - 1)
    view = sig[-at % q :: q]
    if old > 1:
        view //= old  # exact, since sigma(p^(j-1)) is a factor of each value
    view *= old + q
    view = smooth[-at % q :: q]
    view *= p


def _swap(sig: np.ndarray, smooth: np.ndarray, where: np.ndarray, q: np.ndarray, p: np.ndarray, j: int) -> None:
    """Turn sigma(p^(j-1)) into sigma(p^j) in sig[where], q = p^j, and multiply
    p into smooth[where], unbuffered: two powers can divide the same value."""
    old = 1
    if j > 1:
        old = (q - 1) // (p - 1)
        np.floor_divide.at(sig, where, old)  # exact, as in _stride
    np.multiply.at(sig, where, old + q)
    np.multiply.at(smooth, where, p)


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
