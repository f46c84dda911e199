"""Batched sum-of-divisors over integer segments.

A segmented prime-power sieve, in blocks of _BLOCK values that stay in
cache. At each multiple n of a prime p <= sqrt(hi - 1), with p^e the largest
power of p dividing n, sigma(p^e) becomes a factor of ``sig`` and p^e leaves
``rest``, which starts at n; what is left, 1 or the prime factor of n above
sqrt(n), contributes itself + 1. ``rest`` loses 2 by right shifts and an odd
p by multiplications by p^-1 mod 2^64 (T. Jebelean, J. Symbolic Comput. 15
(1993)): it is an exact quotient, never above n, so its wrapped uint64
product is exact and no division is needed.

Each block starts from repeated tables for 2, 3 and 5 to low powers (a
wheel). Every other prime p puts in p + 1 and takes out p at each multiple:
by strides if dense, by unbuffered scatters in chunks if below the block
length, else by the offset of its next multiple (as in T. Oliveira e Silva,
S. Herzog and S. Pardi, Math. Comp. 83 (2014)). A dense higher power p^j
then swaps sigma(p^(j-1)) for sigma(p^j) by strides, an exact division and a
multiplication. A table made once per segment holds, for each multiple m of
p's first sparse power p^s, the swap from sigma(p^(s-1)) to sigma(p^e),
e = v_p(m), and the p^(e-s+1) to take out. ``sig`` is int64 with a headroom
guard, so results are exact, never floating point.

A call holds block scratch and O(pi(sqrt(hi))) per-prime state whatever the
width. The base primes are sieved once per process, for the highest segment
seen or the bound given to ``cover``, and sliced for lower segments.
"""

from __future__ import annotations

import bisect
import functools
import math
import threading
from typing import Callable

import numpy as np

__all__ = ["MAX_SEGMENT", "SieveBudgetError", "check_height", "check_width", "cover", "sigma_range"]

# The widest segment: a policy on checkpoint granularity (the work one record
# holds), not a memory budget, since a call's memory does not grow with width.
MAX_SEGMENT = 1 << 24
# Robin (1984): sigma(n)/n < e^gamma ln ln n + 0.6483 / ln ln n for n >= 3,
# below 6.5 for 4 <= n <= 2^50. So sigma(n) < 2^53 there and int64 has 2^10
# of headroom (the index does pass 6 below 2^50, at 1.3e14). Each power p^j
# formed is at most hi - 1, each sigma(p^e) below 2 p^e, ``rest`` (a quotient
# of n) and its successor at most n + 1, and, since a swap divides before it
# multiplies, each partial product in sig divides sigma(n). Index arithmetic
# stays below 2^45. Only the sieve relies on this bound.
_VALUE_LIMIT = 1 << 50
# Values sieved at a time: 1 MB of int64, so block scratch stays in cache.
_BLOCK = 1 << 17
# A prime or power with more multiples than this in a block goes by strides.
_STRIDED_MULTIPLES = 128
# Up to p^k, how often p divides n repeats with period p^k: these primes
# come from a precomputed table, and their higher powers start at p^(k+1).
_WHEEL_POWERS = ((2, 5), (3, 3), (5, 2))
# Entries per scatter chunk, in any block; bounds its index arrays.
_SCATTER_ENTRIES = 1 << 12

# (limit, the primes <= limit): replaced whole under the lock, never mutated.
_base: tuple[int, np.ndarray] = (1, np.empty(0, dtype=np.int64))
_base_lock = threading.Lock()


class SieveBudgetError(Exception):
    """Segment too high to sieve, or wider than MAX_SEGMENT, a policy on checkpoint granularity."""


def sigma_range(lo: int, hi: int, visit: Callable[[int, np.ndarray], None]) -> None:
    """Call ``visit(at, block)`` as each block of [lo, hi) finishes, in
    ascending order, where ``block[i]`` is sigma(at + i) as int64: a view
    into one reused buffer, valid only during the call. Raises
    SieveBudgetError for a segment wider than MAX_SEGMENT or too high."""
    if not 1 <= lo < hi:
        raise ValueError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    check_width(hi - lo)
    check_height(hi)
    size = hi - lo
    block = min(size, _BLOCK)
    strided, scattered, ahead_p, ahead, tables = _plan(lo, hi, block)
    sig = np.empty(block, dtype=np.int64)
    wheel_shift, wheel_inverse, wheel_sig = _wheel()
    for start in range(0, size, block):
        stop = min(start + block, size)
        at = lo + start
        part = sig[: stop - start]
        rest = np.arange(at, lo + stop, dtype=np.uint64)
        scratch = part.view(np.uint64)  # the wheel's shift and inverse pass through sig
        for remove, table in ((np.right_shift, wheel_shift), (np.multiply, wheel_inverse)):
            _tile(scratch, table, at)
            remove(rest, scratch, out=rest)
        _tile(part, wheel_sig, at)
        for q, old, new, remove, factor in strided:
            view = part[-at % q :: q]
            if old > 1:
                view //= old  # exact, since sigma(p^(j-1)) is a factor of each value
            view *= new
            view = rest[-at % q :: q]
            remove(view, factor, out=view)
        for p, inverse in scattered:
            _scatter(part, rest, at, p, inverse)
        hit = np.flatnonzero(ahead < stop)
        p, where = ahead_p[hit], ahead[hit] - start
        ahead[hit] += p
        np.multiply.at(part, where, p + 1)
        np.multiply.at(rest, where, _inverses(p))  # per block: held for every p, they set peak memory
        for pos, old, new, remove, factor in tables:
            a, b = np.searchsorted(pos, (start, stop)).tolist()
            where = pos[a:b] - start
            np.floor_divide.at(part, where, old[a:b])  # exact, as above
            np.multiply.at(part, where, new[a:b])
            remove.at(rest, where, factor[a:b])
        rest += rest != 1  # rest is 1 or a prime
        part *= rest.view(np.int64)
        visit(at, part)


def check_height(hi: int) -> None:
    """Raise SieveBudgetError unless every value below hi is low enough to sieve."""
    if hi - 1 > _VALUE_LIMIT:
        raise SieveBudgetError(f"values past {_VALUE_LIMIT} would overflow the sieve")


def check_width(size: int) -> None:
    """Raise SieveBudgetError past MAX_SEGMENT: a policy on checkpoint granularity, not a memory budget."""
    if size > MAX_SEGMENT:
        raise SieveBudgetError(f"segment of {size} elements exceeds budget of {MAX_SEGMENT}")


def cover(hi: int) -> None:
    """Sieve now the base primes of every segment below hi: a scan's rising
    segments then slice one array instead of each sieving a longer one."""
    if hi > 1:
        _base_primes(math.isqrt(hi - 1))


@functools.cache
def _wheel() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only, for each r modulo prod p^k with 2^a * u its part made of
    each p to at most p^k: a (uint8), u^-1 mod 2^64 and sigma(2^a u)."""
    r = np.arange(math.prod(p ** k for p, k in _WHEEL_POWERS))
    sig, inverse = np.ones(len(r), dtype=np.int64), np.ones(len(r), dtype=np.uint64)
    for p, k in _WHEEL_POWERS:
        e = sum((r % p ** j == 0).astype(np.int64) for j in range(1, k + 1))
        sig *= (p ** (e + 1) - 1) // (p - 1)
        if p == 2:
            shift = e.astype(np.uint8)
        else:
            inverse *= np.array([pow(p, -i, 1 << 64) for i in range(k + 1)], dtype=np.uint64)[e]
    sig.flags.writeable = shift.flags.writeable = inverse.flags.writeable = False
    return shift, inverse, sig


def _tile(out: np.ndarray, table: np.ndarray, at: int) -> None:
    """Fill out with the periodic table, value at first."""
    period = len(table)
    shift = at % period
    head = min(len(out), period - shift)
    out[:head] = table[shift : shift + head]
    for i in range(head, len(out), period):
        out[i : i + period] = table[: len(out) - i]


def _base_primes(limit: int) -> np.ndarray:
    """Primes <= limit, ascending, as a read-only slice of the process cache,
    which holds the exact cover of the highest limit asked for."""
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
    """Primes <= limit, ascending, as int64. Not arith.primes_below, whose
    cache doubles past the limit and lives as long as the process, which
    raises the peak memory of every scan."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def _inverses(p: np.ndarray) -> np.ndarray:
    """p^-1 mod 2^64, uint64, for odd int64 p: x = 3p xor 2 holds 5 bits and
    each in-place Newton step x <- x (2 - p x) doubles them."""
    p = p.view(np.uint64)
    x, t = p * np.uint64(3), np.empty_like(p)
    x ^= np.uint64(2)
    for _ in range(4):  # 5 -> 10 -> 20 -> 40 -> 80 bits
        np.multiply(p, x, out=t)
        np.subtract(np.uint64(2), t, out=t)
        x *= t
    return x


def _plan(lo: int, hi: int, block: int) -> tuple:
    """The powers q = p^j to stride, as (q, sigma(q/p), sigma(q), remove,
    factor), remove(rest, factor) taking out p; chunks of primes and p^-1
    mod 2^64 to scatter; primes >= block with the offset of their next
    multiple; and _table's of sparse powers for 2 and for odd p."""
    size, top, thin = hi - lo, hi - 1, block // _STRIDED_MULTIPLES  # a power below thin is dense
    primes = _base_primes(math.isqrt(top))
    # Only the wheel's primes and those whose square is dense have a dense power.
    few = max(len(_WHEEL_POWERS), int(np.searchsorted(primes, math.isqrt(max(thin - 1, 0)) + 1)))
    dense, seeds = [], []
    for p in primes[:few].tolist():
        q = p ** (dict(_WHEEL_POWERS).get(p, 1) + 1)
        old = (q - 1) // (p - 1)
        remove, factor = (np.right_shift, np.uint64(1)) if p == 2 else (np.multiply, np.uint64(pow(p, -1, 1 << 64)))
        while q < thin and q <= top:
            dense.append((q, old, old + q, remove, factor))
            old, q = old + q, q * p
        seeds.append((p, q, old, -lo % q))  # _table drops a q with no multiple
    p = primes[few:]
    first = p * p
    np.remainder(-lo, first, out=first)  # in place: it is as long as the base primes
    live = np.flatnonzero(first < size)
    p, first = p[live], first[live]
    small = np.array(seeds, dtype=np.int64).reshape(-1, 4)  # 2's row first, if primes holds 2
    odd = [np.concatenate(pair) for pair in zip(small[1:].T, (p, p * p, p + 1, first))]
    tables = [_table(lo, size, *small[:1].T, np.right_shift), _table(lo, size, *odd, np.multiply)]
    # The wheel's primes are the first ones; the wheel holds their first powers.
    p = primes[len(_WHEEL_POWERS) :]
    cut, end = np.searchsorted(p, (thin, block)).tolist()
    # Only primes >= block with a multiple here are kept (near 2^50, 1 in 7).
    ahead = np.remainder(-lo, p[end:])
    live = np.flatnonzero(ahead < size)
    if len(live) < len(ahead):
        ahead = ahead[live]
        p = np.concatenate((p[:end], p[end:][live]))
    inverse = _inverses(p[:end])
    # Chunks of at most about _SCATTER_ENTRIES entries in any block.
    ends = np.cumsum(block // p[cut:end] + 1).tolist()
    starts = [cut + bisect.bisect_left(ends, e) for e in range(0, ends[-1] if ends else 0, _SCATTER_ENTRIES)]
    scattered = [(p[a:b], inverse[a:b]) for a, b in zip(starts, starts[1:] + [end])]
    strided = [(q, 1, q + 1, np.multiply, x) for q, x in zip(p[:cut].tolist(), inverse[:cut])]
    return strided + dense, scattered, p[end:], ahead, tables


def _table(lo: int, size: int, p: np.ndarray, q: np.ndarray, old: np.ndarray, first: np.ndarray, remove) -> tuple:
    """For each multiple m = lo + pos < lo + size of each q = p^s, the first
    at offset first, sorted by pos: pos, old = sigma(p^(s-1)), sigma(p^e) for
    e = v_p(m), and remove with its factor that takes p^(e-s+1) out of rest."""
    counts = (size - 1 - first) // q + 1  # 0 if first >= size, since first < q
    seed = np.repeat(np.arange(len(q)), counts)  # each entry's power
    # The entry k is the i-th multiple of its q, i = k - (entries of earlier powers).
    pos = first[seed] + (np.arange(len(seed)) - (np.cumsum(counts) - counts)[seed]) * q[seed]
    order = np.argsort(pos)
    pos, seed = pos[order], seed[order]
    p, step, old = p[seed], q[seed], old[seed]
    rest, new, count = (lo + pos) // step, old + step, np.ones_like(pos)  # count = e - s + 1
    more = np.flatnonzero(rest % p == 0)  # only these entries raise e
    while len(more):
        rest[more] //= p[more]
        step[more] *= p[more]
        new[more] += step[more]
        count[more] += 1
        more = more[rest[more] % p[more] == 0]
    factor = count.view(np.uint64) if remove is np.right_shift else _inverses(p ** count)
    return pos, old, new, remove, factor


def _scatter(sig: np.ndarray, rest: np.ndarray, at: int, p: np.ndarray, inverse: np.ndarray) -> None:
    """Put in each prime p at every one of its multiples in a block."""
    counts = (at + len(sig) - 1) // p - (at - 1) // p
    step = np.repeat(p, counts)
    # Entry k, multiple i = k - (entries of earlier primes) of its p, is at first_p + i * p, as in _table.
    before = np.cumsum(counts) - counts
    where = np.repeat(-at % p - before * p, counts) + np.arange(len(step)) * step
    np.multiply.at(sig, where, step + 1)  # unbuffered: two primes can divide one value
    np.multiply.at(rest, where, np.repeat(inverse, counts))
