"""Batched sum-of-divisors over integer segments.

A segmented prime-power sieve, in blocks of _BLOCK values that stay in
cache. At each multiple n of a prime p <= sqrt(hi - 1), with p^e the largest
power of p dividing n, sigma(p^e) becomes a factor of ``sig`` and p^e leaves
``rest``, which starts at n; what is left, 1 or the prime factor of n above
sqrt(n), contributes itself + 1.

Each block starts from repeated tables for 2, 3 and 5 to low powers (a
wheel), which shift 2^min(e, 5) out of ``rest``. Past the wheel, 2 is one
step: at each multiple of 2^6, what is left of 2 in ``rest`` is its lowest
set bit, 2^(e-5), so one exact division takes it out and sigma(2^e) =
2^(e+1) - 1 replaces sigma(2^5). Every odd p leaves ``rest`` by
multiplications by p^-1 mod 2^64 (T. Jebelean, J. Symbolic Comput. 15
(1993)): ``rest`` is an exact quotient, never above n, so its wrapped uint64
product is exact and no division is needed.

Every other prime p puts in p + 1 and takes out p at each multiple: by
strides if dense, by unbuffered scatters in chunks if below the block
length, else by the offset of its next multiple (as in T. Oliveira e Silva,
S. Herzog and S. Pardi, Math. Comp. 83 (2014)). A dense higher power p^j of
an odd p then swaps sigma(p^(j-1)) for sigma(p^j) by strides, an exact
division and a multiplication. One table made once per segment holds, for
each multiple m of an odd p's first sparse power p^s, the swap from
sigma(p^(s-1)) to sigma(p^e), e = v_p(m), and the inverse of p^(e-s+1) to
take out. ``sig`` is int64 with a headroom guard, so results are exact, never
floating point.

A call holds block scratch, O(pi(sqrt(hi))) per-prime state and the table
of sparse powers. That table has an entry for about 0.9% of the values
(152,015 at width 2^24), so a call's memory grows with the width, and
MAX_SEGMENT bounds it. The base primes are sieved once per process, for
the highest segment seen or the bound given to ``cover``, and sliced for
lower segments.
"""

from __future__ import annotations

import bisect
import functools
import math
import threading
from typing import Callable

import numpy as np

__all__ = ["MAX_SEGMENT", "SieveBudgetError", "check_height", "check_width", "cover", "sigma_range"]

# The widest segment: the work one record holds, and the bound on a call's
# memory, which grows with width through the sparse-power table (tracemalloc
# peaks of a segment from 1: 3.5 MB at 2^20, 14.6 MB at 2^24).
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
    strided, scattered, ahead_p, ahead, table = _plan(lo, hi, block)
    sig = np.empty(block, dtype=np.int64)
    wheel_shift, wheel_inverse, wheel_sig = _wheel()
    two = 2 << _WHEEL_POWERS[0][1]  # 2^6, the first power of 2 past the wheel
    for start in range(0, size, block):
        stop = min(start + block, size)
        at = lo + start
        part = sig[: stop - start]
        rest = np.arange(at, lo + stop, dtype=np.uint64)
        scratch = part.view(np.uint64)  # the wheel's shift and inverse pass through sig
        _tile(scratch, wheel_shift, at)
        np.right_shift(rest, scratch, out=rest)
        _tile(scratch, wheel_inverse, at)
        rest *= scratch
        _tile(part, wheel_sig, at)
        view = rest[-at % two :: two]
        low = view & -view  # the lowest set bit: 2^(e-5), what the wheel left of n's 2^e
        view //= low
        view = part[-at % two :: two]
        view //= two - 1  # sigma(2^5), exact as below
        view *= (low * two - 1).view(np.int64)  # sigma(2^e)
        for q, old, new, inverse in strided:
            view = part[-at % q :: q]
            if old > 1:
                view //= old  # exact, since sigma(p^(j-1)) is a factor of each value
            view *= new
            rest[-at % q :: q] *= inverse
        for p, inverse in scattered:
            _scatter(part, rest, at, p, inverse)
        hit = np.flatnonzero(ahead < stop)
        p, where = ahead_p[hit], ahead[hit] - start
        ahead[hit] += p
        np.multiply.at(part, where, p + 1)
        np.multiply.at(rest, where, _inverses(p))  # per block: held for every p, they set peak memory
        pos, old, new, inverse = table
        a, b = np.searchsorted(pos, (start, stop)).tolist()
        where = pos[a:b] - start
        np.floor_divide.at(part, where, old[a:b])  # exact, as above
        np.multiply.at(part, where, new[a:b])
        np.multiply.at(rest, where, inverse[a:b])
        rest += rest != 1  # rest is 1 or a prime
        part *= rest.view(np.int64)
        visit(at, part)


def check_height(hi: int) -> None:
    """Raise SieveBudgetError unless every value below hi is low enough to sieve."""
    if hi - 1 > _VALUE_LIMIT:
        raise SieveBudgetError(f"values past {_VALUE_LIMIT} would overflow the sieve")


def check_width(size: int) -> None:
    """Raise SieveBudgetError past MAX_SEGMENT, which bounds a segment's work and memory."""
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
    """The powers q = p^j of odd p to stride, as (q, sigma(q/p), sigma(q),
    p^-1 mod 2^64); chunks of primes and p^-1 mod 2^64 to scatter; primes
    >= block with the offset of their next multiple; and the _table of the
    odd primes' sparse powers. 2 past the wheel is the block loop's own step,
    so no entry holds 2."""
    size, top, thin = hi - lo, hi - 1, block // _STRIDED_MULTIPLES  # a power below thin is dense
    primes = _base_primes(math.isqrt(top))
    # Only the wheel's primes and those whose square is dense have a dense power.
    few = max(len(_WHEEL_POWERS), int(np.searchsorted(primes, math.isqrt(max(thin - 1, 0)) + 1)))
    dense, seeds = [], []
    for p in primes[1:few].tolist():  # primes[0] is 2, the block loop's own step
        q = p ** (dict(_WHEEL_POWERS).get(p, 1) + 1)
        old, inverse = (q - 1) // (p - 1), np.uint64(pow(p, -1, 1 << 64))
        while q < thin and q <= top:
            dense.append((q, old, old + q, inverse))
            old, q = old + q, q * p
        seeds.append((p, q, old, -lo % q))  # _table drops a q with no multiple
    # The wheel's primes are the first ones; the wheel holds their first powers.
    p = primes[len(_WHEEL_POWERS) :]
    cut, end = np.searchsorted(p, (thin, block)).tolist()
    # Only primes >= block with a multiple here are kept (near 2^50, 1 in 7).
    ahead = np.remainder(-lo, p[end:])
    live = np.flatnonzero(ahead < size)
    if len(live) < len(ahead):
        ahead = ahead[live]
        p = np.concatenate((p[:end], p[end:][live]))
    # The primes from few on enter the table at their squares. p^2 divides m
    # only where p does, so only the primes kept need an offset.
    square = p[few - len(_WHEEL_POWERS) :]
    first = square * square
    np.remainder(-lo, first, out=first)  # in place: it is as long as the primes kept
    live = np.flatnonzero(first < size)
    square, first = square[live], first[live]
    columns = zip(np.array(seeds, dtype=np.int64).reshape(-1, 4).T, (square, square * square, square + 1, first))
    table = _table(lo, size, *(np.concatenate(pair) for pair in columns))
    inverse = _inverses(p[:end])
    # Chunks of at most about _SCATTER_ENTRIES entries in any block.
    ends = np.cumsum(block // p[cut:end] + 1).tolist()
    starts = [cut + bisect.bisect_left(ends, e) for e in range(0, ends[-1] if ends else 0, _SCATTER_ENTRIES)]
    scattered = [(p[a:b], inverse[a:b]) for a, b in zip(starts, starts[1:] + [end])]
    strided = [(q, 1, q + 1, x) for q, x in zip(p[:cut].tolist(), inverse[:cut])]
    return strided + dense, scattered, p[end:], ahead, table


def _table(lo: int, size: int, p: np.ndarray, q: np.ndarray, old: np.ndarray, first: np.ndarray) -> tuple:
    """For each multiple m = lo + pos < lo + size of each q = p^s, p odd, the
    first at offset first, sorted by pos: pos, old = sigma(p^(s-1)),
    sigma(p^e) for e = v_p(m), and p^-(e-s+1) mod 2^64, whose product takes
    the rest of p^e out of ``rest``."""
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
    return pos, old, new, _inverses(p ** count)


def _scatter(sig: np.ndarray, rest: np.ndarray, at: int, p: np.ndarray, inverse: np.ndarray) -> None:
    """Put in each prime p at every one of its multiples in a block."""
    counts = (at + len(sig) - 1) // p - (at - 1) // p
    step = np.repeat(p, counts)
    # Entry k, multiple i = k - (entries of earlier primes) of its p, is at first_p + i * p, as in _table.
    before = np.cumsum(counts) - counts
    where = np.repeat(-at % p - before * p, counts) + np.arange(len(step)) * step
    np.multiply.at(sig, where, step + 1)  # unbuffered: two primes can divide one value
    np.multiply.at(rest, where, np.repeat(inverse, counts))
