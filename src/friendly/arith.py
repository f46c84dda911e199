"""Exact integer arithmetic: primality, factoring, divisor sums, orders, CRT.

Everything stays in arbitrary-precision integers; nothing rounds through a
float. Values are immutable and safe to share across workers.

The one piece of shared state is a smallest-prime-factor table: an
``array`` of 2-byte entries (a composite below 2^32 has its smallest prime
factor below 2^16), with the primes below the same limit taken from the
same sieve. It is built on first use at 2^17 entries, the first power of
two above 10^5, so that every n the verify suites factor is a table walk.
It grows under a lock, at least doubling each time, and is read-only
between growths. Below its limit ``factorize`` walks the table and
``is_prime`` is one lookup; above it, trial division by the primes plus
Brent's rho is the only path.
"""

from __future__ import annotations

import bisect
import math
import operator
import random
import threading
from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Iterable

__all__ = [
    "DEFAULT_MR_ROUNDS",
    "DEFAULT_RHO_BUDGET",
    "DEFAULT_TRIAL_BOUND",
    "FactoringBudgetError",
    "Factorization",
    "crt",
    "factorize",
    "is_prime",
    "multiplicative_order",
    "p_adic_valuation",
    "primes_below",
    "sigma",
    "sigma_prime_power",
]

DEFAULT_TRIAL_BOUND = 10 ** 6
DEFAULT_RHO_BUDGET = 1 << 22
DEFAULT_MR_ROUNDS = 40

# Sufficient deterministic witness set for every n < 3.3e24, which covers
# the whole 64-bit range.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 1 << 64


class FactoringBudgetError(Exception):
    """Factoring would exceed its iteration budget.

    Nothing in the library catches it: ``scan_range`` and the ``scan`` driver
    let it propagate, and the ``friendly`` command reports it as a domain
    error (exit 1).
    """

    def __init__(self, n: int, budget: int):
        super().__init__(f"factoring budget of {budget} iterations exhausted on {n}")
        self.n = n
        self.budget = budget


def _miller_rabin(n: int, bases: Iterable[int]) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality test: exact below 2^64, Miller-Rabin above.

    Below the limit of the smallest-prime-factor table, once built, the
    answer is one lookup. Otherwise, below 2^64, a fixed witness set decides
    exactly. At or above, DEFAULT_MR_ROUNDS extra pseudorandom witnesses
    (seeded by n, so results are reproducible) bound the false-positive
    probability by 4**-DEFAULT_MR_ROUNDS.
    """
    if n < 2:
        return False
    spf = _table[0]
    if n < len(spf):
        return spf[n] == 0
    for p in _WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _DETERMINISTIC_LIMIT:
        return _miller_rabin(n, _WITNESSES)
    rng = random.Random(n)
    extra = tuple(rng.randrange(2, n - 1) for _ in range(DEFAULT_MR_ROUNDS))
    return _miller_rabin(n, _WITNESSES + extra)


# The table's least size: the first power of two above 10^5, so every n the
# verify suites factor (up to 10^5) is one table walk after the first call.
_TABLE_MIN = 1 << 17

_table_lock = threading.Lock()
# (spf, primes), swapped whole so readers never see halves of two builds.
# spf[n] is the smallest prime factor of each composite n < len(spf), and 0
# at primes, 0 and 1; primes holds every prime below the same limit. A
# composite below 2^32 has its smallest prime factor below 2^16, so 2-byte
# entries suffice far past the 10^6 that trial division asks for by default.
_table: tuple[array, tuple[int, ...]] = (array("H"), ())


def _build_table(limit: int) -> tuple[array, tuple[int, ...]]:
    """The smallest-prime-factor table and the primes below limit, from one sieve."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    sieving = []
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            sieving.append(p)
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    spf = array("H", [0]) * limit
    # Largest prime first, so each entry ends up holding its smallest.
    for p in reversed(sieving):
        spf[p * p :: p] = array("H", [p]) * len(range(p * p, limit, p))
    return spf, tuple(compress(range(limit), flags))


def _grow_table(limit: int) -> tuple[array, tuple[int, ...]]:
    """The cached (spf, primes), grown first if they do not yet reach limit."""
    global _table
    if limit > len(_table[0]):
        with _table_lock:
            if limit > len(_table[0]):
                _table = _build_table(max(limit, 2 * len(_table[0]), _TABLE_MIN))
    return _table


def primes_below(limit: int) -> tuple[int, ...]:
    """All primes < limit, served from the grow-only cached table."""
    _, primes = _grow_table(limit)
    return primes[: bisect.bisect_left(primes, limit)]


@dataclass(frozen=True)
class Factorization:
    """A positive integer as an ordered product of prime powers.

    ``pairs`` is strictly increasing by prime with exponents >= 1; the empty
    product represents 1.
    """

    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        pairs = tuple((int(p), int(e)) for p, e in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        prev = 1
        for p, e in pairs:
            if p <= prev:
                raise ValueError(f"primes must increase strictly: {p} after {prev}")
            if e < 1:
                raise ValueError(f"exponent of {p} must be >= 1, got {e}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p

    @classmethod
    def _proven(cls, pairs: tuple[tuple[int, int], ...]) -> Factorization:
        """Skip the checks: only for ``factorize``, which proved every prime."""
        f = object.__new__(cls)
        object.__setattr__(f, "pairs", pairs)
        return f

    @property
    def value(self) -> int:
        n = 1
        for p, e in self.pairs:
            n *= p ** e
        return n

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __str__(self) -> str:
        if not self.pairs:
            return "1"
        return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.pairs)


def factorize(n: int) -> Factorization:
    """Factor n >= 1: a table walk below the table's limit, else trial
    division by its primes, then Brent's rho.

    Below the limit each prime factor is one lookup of the smallest-prime-
    factor table. Above it, trial division runs over the cached primes below
    min(DEFAULT_TRIAL_BOUND, isqrt(n) + 1); whatever survives goes through
    Brent's cycle method under a budget of DEFAULT_RHO_BUDGET iterations.
    Both are read at call time. Exceeding the budget raises
    FactoringBudgetError so callers can skip or defer the value rather than
    stall.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"can only factor n >= 1, got {n}")
    trial_bound = DEFAULT_TRIAL_BOUND
    spf, primes = _table
    if n >= len(spf):
        spf, primes = _grow_table(min(trial_bound, math.isqrt(n) + 1))
    if n < len(spf):
        pairs = []
        while n > 1:
            p = spf[n] or n
            n //= p
            e = 1
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
        return Factorization._proven(tuple(pairs))
    factors: dict[int, int] = {}
    rest = n
    for p in primes:
        if p >= trial_bound or p * p > rest:
            break
        while rest % p == 0:
            rest //= p
            factors[p] = factors.get(p, 0) + 1
    if rest > 1:
        _split(rest, factors, [DEFAULT_RHO_BUDGET])
    return Factorization._proven(tuple(sorted(factors.items())))


def _split(m: int, factors: dict[int, int], budget: list[int]) -> None:
    # m has no prime factor below DEFAULT_TRIAL_BOUND, so anything under its
    # square is automatically prime.
    if m < DEFAULT_TRIAL_BOUND * DEFAULT_TRIAL_BOUND or is_prime(m):
        factors[m] = factors.get(m, 0) + 1
        return
    d = _brent_rho(m, budget)
    _split(d, factors, budget)
    _split(m // d, factors, budget)


def _brent_rho(n: int, budget: list[int]) -> int:
    """One nontrivial factor of composite n via Brent's cycle detection."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            if budget[0] < r:
                raise FactoringBudgetError(n, DEFAULT_RHO_BUDGET)
            budget[0] -= r
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(128, r - k)
                if budget[0] < steps:
                    raise FactoringBudgetError(n, DEFAULT_RHO_BUDGET)
                budget[0] -= steps
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g != n:
            return g
        # The batched gcd jumped past the factor; replay one step at a time.
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # Degenerate cycle: retry with a fresh polynomial.


def sigma_prime_power(p: int, e: int) -> int:
    """sigma(p^e) = (p^(e+1) - 1) / (p - 1) for prime p, e >= 0."""
    return (p ** (e + 1) - 1) // (p - 1)


def sigma(f: Factorization) -> int:
    """Sum of all positive divisors of the value ``f`` represents."""
    out = 1
    for p, e in f:
        out *= sigma_prime_power(p, e)
    return out


def p_adic_valuation(p: int, n: int) -> int:
    """Largest e with p^e dividing n (n >= 1)."""
    if n < 1:
        raise ValueError(f"valuation needs n >= 1, got {n}")
    if p < 2:
        raise ValueError(f"valuation needs p >= 2, got {p}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _totient(n: int) -> int:
    t = 1
    for p, e in factorize(n):
        t *= p ** (e - 1) * (p - 1)
    return t


def multiplicative_order(q: int, m: int) -> int:
    """Least d >= 1 with q^d ≡ 1 (mod m); requires gcd(q, m) = 1 and m >= 2.

    Starts from the totient of m (a multiple of the order) and strips prime
    factors while the power keeps landing on 1.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if math.gcd(q, m) != 1:
        raise ValueError(f"multiplicative order needs gcd(q, m) = 1, got gcd({q}, {m}) > 1")
    d = _totient(m)
    for p in factorize(d).primes:
        while d % p == 0 and pow(q, d // p, m) == 1:
            d //= p
    return d


def crt(system: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Combine congruences x ≡ r_i (mod m_i) with pairwise-coprime moduli.

    Returns (residue, modulus) with 0 <= residue < modulus = product of the
    m_i. An empty system is vacuous and yields (0, 1).
    """
    r, m = 0, 1
    for residue, modulus in system:
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        if not 0 <= residue < modulus:
            raise ValueError(f"residue {residue} out of range for modulus {modulus}")
        if math.gcd(m, modulus) != 1:
            raise ValueError(f"moduli must be pairwise coprime; {modulus} shares a factor")
        k = (residue - r) * pow(m, -1, modulus) % modulus
        r += m * k
        m *= modulus
    return r, m
