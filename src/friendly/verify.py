"""Exhaustive verification suites, exposed through ``verify --suite NAME``.

Each suite replays one family of guarantees against an independent
brute-force computation over its full stated range and reports check and
failure counts. They exist so a broken optimization anywhere in the library
shows up as a nonzero failure count rather than a silent wrong answer.

lemma21 takes sigma(n) and Euler's phi(n) of every n up to 10^5 as int64
arrays, from arith's smallest-prime-factor table by exact integer
recurrences applied in numpy one block of n at a time, reads n's support
ceiling prod p/(p - 1) as n/phi(n), and decides each index comparison on
integers: the statement about fractions multiplied through by its
denominators, checked a row or a chunk at a time. tests/test_verify.py
holds that table to ``factorize(n)`` and to ``abundancy_index``. Prime
replacement ranks each support's scaled indices within their exponent
tuple and packs the ranks, and the support's primes, into one integer of
guarded bit fields each, so one subtraction and one mask compare a pair of
supports in every field at once; only a failing pair is walked field by
field. prop22 and mod8 read sigma(5^(2a)) mod 8 as bits 2-4 of 5^(2a+1).

The ranges are fixed, so every run makes the same checks:

- lemma21: coprime pairs up to 300, n up to 1000 times 2..10, supports of
  up to 3 primes below 50 with exponents up to 3, and n up to 10^5
- prop22: a up to 10^4
- thm31: distinct primes p, q below 200 and a up to 200
- mod8: a up to 100 and odd Q up to 10^4 coprime to 15
- bounds: omega from 3 to 12, primes below 1000 and a up to 50
- residue: 1000 values of sigma(Q^2), odd Q with 25 Q^2 up to 10^7, and a
  scan of [1, 10^7)
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, product
from typing import Iterable

import numpy as np

from .abundancy import (
    abundancy_index,  # not called here; perfbench/tracer.py wraps friendly.verify.abundancy_index
)
from .arith import _grow_table, factorize, primes_below, sigma_prime_power
from .friend10 import (
    am_gm_sigma_bound,
    divides_sigma_even_power,
    lower_bound,
    omega_lower_bound,
    sigma5_mod8,
)
from .scan import scan

__all__ = ["SUITE_NAMES", "SuiteResult", "run_suites"]


@dataclass(slots=True)
class SuiteResult:
    """A suite's counts, kept as it runs; ``notes`` holds its first 8 failures."""

    name: str
    checks: int = 0
    failures: int = 0
    notes: tuple[str, ...] = ()
    elapsed_ms: int = 0

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def fail(self, note: str) -> None:
        self.failures += 1
        if len(self.notes) < 8:
            self.notes += (note,)


def verify_prop22() -> SuiteResult:
    """sigma(5^(2a)) mod 8 agrees with the mod-4 classifier for a up to 10^4."""
    t = SuiteResult("prop22")
    directs = []
    power = 5 ** 3  # 5^(2a+1), kept incrementally
    for _ in range(10_000):
        # sigma(5^(2a)) = (power - 1) // 4, and power ≡ 1 (mod 4), so its
        # residue mod 8 is bits 2-4 of power: the mask reads one digit
        # where % 8, or a shift, walks the whole number.
        directs.append((power & 31) >> 2)
        power *= 25
    t.checks += len(directs)
    predicted = map(sigma5_mod8, range(1, len(directs) + 1))
    for a, (got, direct) in enumerate(zip(predicted, directs), start=1):
        if got != direct:
            t.fail(f"a={a}: classifier {got} != direct {direct}")
    return t


def verify_thm31() -> SuiteResult:
    """Order-based divisibility of sigma(q^(2a)) by p vs. direct division.

    Exhaustive over distinct primes p, q below 200 and a up to 200; the
    oracle side computes the full divisor sum in arbitrary precision,
    reduces it once mod M, the product of the primes below 200, and then
    mod p: s % M % p == s % p whenever p divides M.
    """
    t = SuiteResult("thm31")
    primes = primes_below(200)
    modulus = math.prod(primes)
    for q in primes:
        sums = []
        power = q ** 3
        for _ in range(200):
            sums.append((power - 1) // (q - 1) % modulus)
            power *= q * q
        for p in primes:
            if p == q:
                continue
            t.checks += len(sums)
            for a, s in enumerate(sums, start=1):
                direct = s % p == 0
                if divides_sigma_even_power(p, q, a) != direct:
                    t.fail(f"p={p} q={q} a={a}: predicted {not direct}, direct {direct}")
    return t


def _sigma_of_square(q: int) -> int:
    """sigma(q^2), from the factorization of q."""
    s = 1
    for p, e in factorize(q):
        s *= sigma_prime_power(p, 2 * e)
    return s


def verify_mod8() -> SuiteResult:
    """The mod-8 sum skeleton: over all a up to 100 and all odd Q up to 10^4
    coprime to 15, whenever sigma(5^(2a)) * sigma(Q^2) ≡ 5 (mod 8), the sum
    is ≡ 6 exactly for even a and ≡ 2 exactly for odd a."""
    t = SuiteResult("mod8")
    qs = [q for q in range(1, 10_001, 2) if q % 3 != 0 and q % 5 != 0]
    sq8 = np.array([_sigma_of_square(q) % 8 for q in qs], dtype=np.int8)
    power = 125
    for a in range(1, 101):
        s5a = (power & 31) >> 2  # as in verify_prop22
        power *= 25
        want = 6 if a % 2 == 0 else 2
        # One row per a, in Q order; every product stays below 7 * 7.
        holds = np.flatnonzero(sq8 * s5a % 8 == 5)
        t.checks += len(holds)
        sums = (sq8[holds] + s5a) % 8
        for k, total in zip(holds[sums != want].tolist(), sums[sums != want].tolist()):
            t.fail(f"a={a} Q={qs[k]}: sum ≡ {total}, want {want}")
    if t.checks == 0:
        t.fail("hypothesis never held; the skeleton test is vacuous")
    return t


# Values per numpy pass over the lemma21 table, so each temporary stays small.
_CHUNK = 1 << 13


def _lemma21_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """sigma(n) and Euler's phi(n) for every 1 <= n <= limit (entry 0 is
    unused), as int64 arrays, from arith's smallest-prime-factor table.

    With p the smallest prime factor of n and m = n / p: when p does not
    divide m, both are multiplicative, so sigma(n) = sigma(m) * (p + 1) and
    phi(n) = phi(m) * (p - 1). When p divides m, phi(n) = phi(m) * p and
    sigma(n) = (p + 1) * sigma(m) - p * sigma(m / p), because sigma(p^k) =
    (p + 1) * sigma(p^(k-1)) - p * sigma(p^(k-2)) and both sides share the
    part of n prime to p. n/phi(n) is n's support ceiling prod p/(p - 1).

    m <= n/2, so the recurrences run in numpy over blocks [lo, hi) with
    hi <= 2 lo: each block reads only entries below lo. sigma(n) < 5n here,
    so int64 holds every value and product the lemma21 checks form.
    """
    spf = np.frombuffer(_grow_table(limit + 1)[0], dtype=np.uint16)
    sigmas = np.ones(limit + 1, dtype=np.int64)
    phis = np.ones(limit + 1, dtype=np.int64)
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, lo + _CHUNK, limit + 1)
        n = np.arange(lo, hi, dtype=np.int64)
        p = spf[lo:hi].astype(np.int64)
        p[p == 0] = n[p == 0]  # spf holds 0 at primes
        m = n // p
        fresh = m % p != 0
        sigmas[lo:hi] = np.where(fresh, sigmas[m] * (p + 1), (p + 1) * sigmas[m] - p * sigmas[m // p])
        phis[lo:hi] = phis[m] * np.where(fresh, p - 1, p)
        lo = hi
    return sigmas, phis


def _lemma21_weak_multiplicativity(t: SuiteResult, sigmas: np.ndarray) -> None:
    for m in range(1, 301):
        # One row per m: the n in [m, 300] coprime to it.
        n = np.arange(m, 301)
        n = n[np.gcd(n, m) == 1]
        t.checks += len(n)
        # I(mn) == I(m) * I(n), multiplied through by mn.
        for k in n[sigmas[m * n] != sigmas[m] * sigmas[n]].tolist():
            t.fail(f"I({m}*{k}) != I({m})*I({k})")


def _lemma21_monotone(t: SuiteResult, sigmas: np.ndarray) -> None:
    n = np.arange(1, 1001)
    alpha = np.arange(2, 11)
    # I(alpha * n) > I(n), multiplied through by alpha * n: one 1000 x 9
    # table, whose row-major order is n first, then alpha.
    grows = sigmas[np.outer(n, alpha)] > np.outer(sigmas[n], alpha)
    t.checks += grows.size
    for k in np.flatnonzero(~grows).tolist():
        row, col = divmod(k, len(alpha))
        t.fail(f"I({alpha[col]}*{n[row]}) is not above I({n[row]})")


def _pack(values: Iterable[int], bits: int) -> int:
    """values as fields of ``bits`` bits in one integer, the first lowest.

    Each field's top bit is a guard bit, left clear, so a value must lie in
    [0, 2^(bits-1)); ValueError otherwise, rather than a silent wrap into
    the next field.
    """
    top = 1 << (bits - 1)
    out = 0
    for k, v in enumerate(values):
        if not 0 <= v < top:
            raise ValueError(f"{v} does not fit below the guard bit of a {bits}-bit field")
        out |= v << (bits * k)
    return out


def _guard(fields: int, bits: int) -> int:
    """The guard bits of ``fields`` packed fields of ``bits`` bits."""
    return sum(1 << (bits * k + bits - 1) for k in range(fields))


def _covers(b: int, a: int, guard: int) -> bool:
    """Whether every field of b is >= the same field of a, both packed by
    `_pack` with the same width and count. Setting b's guard bits first
    gives each field a value in [1, 2^bits) after the subtraction, so no
    field borrows from the next, and its guard bit survives exactly when
    that field of b is >= that of a."""
    return ((b | guard) - a) & guard == guard


def _ranked_indices(supports: list, exps: list, weight: dict, D: int) -> list[tuple[int, ...]]:
    """Each support's index at every exponent tuple, in ``exps`` order, as
    its rank among that tuple's distinct values: only order within one
    exponent tuple is ever compared. Ranks come from sorting the exact
    integers num * (D // den), one tuple at a time; equal values share one."""
    rests = [D // math.prod(tp) ** 3 for tp in supports]
    ranks = []
    for ex in exps:
        col = [math.prod(map(weight.__getitem__, zip(tp, ex))) * rest for tp, rest in zip(supports, rests)]
        rank = dict(zip(sorted(set(col)), count()))
        ranks.append(list(map(rank.__getitem__, col)))
    return list(zip(*ranks))


def _lemma21_prime_replacement(t: SuiteResult) -> None:
    primes = primes_below(50)
    # Every exponent is at most 3, so every den divides D and an index
    # num/den compares as the integer num * (D // den): over a support tp,
    # the product of sigma(p^e) * p^(3 - e), times D // prod(tp)^3.
    D = math.prod(primes) ** 3
    weight = {(p, e): sigma_prime_power(p, e) * p ** (3 - e) for p in primes for e in range(1, 4)}
    for length in range(1, 4):
        exps = list(product(range(1, 4), repeat=length))
        # In lexicographic order, so every support that dominates
        # supports[i] coordinatewise sits at index i or after it.
        supports = list(combinations(primes, length))
        rows = _ranked_indices(supports, exps, weight, D)
        packed = [_pack(row, 10) for row in rows]
        rank_guard = _guard(len(exps), 10)
        prime_guard = _guard(length, 7)
        guarded = [_pack(tp, 7) | prime_guard for tp in supports]
        pairs = 0
        for i, small in enumerate(supports):
            # `_covers` written out, on operands that carry their guard
            # bits already: the supports at or after i that dominate small,
            # then those with some index above small's.
            low, high = _pack(small, 7), packed[i] | rank_guard
            larger = [j for j in range(i, len(supports)) if (guarded[j] - low) & prime_guard == prime_guard]
            pairs += len(larger)
            for j in [j for j in larger if (high - packed[j]) & rank_guard != rank_guard]:
                for ex, a, b in zip(exps, rows[i], rows[j]):
                    if a < b:
                        t.fail(f"I({small}^{ex}) < I({supports[j]}^{ex})")
        t.checks += pairs * len(exps)


def _lemma21_strict_bound(t: SuiteResult, sigmas: np.ndarray, phis: np.ndarray) -> None:
    t.checks += len(sigmas) - 2
    for lo in range(2, len(sigmas), _CHUNK):
        hi = min(lo + _CHUNK, len(sigmas))
        n = np.arange(lo, hi, dtype=np.int64)
        # sigma(n)/n < n/phi(n) = prod p/(p - 1), strictly, multiplied
        # through by n * phi(n); with sigma(n) < 5n both sides stay below
        # 5 * 10^10, well inside int64.
        for k in np.flatnonzero(sigmas[lo:hi] * phis[lo:hi] >= n * n).tolist():
            t.fail(f"I({lo + k}) does not sit strictly below its support ceiling")


def verify_lemma21() -> SuiteResult:
    """Index algebra, exhaustively: weak multiplicativity for coprime pairs
    up to 300, strict growth under multiplication for n up to 1000, prime
    replacement over supports of up to 3 primes below 50 with exponents up
    to 3, and the strict support ceiling for n up to 10^5 (n = 1 has empty
    support and is skipped)."""
    t = SuiteResult("lemma21")
    sigmas, phis = _lemma21_table(10 ** 5)
    _lemma21_weak_multiplicativity(t, sigmas)
    _lemma21_monotone(t, sigmas)
    _lemma21_prime_replacement(t)
    _lemma21_strict_bound(t, sigmas, phis)
    return t


def verify_bounds() -> SuiteResult:
    """Consistency of the two lower bounds for omega from 3 to 12, plus
    strictness of the per-prime divisor-sum inequality for all primes below
    1000 and a up to 50."""
    t = SuiteResult("bounds")
    for omega in range(3, 13):
        t.checks += 1
        if Fraction(omega_lower_bound(omega)) != lower_bound((2,) + (1,) * (omega - 1)):
            t.fail(f"omega={omega}: closed form departs from the exponent bound")
    for p in primes_below(1000):
        for a in range(1, 51):
            t.checks += 1
            if not am_gm_sigma_bound(p, a):
                t.fail(f"sigma({p}^{2 * a}) <= (2a+1)p^a")
    return t


def verify_residue() -> SuiteResult:
    """Soundness of the a = 1 residue class F ≡ 5425 (mod 6200).

    Three angles: every admissible sigma(Q^2) value 360u + 315, u < 1000,
    substitutes back into that class; every actual n = 25 Q^2 up to 10^7
    whose sigma(Q^2) meets the mod-45 and mod-8 constraints lies in the
    class (vacuously, at this scale); and a full scan confirms nothing
    below 10^7 shares 10's index except 10 itself.
    """
    scan_bound = 10 ** 7
    t = SuiteResult("residue")
    for u in range(1000):
        s = 360 * u + 315
        value = 5 * 31 * s
        t.checks += 1
        if value % 9 != 0 or (value // 9) % 6200 != 5425:
            t.fail(f"sigma(Q^2) = {s} does not substitute into 5425 mod 6200")
    q = 1
    while 25 * q * q <= scan_bound:
        if q % 3 != 0 and q % 5 != 0:
            s = _sigma_of_square(q)
            t.checks += 1
            if s % 45 == 0 and s % 8 == 3 and (25 * q * q) % 6200 != 5425:
                t.fail(f"Q={q} satisfies the congruences but 25Q^2 escapes the class")
            if 31 * s == 45 * q * q:
                t.fail(f"Q={q} satisfies the defining equation: friend below {scan_bound}?!")
        q += 2
    outcome = scan(scan_bound, Fraction(9, 5))
    t.checks += 1
    if not (outcome.complete and outcome.hits == (10,)):
        t.fail(f"scan to {scan_bound} returned hits {outcome.hits}")
    return t


_SUITES = {
    "lemma21": verify_lemma21,
    "prop22": verify_prop22,
    "thm31": verify_thm31,
    "mod8": verify_mod8,
    "bounds": verify_bounds,
    "residue": verify_residue,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suites(name: str) -> list[SuiteResult]:
    """Run one named suite, or every suite for ``all``, with wall timing."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    names = list(_SUITES) if name == "all" else [name]
    results = []
    for suite in names:
        started = time.perf_counter()
        res = _SUITES[suite]()
        res.elapsed_ms = int((time.perf_counter() - started) * 1000)
        results.append(res)
    return results
