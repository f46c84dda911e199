"""Exhaustive verification suites, exposed through ``verify --suite NAME``.

Each suite replays one family of guarantees against an independent
brute-force computation over its full stated range and reports check and
failure counts. They exist so a broken optimization anywhere in the library
shows up as a nonzero failure count rather than a silent wrong answer.

lemma21 takes sigma(n) and Euler's phi(n) of every n up to 10^5 from one
walk of arith's smallest-prime-factor table, by exact integer recurrences,
reads n's support ceiling prod p/(p - 1) as n/phi(n), and decides each
index comparison on integers: the statement about fractions multiplied
through by its denominators. tests/test_verify.py holds that table to
``factorize(n)`` and to ``abundancy_index``.

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
import operator
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

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


@dataclass(slots=True)  # ``--suite all`` adds to ``checks`` 192,719 times
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
    power = 5 ** 3  # 5^(2a+1), kept incrementally
    for a in range(1, 10_001):
        # sigma(5^(2a)) = (power - 1) // 4, taken mod 8 as a shift and a
        # mask: x // 4 == x >> 2 and y % 8 == y & 7 for every integer, and
        # the mask reads one digit where % 8 walks the whole number.
        direct = ((power - 1) >> 2) & 7
        t.checks += 1
        if sigma5_mod8(a) != direct:
            t.fail(f"a={a}: classifier {sigma5_mod8(a)} != direct {direct}")
        power *= 25
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
    s5 = []
    power = 125
    for _ in range(100):
        s5.append(((power - 1) >> 2) & 7)  # as in verify_prop22
        power *= 25
    sq8 = [
        (q, _sigma_of_square(q) % 8)
        for q in range(1, 10_001, 2)
        if q % 3 != 0 and q % 5 != 0
    ]
    for a, s5a in enumerate(s5, start=1):
        want = 6 if a % 2 == 0 else 2
        for q, sq in sq8:
            if s5a * sq % 8 != 5:
                continue
            t.checks += 1
            if (s5a + sq) % 8 != want:
                t.fail(f"a={a} Q={q}: sum ≡ {(s5a + sq) % 8}, want {want}")
    if t.checks == 0:
        t.fail("hypothesis never held; the skeleton test is vacuous")
    return t


def _lemma21_table(limit: int) -> tuple[array, array]:
    """sigma(n) and Euler's phi(n) for every 1 <= n <= limit (entry 0 is
    unused), from one walk of arith's smallest-prime-factor table.

    With p the smallest prime factor of n and m = n / p: when p does not
    divide m, both are multiplicative, so sigma(n) = sigma(m) * (p + 1) and
    phi(n) = phi(m) * (p - 1). When p divides m, phi(n) = phi(m) * p and
    sigma(n) = (p + 1) * sigma(m) - p * sigma(m / p), because sigma(p^k) =
    (p + 1) * sigma(p^(k-1)) - p * sigma(p^(k-2)) and both sides share the
    part of n prime to p. n/phi(n) is n's support ceiling prod p/(p - 1).
    """
    spf, _ = _grow_table(limit + 1)
    sigmas = array("q", [1]) * (limit + 1)
    phis = array("q", [1]) * (limit + 1)
    for n in range(2, limit + 1):
        p = spf[n] or n
        m = n // p
        if m % p:
            sigmas[n] = sigmas[m] * (p + 1)
            phis[n] = phis[m] * (p - 1)
        else:
            sigmas[n] = (p + 1) * sigmas[m] - p * sigmas[m // p]
            phis[n] = phis[m] * p
    return sigmas, phis


def _lemma21_weak_multiplicativity(t: SuiteResult, sigmas: array) -> None:
    for m in range(1, 301):
        for n in range(m, 301):
            if math.gcd(m, n) != 1:
                continue
            t.checks += 1
            # I(mn) == I(m) * I(n), multiplied through by mn.
            if sigmas[m * n] != sigmas[m] * sigmas[n]:
                t.fail(f"I({m}*{n}) != I({m})*I({n})")


def _lemma21_monotone(t: SuiteResult, sigmas: array) -> None:
    for n in range(1, 1001):
        s = sigmas[n]
        for alpha in range(2, 11):
            t.checks += 1
            # I(alpha * n) > I(n), multiplied through by alpha * n.
            if not sigmas[alpha * n] > alpha * s:
                t.fail(f"I({alpha}*{n}) is not above I({n})")


def _lemma21_prime_replacement(t: SuiteResult) -> None:
    primes = primes_below(50)
    # Every exponent is at most 3, so every den divides D and an index
    # num/den compares as the integer num * (D // den).
    D = math.prod(primes) ** 3
    for length in range(1, 4):
        exps = list(product(range(1, 4), repeat=length))
        # In lexicographic order, so every support that dominates
        # supports[i] coordinatewise sits at index i or after it.
        supports = list(combinations(primes, length))
        # One row of scaled indices per support, in ``exps`` order.
        rows = []
        for tp in supports:
            row = []
            for ex in exps:
                num = den = 1
                for p, e in zip(tp, ex):
                    num *= sigma_prime_power(p, e)
                    den *= p ** e
                row.append(num * (D // den))
            rows.append(row)
        for i, (small, small_row) in enumerate(zip(supports, rows)):
            for large, large_row in zip(supports[i:], rows[i:]):
                if not all(map(operator.le, small, large)):
                    continue
                t.checks += len(exps)
                if any(map(operator.lt, small_row, large_row)):
                    for ex, a, b in zip(exps, small_row, large_row):
                        if a < b:
                            t.fail(f"I({small}^{ex}) < I({large}^{ex})")


def _lemma21_strict_bound(t: SuiteResult, sigmas: array, phis: array) -> None:
    t.checks += len(sigmas) - 2
    for n in range(2, len(sigmas)):
        # sigma(n)/n < n/phi(n) = prod p/(p - 1), strictly, multiplied
        # through by n * phi(n)
        if sigmas[n] * phis[n] >= n * n:
            t.fail(f"I({n}) does not sit strictly below its support ceiling")


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
