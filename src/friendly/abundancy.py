"""Abundancy-index algebra: exact sigma(n)/n ratios, friends, solitary certificates.

The index of n is sigma(n)/n as a reduced fraction. Two distinct integers
sharing an index are friends; an integer with no friend is solitary. Index
equality is always decided on exact rationals, never floats.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

from .arith import Factorization, factorize, is_prime, sigma

__all__ = [
    "SolitaryVerdict",
    "abundancy_index",
    "are_friends",
    "find_friends",
    "index_upper_bound",
    "solitary_certificate",
]


def abundancy_index(f: Union[Factorization, int]) -> Fraction:
    """sigma(n)/n in lowest terms.

    sigma(n) and n are multiplied up from the prime powers as integers and
    reduced once.
    """
    if not isinstance(f, Factorization):
        f = factorize(f)  # any integer type, numpy's included
    return Fraction(sigma(f), f.value)


def index_upper_bound(primes: Iterable[int]) -> Fraction:
    """Strict bound prod p/(p-1) on the index of anything with this support."""
    ps = tuple(primes)
    if not ps:
        raise ValueError("prime support must be non-empty")
    if len(set(ps)) != len(ps):
        raise ValueError("primes must be distinct")
    for p in ps:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    return _support_ceiling(ps)


def _support_ceiling(primes: Iterable[int]) -> Fraction:
    """prod p/(p-1) over primes the caller has already validated, reduced once."""
    num = den = 1
    for p in primes:
        num *= p
        den *= p - 1
    return Fraction(num, den)


def are_friends(m: int, n: int) -> bool:
    """Whether m and n are distinct and share an abundancy index."""
    if m < 1 or n < 1:
        raise ValueError("friendship is defined on positive integers")
    return m != n and abundancy_index(m) == abundancy_index(n)


def find_friends(n: int, bound: int) -> list[int]:
    """Every m <= bound, m != n, with m's index equal to n's, ascending.

    A ``scan`` of [1, bound], so each sieve hit is re-verified exactly. A
    bound past the sieve's 2^50 raises SieveBudgetError before any sieving.
    """
    # Imported here so that the exact layer never loads the sieve or numpy.
    from .scan import scan

    if n < 1:
        raise ValueError("n must be positive")
    if bound < 1:
        return []
    outcome = scan(bound + 1, abundancy_index(n))
    return [m for m in outcome.hits if m != n]


class SolitaryVerdict(Enum):
    CERTIFIED_SOLITARY = "certified-solitary"
    INCONCLUSIVE = "inconclusive"


def solitary_certificate(n: Union[Factorization, int]) -> SolitaryVerdict:
    """Certify n solitary when gcd(n, sigma(n)) = 1; otherwise stay agnostic.

    The coprime case makes sigma(n)/n already reduced, which forces any
    friend to be a proper multiple of n, impossible since the index grows
    strictly under multiplication. No gcd value can certify the opposite:
    friendliness is only ever established by exhibiting a witness pair.
    A caller that already holds n's factorization passes it instead of n.
    """
    if not isinstance(n, Factorization):
        if n < 1:
            raise ValueError("n must be positive")
        n = factorize(n)
    if math.gcd(n.value, sigma(n)) == 1:
        return SolitaryVerdict.CERTIFIED_SOLITARY
    return SolitaryVerdict.INCONCLUSIVE
