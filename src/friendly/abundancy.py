"""Abundancy-index algebra: exact sigma(n)/n ratios, friend search, solitary certificates.

The index of n is sigma(n)/n as a reduced fraction. Two distinct integers
sharing an index are friends; an integer with no friend is solitary. Index
equality is always decided on exact rationals, never floats. The support
ceiling prod p/(p-1) is formed where it is used, in friend10's
``prime_support`` rule.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Union

from .arith import Factorization, factorize, sigma

__all__ = [
    "SolitaryVerdict",
    "abundancy_index",
    "find_friends",
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
