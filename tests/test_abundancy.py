"""Index algebra, friend detection, and solitary certificates."""

import math
import time
from fractions import Fraction

import pytest

from friendly.abundancy import (
    SolitaryVerdict,
    abundancy_index,
    find_friends,
    solitary_certificate,
)
from friendly.arith import factorize
from friendly.sieve import SieveBudgetError


def divisor_sum(n):
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d
            if d != n // d:
                total += n // d
    return total


def friends_brute(n, bound):
    target = Fraction(divisor_sum(n), n)
    return [m for m in range(1, bound + 1) if m != n and Fraction(divisor_sum(m), m) == target]


# --- abundancy index ---------------------------------------------------------


def test_index_examples():
    assert abundancy_index(factorize(10)) == Fraction(9, 5)
    assert abundancy_index(factorize(1)) == Fraction(1)
    assert abundancy_index(factorize(30)) == Fraction(12, 5)


def test_index_accepts_plain_integers():
    assert abundancy_index(10) == Fraction(9, 5)


def test_index_matches_divisor_enumeration():
    for n in range(1, 2001):
        assert abundancy_index(n) == Fraction(divisor_sum(n), n)


def test_index_is_stored_reduced():
    value = abundancy_index(140)
    assert (value.numerator, value.denominator) == (12, 5)


# --- support bound -----------------------------------------------------------


def test_index_upper_bound_examples():
    # prod p/(p-1) is the supremum of the index over a support: 5/4 over {5},
    # 5/4 * 7/6 = 35/24 over {5, 7}, 2 * 3/2 = 3 over {2, 3}. With every
    # exponent k, I(n) falls short of it by the factor prod (1 - p^-(k+1)).
    for primes, ceiling in (((5,), Fraction(5, 4)), ((5, 7), Fraction(35, 24)), ((2, 3), Fraction(3))):
        for k in range(1, 8):
            shortfall = math.prod(1 - Fraction(1, p ** (k + 1)) for p in primes)
            assert abundancy_index(math.prod(p**k for p in primes)) == ceiling * shortfall, (primes, k)


def test_index_strictly_below_support_bound():
    for n in range(2, 2001):
        primes = factorize(n).primes
        ceiling = Fraction(math.prod(primes), math.prod(p - 1 for p in primes))  # prod p/(p-1)
        assert abundancy_index(n) < ceiling, n


# --- friends -----------------------------------------------------------------


def test_find_friends_examples():
    assert find_friends(6, 1000) == [28, 496]
    assert find_friends(30, 200) == [140]


def test_find_friends_bound_is_inclusive():
    assert find_friends(6, 28) == [28]
    assert find_friends(6, 27) == []
    assert find_friends(6, 0) == find_friends(6, -5) == []


def test_find_friends_matches_brute_force():
    assert find_friends(6, 1000) == friends_brute(6, 1000)
    assert find_friends(30, 500) == friends_brute(30, 500)
    assert find_friends(12, 3000) == friends_brute(12, 3000)


def test_find_friends_of_10_is_empty_to_a_million():
    assert find_friends(10, 10 ** 6) == []


def test_find_friends_excludes_self_and_validates():
    assert 6 not in find_friends(6, 10000)
    with pytest.raises(ValueError):
        find_friends(0, 10)


def test_find_friends_past_the_sieve_limit_fails_fast():
    # About 2^30 segments of the default size: the check must come before any sieving.
    started = time.perf_counter()
    with pytest.raises(SieveBudgetError, match="overflow"):
        find_friends(6, 2 ** 50 + 1)
    assert time.perf_counter() - started < 1


# --- solitary certificates ----------------------------------------------------


@pytest.mark.parametrize(
    "n,expected",
    [
        (5, SolitaryVerdict.CERTIFIED_SOLITARY),
        (10, SolitaryVerdict.INCONCLUSIVE),
        (1, SolitaryVerdict.CERTIFIED_SOLITARY),
    ],
)
def test_solitary_examples(n, expected):
    assert solitary_certificate(n) is expected


def test_solitary_refuses_zero():
    with pytest.raises(ValueError, match="n must be positive"):
        solitary_certificate(0)


def test_solitary_matches_gcd_criterion():
    for n in range(1, 2001):
        expected = math.gcd(n, divisor_sum(n)) == 1
        got = solitary_certificate(n) is SolitaryVerdict.CERTIFIED_SOLITARY
        assert got == expected, n


def test_certified_numbers_have_no_small_friends():
    for n in range(1, 200):
        if solitary_certificate(n) is SolitaryVerdict.CERTIFIED_SOLITARY:
            assert friends_brute(n, 5000) == [], n


# --- small versions of the index laws (full ranges run in the verify suites) --


def test_weak_multiplicativity_small():
    for m in range(1, 61):
        for n in range(m, 61):
            if math.gcd(m, n) == 1:
                assert abundancy_index(m * n) == abundancy_index(m) * abundancy_index(n)


def test_multiplier_strictly_raises_index():
    for n in range(1, 101):
        for alpha in range(2, 5):
            assert abundancy_index(alpha * n) > abundancy_index(n)
