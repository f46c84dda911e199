"""Core integer arithmetic against brute-force oracles."""

import math
import random
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from friendly import arith
from friendly.abundancy import abundancy_index, are_friends
from friendly.arith import (
    FactoringBudgetError,
    Factorization,
    crt,
    factorize,
    is_prime,
    multiplicative_order,
    p_adic_valuation,
    sigma,
    sigma_prime_power,
)


def divisor_sum_table(limit):
    """sigma(n) for n in 0..limit by plain divisor accumulation."""
    table = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            table[m] += d
    return table


def trial_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def trial_factor(n):
    """The (prime, exponent) pairs of n >= 1 by plain trial division."""
    pairs = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            pairs.append((d, e))
        d += 1
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


@pytest.fixture
def table_limit(monkeypatch):
    """Start from an empty smallest-prime-factor table, build its least size,
    and return that limit; the process's own table comes back afterwards."""
    monkeypatch.setattr(arith, "_table", (array("H"), ()))
    arith.primes_below(2)
    limit = len(arith._table[0])
    assert limit == arith._TABLE_MIN == 1 << 17
    return limit


# --- primality ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n,expected",
    [
        (0, False),
        (1, False),
        (2, True),
        (331, True),
        (488281, False),  # 19 * 31 * 829
        (561, False),  # Carmichael
        (2 ** 61 - 1, True),  # Mersenne
        ((2 ** 31 - 1) ** 2, False),
    ],
)
def test_is_prime_known_values(n, expected):
    assert is_prime(n) is expected


def test_is_prime_matches_trial_division(table_limit):
    # The table's lookups below its limit, Miller-Rabin past it.
    for n in range(table_limit + 4000):
        assert is_prime(n) == trial_is_prime(n), n


def test_is_prime_above_64_bits():
    assert is_prime(2 ** 89 - 1)  # Mersenne prime, forces the probabilistic path
    assert not is_prime((2 ** 61 - 1) * (2 ** 89 - 1))


# --- factorization -----------------------------------------------------------


def test_factorize_examples():
    assert factorize(1).pairs == ()
    assert factorize(10).pairs == ((2, 1), (5, 1))
    assert factorize(488281).pairs == ((19, 1), (31, 1), (829, 1))


def test_factorize_table_walk_matches_trial_division(table_limit):
    for n in range(1, table_limit):
        assert factorize(n).pairs == trial_factor(n), n


def test_factorize_and_is_prime_at_the_table_limit(table_limit):
    def check(limit):
        p = next(q for q in range(math.isqrt(limit) + 1, limit) if trial_is_prime(q))
        for n in (limit - 1, limit, limit + 1, p * p):
            f = factorize(n)
            assert f.pairs == trial_factor(n), n
            assert f == Factorization(f.pairs), n
            assert is_prime(n) == trial_is_prime(n), n

    check(table_limit)  # 2^17 - 1 is prime; 367^2 is the first prime square above
    assert factorize(table_limit).pairs == ((2, 17),)
    arith.primes_below(table_limit + 1)
    grown = len(arith._table[0])
    assert grown == 2 * table_limit
    check(table_limit)  # now all inside the grown table
    check(grown)


def test_factorize_roundtrip_exhaustive():
    for n in range(1, 100_001):
        assert factorize(n).value == n


def test_factorize_roundtrip_random_64bit():
    rng = random.Random(20240817)
    for _ in range(1000):
        n = rng.randrange(2, 1 << 64)
        f = factorize(n)
        assert f.value == n


def test_factorize_validates_input():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_budget_error(monkeypatch):
    hard = (2 ** 127 - 1) * (2 ** 89 - 1)  # two large primes, no small factors
    monkeypatch.setattr(arith, "DEFAULT_RHO_BUDGET", 64)
    with pytest.raises(FactoringBudgetError) as info:
        factorize(hard)
    assert info.value.budget == 64


def test_factorization_invariants_enforced():
    with pytest.raises(ValueError):
        Factorization(((4, 1),))  # not prime
    with pytest.raises(ValueError):
        Factorization(((5, 1), (3, 1)))  # not increasing
    with pytest.raises(ValueError):
        Factorization(((3, 0),))  # exponent < 1
    assert Factorization(()).value == 1


def test_factorize_agrees_with_validated_constructor():
    # factorize skips the checks on its own output; the checked constructor
    # must accept that output unchanged.
    semiprimes = [
        1_000_003 * 1_000_033,  # just above DEFAULT_TRIAL_BOUND^2, so _split runs is_prime and rho
        (2 ** 31 - 1) * (2 ** 61 - 1),
        999_983 * 1_000_003,
    ]
    values = [*range(1, 20_001), *range(10 ** 12 - 200, 10 ** 12 + 200), *semiprimes]
    for n in values:
        f = factorize(n)
        assert f == Factorization(f.pairs), n
        assert f.value == n
    assert factorize(semiprimes[0]).pairs == ((1_000_003, 1), (1_000_033, 1))


def test_factorize_proves_no_prime_twice(monkeypatch):
    calls = []
    real = arith.is_prime

    def counting(n, **kwargs):
        calls.append(n)
        return real(n, **kwargs)

    monkeypatch.setattr(arith, "is_prime", counting)
    for n in range(2, 10_001):
        factorize(n)
    assert calls == []


def test_factorize_numpy_integer_gives_python_ints():
    f = factorize(np.int64(720))
    assert f == factorize(720)
    assert all(type(x) is int for pair in f.pairs for x in pair)


def test_abundancy_index_and_are_friends_take_numpy_integers():
    assert abundancy_index(np.int64(10)) == Fraction(9, 5)
    assert are_friends(np.int64(6), np.int64(28)) is True


def test_factorize_respects_small_trial_bound(table_limit, monkeypatch):
    # Past the table, a DEFAULT_TRIAL_BOUND below the cached primes hands more to
    # _split and rho; the factors must not change.
    rho_calls = []
    real_rho = arith._brent_rho
    monkeypatch.setattr(arith, "_brent_rho", lambda n, *a: rho_calls.append(n) or real_rho(n, *a))
    for bound in (3, 10, 100):
        monkeypatch.setattr(arith, "DEFAULT_TRIAL_BOUND", bound)
        for n in range(table_limit, table_limit + 3000):
            assert factorize(n).pairs == trial_factor(n), (n, bound)
    assert rho_calls


def test_factorize_small_n_builds_small_sieve():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from friendly import arith; arith.factorize(25); print(len(arith._table[0]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    assert int(out.stdout) == 1 << 17


# --- sigma -------------------------------------------------------------------


def test_sigma_examples():
    assert sigma(factorize(1)) == 1
    assert sigma(factorize(25)) == 31
    assert sigma(factorize(10)) == 18


def test_sigma_matches_divisor_enumeration():
    table = divisor_sum_table(100_000)
    for n in range(1, 100_001):
        assert sigma(factorize(n)) == table[n], n


def test_sigma_multiplicative_for_coprime_pairs():
    cache = {}

    def sig(k):
        if k not in cache:
            cache[k] = sigma(factorize(k))
        return cache[k]

    for m in range(1, 501):
        for n in range(m, 501):
            if math.gcd(m, n) == 1:
                assert sig(m * n) == sig(m) * sig(n), (m, n)


def test_sigma_prime_power():
    assert sigma_prime_power(5, 2) == 31
    assert sigma_prime_power(2, 4) == 31
    assert sigma_prime_power(7, 0) == 1


# --- p-adic valuation --------------------------------------------------------


@pytest.mark.parametrize("p,n,expected", [(3, 30, 1), (19, 4, 0), (5, 1, 0), (2, 96, 5)])
def test_p_adic_examples(p, n, expected):
    assert p_adic_valuation(p, n) == expected


def test_p_adic_definition():
    for p in (2, 3, 5, 19):
        for n in range(1, 500):
            e = p_adic_valuation(p, n)
            assert n % p ** e == 0 and n % p ** (e + 1) != 0


def test_p_adic_rejects_bad_input():
    with pytest.raises(ValueError):
        p_adic_valuation(3, 0)
    with pytest.raises(ValueError):
        p_adic_valuation(1, 10)


# --- multiplicative order ----------------------------------------------------


@pytest.mark.parametrize("q,m,expected", [(5, 31, 3), (5, 19, 9), (7, 9, 3)])
def test_order_examples(q, m, expected):
    assert multiplicative_order(q, m) == expected


def test_order_errors():
    with pytest.raises(ValueError):
        multiplicative_order(6, 9)
    with pytest.raises(ValueError):
        multiplicative_order(3, 1)


def test_order_divides_totient_and_is_minimal():
    for m in range(2, 301):
        totient = sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
        memo = {}
        for q in range(1, 301):
            if math.gcd(q, m) != 1:
                continue
            d = memo.get(q % m)
            if d is None:
                d = memo[q % m] = multiplicative_order(q, m)
            assert totient % d == 0, (q, m)
            assert pow(q, d, m) == 1
            # minimality against every proper divisor
            assert all(pow(q, e, m) != 1 for e in range(1, d))


# --- CRT ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "system,expected",
    [
        ([(0, 45), (3, 8)], (315, 360)),
        ([(0, 1)], (0, 1)),
        ([(0, 1125), (1, 8)], (5625, 9000)),
    ],
)
def test_crt_examples(system, expected):
    assert crt(system) == expected


def test_crt_satisfies_all_congruences():
    rng = random.Random(7)
    moduli_pool = [5, 7, 8, 9, 11, 13, 16, 27]
    for _ in range(200):
        chosen = []
        for m in rng.sample(moduli_pool, rng.randrange(1, 5)):
            if all(math.gcd(m, other) == 1 for _, other in chosen):
                chosen.append((rng.randrange(m), m))
        r, m = crt(chosen)
        assert 0 <= r < m
        for residue, modulus in chosen:
            assert r % modulus == residue


def test_crt_rejects_bad_systems():
    with pytest.raises(ValueError):
        crt([(0, 4), (1, 6)])  # moduli share a factor
    with pytest.raises(ValueError):
        crt([(5, 3)])  # residue out of range
