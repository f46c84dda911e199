"""The verify suites: fixed check counts, and failures reported, not hidden."""

import math
from fractions import Fraction
from itertools import combinations, product

import pytest

from friendly import verify
from friendly.abundancy import abundancy_index
from friendly.arith import factorize, sigma
from friendly.verify import run_suites


@pytest.mark.parametrize(
    "name,checks",
    [
        ("lemma21", 1_894_457),
        ("prop22", 10_000),
        ("thm31", 414_000),
        ("mod8", 66_650),
        ("bounds", 8_410),
        ("residue", 1_170),
    ],
)
def test_each_suite_makes_its_fixed_number_of_checks(name, checks):
    [result] = run_suites(name)
    assert (result.checks, result.failures) == (checks, 0)


def test_an_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_suites("nope")


def naive_prime_replacement(sigma_prime_power):
    """Every ordered pair of supports of up to 3 primes below 50, kept when
    one dominates the other, compared by cross-multiplication: the check
    count and every failure note, in order."""
    primes = [p for p in range(2, 50) if all(p % d for d in range(2, p))]
    checks, notes = 0, []
    for length in range(1, 4):
        tuples = list(combinations(primes, length))
        exps = list(product(range(1, 4), repeat=length))
        index = {
            (tp, ex): (
                math.prod(sigma_prime_power(p, e) for p, e in zip(tp, ex)),
                math.prod(p ** e for p, e in zip(tp, ex)),
            )
            for tp in tuples
            for ex in exps
        }
        for small in tuples:
            for large in tuples:
                if not all(a <= b for a, b in zip(small, large)):
                    continue
                for ex in exps:
                    checks += 1
                    (n1, d1), (n2, d2) = index[small, ex], index[large, ex]
                    if n1 * d2 < n2 * d1:
                        notes.append(f"I({small}^{ex}) < I({large}^{ex})")
    return checks, notes


def test_prime_replacement_reports_an_injected_fault_as_a_naive_loop_does(monkeypatch):
    real = verify.sigma_prime_power

    def faulty(p, e):
        return real(p, e) + (1000 if (p, e) == (47, 1) else 0)

    every_note = []
    kept_fail = verify.SuiteResult.fail

    def fail(self, note):
        every_note.append(note)
        kept_fail(self, note)

    monkeypatch.setattr(verify, "sigma_prime_power", faulty)
    monkeypatch.setattr(verify.SuiteResult, "fail", fail)
    tally = verify.SuiteResult("lemma21")
    verify._lemma21_prime_replacement(tally)
    checks, notes = naive_prime_replacement(faulty)
    assert (checks, len(notes)) == (1_758_060, 174_734)
    assert (tally.checks, tally.failures, list(tally.notes)) == (checks, len(notes), notes[:8])
    # The whole order, not only the first 8 notes, which all fall at length 1.
    assert every_note == notes


def test_prop22_reports_an_injected_fault(monkeypatch):
    real = verify.sigma5_mod8
    monkeypatch.setattr(verify, "sigma5_mod8", lambda a: 5 if a == 9999 else real(a))
    result = verify.verify_prop22()
    assert (result.checks, result.failures, result.notes) == (
        10_000,
        1,
        ("a=9999: classifier 5 != direct 3",),
    )


def test_thm31_reports_an_injected_fault(monkeypatch):
    real = verify.divides_sigma_even_power

    def flipped(p, q, a):
        return real(p, q, a) != ((p, q, a) == (7, 2, 1))

    monkeypatch.setattr(verify, "divides_sigma_even_power", flipped)
    result = verify.verify_thm31()
    assert (result.checks, result.failures, result.notes) == (
        414_000,
        1,
        ("p=7 q=2 a=1: predicted False, direct True",),
    )


def test_lemma21_table_matches_factorize_and_the_library_index():
    sigmas, phis = verify._lemma21_table(10 ** 5)
    assert len(sigmas) == len(phis) == 10 ** 5 + 1
    for n in range(1, 10 ** 5 + 1):
        f = factorize(n)
        assert sigmas[n] == sigma(f), n
        assert phis[n] == math.prod(p ** (e - 1) * (p - 1) for p, e in f), n
        assert abundancy_index(n) == Fraction(sigmas[n], n), n


def lemma21_table_with(n, value):
    """The lemma21 table with sigma(n) replaced by value."""
    sigmas, phis = verify._lemma21_table(10 ** 5)
    sigmas[n] = value
    return sigmas, phis


def test_weak_multiplicativity_reports_an_injected_fault_as_a_naive_loop_does():
    sigmas, _ = lemma21_table_with(77, 96 + 1)  # sigma(77) = 1 + 7 + 11 + 77
    tally = verify.SuiteResult("lemma21")
    verify._lemma21_weak_multiplicativity(tally, sigmas)

    def faulty(k):
        return abundancy_index(k) + (Fraction(1, 77) if k == 77 else 0)

    checks, failures, notes = 0, 0, []
    for m in range(1, 301):
        for n in range(m, 301):
            if math.gcd(m, n) == 1:
                checks += 1
                if faulty(m * n) != faulty(m) * faulty(n):
                    failures += 1
                    if len(notes) < 8:
                        notes.append(f"I({m}*{n}) != I({m})*I({n})")
    assert (checks, failures, notes[0]) == (27_398, 234, "I(2*77) != I(2)*I(77)")
    assert (tally.checks, tally.failures, list(tally.notes)) == (checks, failures, notes)


def test_monotone_reports_an_injected_fault_as_a_naive_loop_does():
    # sigma(20) = 42 becomes 36, so I(20) = 36/20 = I(10) exactly.
    sigmas, _ = lemma21_table_with(20, 36)
    tally = verify.SuiteResult("lemma21")
    verify._lemma21_monotone(tally, sigmas)

    def faulty(k):
        return Fraction(36, 20) if k == 20 else abundancy_index(k)

    checks, failures, notes = 0, 0, []
    for n in range(1, 1001):
        for alpha in range(2, 11):
            checks += 1
            if not faulty(alpha * n) > faulty(n):
                failures += 1
                if len(notes) < 8:
                    notes.append(f"I({alpha}*{n}) is not above I({n})")
    assert (checks, failures, notes) == (9_000, 1, ["I(2*10) is not above I(10)"])
    assert (tally.checks, tally.failures, list(tally.notes)) == (checks, failures, notes)


def test_strict_bound_reports_an_injected_fault_as_a_naive_loop_does():
    # sigma(6) = 12 becomes 18 = 6 * (2/1) * (3/2), the ceiling itself.
    tally = verify.SuiteResult("lemma21")
    verify._lemma21_strict_bound(tally, *lemma21_table_with(6, 18))
    # Divisor sums and support products by sieving, with no factorization.
    limit = 10 ** 5
    sigmas, num, den = [0] * (limit + 1), [1] * (limit + 1), [1] * (limit + 1)
    for d in range(1, limit + 1):
        for k in range(d, limit + 1, d):
            sigmas[k] += d
        if d > 1 and num[d] == 1:  # d is prime
            for k in range(d, limit + 1, d):
                num[k] *= d
                den[k] *= d - 1
    checks, failures, notes = 0, 0, []
    for n in range(2, limit + 1):
        checks += 1
        if (sigmas[n] + (6 if n == 6 else 0)) * den[n] >= n * num[n]:
            failures += 1
            if len(notes) < 8:
                notes.append(f"I({n}) does not sit strictly below its support ceiling")
    assert (checks, failures) == (99_999, 1)
    assert (tally.checks, tally.failures, list(tally.notes)) == (checks, failures, notes)
    # The suite reads the ceiling as n/phi(n): the sieved prod p/(p - 1)
    # exactly, so both forms give every n the same verdict.
    _, phis = verify._lemma21_table(limit)
    for n in range(1, limit + 1):
        assert phis[n] * num[n] == n * den[n], n
