"""The verify suites: fixed check counts, and failures reported, not hidden."""

import math
from itertools import combinations, product

import pytest

from friendly import verify
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
    one dominates the other, compared by cross-multiplication."""
    primes = [p for p in range(2, 50) if all(p % d for d in range(2, p))]
    checks, failures, notes = 0, 0, []
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
                        failures += 1
                        if len(notes) < 8:
                            notes.append(f"I({small}^{ex}) < I({large}^{ex})")
    return checks, failures, notes


def test_prime_replacement_reports_an_injected_fault_as_a_naive_loop_does(monkeypatch):
    real = verify.sigma_prime_power

    def faulty(p, e):
        return real(p, e) + (1000 if (p, e) == (47, 1) else 0)

    monkeypatch.setattr(verify, "sigma_prime_power", faulty)
    tally = verify.SuiteResult("lemma21")
    verify._lemma21_prime_replacement(tally)
    checks, failures, notes = naive_prime_replacement(faulty)
    assert (checks, failures) == (1_758_060, 174_734)
    assert (tally.checks, tally.failures, list(tally.notes)) == (checks, failures, notes)
