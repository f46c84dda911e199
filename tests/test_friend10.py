"""The candidate filter chain and every rule behind it."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from friendly import cli, friend10
from friendly.abundancy import abundancy_index
from friendly.arith import Factorization, factorize, is_prime, sigma, sigma_prime_power
from friendly.friend10 import (
    TARGET_INDEX,
    Candidate,
    FilterReport,
    ResidueClass,
    RuleResult,
    Verdict,
    _geom_sum_mod,
    am_gm_sigma_bound,
    check_rule,
    derive_residue_class,
    divides_sigma_even_power,
    filter_chain,
    lower_bound,
    omega_lower_bound,
    sigma5_mod8,
    smallest_odd_f,
)


def candidate(a, q=1, exponents=None):
    """Candidate with Q built from the first primes >= 7 when exponents given."""
    if exponents is None:
        return Candidate(a=a, q_factorization=factorize(q))
    primes = (7, 11, 13, 17, 19, 23, 29, 31, 37)
    pairs = tuple((p, e) for p, e in zip(primes, exponents))
    return Candidate(a=a, q_factorization=Factorization(pairs))


def candidates_up_to(bound):
    """Every candidate 5^(2a) * Q^2 <= bound: a >= 1, odd Q coprime to 15."""
    a = 1
    while 25 ** a <= bound:
        for q in range(1, math.isqrt(bound // 25 ** a) + 1, 2):
            if q % 3 and q % 5:
                yield Candidate(a, factorize(q))
        a += 1


def test_candidates_up_to_counts_every_shape_once():
    assert sorted(c.value for c in candidates_up_to(1225)) == [25, 625, 1225]
    for bound, count in ((10 ** 5, 21), (3 * 10 ** 5, 37), (10 ** 6, 67), (10 ** 8, 667)):
        values = [c.value for c in candidates_up_to(bound)]
        assert len(values) == len(set(values)) == count
        assert max(values) <= bound


def passes(name, c):
    """Whether rule ``name`` passes c, as the chain would run it."""
    return check_rule(name, c).verdict is Verdict.PASS


def brute_order(q, m):
    d, x = 1, q % m
    while x != 1:
        x = x * q % m
        d += 1
    return d


# --- Candidate ----------------------------------------------------------------


def test_candidate_derived_fields():
    c = candidate(1, q=7 * 11)
    assert c.q == 77
    assert c.value == 25 * 77 ** 2
    assert c.primes == (5, 7, 11)
    assert c.half_exponents == (1, 1, 1)
    assert c.omega == 3
    assert c.label == "5^2 * 7^2 * 11^2"


def test_candidate_q_equal_one_is_representable():
    c = Candidate(a=2)
    assert c.value == 625 and c.omega == 1
    assert filter_chain(c).rejected_by == "structural"


def test_candidate_validation():
    with pytest.raises(ValueError):
        Candidate(a=0)
    with pytest.raises(ValueError):
        Candidate(a=1, q_factorization=factorize(3))  # Q must be coprime to 15
    with pytest.raises(ValueError):
        Candidate(a=1, q_factorization=factorize(2))  # Q must be odd


# --- sigma(5^2a) mod 8 ---------------------------------------------------------


@pytest.mark.parametrize("a,expected", [(1, 7), (2, 5), (3, 3), (4, 1)])
def test_sigma5_mod8_examples(a, expected):
    assert sigma5_mod8(a) == expected


def test_sigma5_mod8_matches_direct_computation():
    for a in range(1, 501):
        assert sigma5_mod8(a) == sigma_prime_power(5, 2 * a) % 8


def test_sigma5_mod8_rejects_zero():
    with pytest.raises(ValueError):
        sigma5_mod8(0)


def test_a_half_exponent_of_0_is_refused():
    for call in (lambda: divides_sigma_even_power(7, 11, 0), lambda: am_gm_sigma_bound(7, 0),
                 lambda: derive_residue_class(0)):
        with pytest.raises(ValueError, match="need a >= 1, got 0"):
            call()


# --- order-based divisibility ---------------------------------------------------


@pytest.mark.parametrize("p,q,expected", [(31, 5, 3), (19, 5, 9), (3, 7, 3)])
def test_smallest_odd_f_examples(p, q, expected):
    assert smallest_odd_f(p, q) == expected


def test_smallest_odd_f_absent_when_order_is_even():
    assert smallest_odd_f(5, 2) is None  # 2 has order 4 mod 5
    assert smallest_odd_f(7, 2) == 3


def test_smallest_odd_f_invariants():
    for p in (3, 5, 7, 11, 13, 19, 31):
        for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            if p == q:
                continue
            k = 0
            n = q - 1
            while n % p == 0:
                n //= p
                k += 1
            d = brute_order(q, p ** (k + 1))
            assert smallest_odd_f(p, q) == (d if d > 1 and d % 2 == 1 else None)


def test_smallest_odd_f_rejects_bad_pairs():
    with pytest.raises(ValueError):
        smallest_odd_f(5, 5)
    with pytest.raises(ValueError):
        smallest_odd_f(4, 7)


@pytest.mark.parametrize(
    "p,q,a,expected", [(31, 5, 1, True), (31, 5, 2, False), (19, 5, 4, True)]
)
def test_divides_sigma_examples(p, q, a, expected):
    assert divides_sigma_even_power(p, q, a) is expected


def test_divides_sigma_matches_direct_division():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for p in primes:
        for q in primes:
            if p == q:
                continue
            for a in range(1, 41):
                direct = sigma_prime_power(q, 2 * a) % p == 0
                assert divides_sigma_even_power(p, q, a) == direct, (p, q, a)


# --- the defining equation ------------------------------------------------------


def test_eq1_examples():
    assert not passes("eq1", candidate(1, q=7))
    assert not passes("eq1", Candidate(a=1))
    # direct numbers: 31 * 57 != 9 * 5 * 49
    assert sigma_prime_power(5, 2) * sigma_prime_power(7, 2) == 1767 != 2205


def test_eq1_equivalent_to_index_nine_fifths():
    for c in candidates_up_to(10 ** 6):
        assert passes("eq1", c) == (abundancy_index(c.value) == TARGET_INDEX)


# --- exact divisibility by nine --------------------------------------------------


def test_nine_exact_examples():
    # the all-ones pattern over 7, 31, 331 stacks three 3s onto sigma(F)
    assert not passes("nine_exact", candidate(1, q=7 * 31 * 331))
    assert not passes("nine_exact", candidate(1, q=7))  # sigma(F) = 1767, 9 does not divide
    assert not passes("nine_exact", Candidate(a=2, q_factorization=Factorization(((7, 2),))))
    assert passes("nine_exact", candidate(1, q=7 * 13))  # sigma(F) = 31*57*183


def test_nine_exact_matches_full_sigma():
    for c in candidates_up_to(10 ** 5):
        s = sigma(factorize(c.value))
        assert passes("nine_exact", c) == (s % 9 == 0 and s % 27 != 0), c.label


def test_nine_exact_handles_huge_exponents():
    # mod-27 reduction must not materialize sigma(5^(2a)) for astronomical a
    c = Candidate(a=10 ** 12 + 13, q_factorization=Factorization(((7, 10 ** 12),)))
    assert passes("nine_exact", c) in (True, False)


def test_geom_sum_mod_matches_direct_sum():
    # Includes p = 2 and the pairs where p divides the modulus (2 | 8,
    # 3 | 9 and 27, 2 and 5 | 1000).
    primes = [p for p in range(2, 60) if all(p % d for d in range(2, p))]
    for p in primes:
        total = 0
        for terms in range(81):
            for mod in (1, 8, 9, 27, 1000):
                assert _geom_sum_mod(p, terms, mod) == total % mod, (p, terms, mod)
            total += p ** terms


# --- exponent pattern filters -----------------------------------------------------


def test_exponent_mod3_examples():
    assert check_rule("exponent_mod3", candidate(1, exponents=(1,) * 6)).verdict is Verdict.REJECT
    assert check_rule("exponent_mod3", candidate(1, exponents=(4, 7, 13, 1, 1, 1))).verdict is Verdict.REJECT
    assert check_rule("exponent_mod3", candidate(2, exponents=(1,) * 6)).verdict is Verdict.PASS


def test_exponent_mod27_examples():
    assert check_rule("exponent_mod27", candidate(13, exponents=(13,) * 6)).verdict is Verdict.REJECT
    assert check_rule("exponent_mod27", candidate(13, exponents=(40, 67, 13, 13, 13, 13))).verdict is Verdict.REJECT
    assert check_rule("exponent_mod27", candidate(1, exponents=(13,) * 6)).verdict is Verdict.PASS


def test_mod27_never_rejects_what_mod3_passes():
    for exps in product((1, 2, 3, 13, 14, 40), repeat=3):
        c = candidate(exps[0], exponents=exps[1:])
        if check_rule("exponent_mod3", c).verdict is Verdict.PASS:
            assert check_rule("exponent_mod27", c).verdict is Verdict.PASS, exps


# --- mod-8 sum rule ----------------------------------------------------------------


def test_congruence_sum_examples():
    # sigma(17^2) = 307 ≡ 3 (mod 8): hypothesis 7 * 3 ≡ 5 holds, sum ≡ 2, a odd
    assert check_rule("mod8_sum", candidate(1, q=17)).verdict is Verdict.PASS
    # sigma(7^2) = 57 ≡ 1 (mod 8): 5 * 1 ≡ 5 holds, sum ≡ 6, a even
    assert check_rule("mod8_sum", candidate(2, q=7)).verdict is Verdict.PASS
    # 7 * 1 ≡ 7 (mod 8): hypothesis fails, rule abstains
    assert check_rule("mod8_sum", candidate(1, q=7)).verdict is Verdict.NOT_APPLICABLE


def test_congruence_sum_never_rejects_under_hypothesis():
    for c in candidates_up_to(3 * 10 ** 5):
        outcome = check_rule("mod8_sum", c)
        assert outcome.verdict is not Verdict.REJECT
        s5 = sigma_prime_power(5, 2 * c.a)
        sq = sigma(factorize(c.q ** 2))
        if s5 * sq % 8 == 5:
            assert outcome.verdict is Verdict.PASS
            assert (s5 + sq) % 8 == (6 if c.a % 2 == 0 else 2)
        else:
            assert outcome.verdict is Verdict.NOT_APPLICABLE


def test_mod8_sum_cannot_reject():
    # sigma(p^2) = 1 + p + p^2 ≡ 1, 3, 5, 7 (mod 8) for p = 7, 17, 11, 13, so
    # these Q = p give every odd sigma(Q^2) mod 8 against each a mod 4. Exactly
    # one of the four meets the hypothesis s5 * sq ≡ 5, and it passes.
    passing_q = {1: 17, 2: 7, 3: 13, 4: 11}
    for a in (1, 2, 3, 4):
        for q in (7, 17, 11, 13):
            sq = sigma_prime_power(q, 2) % 8
            want = Verdict.PASS if q == passing_q[a] else Verdict.NOT_APPLICABLE
            assert (sigma5_mod8(a) * sq % 8 == 5) == (want is Verdict.PASS)
            assert check_rule("mod8_sum", candidate(a, q=q)).verdict is want
    # A grid beyond candidates_up_to's reach: a = 1..8, Q one prime from 7 to
    # 397 with exponent 1 to 3, alone or times one of the next five such primes.
    primes = [p for p in range(7, 398) if is_prime(p)]
    seen = set()
    count = 0
    for a in range(1, 9):
        for i, p in enumerate(primes):
            for e in (1, 2, 3):
                for rest in [()] + [((r, 1),) for r in primes[i + 1 : i + 6]]:
                    verdict = check_rule("mod8_sum", Candidate(a, Factorization(((p, e),) + rest))).verdict
                    assert verdict is not Verdict.REJECT
                    seen.add((a % 4, verdict))
                    count += 1
    assert count == 10_440
    assert seen == {(r, v) for r in range(4) for v in (Verdict.PASS, Verdict.NOT_APPLICABLE)}


# --- bounds -------------------------------------------------------------------------


def test_lower_bound_examples():
    assert lower_bound((2, 1, 1, 1, 1, 1, 1)) == Fraction(4100625)
    assert lower_bound((1,)) == Fraction(25, 9)
    assert lower_bound((1,) * 7) == Fraction(1476225)


def test_lower_bound_validates():
    with pytest.raises(ValueError):
        lower_bound(())
    with pytest.raises(ValueError):
        lower_bound((0,))


def test_omega_lower_bound_examples():
    assert omega_lower_bound(7) == 4100625
    assert omega_lower_bound(3) == 625
    assert omega_lower_bound(8) == 36905625
    with pytest.raises(ValueError):
        omega_lower_bound(2)


def test_bounds_agree():
    for omega in range(3, 13):
        assert Fraction(omega_lower_bound(omega)) == lower_bound((2,) + (1,) * (omega - 1))


@pytest.mark.parametrize("p,a", [(5, 1), (7, 2), (3, 1)])
def test_am_gm_examples(p, a):
    assert am_gm_sigma_bound(p, a)


def test_am_gm_is_exactly_the_stated_inequality():
    assert sigma_prime_power(5, 2) == 31 > 15
    assert sigma_prime_power(7, 4) == 2801 > 245


# --- residue class derivation ---------------------------------------------------------


def test_derive_examples():
    assert derive_residue_class(1) == ResidueClass(residue=5425, modulus=6200)
    assert derive_residue_class(2) == ResidueClass(residue=2440625, modulus=3905000)


def test_derive_a2_against_exhaustive_crt_oracle():
    # brute CRT: the one x < 9000 with x ≡ 0 (mod 1125) and x ≡ 1 (mod 8)
    solutions = [x for x in range(9000) if x % 1125 == 0 and x % 8 == 1]
    assert solutions == [5625]
    s5 = sigma_prime_power(5, 4)
    residue = 5 * s5 * 5625 // 9
    modulus = 5 * s5 * 9000 // 9
    assert (residue, modulus) == (2440625, 3905000)
    assert derive_residue_class(2) == ResidueClass(residue=residue, modulus=modulus)


def test_derive_structure_properties():
    for a in range(1, 31):
        rc = derive_residue_class(a)
        s5 = sigma_prime_power(5, 2 * a)
        assert rc.modulus == 8 * s5 * 5 ** (2 * a)
        assert rc.residue % 5 ** (2 * a) == 0
        assert (rc.residue // 5 ** (2 * a)) % 8 == 1  # the Q^2 part is ≡ 1 (mod 8)
        assert math.gcd(s5, 45) == 1


# The residue_class detail of each candidate of test_chain_first_reject_is_the_named_rule,
# and of one whose F has about 60 million bits, as pinned from F % modulus.
_RESIDUE_DETAILS = [
    (1, ((7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1)), "reject", "F ≡ 3225, friends with a = 1 need ≡ 5425 (mod 6200)"),
    (1, ((7, 1),), "reject", "F ≡ 1225, friends with a = 1 need ≡ 5425 (mod 6200)"),
    (1, ((97, 1), (101, 1), (103, 1), (107, 1), (109, 1), (113, 1)), "reject", "F ≡ 625, friends with a = 1 need ≡ 5425 (mod 6200)"),
    (2, ((7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1)), "reject", "F ≡ 955625, friends with a = 2 need ≡ 2440625 (mod 3905000)"),
    (2, ((7, 1), (11, 1), (13, 1), (17, 1), (23, 1), (29, 1)), "reject", "F ≡ 3210625, friends with a = 2 need ≡ 2440625 (mod 3905000)"),
    (2, ((7, 1), (11, 1), (13, 1), (17, 1), (23, 1), (71, 1)), "pass", "F ≡ 2440625 (mod 3905000)"),
    (1, ((7, 10800002), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1)), "reject", "F ≡ 3025, friends with a = 1 need ≡ 5425 (mod 6200)"),
]


@pytest.mark.parametrize("a, pairs, verdict, detail", _RESIDUE_DETAILS)
def test_residue_class_never_builds_f(monkeypatch, a, pairs, verdict, detail):
    def no_value(self):
        raise AssertionError("F was built")

    monkeypatch.setattr(Candidate, "value", property(no_value))
    result = check_rule("residue_class", Candidate(a=a, q_factorization=Factorization(pairs)))
    assert (result.verdict.value, result.detail) == (verdict, detail)


def test_residue_class_matches_f_mod_the_modulus():
    for a, exponents in product(range(1, 5), product(range(3), repeat=4)):
        pairs = tuple((p, e) for p, e in zip((7, 11, 13, 17), exponents) if e)
        c = Candidate(a=a, q_factorization=Factorization(pairs))
        rc = derive_residue_class(a)
        f = c.value % rc.modulus
        want = (
            (Verdict.PASS, f"F ≡ {f} (mod {rc.modulus})")
            if f == rc.residue
            else (Verdict.REJECT, f"F ≡ {f}, friends with a = {a} need ≡ {rc.residue} (mod {rc.modulus})")
        )
        result = check_rule("residue_class", c)
        assert (result.verdict, result.detail) == want, c.label


def test_residue_class_validation():
    with pytest.raises(ValueError):
        ResidueClass(residue=5, modulus=5)
    with pytest.raises(ValueError):
        ResidueClass(residue=0, modulus=0)


# --- support filter ----------------------------------------------------------------


def test_prime_support_examples():
    assert check_rule("prime_support", Candidate(a=1)).verdict is Verdict.REJECT
    # The detail names prod p/(p-1): 5/4 over {5}, 5/4 * 7/6 = 35/24 over {5, 7}.
    tail = " <= 9/5; no exponents can reach 9/5"
    assert check_rule("prime_support", Candidate(a=1)).detail == "index ceiling 5/4" + tail
    assert check_rule("prime_support", candidate(1, q=7)).detail == "index ceiling 35/24" + tail
    seven_smallest = candidate(1, q=7 * 11 * 13 * 17 * 19 * 23)
    assert check_rule("prime_support", seven_smallest).verdict is Verdict.PASS
    assert Fraction(676039, 331776) > TARGET_INDEX  # the exact ceiling product
    big_support = candidate(1, q=97 * 101 * 103 * 107 * 109 * 113)
    assert check_rule("prime_support", big_support).verdict is Verdict.REJECT


def test_prime_support_rule_trusts_the_candidates_primes(monkeypatch):
    candidates = [
        candidate(1, q=7 * 11 * 13 * 17 * 19 * 23),
        candidate(1, q=97 * 101 * 103 * 107 * 109 * 113),
        candidate(2, q=7 * 11 * 13 * 17 * 23 * 71),
        candidate(13, exponents=(13,) * 6),
    ]
    calls = []
    monkeypatch.setattr(friend10, "is_prime", lambda n, **kw: calls.append(n) or is_prime(n, **kw))
    rule = [filter_chain(c).results[1] for c in candidates]
    assert calls == []
    assert rule == [check_rule("prime_support", c) for c in candidates]
    assert [r.verdict for r in rule] == [Verdict.PASS, Verdict.REJECT, Verdict.PASS, Verdict.PASS]
    # The ceiling each detail names is prod p/(p-1) over the candidate's primes.
    for r, c in zip(rule, candidates):
        ceiling = Fraction(math.prod(c.primes), math.prod(p - 1 for p in c.primes))
        assert f"index ceiling {ceiling} " in r.detail


# --- structural rule -----------------------------------------------------------------


def test_structural_examples():
    # A Candidate is an odd square with 5 | F and 3 not dividing F by
    # construction (test_candidate_validation), so only omega can fail.
    assert check_rule("structural", Candidate(a=1)).verdict is Verdict.REJECT
    assert "omega = 1 < 7" in check_rule("structural", Candidate(a=1)).detail
    assert check_rule("structural", candidate(1, q=7 * 11 * 13 * 17 * 19)).verdict is Verdict.REJECT
    ok = check_rule("structural", candidate(1, q=7 * 11 * 13 * 17 * 19 * 23))
    assert ok.verdict is Verdict.PASS
    assert ok.detail == "odd square by construction, omega = 7"


# --- one rule by name -----------------------------------------------------------------


def test_check_rule_is_the_chains_step():
    for c in candidates_up_to(10 ** 6):
        for r in filter_chain(c).results:
            if r.detail != "skipped after earlier rejection":
                assert check_rule(r.rule, c) == r, (c.label, r.rule)


def test_check_rule_refuses_an_unknown_name():
    with pytest.raises(KeyError, match="mod9"):
        check_rule("mod9", Candidate(a=1))


# --- the chain ------------------------------------------------------------------------


CHAIN = (
    "structural",
    "prime_support",
    "exponent_mod3",
    "exponent_mod27",
    "mod8_sum",
    "nine_exact",
    "residue_class",
    "eq1",
)


def test_chain_examples():
    report = filter_chain(candidate(1, q=7 * 11 * 13 * 17 * 19 * 23))
    assert report.overall == "RejectedBy(exponent_mod3)"
    assert filter_chain(candidate(1, q=7)).overall == "RejectedBy(structural)"


def test_chain_short_circuits_but_records_everything():
    report = filter_chain(candidate(1, q=7))
    assert [r.rule for r in report.results] == list(CHAIN)
    assert report.results[0].verdict is Verdict.REJECT
    assert all(r.verdict is Verdict.NOT_APPLICABLE for r in report.results[1:])


def test_chain_first_reject_is_the_named_rule():
    # each synthetic candidate trips exactly one rule first
    expectations = [
        (candidate(1, q=7 * 11 * 13 * 17 * 19 * 23), "exponent_mod3"),
        (candidate(1, q=7), "structural"),
        (candidate(1, q=97 * 101 * 103 * 107 * 109 * 113), "prime_support"),
        (candidate(2, q=7 * 11 * 13 * 17 * 19 * 23), "nine_exact"),
        (candidate(2, q=7 * 11 * 13 * 17 * 23 * 29), "residue_class"),
        (candidate(2, q=7 * 11 * 13 * 17 * 23 * 71), "eq1"),
    ]
    for cand, rule in expectations:
        report = filter_chain(cand)
        assert report.rejected_by == rule, (cand.label, report.overall)
        seen_reject = False
        for r in report.results:
            if seen_reject:
                assert r.verdict is Verdict.NOT_APPLICABLE
            elif r.verdict is Verdict.REJECT:
                assert r.rule == rule
                seen_reject = True


def fresh_chain(c):
    """The chain replayed rule by rule, with a new result for each skipped rule."""
    results, rejected = [], False
    for name in CHAIN:
        if rejected:
            results.append(RuleResult(name, Verdict.NOT_APPLICABLE, "skipped after earlier rejection"))
            continue
        results.append(check_rule(name, c))
        rejected = results[-1].verdict is Verdict.REJECT
    return FilterReport(candidate=c.label, results=tuple(results))


def test_shared_skipped_results_equal_fresh_ones():
    rng = random.Random(25)
    pool = [p for p in range(7, 114) if is_prime(p)]
    seen = set()
    for _ in range(3000):
        primes = sorted(rng.sample(pool, rng.randint(5, 8)))
        pairs = tuple((p, rng.choice((1, 1, 1, 2, 13))) for p in primes)
        c = Candidate(rng.randint(1, 4), Factorization(pairs))
        report = filter_chain(c)
        assert report == fresh_chain(c), c.label
        seen.add(report.rejected_by)
    # exponent_mod27 and mod8_sum never reject first (tests above).
    assert seen == set(CHAIN) - {"exponent_mod27", "mod8_sum"}


def perfbench_like_sample(count):
    """Candidates drawn as the benchmark draws them: a from 1 to 12, 6 to 10
    of the 16 primes >= 7, exponents from 1 to 6."""
    rng = random.Random(7)
    pool = [p for p in range(7, 71) if is_prime(p)]
    assert len(pool) == 16
    for _ in range(count):
        primes = sorted(rng.sample(pool, rng.randint(6, 10)))
        pairs = tuple((p, rng.randint(1, 6)) for p in primes)
        yield Candidate(rng.randint(1, 12), Factorization(pairs))


def reference_rule(name, c):
    """prime_support and the exponent rules as a Fraction and the
    half-exponents give them, or None for another rule."""
    if name == "prime_support":
        bound = Fraction(math.prod(c.primes), math.prod(p - 1 for p in c.primes))
        if bound <= TARGET_INDEX:
            return Verdict.REJECT, f"index ceiling {bound} <= 9/5; no exponents can reach 9/5"
        return Verdict.PASS, f"index ceiling {bound} exceeds 9/5"
    if name in ("exponent_mod3", "exponent_mod27"):
        residue, modulus = (1, 3) if name == "exponent_mod3" else (13, 27)
        for i, e in enumerate(c.half_exponents, start=1):
            if e % modulus != residue:
                return Verdict.PASS, f"a_{i} = {e} is not {residue} mod {modulus}"
        return Verdict.REJECT, f"every half-exponent is {residue} mod {modulus}"
    return None


def test_chain_matches_reference_rules_on_a_perfbench_like_sample():
    reached = set()
    for c in perfbench_like_sample(2000):
        for r in filter_chain(c).results:
            if r.detail == "skipped after earlier rejection":
                break
            assert check_rule(r.rule, c) == r, (c.label, r.rule)
            want = reference_rule(r.rule, c)
            assert want is None or (r.verdict, r.detail) == want, (c.label, r.rule)
            reached.add((r.rule, r.verdict))
    assert {("prime_support", Verdict.PASS), ("prime_support", Verdict.REJECT)} <= reached
    assert {("exponent_mod3", Verdict.PASS), ("residue_class", Verdict.REJECT)} <= reached


def test_cached_residue_classes_equal_fresh_ones():
    cached = [derive_residue_class(a) for a in range(1, 13)]
    derive_residue_class.cache_clear()
    assert [derive_residue_class(a) for a in range(1, 13)] == cached


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_check_output_is_the_same_with_fresh_skipped_results(monkeypatch, capsys, json_flag):
    monkeypatch.delenv("FRIENDLY_JSON", raising=False)
    monkeypatch.setattr(cli.time, "perf_counter", lambda: 0.0)  # elapsed_ms is 0 on both sides
    for a, q_factors in [
        ("1", "7"),
        ("1", "97,101,103,107,109,113"),
        ("1", "7,11,13,17,19,23"),
        ("2", "7,11,13,17,19,23"),
        ("2", "7,11,13,17,23,29"),
        ("2", "7,11,13,17,23,71"),
    ]:
        args = ["check", "--a", a, "--q-factors", q_factors, *json_flag]
        assert cli.main(args) == 0
        shared = capsys.readouterr().out
        with monkeypatch.context() as m:
            m.setattr(cli, "filter_chain", fresh_chain)
            assert cli.main(args) == 0
        assert capsys.readouterr().out == shared, args


def test_all_thirteen_family_rejected_by_mod3_first():
    report = filter_chain(candidate(13, exponents=(13,) * 6))
    assert report.rejected_by == "exponent_mod3"
    by_rule = {r.rule: r.verdict for r in report.results}
    assert by_rule["exponent_mod27"] is Verdict.NOT_APPLICABLE


def test_no_candidate_survives_at_desk_scale():
    for c in candidates_up_to(10 ** 8):
        report = filter_chain(c)
        assert not report.survives, c.label


def test_full_depth_candidate_reaches_eq1():
    report = filter_chain(candidate(2, q=7 * 11 * 13 * 17 * 23 * 71))
    verdicts = {r.rule: r.verdict for r in report.results}
    assert verdicts["eq1"] is Verdict.REJECT
    for rule in ("structural", "prime_support", "exponent_mod3", "exponent_mod27",
                 "mod8_sum", "nine_exact", "residue_class"):
        assert verdicts[rule] is Verdict.PASS, rule


def test_filter_report_invariant():
    report = FilterReport(
        candidate="x",
        results=(
            RuleResult("a", Verdict.PASS, ""),
            RuleResult("b", Verdict.REJECT, ""),
            RuleResult("c", Verdict.REJECT, ""),
        ),
    )
    assert report.rejected_by == "b"
    assert not report.survives
    assert FilterReport(candidate="x", results=(RuleResult("a", Verdict.PASS, ""),)).survives
