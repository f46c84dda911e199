"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Time limits are generous wall-clock ceilings; the exactness
requirements are all zero-failure.
"""

import time
from fractions import Fraction

from friendly.friend10 import (
    Candidate,
    Verdict,
    am_gm_sigma_bound,
    derive_residue_class,
    filter_chain,
    lower_bound,
    omega_lower_bound,
)
from friendly.arith import Factorization, primes_below, sigma_prime_power
from friendly.scan import scan
from friendly.verify import verify_lemma21, verify_mod8, verify_prop22, verify_thm31


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_sigma5_mod8_classifier():
    started = time.perf_counter()
    result = verify_prop22()
    elapsed = time.perf_counter() - started
    report(
        1,
        result.failures == 0 and result.checks == 10_000 and elapsed < 10,
        f"sigma(5^2a) mod 8 classifier: {result.checks} checks, "
        f"{result.failures} failures in {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_2_order_divisibility():
    started = time.perf_counter()
    result = verify_thm31()
    elapsed = time.perf_counter() - started
    pairs = len(primes_below(200)) * (len(primes_below(200)) - 1)
    report(
        2,
        result.failures == 0 and result.checks == pairs * 200 and elapsed < 120,
        f"order-based divisibility vs direct division: {result.checks} checks, "
        f"{result.failures} failures in {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_3_mod8_sum_skeleton():
    result = verify_mod8()
    report(
        3,
        result.failures == 0 and result.checks > 0,
        f"mod-8 sum congruences: {result.checks} hypothesis-true pairs, "
        f"{result.failures} failures",
    )


def test_criterion_4_residue_derivation():
    first = derive_residue_class(1)
    ok1 = (first.residue, first.modulus) == (5425, 6200)
    # independent oracle for a = 2: exhaustive CRT over one period, then
    # substitution through the defining product equation
    s0 = [x for x in range(9000) if x % 1125 == 0 and x % 8 == 1]
    s5 = sigma_prime_power(5, 4)
    oracle = (5 * s5 * s0[0] // 9, 5 * s5 * 9000 // 9) if len(s0) == 1 else None
    second = derive_residue_class(2)
    ok2 = oracle == (second.residue, second.modulus) == (2440625, 3905000)
    report(
        4,
        ok1 and ok2,
        f"derive(1) = ({first.residue}, {first.modulus}), "
        f"derive(2) = ({second.residue}, {second.modulus}) vs oracle {oracle}",
    )


def test_criterion_5_lower_bounds():
    ok_equal = omega_lower_bound(7) == 4100625 and Fraction(
        omega_lower_bound(7)
    ) == lower_bound((2, 1, 1, 1, 1, 1, 1))
    bad = [
        (p, a)
        for p in primes_below(1000)
        for a in range(1, 51)
        if not am_gm_sigma_bound(p, a)
    ]
    report(
        5,
        ok_equal and not bad,
        f"omega_lower_bound(7) = {omega_lower_bound(7)}, AM-GM strict for "
        f"{len(primes_below(1000)) * 50} (p, a) pairs, {len(bad)} violations",
    )


def test_criterion_6_index_algebra():
    result = verify_lemma21()
    report(
        6,
        result.failures == 0,
        f"index algebra suite: {result.checks} checks, {result.failures} failures",
    )


def test_criterion_7_desk_scale_scan(run_cli):
    started = time.perf_counter()
    one = run_cli("scan", "--bound", "10^7", "--index", "9/5", "--workers", "1")
    eight = run_cli("scan", "--bound", "10^7", "--index", "9/5", "--workers", "8")
    elapsed = time.perf_counter() - started
    ok_scan = (
        one.returncode == 0
        and eight.returncode == 0
        and "hits: [10]" in one.stdout
        and one.stdout == eight.stdout
        and elapsed < 300
    )
    six = run_cli("friends", "6", "--bound", "10000")
    thirty = run_cli("friends", "30", "--bound", "1000")
    ok_friends = (
        six.stdout == "friends of 6 up to 10000: [28, 496, 8128]\n"
        and thirty.stdout == "friends of 30 up to 1000: [140]\n"
    )
    report(
        7,
        ok_scan and ok_friends,
        f"scan to 10^7 hit [10] twice, byte-identical across 1 and 8 workers, "
        f"in {elapsed:.1f}s (limit 300s); friend rediscovery exact",
    )


def test_criterion_8_chain_order_and_resume(tmp_path):
    primes = (7, 11, 13, 17, 19, 23)

    def family(exponent):
        pairs = tuple((p, exponent) for p in primes)
        return Candidate(a=exponent, q_factorization=Factorization(pairs))

    ones = filter_chain(family(1))
    ok_ones = ones.rejected_by == "exponent_mod3"

    thirteens = filter_chain(family(13))
    verdicts = {r.rule: r.verdict for r in thirteens.results}
    ok_thirteens = (
        thirteens.rejected_by == "exponent_mod3"
        and verdicts["exponent_mod27"] is Verdict.NOT_APPLICABLE
    )

    path = tmp_path / "resume.checkpoint"
    partial = scan(
        2 ** 21, Fraction(9, 5), segment_size=1 << 18, checkpoint_path=path, max_segments=4
    )
    resumed = scan(2 ** 21, Fraction(9, 5), segment_size=1 << 18, checkpoint_path=path)
    ok_resume = (
        not partial.complete
        and resumed.complete
        and all(rec.lo >= partial.frontier for rec in resumed.new_records)
        and resumed.hits == (10,)
    )
    report(
        8,
        ok_ones and ok_thirteens and ok_resume,
        f"all-ones family: {ones.overall}; all-13 family: {thirteens.overall} "
        f"with mod-27 skipped; resume rescanned nothing below frontier {partial.frontier}",
    )
