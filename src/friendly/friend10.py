"""Necessary-condition filters on structured candidates F = 5^(2a) * Q^2.

Any integer sharing 10's abundancy index 9/5 must be an odd square of the
form 5^(2a) * Q^2 with Q odd and coprime to 15, at least seven distinct
prime factors, and 5 as its least prime. The bound of seven distinct primes
is taken without a source in this repository; only the ``structural`` rule
uses it. Each necessary condition is one rule in an ordered table:
`check_rule` runs any one of them by name, and `filter_chain` runs them all
in that fixed cheapest-first order and reports which rule, if any, kills a
candidate. Every check is exact integer or rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Optional

from .arith import (
    Factorization,
    crt,
    factorize,  # not called here; perfbench/tracer.py wraps friendly.friend10.factorize
    is_prime,
    multiplicative_order,
    p_adic_valuation,
    sigma_prime_power,
)

__all__ = [
    "TARGET_INDEX",
    "Candidate",
    "FilterReport",
    "ResidueClass",
    "RuleResult",
    "Verdict",
    "am_gm_sigma_bound",
    "check_rule",
    "derive_residue_class",
    "divides_sigma_even_power",
    "filter_chain",
    "lower_bound",
    "omega_lower_bound",
    "sigma5_mod8",
    "smallest_odd_f",
]

TARGET_INDEX = Fraction(9, 5)


class Verdict(Enum):
    PASS = "pass"
    REJECT = "reject"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class RuleResult:
    rule: str
    verdict: Verdict
    detail: str


@dataclass(frozen=True)
class FilterReport:
    """Ordered per-rule verdicts for one candidate."""

    candidate: str
    results: tuple[RuleResult, ...]

    @property
    def rejected_by(self) -> Optional[str]:
        for r in self.results:
            if r.verdict is Verdict.REJECT:
                return r.rule
        return None

    @property
    def survives(self) -> bool:
        return self.rejected_by is None

    @property
    def overall(self) -> str:
        rule = self.rejected_by
        return "Survives" if rule is None else f"RejectedBy({rule})"


@dataclass(frozen=True)
class ResidueClass:
    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(f"residue {self.residue} out of range for modulus {self.modulus}")


@dataclass(frozen=True)
class Candidate:
    """A number of the only shape a friend of 10 can take: 5^(2a) * Q^2.

    ``a`` is the half-exponent of 5 and ``q_factorization`` factors Q, which
    must be odd and coprime to 15 (every prime >= 7). Q = 1 is representable
    as the empty factorization; it fails the omega check downstream rather
    than being special-cased here.
    """

    a: int
    q_factorization: Factorization = Factorization(())

    def __post_init__(self):
        if self.a < 1:
            raise ValueError(f"need a >= 1, got {self.a}")
        for p, _ in self.q_factorization:
            if p < 7:
                raise ValueError(f"Q must be odd and coprime to 15; prime {p} is not")

    @property
    def q(self) -> int:
        return self.q_factorization.value

    @property
    def value(self) -> int:
        """F itself."""
        return 5 ** (2 * self.a) * self.q ** 2

    @property
    def primes(self) -> tuple[int, ...]:
        return (5,) + self.q_factorization.primes

    @property
    def half_exponents(self) -> tuple[int, ...]:
        """The a_i with F = prod p_i^(2 a_i); the first entry is a."""
        return (self.a,) + self.q_factorization.exponents

    @property
    def omega(self) -> int:
        return 1 + len(self.q_factorization)

    @property
    def label(self) -> str:
        parts = [f"5^{2 * self.a}"]
        parts += [f"{p}^{2 * e}" for p, e in self.q_factorization]
        return " * ".join(parts)


def sigma5_mod8(a: int) -> int:
    """sigma(5^(2a)) mod 8; cycles through 1, 7, 5, 3 as a mod 4 = 0, 1, 2, 3.

    The cycle comes from 5^8 ≡ 1 (mod 32), which makes the residue depend
    on a mod 4 only.
    """
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    return (1, 7, 5, 3)[a % 4]


@lru_cache(maxsize=None)
def smallest_odd_f(p: int, q: int) -> Optional[int]:
    """Smallest odd f > 1 with q^f ≡ 1 (mod p^k), or None when none exists.

    k is fixed by p^(k-1) exactly dividing q - 1. The powers of q hitting 1
    mod p^k are exactly the multiples of the multiplicative order d, so an
    odd f exists iff d itself is odd; d = 1 cannot happen by choice of k,
    and an even d has no odd multiples at all. An odd f is the only case in
    which p can divide sigma(q^(2a)).
    """
    if p == q:
        raise ValueError("p and q must be distinct primes")
    if not (is_prime(p) and is_prime(q)):
        raise ValueError(f"{p} and {q} must both be prime")
    k = p_adic_valuation(p, q - 1) + 1
    d = multiplicative_order(q, p ** k)
    return d if d > 1 and d % 2 == 1 else None


def divides_sigma_even_power(p: int, q: int, a: int) -> bool:
    """Whether p divides sigma(q^(2a)), decided purely from order data.

    True exactly when the odd order f exists and divides 2a + 1; agrees
    with direct divisibility of the full divisor sum (the verification
    suites check this exhaustively).
    """
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    f = smallest_odd_f(p, q)
    return f is not None and (2 * a + 1) % f == 0


def _geom_sum_mod(p: int, terms: int, mod: int) -> int:
    """(1 + p + ... + p^(terms-1)) mod ``mod`` for prime p, without big powers:
    p^terms ≡ 1 (mod p - 1) still holds after reducing mod mod * (p - 1)."""
    return (pow(p, terms, mod * (p - 1)) - 1) // (p - 1) % mod


def _sigma_q_squared_mod(c: Candidate, mod: int) -> int:
    out = 1
    for p, e in c.q_factorization:
        out = out * _geom_sum_mod(p, 2 * e + 1, mod) % mod
    return out


def lower_bound(exponents: Iterable[int]) -> Fraction:
    """(25/81) * prod (2 a_i + 1)^2: a strict floor for any friend of 10
    carrying these half-exponents (via AM-GM on each divisor sum)."""
    exps = tuple(exponents)
    if not exps:
        raise ValueError("exponent list must be non-empty")
    prod = 1
    for e in exps:
        if e < 1:
            raise ValueError(f"exponents must be >= 1, got {e}")
        prod *= (2 * e + 1) ** 2
    return Fraction(25 * prod, 81)


def omega_lower_bound(omega: int) -> int:
    """625 * 9^(omega - 3), the exponent-free floor for omega >= 3."""
    if omega < 3:
        raise ValueError(f"bound only holds for omega >= 3, got {omega}")
    return 625 * 9 ** (omega - 3)


def am_gm_sigma_bound(p: int, a: int) -> bool:
    """Exact truth of sigma(p^(2a)) > (2a + 1) * p^a (always true; exposed
    as a checkable predicate rather than assumed)."""
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    return sigma_prime_power(p, 2 * a) > (2 * a + 1) * p ** a


@lru_cache(maxsize=None)
def derive_residue_class(a: int) -> ResidueClass:
    """The residue class every friend of 10 with this a must land in.

    Writing s5 = sigma(5^(2a)): integrality of Q^2 = s5 * sigma(Q^2) /
    (9 * 5^(2a-1)) forces sigma(Q^2) ≡ 0 mod 9 * 5^(2a-1) (s5 is coprime to
    45), the mod-8 sum congruences force sigma(Q^2) mod 8, CRT merges both
    into one class mod 72 * 5^(2a-1), and substituting back through the
    defining product equation yields F ≡ residue (mod 8 * s5 * 5^(2a)).
    For a = 1 this gives F ≡ 5425 (mod 6200).
    """
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    # s5 ≡ 1 (mod 5), and ≡ 1 (mod 3) as its 2a + 1 terms alternate ±1: coprime to 45.
    s5 = sigma_prime_power(5, 2 * a)
    # Odd residues are self-inverse mod 8, so the forced sigma(Q^2) residue
    # is 5 * sigma5_mod8(a).
    forced8 = 5 * sigma5_mod8(a) % 8
    s0, _ = crt([(0, 9 * 5 ** (2 * a - 1)), (forced8, 8)])
    residue = 5 * s5 * s0 // 9
    modulus = 8 * s5 * 5 ** (2 * a)
    return ResidueClass(residue=residue, modulus=modulus)


# --- the rules ------------------------------------------------------------------
# Each rule maps a candidate to its verdict and a one-line detail; its name is
# its key in _RULES.


def _structural(c: Candidate) -> tuple[Verdict, str]:
    # The candidate shape already guarantees odd square, 5 | F, 3 does not
    # divide F; only the prime count can fail.
    if c.omega < 7:
        return Verdict.REJECT, f"omega = {c.omega} < 7"
    return Verdict.PASS, f"odd square by construction, omega = {c.omega}"


def _prime_support(c: Candidate) -> tuple[Verdict, str]:
    """Reject supports whose index ceiling prod p/(p-1) cannot reach 9/5."""
    # The candidate's Factorization already validated its primes, and 5 is
    # always among them.
    num, den = 5, 4
    for p, _ in c.q_factorization.pairs:
        num *= p
        den *= p - 1
    # num is odd and 4 divides den, so the reduced ceiling is never whole.
    g = math.gcd(num, den)
    bound = f"{num // g}/{den // g}"
    if num * TARGET_INDEX.denominator <= den * TARGET_INDEX.numerator:
        return Verdict.REJECT, f"index ceiling {bound} <= 9/5; no exponents can reach 9/5"
    return Verdict.PASS, f"index ceiling {bound} exceeds 9/5"


def _exponent_pattern(c: Candidate, residue: int, modulus: int) -> tuple[Verdict, str]:
    """Reject when every half-exponent a_i ≡ residue (mod modulus).

    Bound to 1 mod 3: an all-ones-mod-3 pattern forces 31 into F, then 331,
    then 7, stacking three factors of 3 onto sigma(F) and breaking the
    exact-9 requirement, so no friend of 10 can look like that. Bound to
    13 mod 27, it is implied by the mod-3 rule (13 ≡ 1 mod 3) but kept as an
    independent cross-check of the coarser filter.
    """
    # a_1 is a; a_2, a_3, ... are Q's exponents.
    if c.a % modulus != residue:
        return Verdict.PASS, f"a_1 = {c.a} is not {residue} mod {modulus}"
    for i, (_, e) in enumerate(c.q_factorization.pairs, start=2):
        if e % modulus != residue:
            return Verdict.PASS, f"a_{i} = {e} is not {residue} mod {modulus}"
    return Verdict.REJECT, f"every half-exponent is {residue} mod {modulus}"


def _mod8_sum(c: Candidate) -> tuple[Verdict, str]:
    """Mod-8 coupling of sigma(5^(2a)) and sigma(Q^2).

    Only meaningful when the product already matches 9 * 5^(2a-1) * Q^2 mod 8,
    i.e. is ≡ 5 (Q^2 being odd); when that shadow of the defining equation
    fails the hypothesis is void and the rule abstains. Under the hypothesis
    the sum must be 6 mod 8 for even a and 2 mod 8 for odd a.

    So the rule can never reject: s5 is odd, hence self-inverse mod 8, and
    the hypothesis gives sq ≡ 5 * s5, so the sum is ≡ 6 * s5, which is 6
    for s5 in {1, 5} (a even) and 2 for s5 in {7, 3} (a odd). It stays as
    the paper's theorem and for the ``check`` output.
    """
    s5 = sigma5_mod8(c.a)
    sq = _sigma_q_squared_mod(c, 8)
    if s5 * sq % 8 != 5:
        return Verdict.NOT_APPLICABLE, f"product {s5} * {sq} ≡ {s5 * sq % 8} (mod 8); hypothesis ≡ 5 fails"
    total = (s5 + sq) % 8
    parity, want = ("even", 6) if c.a % 2 == 0 else ("odd", 2)
    if total == want:
        return Verdict.PASS, f"sum ≡ {total} (mod 8) matches a {parity}"
    return Verdict.REJECT, f"sum ≡ {total} (mod 8), expected {want} for a {parity}"


def _nine_exact(c: Candidate) -> tuple[Verdict, str]:
    """Pass iff 9 divides sigma(F) and 27 does not.

    sigma(F) is reduced mod 27 straight from the candidate's factorization;
    F itself is never factored (it may be far beyond any factoring budget
    even when its structure is known).
    """
    m = _geom_sum_mod(5, 2 * c.a + 1, 27) * _sigma_q_squared_mod(c, 27) % 27
    if m % 9 == 0 and m != 0:
        return Verdict.PASS, f"sigma(F) ≡ {m} (mod 27)"
    return Verdict.REJECT, f"sigma(F) ≡ {m} (mod 27): 9 must divide it exactly once"


def _residue_class(c: Candidate) -> tuple[Verdict, str]:
    """F mod the class's modulus, reduced prime by prime: F itself is never
    built (a large exponent makes it far longer than the modulus)."""
    rc = derive_residue_class(c.a)
    f = pow(5, 2 * c.a, rc.modulus)
    for p, e in c.q_factorization:
        f = f * pow(p, 2 * e, rc.modulus) % rc.modulus
    if f == rc.residue:
        return Verdict.PASS, f"F ≡ {rc.residue} (mod {rc.modulus})"
    return Verdict.REJECT, f"F ≡ {f}, friends with a = {c.a} need ≡ {rc.residue} (mod {rc.modulus})"


def _eq1(c: Candidate) -> tuple[Verdict, str]:
    """Exact test of sigma(5^(2a)) * sigma(Q^2) == 9 * 5^(2a-1) * Q^2.

    Holding is equivalent to F having abundancy index 9/5, i.e. to F being
    an actual friend of 10.
    """
    lhs = sigma_prime_power(5, 2 * c.a)
    for p, e in c.q_factorization:
        lhs *= sigma_prime_power(p, 2 * e)
    if lhs == 9 * 5 ** (2 * c.a - 1) * c.q ** 2:
        return Verdict.PASS, "sigma(5^2a) * sigma(Q^2) = 9 * 5^(2a-1) * Q^2"
    return Verdict.REJECT, "index of F is not exactly 9/5"


# The chain, cheapest first.
_RULES: dict[str, Callable[[Candidate], tuple[Verdict, str]]] = {
    "structural": _structural,
    "prime_support": _prime_support,
    "exponent_mod3": partial(_exponent_pattern, residue=1, modulus=3),
    "exponent_mod27": partial(_exponent_pattern, residue=13, modulus=27),
    "mod8_sum": _mod8_sum,
    "nine_exact": _nine_exact,
    "residue_class": _residue_class,
    "eq1": _eq1,
}


def check_rule(name: str, c: Candidate) -> RuleResult:
    """Run the chain's rule ``name`` on ``c``, as `filter_chain` runs it;
    KeyError for a name that is not in the chain."""
    verdict, detail = _RULES[name](c)
    return RuleResult(name, verdict, detail)


# A rule the chain never reached reports one shared, immutable result.
_SKIPPED = {
    name: RuleResult(name, Verdict.NOT_APPLICABLE, "skipped after earlier rejection")
    for name in _RULES
}


def filter_chain(c: Candidate) -> FilterReport:
    """Run every rule in fixed cheapest-first order.

    The chain short-circuits at the first rejection but still records the
    skipped rules as not applicable, so a report always carries all eight
    rules. A surviving report means the exact defining equation was
    evaluated and held, i.e. the candidate genuinely is a friend of 10.
    """
    results = []
    rejected = False
    for name in _RULES:
        if rejected:
            results.append(_SKIPPED[name])
            continue
        outcome = check_rule(name, c)
        results.append(outcome)
        rejected = outcome.verdict is Verdict.REJECT
    return FilterReport(candidate=c.label, results=tuple(results))
