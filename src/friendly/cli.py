"""Command-line surface over the library with stable, scriptable output.

Every subcommand is a thin adapter: the same inputs through the CLI and the
library produce the same values. A handler returns only what it computed, a
result payload and the lines of a human-readable report; ``main`` prints the
report, or with ``--json`` one envelope object whose ``inputs`` echo every
parsed argument, with integers rendered as decimal strings so
arbitrary-precision values survive any JSON parser. Options fall back to
FRIENDLY_* environment variables; explicit flags win.

Exit codes: 0 success, 1 domain error (machine-readable with ``--json``) or a
result whose ``ok`` is false, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Optional

from .abundancy import abundancy_index, find_friends, solitary_certificate
from .arith import FactoringBudgetError, Factorization, factorize, sigma
from .friend10 import Candidate, derive_residue_class, filter_chain
from .scan import DEFAULT_SEGMENT_SIZE, WORKERS_PER_CPU, CheckpointError, _fraction_str, max_workers, scan
from .sieve import SieveBudgetError
from .verify import SUITE_NAMES, run_suites

ENV_PREFIX = "FRIENDLY_"

_DOMAIN_ERRORS = (
    ValueError,
    ArithmeticError,
    FactoringBudgetError,
    CheckpointError,
    SieveBudgetError,
    OSError,
)


# Every number a command prints must fit the 4300 digits that str(int)
# writes by default. Below 2^14000, sigma(n) <= n H_n < n (1 + ln n) <
# 2^14014 < 10^4219, so a number, a Q or a divisor sum within this cap prints.
_MAX_BITS = 14_000
# A prime of Q costs 52 Miller-Rabin rounds above 2^64 (arith.is_prime); at
# 1280 bits, the most such primes a Q within _MAX_BITS holds take about 3 s
# together, where one prime near _MAX_BITS would take minutes. 2^1279 - 1 fits.
_MAX_PRIME_BITS = 1280
# The largest --a whose residue class prints: derive's modulus
# 8 sigma(5^(2a)) 5^(2a) has 4299 digits at a = 1537 and 4301 at 1538.
_MAX_A = 1537


def _integer(token: str, text: str) -> int:
    """int(token), or a usage error naming the token and the argument's text."""
    try:
        return int(token)
    except ValueError:
        # A token of digits fails only past the 4300 digits int() reads by default.
        digits = token.strip().lstrip("+-").isdigit()
        reason = f"is too large: more than {_MAX_BITS} bits" if digits else "is not an integer"
        raise argparse.ArgumentTypeError(f"{token!r} {reason} in {text!r}") from None


def parse_natural(text: str) -> int:
    """Decimal natural number below 2^_MAX_BITS; underscores and a base^exp form are accepted."""
    raw = text.strip().replace("_", "")
    if "^" in raw:
        base_text, _, exp_text = raw.partition("^")
        base, exp = _integer(base_text, text), _integer(exp_text, text)
        if base < 0 or exp < 0:
            raise argparse.ArgumentTypeError(f"expected a natural number, got {text!r}")
        # base^exp >= 2^(exp (bits(base) - 1)): refused before a power that large is formed.
        if exp * (base.bit_length() - 1) > _MAX_BITS:
            raise argparse.ArgumentTypeError(f"{text!r} is too large: more than {_MAX_BITS} bits")
        value = base ** exp
    else:
        value = _integer(raw, text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a natural number, got {text!r}")
    if value.bit_length() > _MAX_BITS:
        raise argparse.ArgumentTypeError(f"{text!r} is too large: more than {_MAX_BITS} bits")
    return value


def parse_positive(text: str) -> int:
    """A natural number of at least 1, in any form ``parse_natural`` reads."""
    value = parse_natural(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def parse_scan_bound(text: str) -> int:
    """A scan's bound: at least 2, so that [1, bound) holds a number."""
    value = parse_natural(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"bound must be >= 2 to scan [1, bound), got {text!r}")
    return value


def parse_half_exponent(text: str) -> int:
    """The half-exponent a of 5, from 1 to _MAX_A."""
    value = parse_positive(text)
    if value > _MAX_A:
        raise argparse.ArgumentTypeError(
            f"at most {_MAX_A}, got {text!r}: a larger a's residue class has more than 4300 digits"
        )
    return value


def parse_workers(text: str) -> int:
    """A worker count from 1 to ``scan.max_workers()``, WORKERS_PER_CPU per CPU."""
    value = parse_positive(text)
    if value > max_workers():
        raise argparse.ArgumentTypeError(f"at most {max_workers()} workers ({WORKERS_PER_CPU} per CPU), got {text!r}")
    return value


def parse_index(text: str) -> Fraction:
    """A positive exact ratio written P/Q."""
    num, sep, den = text.strip().partition("/")
    if not sep:
        raise argparse.ArgumentTypeError(f"index must be written as P/Q, got {text!r}")
    p, q = _integer(num, text), _integer(den, text)
    if q == 0:
        raise argparse.ArgumentTypeError(f"index denominator must be nonzero, got {text!r}")
    index = Fraction(p, q)
    if index <= 0:
        raise argparse.ArgumentTypeError(f"index must be positive, got {text!r}")
    return index


def parse_q_factors(text: str) -> Factorization:
    """Comma-separated prime powers: ``7^2,11,13^1`` (empty means Q = 1),
    each prime at least 7 and below 2^_MAX_PRIME_BITS, and Q below 2^_MAX_BITS."""
    text = text.strip()
    if not text:
        return Factorization(())
    pairs = []
    for chunk in text.split(","):
        prime, sep, exp = chunk.strip().partition("^")
        pairs.append((_integer(prime, text), _integer(exp, text) if sep else 1))
    too_large = argparse.ArgumentTypeError(f"Q is too large: more than {_MAX_BITS} bits in {text!r}")
    # Q >= 2^(e (bits(p) - 1)) over its p^e: refused before a primality test or a power that large.
    if sum(e * (p.bit_length() - 1) for p, e in pairs if e > 0) > _MAX_BITS:
        raise too_large
    if any(p.bit_length() > _MAX_PRIME_BITS for p, _ in pairs):
        raise argparse.ArgumentTypeError(f"a prime of Q has more than {_MAX_PRIME_BITS} bits in {text!r}")
    for p, _ in pairs:
        if p in (2, 3, 5):
            raise argparse.ArgumentTypeError(f"Q must be odd and coprime to 15; {text!r} has the prime {p}")
    try:
        q = Factorization(tuple(sorted(pairs)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc} in {text!r}") from exc
    if q.value.bit_length() > _MAX_BITS:
        raise too_large
    return q


def _parse_checkpoint_path(text: str) -> str:
    """A checkpoint path: any text but the empty one, which names no file."""
    if not text:
        raise argparse.ArgumentTypeError("checkpoint path must not be empty")
    return text


def _option(parser: argparse.ArgumentParser, flag: str, *, required: bool = False, **kwargs) -> None:
    """Add one flag whose FRIENDLY_<NAME> variable, when set, is its default.

    argparse parses a string default with the flag's type, and only when the
    flag is absent, so flags win and a bad variable is a usage error.
    """
    raw = os.environ.get(ENV_PREFIX + flag[2:].replace("-", "_").upper())
    if raw is not None:
        kwargs["default"] = raw
    parser.add_argument(flag, required=required and raw is None, **kwargs)


# --- handlers ---------------------------------------------------------------
# Each returns (result payload, human lines); main echoes the inputs and
# derives the exit code from the payload's "ok".


def _cmd_sigma(ns):
    value = sigma(factorize(ns.n))
    return {"sigma": str(value)}, [f"sigma({ns.n}) = {value}"]


def _cmd_index(ns):
    value = _fraction_str(abundancy_index(ns.n))
    return {"index": value}, [f"I({ns.n}) = {value}"]


def _cmd_friends(ns):
    hits = find_friends(ns.n, ns.bound)
    listing = "[" + ", ".join(str(h) for h in hits) + "]"
    return {"friends": [str(h) for h in hits]}, [f"friends of {ns.n} up to {ns.bound}: {listing}"]


def _cmd_solitary(ns):
    f = factorize(ns.n)  # once, for both the certificate and the gcd
    verdict = solitary_certificate(f)
    g = math.gcd(ns.n, sigma(f))
    return (
        {"verdict": verdict.value, "gcd": str(g)},
        [f"{ns.n}: {verdict.value} (gcd(n, sigma(n)) = {g})"],
    )


def _cmd_check(ns):
    candidate = Candidate(a=ns.a, q_factorization=ns.q_factors)
    report = filter_chain(candidate)
    rules = [
        {"rule": r.rule, "verdict": r.verdict.value, "detail": r.detail}
        for r in report.results
    ]
    lines = [f"candidate: {report.candidate}"]
    width = max(len(r.rule) for r in report.results)
    for r in report.results:
        shown = {"pass": "pass", "reject": "REJECT", "not_applicable": "n/a"}[r.verdict.value]
        lines.append(f"  {r.rule:<{width}}  {shown:<6}  {r.detail}")
    lines.append(f"overall: {report.overall}")
    return (
        {
            "candidate": report.candidate,
            "rules": rules,
            "overall": report.overall,
            "survives": report.survives,
        },
        lines,
    )


def _cmd_derive(ns):
    rc = derive_residue_class(ns.a)
    return (
        {"residue": str(rc.residue), "modulus": str(rc.modulus)},
        [f"residue: {rc.residue}", f"modulus: {rc.modulus}"],
    )


def _cmd_scan(ns):
    outcome = scan(
        ns.bound,
        ns.index,
        workers=ns.workers,
        segment_size=ns.segment_size,
        checkpoint_path=ns.resume,
    )
    listing = "[" + ", ".join(str(h) for h in outcome.hits) + "]"
    lines = [
        f"scanned [1, {ns.bound}) for index {_fraction_str(ns.index)}",
        f"segments: {outcome.segments_done}/{outcome.segments_total}",
        f"scanned_count: {outcome.scanned_count}",
        f"checksum: {outcome.checksum}",
        f"hits: {listing}",
    ]
    return (
        {
            "bound": str(ns.bound),
            "index": _fraction_str(ns.index),
            "hits": [str(h) for h in outcome.hits],
            "scanned_count": str(outcome.scanned_count),
            "checksum": str(outcome.checksum),
            "segments_done": str(outcome.segments_done),
            "segments_total": str(outcome.segments_total),
            "frontier": str(outcome.frontier),
            "complete": outcome.complete,
        },
        lines,
    )


def _cmd_verify(ns):
    results = run_suites(ns.suite)
    ok = all(r.ok for r in results)
    suites = [
        {
            "name": r.name,
            "checks": str(r.checks),
            "failures": str(r.failures),
            "elapsed_ms": str(r.elapsed_ms),
            "notes": list(r.notes),
        }
        for r in results
    ]
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{r.name}: {r.checks} checks, {r.failures} failures ({r.elapsed_ms} ms) {status}")
        lines.extend(f"    {note}" for note in r.notes)
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    return {"suites": suites, "ok": ok}, lines


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="friendly",
        description="Exact abundancy-index toolkit: divisor sums, friend scans, "
        "and the friend-of-10 candidate filter chain.",
        epilog=f"Options also read {ENV_PREFIX}<NAME> environment variables; flags win.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    env_json = os.environ.get(ENV_PREFIX + "JSON", "").strip().lower() in ("1", "true", "yes", "on")

    def common(p: argparse.ArgumentParser, handler) -> None:
        p.add_argument("--json", action="store_true", default=env_json,
                       help="emit a JSON envelope instead of the report")
        p.set_defaults(handler=handler)

    p = sub.add_parser("sigma", help="sum of divisors of N")
    p.add_argument("n", type=parse_positive)
    common(p, _cmd_sigma)

    p = sub.add_parser("index", help="abundancy index sigma(N)/N as an exact ratio")
    p.add_argument("n", type=parse_positive)
    common(p, _cmd_index)

    p = sub.add_parser("friends", help="all friends of N up to a bound")
    p.add_argument("n", type=parse_positive)
    _option(p, "--bound", type=parse_natural, required=True)
    common(p, _cmd_friends)

    p = sub.add_parser("solitary", help="gcd-based solitary certificate for N")
    p.add_argument("n", type=parse_positive)
    common(p, _cmd_solitary)

    p = sub.add_parser("check", help="run the filter chain on a structured candidate")
    _option(p, "--a", type=parse_half_exponent, required=True, help="half-exponent of 5")
    _option(p, "--q-factors", type=parse_q_factors, default=Factorization(()),
            help="factorization of Q as P1^E1,P2^E2,... (empty for Q = 1)")
    common(p, _cmd_check)

    p = sub.add_parser("derive", help="residue class every friend of 10 with this a must hit")
    _option(p, "--a", type=parse_half_exponent, required=True)
    common(p, _cmd_derive)

    p = sub.add_parser("scan", help="exhaustive index scan of [1, bound)")
    _option(p, "--bound", type=parse_scan_bound, required=True)
    _option(p, "--index", type=parse_index, required=True, help="target index P/Q")
    _option(p, "--workers", type=parse_workers, default=1)
    _option(p, "--segment-size", type=parse_positive, default=DEFAULT_SEGMENT_SIZE)
    _option(p, "--resume", type=_parse_checkpoint_path, help="checkpoint path; created if missing")
    common(p, _cmd_scan)

    p = sub.add_parser("verify", help="run exhaustive verification suites")
    _option(p, "--suite", choices=SUITE_NAMES, default="all")
    common(p, _cmd_verify)

    return parser


def _inputs(ns: argparse.Namespace) -> dict[str, str]:
    """Each parsed argument as a string, in the order the parser added them.
    ``command``, ``handler`` and ``json`` route the command rather than state
    its inputs, and an option left unset (None) is not echoed."""
    return {
        key: _fraction_str(value) if isinstance(value, Fraction) else str(value)
        for key, value in vars(ns).items()
        if key not in ("command", "handler", "json") and value is not None
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        result, lines = ns.handler(ns)
    except _DOMAIN_ERRORS as exc:
        if ns.json:
            print(json.dumps({
                "command": ns.command,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    if ns.json:
        envelope = {
            "command": ns.command,
            "inputs": _inputs(ns),
            "result": result,
            "elapsed_ms": int((time.perf_counter() - started) * 1000),
        }
        print(json.dumps(envelope))
    else:
        print("\n".join(lines))
    return 1 if result.get("ok") is False else 0


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``friendly scan ... | head``). Point
        # stdout at devnull so the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


# --- envelope schema --------------------------------------------------------

_DECIMAL = "decimal-string"
_FRACTION = "fraction-string"
_RESULT_SCHEMAS: dict[str, dict] = {
    "sigma": {"sigma": _DECIMAL},
    "index": {"index": _FRACTION},
    "friends": {"friends": [_DECIMAL]},
    "solitary": {"verdict": str, "gcd": _DECIMAL},
    "check": {
        "candidate": str,
        "rules": [{"rule": str, "verdict": str, "detail": str}],
        "overall": str,
        "survives": bool,
    },
    "derive": {"residue": _DECIMAL, "modulus": _DECIMAL},
    "scan": {
        "bound": _DECIMAL,
        "index": _FRACTION,
        "hits": [_DECIMAL],
        "scanned_count": _DECIMAL,
        "checksum": _DECIMAL,
        "segments_done": _DECIMAL,
        "segments_total": _DECIMAL,
        "frontier": _DECIMAL,
        "complete": bool,
    },
    "verify": {
        "suites": [{"name": str, "checks": _DECIMAL, "failures": _DECIMAL,
                    "elapsed_ms": _DECIMAL, "notes": [str]}],
        "ok": bool,
    },
}


def _check_schema(value, schema, path: str) -> None:
    if schema is _DECIMAL:
        if not (isinstance(value, str) and value.isdigit()):
            raise ValueError(f"{path}: expected a decimal string, got {value!r}")
    elif schema is _FRACTION:
        num, sep, den = value.partition("/") if isinstance(value, str) else ("", "", "")
        if not (sep and num.isdigit() and den.isdigit()):
            raise ValueError(f"{path}: expected P/Q, got {value!r}")
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise ValueError(f"{path}: expected a list, got {type(value).__name__}")
        for i, item in enumerate(value):
            _check_schema(item, schema[0], f"{path}[{i}]")
    elif isinstance(schema, dict):
        if not isinstance(value, dict) or set(value) != set(schema):
            raise ValueError(f"{path}: keys {sorted(value)} != {sorted(schema)}")
        for key, sub in schema.items():
            _check_schema(value[key], sub, f"{path}.{key}")
    else:
        if not isinstance(value, schema) or (schema is not bool and isinstance(value, bool)):
            raise ValueError(f"{path}: expected {schema.__name__}, got {type(value).__name__}")


def validate_envelope(doc: dict) -> None:
    """Raise ValueError unless doc is a well-formed OutputEnvelope."""
    if set(doc) != {"command", "inputs", "result", "elapsed_ms"}:
        raise ValueError(f"envelope keys are {sorted(doc)}")
    command = doc["command"]
    if command not in _RESULT_SCHEMAS:
        raise ValueError(f"unknown command {command!r}")
    if not isinstance(doc["elapsed_ms"], int) or doc["elapsed_ms"] < 0:
        raise ValueError("elapsed_ms must be a non-negative integer")
    inputs = doc["inputs"]
    if not isinstance(inputs, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in inputs.items()
    ):
        raise ValueError("inputs must be a string-to-string mapping")
    _check_schema(doc["result"], _RESULT_SCHEMAS[command], "result")
