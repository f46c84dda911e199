"""The command-line surface: outputs, envelopes, exit codes, env fallbacks."""

import argparse
import concurrent.futures
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from friendly import abundancy, arith, cli, verify
from friendly.abundancy import abundancy_index, find_friends
from friendly.arith import factorize, sigma
from friendly.cli import parse_natural, validate_envelope
from friendly.friend10 import derive_residue_class
from friendly.scan import WORKERS_PER_CPU


def envelope_of(result):
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    validate_envelope(doc)
    return doc


# --- golden outputs ----------------------------------------------------------


def test_sigma_human(run_cli):
    result = run_cli("sigma", "25")
    assert result.returncode == 0
    assert result.stdout == "sigma(25) = 31\n"


def test_index_human(run_cli):
    result = run_cli("index", "10")
    assert result.stdout == "I(10) = 9/5\n"


def test_derive_human(run_cli):
    result = run_cli("derive", "--a", "1")
    assert result.stdout == "residue: 5425\nmodulus: 6200\n"


def test_friends_human(run_cli):
    result = run_cli("friends", "6", "--bound", "1000")
    assert result.stdout == "friends of 6 up to 1000: [28, 496]\n"
    # A bound a scan refuses is an empty search here.
    assert run_cli("friends", "6", "--bound", "0").stdout == "friends of 6 up to 0: []\n"


def test_solitary_human(run_cli):
    assert "certified-solitary" in run_cli("solitary", "5").stdout
    assert "inconclusive" in run_cli("solitary", "10").stdout


def test_solitary_factors_n_once(monkeypatch, capsys):
    n = 1_000_003 * 1_000_033
    g = math.gcd(n, sigma(factorize(n)))
    verdict = "certified-solitary" if g == 1 else "inconclusive"
    calls = []
    for module in (arith, abundancy, cli):
        real = module.factorize
        monkeypatch.setattr(
            module, "factorize", lambda m, real=real, **kw: calls.append(m) or real(m, **kw)
        )
    assert cli.main(["solitary", str(n)]) == 0
    assert capsys.readouterr().out == f"{n}: {verdict} (gcd(n, sigma(n)) = {g})\n"
    assert calls == [n]


def test_check_human_reports_first_rejection(run_cli):
    result = run_cli("check", "--a", "1", "--q-factors", "7,11,13,17,19,23")
    assert result.returncode == 0
    assert "overall: RejectedBy(exponent_mod3)" in result.stdout
    assert "REJECT" in result.stdout


def test_check_defaults_to_q_equal_one(run_cli):
    result = run_cli("check", "--a", "1")
    assert "RejectedBy(structural)" in result.stdout
    assert run_cli("check", "--a", "1", "--q-factors", "").stdout == result.stdout


# `friendly check` output for one candidate per rule that can reject first.
_CHECK_GOLDEN = {
    ("1", "7,11,13,17,19,23"): """\
candidate: 5^2 * 7^2 * 11^2 * 13^2 * 17^2 * 19^2 * 23^2
  structural      pass    odd square by construction, omega = 7
  prime_support   pass    index ceiling 676039/331776 exceeds 9/5
  exponent_mod3   REJECT  every half-exponent is 1 mod 3
  exponent_mod27  n/a     skipped after earlier rejection
  mod8_sum        n/a     skipped after earlier rejection
  nine_exact      n/a     skipped after earlier rejection
  residue_class   n/a     skipped after earlier rejection
  eq1             n/a     skipped after earlier rejection
overall: RejectedBy(exponent_mod3)
""",
    ("1", "7"): """\
candidate: 5^2 * 7^2
  structural      REJECT  omega = 2 < 7
  prime_support   n/a     skipped after earlier rejection
  exponent_mod3   n/a     skipped after earlier rejection
  exponent_mod27  n/a     skipped after earlier rejection
  mod8_sum        n/a     skipped after earlier rejection
  nine_exact      n/a     skipped after earlier rejection
  residue_class   n/a     skipped after earlier rejection
  eq1             n/a     skipped after earlier rejection
overall: RejectedBy(structural)
""",
    ("1", "97,101,103,107,109,113"): """\
candidate: 5^2 * 97^2 * 101^2 * 103^2 * 107^2 * 109^2 * 113^2
  structural      pass    odd square by construction, omega = 7
  prime_support   REJECT  index ceiling 1329900201629/1004405391360 <= 9/5; no exponents can reach 9/5
  exponent_mod3   n/a     skipped after earlier rejection
  exponent_mod27  n/a     skipped after earlier rejection
  mod8_sum        n/a     skipped after earlier rejection
  nine_exact      n/a     skipped after earlier rejection
  residue_class   n/a     skipped after earlier rejection
  eq1             n/a     skipped after earlier rejection
overall: RejectedBy(prime_support)
""",
    ("2", "7,11,13,17,19,23"): """\
candidate: 5^4 * 7^2 * 11^2 * 13^2 * 17^2 * 19^2 * 23^2
  structural      pass    odd square by construction, omega = 7
  prime_support   pass    index ceiling 676039/331776 exceeds 9/5
  exponent_mod3   pass    a_1 = 2 is not 1 mod 3
  exponent_mod27  pass    a_1 = 2 is not 13 mod 27
  mod8_sum        n/a     product 5 * 5 ≡ 1 (mod 8); hypothesis ≡ 5 fails
  nine_exact      REJECT  sigma(F) ≡ 0 (mod 27): 9 must divide it exactly once
  residue_class   n/a     skipped after earlier rejection
  eq1             n/a     skipped after earlier rejection
overall: RejectedBy(nine_exact)
""",
    ("2", "7,11,13,17,23,29"): """\
candidate: 5^4 * 7^2 * 11^2 * 13^2 * 17^2 * 23^2 * 29^2
  structural      pass    odd square by construction, omega = 7
  prime_support   pass    index ceiling 147407/73728 exceeds 9/5
  exponent_mod3   pass    a_1 = 2 is not 1 mod 3
  exponent_mod27  pass    a_1 = 2 is not 13 mod 27
  mod8_sum        n/a     product 5 * 7 ≡ 3 (mod 8); hypothesis ≡ 5 fails
  nine_exact      pass    sigma(F) ≡ 9 (mod 27)
  residue_class   REJECT  F ≡ 3210625, friends with a = 2 need ≡ 2440625 (mod 3905000)
  eq1             n/a     skipped after earlier rejection
overall: RejectedBy(residue_class)
""",
    ("2", "7,11,13,17,23,71"): """\
candidate: 5^4 * 7^2 * 11^2 * 13^2 * 17^2 * 23^2 * 71^2
  structural      pass    odd square by construction, omega = 7
  prime_support   pass    index ceiling 360893/184320 exceeds 9/5
  exponent_mod3   pass    a_1 = 2 is not 1 mod 3
  exponent_mod27  pass    a_1 = 2 is not 13 mod 27
  mod8_sum        pass    sum ≡ 6 (mod 8) matches a even
  nine_exact      pass    sigma(F) ≡ 9 (mod 27)
  residue_class   pass    F ≡ 2440625 (mod 3905000)
  eq1             REJECT  index of F is not exactly 9/5
overall: RejectedBy(eq1)
""",
}


@pytest.mark.parametrize("a, q_factors", list(_CHECK_GOLDEN))
def test_check_human_report_is_pinned(monkeypatch, capsys, a, q_factors):
    monkeypatch.delenv("FRIENDLY_JSON", raising=False)
    assert cli.main(["check", "--a", a, "--q-factors", q_factors]) == 0
    assert capsys.readouterr().out == _CHECK_GOLDEN[(a, q_factors)]


# --- the CLI is a thin adapter over the library --------------------------------


def test_sigma_json_matches_library(run_cli):
    doc = envelope_of(run_cli("sigma", "25", "--json"))
    assert doc["result"]["sigma"] == str(sigma(factorize(25)))
    assert doc["inputs"] == {"n": "25"}


def test_index_json_matches_library(run_cli):
    doc = envelope_of(run_cli("index", "360", "--json"))
    value = abundancy_index(360)
    assert doc["result"]["index"] == f"{value.numerator}/{value.denominator}"


def test_friends_json_matches_library(run_cli):
    doc = envelope_of(run_cli("friends", "30", "--bound", "2000", "--json"))
    assert doc["result"]["friends"] == [str(m) for m in find_friends(30, 2000)]


def test_derive_json_matches_library(run_cli):
    doc = envelope_of(run_cli("derive", "--a", "3", "--json"))
    rc = derive_residue_class(3)
    assert doc["result"] == {"residue": str(rc.residue), "modulus": str(rc.modulus)}


def test_every_subcommand_envelope_validates(run_cli, tmp_path):
    # Each call with the exact text of its inputs echo: every parsed argument
    # as a string, from a flag, a FRIENDLY_* variable or a default alike.
    checkpoint = str(tmp_path / "cp")
    scan_defaults = '"workers": "1", "segment_size": "1048576"'
    calls = [
        (("sigma", "100"), {}, '{"n": "100"}'),
        (("index", "10"), {}, '{"n": "10"}'),
        (("friends", "6", "--bound", "500"), {}, '{"n": "6", "bound": "500"}'),
        (("solitary", "7"), {}, '{"n": "7"}'),
        (("check", "--a", "1", "--q-factors", "7^2,11"), {}, '{"a": "1", "q_factors": "7^2 * 11"}'),
        (("check", "--a", "2"), {}, '{"a": "2", "q_factors": "1"}'),
        (("derive", "--a", "2"), {}, '{"a": "2"}'),
        (("scan", "--bound", "2000", "--index", "2/1"), {},
         '{"bound": "2000", "index": "2/1", ' + scan_defaults + "}"),
        (("scan", "--bound", "2000", "--index", "18/10"), {},
         '{"bound": "2000", "index": "9/5", ' + scan_defaults + "}"),
        (("scan", "--bound", "2000", "--index", "2/1", "--resume", checkpoint), {},
         '{"bound": "2000", "index": "2/1", ' + scan_defaults + ', "resume": ' + json.dumps(checkpoint) + "}"),
        (("scan", "--bound", "2000", "--index", "2/1"), {"FRIENDLY_WORKERS": "2"},
         '{"bound": "2000", "index": "2/1", "workers": "2", "segment_size": "1048576"}'),
        (("verify", "--suite", "bounds"), {}, '{"suite": "bounds"}'),
    ]
    for args, env, inputs in calls:
        result = run_cli(*args, "--json", env=env)
        envelope_of(result)
        assert '"inputs": ' + inputs + ", " in result.stdout, (args, result.stdout)


def _set(path, value):
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return mutate


@pytest.mark.parametrize(
    "mutate, reason",
    [
        (_set(["result", "checksum"], "-1"), "result.checksum: expected a decimal string"),
        (_set(["result", "index"], "9"), "result.index: expected P/Q"),
        (_set(["result", "hits"], "10"), "result.hits: expected a list"),
        (lambda doc: doc["result"].pop("complete"), "result: keys"),
        (_set(["result", "complete"], 1), "result.complete: expected bool, got int"),
        (_set(["extra"], 0), "envelope keys are"),
        (_set(["command"], "census"), "unknown command 'census'"),
        (_set(["elapsed_ms"], -1), "elapsed_ms must be a non-negative integer"),
        (_set(["inputs", "bound"], 100), "inputs must be a string-to-string mapping"),
    ],
)
def test_validate_envelope_refuses_each_malformed_part(mutate, reason):
    doc = {
        "command": "scan",
        "inputs": {"bound": "100", "index": "9/5", "workers": "1", "segment_size": "1048576"},
        "result": {
            "bound": "100", "index": "9/5", "hits": ["10"], "scanned_count": "99", "checksum": "4",
            "segments_done": "1", "segments_total": "1", "frontier": "100", "complete": True,
        },
        "elapsed_ms": 3,
    }
    validate_envelope(doc)
    mutate(doc)
    with pytest.raises(ValueError, match=re.escape(reason)):
        validate_envelope(doc)


# --- scan subcommand -----------------------------------------------------------


def test_scan_human_output(run_cli):
    result = run_cli("scan", "--bound", "100000", "--index", "9/5")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "scanned [1, 100000) for index 9/5"
    assert "hits: [10]" in lines
    assert not any("elapsed" in line for line in lines)


def test_scan_output_bytes_identical_across_workers(run_cli):
    one = run_cli("scan", "--bound", "300000", "--index", "9/5", "--workers", "1")
    two = run_cli("scan", "--bound", "300000", "--index", "9/5", "--workers", "2")
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout


def test_scan_json_envelope(run_cli):
    doc = envelope_of(run_cli("scan", "--bound", "10000", "--index", "9/5", "--json"))
    assert doc["result"]["hits"] == ["10"]
    assert doc["result"]["complete"] is True


def test_scan_resume_via_cli(run_cli, tmp_path):
    path = tmp_path / "cp.json"
    first = run_cli("scan", "--bound", "200000", "--index", "9/5",
                    "--segment-size", "65536", "--resume", str(path))
    assert first.returncode == 0
    again = run_cli("scan", "--bound", "200000", "--index", "9/5",
                    "--segment-size", "65536", "--resume", str(path))
    assert again.returncode == 0
    assert again.stdout == first.stdout  # nothing rescanned, same totals
    clash = run_cli("scan", "--bound", "999999", "--index", "9/5",
                    "--segment-size", "65536", "--resume", str(path))
    assert clash.returncode == 1
    assert "refusing to resume" in clash.stderr


def test_scan_resume_from_a_checkpoint_that_is_not_utf8_is_a_domain_error(run_cli, tmp_path):
    path = tmp_path / "cp"
    path.write_bytes(b"\xff\xfe" + b'{"version": 2}')
    human = run_cli("scan", "--bound", "1000", "--index", "9/5", "--resume", str(path))
    assert human.returncode == 1
    assert human.stderr == f"error: {path}: not UTF-8 (invalid start byte) at byte 0\n"
    as_json = run_cli("scan", "--bound", "1000", "--index", "9/5", "--resume", str(path), "--json")
    assert as_json.returncode == 1
    assert json.loads(as_json.stdout)["error"]["type"] == "CheckpointCorruptError"


# The checkpoint and the first five records lines of
# ``scan --bound 1200 --index 2/1 --segment-size 100 --resume cp``, stopped
# after five segments, as written when each line still restated hi - lo.
_OLD_CHECKPOINT = '{\n "version": 2,\n "target_index": "2/1",\n "bound": "1200",\n "segment_size": "100"\n}'
_OLD_RECORDS = b"".join(
    b'{"lo": "%d", "hi": "%d", "target_index": "2/1", "hits": [%s], "scanned_count": "100", '
    b'"elapsed": "%d", "checksum": "%d"}\n' % line
    for line in [
        (1, 101, b'"6", "28"', 4, 8299),
        (101, 201, b"", 0, 24745),
        (201, 301, b"", 0, 41265),
        (301, 401, b"", 0, 57625),
        (401, 501, b'"496"', 0, 73949),
    ]
)


def test_records_lines_with_a_scanned_count_still_resume(run_cli, tmp_path):
    path = tmp_path / "cp"
    records = tmp_path / "cp.records"
    path.write_text(_OLD_CHECKPOINT)
    records.write_bytes(_OLD_RECORDS)
    resumed = run_cli("scan", "--bound", "1200", "--index", "2/1", "--segment-size", "100", "--resume", str(path))
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == (
        "scanned [1, 1200) for index 2/1\n"
        "segments: 12/12\n"
        "scanned_count: 1199\n"
        "checksum: 1181994\n"
        "hits: [6, 28, 496]\n"
    )
    data = records.read_bytes()
    assert data.startswith(_OLD_RECORDS)
    appended = [json.loads(line) for line in data[len(_OLD_RECORDS):].splitlines()]
    assert [doc["lo"] for doc in appended] == [str(lo) for lo in range(501, 1200, 100)]
    assert all("scanned_count" not in doc for doc in appended)


# --- verify subcommand -----------------------------------------------------------


def test_verify_single_suite(run_cli):
    result = run_cli("verify", "--suite", "bounds")
    assert result.returncode == 0
    assert "bounds:" in result.stdout and "0 failures" in result.stdout
    assert result.stdout.rstrip().endswith("overall: PASS")


def test_the_exit_status_follows_the_results_ok(monkeypatch, capsys):
    monkeypatch.delenv("FRIENDLY_JSON", raising=False)
    bounds = verify._SUITES["bounds"]

    def failing():
        result = bounds()
        result.fail("an injected failure")
        return result

    monkeypatch.setitem(verify._SUITES, "bounds", failing)
    assert cli.main(["verify", "--suite", "bounds"]) == 1
    assert capsys.readouterr().out.rstrip().endswith("overall: FAIL")
    assert cli.main(["verify", "--suite", "bounds", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    validate_envelope(doc)
    assert doc["result"]["ok"] is False
    # A rejected candidate is a computed verdict, not a failed command.
    assert cli.main(["check", "--a", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["survives"] is False


def test_verify_rejects_unknown_suite(run_cli):
    result = run_cli("verify", "--suite", "nope")
    assert result.returncode == 2


# --- exit codes and errors --------------------------------------------------------


def test_usage_error_exit_2(run_cli):
    assert run_cli("friends", "6").returncode == 2  # --bound missing
    assert run_cli("sigma").returncode == 2
    assert run_cli("unknown-command").returncode == 2
    assert run_cli("sigma", "twelve").returncode == 2


def test_zero_index_denominator_is_usage_error(run_cli):
    # A zero or negative index is refused like a zero denominator.
    for index in ("9/0", "0/1", "-9/5", "0/3"):
        flag = run_cli("scan", "--bound", "100", f"--index={index}")
        env = run_cli("scan", "--bound", "100", env={"FRIENDLY_INDEX": index})
        for result in (flag, env):
            assert result.returncode == 2, index
            assert "Traceback" not in result.stderr
            assert index in result.stderr


def test_bound_past_the_sieve_limit_is_domain_error(run_cli, tmp_path):
    checkpoint = tmp_path / "scan.checkpoint"
    scanned = run_cli(
        "scan", "--bound", "2^51", "--index", "9/5", "--resume", str(checkpoint), timeout=60
    )
    friends = run_cli("friends", "6", "--bound", "2^51", timeout=60)
    for result in (scanned, friends):
        assert result.returncode == 1
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr
    assert list(tmp_path.iterdir()) == []


def test_segment_past_the_sieve_budget_is_domain_error(run_cli, tmp_path):
    checkpoint = tmp_path / "cp"
    result = run_cli(
        "scan", "--bound", "10^8", "--index", "9/5", "--segment-size", "2^25", "--resume", str(checkpoint)
    )
    assert result.returncode == 1
    assert "exceeds budget" in result.stderr
    assert "Traceback" not in result.stderr
    assert list(tmp_path.iterdir()) == []


def test_domain_error_exit_1(run_cli):
    result = run_cli("scan", "--bound", "2^51", "--index", "9/5")
    assert result.returncode == 1
    assert "error:" in result.stderr


def test_domain_error_json_object(run_cli):
    result = run_cli("scan", "--bound", "2^51", "--index", "9/5", "--json")
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["command"] == "scan"
    assert doc["error"]["type"] == "SieveBudgetError"
    assert "would overflow the sieve" in doc["error"]["message"]


@pytest.mark.parametrize(
    "args", [("sigma", "0"), ("index", "0"), ("solitary", "0"), ("friends", "0", "--bound", "10")]
)
def test_zero_n_is_a_usage_error(run_cli, args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert "argument n: expected a positive integer, got '0'" in result.stderr
    assert "Traceback" not in result.stderr


def test_check_rejects_bad_q_factors(run_cli):
    result = run_cli("check", "--a", "1", "--q-factors", "4^2")
    assert result.returncode == 2  # parse-level validation: 4 is not prime


def test_a_prime_below_7_is_refused_before_any_primality_test(monkeypatch):
    def no_test(n):
        raise AssertionError(f"is_prime({n}) ran")

    monkeypatch.setattr(arith, "is_prime", no_test)
    with pytest.raises(argparse.ArgumentTypeError, match="has the prime 5"):
        cli.parse_q_factors(f"{2 ** 1279 - 1},5")


def test_workers_past_the_cap_are_a_usage_error(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delenv("FRIENDLY_WORKERS", raising=False)
    cap = 2 * WORKERS_PER_CPU
    args = ["scan", "--bound", "100", "--index", "9/5"]
    for value in (str(cap + 1), "10^9"):
        for by_env in (False, True):
            if by_env:
                monkeypatch.setenv("FRIENDLY_WORKERS", value)
            with pytest.raises(SystemExit) as exc:
                cli.main(args if by_env else args + ["--workers", value])
            monkeypatch.delenv("FRIENDLY_WORKERS", raising=False)
            assert exc.value.code == 2
            reason = f"argument --workers: at most {cap} workers ({WORKERS_PER_CPU} per CPU), got {value!r}"
            assert reason in capsys.readouterr().err
    assert cli.build_parser().parse_args(args + ["--workers", str(cap)]).workers == cap


@pytest.mark.parametrize(
    "args, flag, value, reason",
    [
        (("scan", "--bound", "100"), "--index", "9/0", "index denominator must be nonzero, got '9/0'"),
        (("check", "--a", "1"), "--q-factors", "4^2", "4 is not prime in '4^2'"),
        (("check", "--a", "1"), "--q-factors", "7,7", "primes must increase strictly: 7 after 7 in '7,7'"),
        (("scan", "--bound", "100", "--index", "9/5"), "--segment-size", "0", "expected a positive integer, got '0'"),
        (("scan", "--bound", "100", "--index", "9/5"), "--workers", "0", "expected a positive integer, got '0'"),
        (("scan", "--bound", "100", "--index", "9/5"), "--workers", "-2", "expected a natural number, got '-2'"),
        (("check",), "--a", "0", "expected a positive integer, got '0'"),
        (("derive",), "--a", "0", "expected a positive integer, got '0'"),
        (("check", "--a", "1"), "--q-factors", "5", "Q must be odd and coprime to 15; '5' has the prime 5"),
        (("check", "--a", "1"), "--q-factors", "2", "Q must be odd and coprime to 15; '2' has the prime 2"),
        (("check", "--a", "1"), "--q-factors", "7,3^2", "Q must be odd and coprime to 15; '7,3^2' has the prime 3"),
        (("scan", "--index", "9/5"), "--bound", "1", "bound must be >= 2 to scan [1, bound), got '1'"),
        (("scan", "--index", "9/5"), "--bound", "0", "bound must be >= 2 to scan [1, bound), got '0'"),
        (("scan", "--bound", "100"), "--index", "9", "index must be written as P/Q, got '9'"),
        (("check", "--a", "1"), "--q-factors", "1", "1 is not prime in '1'"),
        (("check", "--a", "1"), "--q-factors", "0", "0 is not prime in '0'"),
        # A token that is not an integer is named with the argument's text.
        (("sigma",), None, "1x0", "'1x0' is not an integer in '1x0'"),
        (("sigma",), None, "2^x", "'x' is not an integer in '2^x'"),
        (("sigma",), None, "^3", "'' is not an integer in '^3'"),
        (("friends", "6"), "--bound", "1x0", "'1x0' is not an integer in '1x0'"),
        (("scan", "--index", "9/5"), "--bound", "2^x", "'x' is not an integer in '2^x'"),
        (("scan", "--bound", "100", "--index", "9/5"), "--segment-size", "^3", "'' is not an integer in '^3'"),
        (("scan", "--bound", "100"), "--index", "9/5/3", "'5/3' is not an integer in '9/5/3'"),
        (("check", "--a", "1"), "--q-factors", "7,,11", "'' is not an integer in '7,,11'"),
        (("check", "--a", "1"), "--q-factors", "7^", "'' is not an integer in '7^'"),
        # An empty path would name the current directory.
        (("scan", "--bound", "100", "--index", "9/5"), "--resume", "", "checkpoint path must not be empty"),
    ],
)
def test_usage_error_keeps_the_parsers_reason(run_cli, args, flag, value, reason):
    if flag is None:  # the positional n, which no variable sets
        runs, where = [run_cli(*args, value)], "argument n"
    else:
        name = "FRIENDLY_" + flag[2:].replace("-", "_").upper()
        runs, where = [run_cli(*args, flag, value), run_cli(*args, env={name: value})], f"argument {flag}"
    for result in runs:
        assert result.returncode == 2
        assert f"{where}: {reason}" in result.stderr
        assert "Traceback" not in result.stderr
        assert "invalid parse_" not in result.stderr


# Inputs whose output str(int) could not write: each is refused before any work.
_PAST_THE_CAPS = [
    (("sigma",), None, "65535^1000", "'65535^1000' is too large: more than 14000 bits"),
    (("index",), None, "65535^1000", "'65535^1000' is too large: more than 14000 bits"),
    (("sigma",), None, "9" * 4300, "is too large: more than 14000 bits"),
    (("friends", "6"), "--bound", "65535^1000", "'65535^1000' is too large: more than 14000 bits"),
    (("derive",), "--a", "1538", "at most 1537, got '1538'"),
    (("derive",), "--a", "10000000", "at most 1537, got '10000000'"),
    (("check", "--q-factors", "7,11,13,17,19,23"), "--a", "2000", "at most 1537, got '2000'"),
    (("check", "--a", "1"), "--q-factors", "7^10800002,11,13,17,19,23",
     "Q is too large: more than 14000 bits in '7^10800002,11,13,17,19,23'"),
    (("check", "--a", "1"), "--q-factors", "7^4987", "Q is too large: more than 14000 bits in '7^4987'"),
    # One bit over the per-prime cap, refused before its primality test.
    (("check", "--a", "1"), "--q-factors", f"7,{2 ** 1280 + 1}", "a prime of Q has more than 1280 bits in '7,"),
    # Past the 4300 digits that int() reads by default.
    (("sigma",), None, "9" * 4301, "is too large: more than 14000 bits"),
    (("check", "--a", "1"), "--q-factors", "7^" + "9" * 4301, "is too large: more than 14000 bits"),
]


@pytest.mark.parametrize("args, flag, value, reason", _PAST_THE_CAPS)
def test_inputs_past_the_caps_are_usage_errors(run_cli, args, flag, value, reason):
    if flag is None:
        runs = [run_cli(*args, value, timeout=10)]
        where = "argument n"
    else:
        name = "FRIENDLY_" + flag[2:].replace("-", "_").upper()
        runs = [run_cli(*args, flag, value, timeout=10), run_cli(*args, env={name: value}, timeout=10)]
        where = f"argument {flag}"
    for result in runs:
        assert result.returncode == 2, result.stderr
        assert where in result.stderr and reason in result.stderr
        assert "Traceback" not in result.stderr


def test_the_largest_accepted_inputs_print(run_cli):
    n = 2 ** 13999  # 14000 bits
    assert run_cli("sigma", "2^13999").stdout == f"sigma({n}) = {2 * n - 1}\n"
    assert run_cli("index", "2^13999").stdout == f"I({n}) = {2 * n - 1}/{n}\n"
    rc = derive_residue_class(1537)
    assert run_cli("derive", "--a", "1537").stdout == f"residue: {rc.residue}\nmodulus: {rc.modulus}\n"
    assert (7 ** 4986).bit_length() == 13998  # the largest power of 7 within the cap
    for a, q_factors in (("1537", "7,11,13,17,19,23"), ("1", "7^4986")):
        result = run_cli("check", "--a", a, "--q-factors", q_factors)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith(f"candidate: 5^{2 * int(a)} * 7^")
        assert "overall: RejectedBy(" in result.stdout


def test_the_slowest_accepted_check_finishes_in_seconds(run_cli):
    # The ten largest primes below 2^1280, at the per-prime cap, and the
    # largest below 2^1200: as many primality tests at the cap as Q's
    # 14,000 bits hold. About 3 s on a 2-core VM.
    below_the_cap = (10277, 10043, 8865, 7703, 7607, 7079, 5907, 3149, 1665, 1175)
    primes = [2 ** 1200 - 305] + [2 ** 1280 - k for k in below_the_cap]
    assert math.prod(primes).bit_length() <= 14000
    started = time.perf_counter()
    result = run_cli("check", "--a", "1537", "--q-factors", ",".join(map(str, primes)), timeout=60)
    assert result.returncode == 0, result.stderr
    assert "overall: RejectedBy(prime_support)" in result.stdout
    assert time.perf_counter() - started < 30


# --- environment variable fallbacks -------------------------------------------------


def test_env_provides_missing_flag(run_cli):
    result = run_cli("friends", "6", env={"FRIENDLY_BOUND": "1000"})
    assert result.returncode == 0
    assert "[28, 496]" in result.stdout


def test_flag_beats_env(run_cli):
    result = run_cli("friends", "6", "--bound", "100", env={"FRIENDLY_BOUND": "1000"})
    assert result.stdout == "friends of 6 up to 100: [28]\n"


def test_env_json_toggle(run_cli):
    result = run_cli("sigma", "25", env={"FRIENDLY_JSON": "1"})
    doc = json.loads(result.stdout)
    assert doc["result"]["sigma"] == "31"


@pytest.mark.parametrize("text", ["0^-1", "2^-1", "2^200000000"])
def test_bad_power_is_usage_error(run_cli, text):
    positional = run_cli("sigma", text, timeout=10)
    env = run_cli("friends", "6", env={"FRIENDLY_BOUND": text}, timeout=10)
    for result in (positional, env):
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert text in result.stderr


def test_closed_stdout_is_not_a_traceback():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "friendly", "scan", "--bound", "10^6", "--index", "9/5", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # the reader goes away before any output is written
    with proc:
        stderr = proc.stderr.read().decode()
        proc.wait(timeout=60)
    assert "Traceback" not in stderr
    assert stderr == ""


SCAN = ("scan", "--bound", "20000", "--index", "9/5")


@pytest.mark.parametrize(
    "name, args, flag, value, bad",
    [
        ("WORKERS", SCAN, "--workers", "2", "two"),
        ("SEGMENT_SIZE", SCAN, "--segment-size", "4096", "wide"),
        ("RESUME", SCAN, "--resume", None, None),
        ("A", ("derive",), "--a", "3", "three"),
        ("Q_FACTORS", ("check", "--a", "1"), "--q-factors", "7^2,11", "4^2"),
        ("SUITE", ("verify",), "--suite", "bounds", None),
    ],
)
def test_env_fallback_matches_flag(run_cli, tmp_path, name, args, flag, value, bad):
    def report(result):
        assert result.returncode == 0, result.stderr
        return re.sub(r"\(\d+ ms\)", "(ms)", result.stdout)  # verify timings vary

    if value is None:  # a checkpoint path, one per run
        by_flag = run_cli(*args, flag, str(tmp_path / "flag.cp"))
        by_env = run_cli(*args, env={"FRIENDLY_" + name: str(tmp_path / "env.cp")})
        assert (tmp_path / "flag.cp").exists() and (tmp_path / "env.cp").exists()
    else:
        by_flag = run_cli(*args, flag, value)
        by_env = run_cli(*args, env={"FRIENDLY_" + name: value})
    assert report(by_env) == report(by_flag)
    if bad is not None:
        result = run_cli(*args, env={"FRIENDLY_" + name: bad})
        assert result.returncode == 2
        assert bad in result.stderr
        assert "Traceback" not in result.stderr


def test_bad_env_value_is_usage_error(run_cli):
    result = run_cli("friends", "6", env={"FRIENDLY_BOUND": "soon"})
    assert result.returncode == 2


# --- numeric argument forms ----------------------------------------------------------


def test_parse_natural_forms():
    assert parse_natural("10000000") == 10 ** 7
    assert parse_natural("10^7") == 10 ** 7
    assert parse_natural("1_000") == 1000
    assert parse_natural("2^8192") == 2 ** 8192
    assert parse_natural("2^13999") == 2 ** 13999  # 14000 bits: the cap
    assert parse_natural("9" * 4214) == int("9" * 4214)  # 13999 bits
    for text in ("0^-1", "2^-1", "-2^2", "2^14000", "65535^1000", "9" * 4215, "10^1000000000000"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_natural(text)


def test_caret_form_on_the_command_line(run_cli):
    result = run_cli("sigma", "10^1")
    assert result.stdout == "sigma(10) = 18\n"
