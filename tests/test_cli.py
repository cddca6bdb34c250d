import argparse
import contextlib
import io
import json
import re
import resource
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from traceforms import quadform
from traceforms.algebra.intmath import FACTOR_LIMIT
from traceforms.cli import build_parser, main
from group_oracles import hand_built_groups

from traceforms.groups import MAX_GROUP_ORDER, SemidirectGroup, verify_group


def _run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# CPU seconds a fresh CLI process may spend; every caller here takes about
# 0.1 s (startup included), so a hang that comes back is stopped and fails its
# test instead of stalling the suite
FRESH_PROCESS_CPU_S = 10


def _run_fresh_process(argv, *python_flags, cpu_seconds=FRESH_PROCESS_CPU_S):
    # past the CPU budget the kernel stops the child (SIGXCPU), and a process
    # that waits without spending CPU meets the wall-clock timeout
    def limit_cpu():
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds))

    cmd = [sys.executable, *python_flags, "-m", "traceforms.cli", *argv]
    return subprocess.run(
        cmd, capture_output=True, text=True, preexec_fn=limit_cpu, timeout=6 * cpu_seconds
    )


def _assert_fresh_input_error(run):
    # exit 2 with a single error line on stderr and nothing on stdout
    assert run.returncode == 2 and run.stdout == "", run
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr


def _assert_input_error(argv, capsys, match=""):
    # exit 2 with a single error line on stderr (containing `match`) and no traceback
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert match in err


def test_realize_one_dim(capsys):
    code, out = _run_main(["realize", "--diag", "5"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["f"] == ["-5", "1"]
    assert data["alpha"] == ["5"]


def test_realize_verify_round_trip(tmp_path, capsys):
    code, out = _run_main(["realize", "--diag", "1,1", "--seed", "7"], capsys)
    assert code == 0
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out)
    code, out = _run_main(["verify", str(cert_file)], capsys)
    assert code == 0
    assert json.loads(out) == {"valid": True}


def test_realize_reverifies_in_fresh_process(tmp_path):
    first = _run_fresh_process(["realize", "--diag", "2,-3,5", "--seed", "9"])
    assert first.returncode == 0
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(first.stdout)
    second = _run_fresh_process(["verify", str(cert_file)])
    assert second.returncode == 0
    assert json.loads(second.stdout) == {"valid": True}


def test_byte_identical_output():
    a = _run_fresh_process(["realize", "--diag", "1,-1,7", "--seed", "123"])
    b = _run_fresh_process(["realize", "--diag", "1,-1,7", "--seed", "123"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    c = _run_fresh_process(["galois", "--diag", "1,2,3", "--primes", "40", "--seed", "5"])
    d = _run_fresh_process(["galois", "--diag", "1,2,3", "--primes", "40", "--seed", "5"])
    assert c.stdout == d.stdout
    # stripping asserts must not change any result
    e = _run_fresh_process(["realize", "--diag", "1,-1,7", "--seed", "123"], "-O")
    g = _run_fresh_process(["galois", "--diag", "1,2,3", "--primes", "40", "--seed", "5"], "-O")
    assert e.returncode == 0 and e.stdout == a.stdout
    assert g.returncode == c.returncode and g.stdout == c.stdout


def test_realize_degenerate_is_usage_error(tmp_path, capsys):
    code, _ = _run_main(["realize", "--diag", "1,0"], capsys)
    assert code == 2
    # rank-deficient grams with no zero on the diagonal, integer and rational
    form_file = tmp_path / "form.json"
    degenerate = (
        [["1", "2"], ["2", "4"]],
        [["2", "1", "2"], ["1", "3", "1"], ["2", "1", "2"]],
        [["1/2", "1/3"], ["1/3", "2/9"]],
    )
    for gram in degenerate:
        form_file.write_text(json.dumps({"gram": gram}))
        _assert_input_error(["realize", "--form", str(form_file)], capsys, "degenerate")
        run = _run_fresh_process(["realize", "--form", str(form_file)])
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1 and "Traceback" not in run.stderr


def test_verify_detects_tampered_alpha(tmp_path, capsys):
    code, out = _run_main(["realize", "--diag", "1,1", "--seed", "7"], capsys)
    data = json.loads(out)
    data["alpha"] = ["1"]
    bad_file = tmp_path / "tampered.json"
    bad_file.write_text(json.dumps(data))
    code, out = _run_main(["verify", str(bad_file)], capsys)
    assert code == 1
    assert json.loads(out) == {"valid": False, "failed_clause": "gram_mismatch"}
    # D = A = P = gram = I2 and f = (x - 1)^2 = charpoly(A D): a repeated root
    # is a repeated factor, so an inseparable f fails as reducible
    identity = [["1", "0"], ["0", "1"]]
    data.update(A=identity, P=identity, gram=identity, f=["1", "-2", "1"])
    bad_file.write_text(json.dumps(data))
    code, out = _run_main(["verify", str(bad_file)], capsys)
    assert code == 1
    assert json.loads(out) == {"valid": False, "failed_clause": "not_irreducible"}


def test_verify_refuses_a_non_square_matrix(tmp_path, capsys):
    # every Matrix is square: a 2 x 3 A is malformed input, refused when read
    _, out = _run_main(["realize", "--diag", "1,1", "--seed", "7"], capsys)
    data = json.loads(out)
    data["A"] = [row + ["0"] for row in data["A"]]
    bad_file = tmp_path / "wide.json"
    bad_file.write_text(json.dumps(data))
    run = _run_fresh_process(["verify", str(bad_file)])
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("error: malformed certificate: ") and run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr


def _respell(value: str, k: int):
    """The exact rational `value` ("p" or "p/q") in the k-th of several
    non-canonical spellings the reader accepts."""
    x = Fraction(value)
    if x.denominator == 1:
        p = x.numerator
        return (f"+{p}" if p >= 0 else f" {p}", f" {p} ", f"{2 * p}/2", p)[k % 4]
    e = next((e for e in range(x.denominator.bit_length()) if 10**e % x.denominator == 0), None)
    if k % 2 and e is not None:  # a terminating decimal, as "1/2" is "0.5"
        digits = abs(x.numerator) * 10**e // x.denominator
        return f"{'-' if x < 0 else ''}{digits // 10**e}.{digits % 10**e:0{e}d}"
    return f" {3 * x.numerator}/{3 * x.denominator}"


def test_verify_reads_non_canonical_spellings(tmp_path):
    # the same certificate with "+3", " 3 ", "6/2", "0.5" and JSON integers in
    # place of canonical strings verifies with the same stdout, in a fresh
    # process and under -O; "1/0", "3/-4" and a float are input errors
    run = _run_fresh_process(["realize", "--diag", "1/2,-3,5/4,7", "--seed", "2"])
    assert run.returncode == 0
    cert = json.loads(run.stdout)
    counter = iter(range(10**6))

    def respell(node):
        if isinstance(node, list):
            return [respell(x) for x in node]
        return _respell(node, next(counter))

    respelled = {key: respell(cert[key]) for key in ("A", "f", "alpha", "P", "gram")}
    respelled["D"] = {"gram": respell(cert["D"]["gram"]), "dim": cert["D"]["dim"]}
    spellings = {x for row in respelled["D"]["gram"] + respelled["P"] for x in row}
    assert {"+0", " 0 ", "0/2", 0, "0.5"} <= spellings and any(str(x).startswith(" -") for x in spellings)
    canonical, rewritten = tmp_path / "canonical.json", tmp_path / "rewritten.json"
    canonical.write_text(run.stdout)
    rewritten.write_text(json.dumps({**cert, **respelled}))
    for flags in ((), ("-O",)):
        want = _run_fresh_process(["verify", str(canonical)], *flags)
        got = _run_fresh_process(["verify", str(rewritten)], *flags)
        assert want.returncode == got.returncode == 0
        assert got.stdout == want.stdout == '{\n  "valid": true\n}\n'
        for bad in ("1/0", "3/-4", 0.5):
            broken = tmp_path / "broken.json"
            a = [row[:] for row in cert["A"]]
            a[0][0] = bad
            broken.write_text(json.dumps({**cert, "A": a}))
            refused = _run_fresh_process(["verify", str(broken)], *flags)
            assert refused.returncode == 2 and refused.stdout == ""
            assert refused.stderr.startswith("error: ") and refused.stderr.count("\n") == 1
            assert "expected an exact rational" in refused.stderr and "Traceback" not in refused.stderr


def test_verify_malformed_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"D": [truncated')
    code, _ = _run_main(["verify", str(bad)], capsys)
    assert code == 2
    missing = tmp_path / "missing_keys.json"
    missing.write_text('{"D": {"diag": ["1"]}}')
    code, _ = _run_main(["verify", str(missing)], capsys)
    assert code == 2
    code, _ = _run_main(["verify", str(tmp_path / "nonexistent.json")], capsys)
    assert code == 2
    # seed and tries are JSON integers: a float is malformed, not truncated
    code, out = _run_main(["realize", "--diag", "1,1", "--seed", "7"], capsys)
    floated = tmp_path / "float_seed.json"
    floated.write_text(json.dumps({**json.loads(out), "seed": 7.9}))
    _assert_input_error(["verify", str(floated)], capsys, "seed")
    # so is D's dim, and a string is not the array of its characters
    code, out = _run_main(["realize", "--diag", "1,1", "--seed", "0"], capsys)
    cert = json.loads(out)
    for change, message in (
        ({"D": {"diag": "11"}}, "diag must be a JSON array"),
        ({"D": {**cert["D"], "dim": True}}, "dim must be a JSON integer"),
        ({"D": {**cert["D"], "dim": 2.0}}, "dim must be a JSON integer"),
        ({"f": "".join(cert["f"])}, "polynomial must be a JSON array"),
        ({"alpha": cert["alpha"][0]}, "polynomial must be a JSON array"),
        ({"A": ["".join(row) for row in cert["A"]]}, "matrix row must be a JSON array"),
        ({"gram": "11"}, "matrix must be a JSON array"),
    ):
        floated.write_text(json.dumps({**cert, **change}))
        _assert_input_error(["verify", str(floated)], capsys, message)


def test_invariants_output(capsys):
    code, out = _run_main(["invariants", "--diag", "2,3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["disc"] == "6"
    assert data["hasse_minus_one_at"] == ["2", "3"]
    assert data["signature"] == [2, 0]


def test_invariants_degenerate(capsys):
    code, _ = _run_main(["invariants", "--diag", "1,0"], capsys)
    assert code == 2
    # one above FACTOR_LIMIT: an input outside the supported range, not a verdict
    _assert_input_error(["invariants", "--diag", "1,3317044064679887385961981"], capsys, "FACTOR_LIMIT")


def test_equivalent_exit_codes(capsys):
    code, out = _run_main(["equivalent", "--diag", "1,1", "--diag", "2,2"], capsys)
    assert code == 0 and json.loads(out)["equivalent"] is True
    code, out = _run_main(["equivalent", "--diag", "1,1", "--diag", "1,-1"], capsys)
    assert code == 1 and json.loads(out)["equivalent"] is False
    code, _ = _run_main(["equivalent", "--diag", "1,1"], capsys)
    assert code == 2
    _assert_input_error(
        ["equivalent", "--diag", "1,3317044064679887385961981", "--diag", "1,1"], capsys, "FACTOR_LIMIT"
    )


EQUIVALENT_6_10_15_VS_1_1_1 = """{
  "equivalent": false,
  "invariants": [
    {
      "dim": 3,
      "disc": "1",
      "hasse_minus_one_at": [
        "2",
        "3"
      ],
      "signature": [
        3,
        0
      ]
    },
    {
      "dim": 3,
      "disc": "1",
      "hasse_minus_one_at": [],
      "signature": [
        3,
        0
      ]
    }
  ]
}
"""


def test_equivalent_reads_each_form_once(monkeypatch, capsys):
    # one diagonalization per form and one factorization per numerator and
    # denominator, shared by the verdict and the report
    calls = {"congruence_diagonalize": 0, "factorize": 0}

    def counting(name):
        inner = getattr(quadform, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(quadform, name, counting(name))
    code, out = _run_main(["equivalent", "--diag", "6,10,15", "--diag", "1,1,1"], capsys)
    assert (code, out) == (1, EQUIVALENT_6_10_15_VS_1_1_1)
    assert calls == {"congruence_diagonalize": 2, "factorize": 12}


def test_equivalent_proves_no_place_again(monkeypatch, capsys):
    # the places come from factorize, which has proven them, so the invariants
    # read the private _hilbert_symbol; the public hilbert_symbol proves its
    # place with is_prime on every call, once per finite-place symbol
    primality, symbols = [], []
    real_is_prime, real_symbol = quadform.is_prime, quadform._hilbert_symbol
    monkeypatch.setattr(quadform, "is_prime", lambda n: primality.append(n) or real_is_prime(n))
    monkeypatch.setattr(
        quadform, "_hilbert_symbol", lambda a, b, v: symbols.append((a, b, v)) or real_symbol(a, b, v)
    )
    code, out = _run_main(["equivalent", "--diag", "6,10,15", "--diag", "1,1,1"], capsys)
    assert (code, out) == (1, EQUIVALENT_6_10_15_VS_1_1_1)
    assert primality == []
    # the same symbols through the public entry point prove 8 places again
    taken = list(symbols)
    finite = [v for _, _, v in taken if v != quadform.REAL_PLACE]
    assert len(finite) == 8
    for a, b, v in taken:
        assert quadform.hilbert_symbol(a, b, v) == real_symbol(a, b, v)
    assert primality == finite


def test_form_file_input(tmp_path, capsys):
    form_file = tmp_path / "form.json"
    form_file.write_text(json.dumps({"gram": [["0", "1"], ["1", "0"]]}))
    code, out = _run_main(["invariants", "--form", str(form_file)], capsys)
    assert code == 0
    assert json.loads(out)["disc"] == "-1"
    diag_file = tmp_path / "diag.json"
    diag_file.write_text(json.dumps({"diag": ["1", "-1"]}))
    code, out = _run_main(
        ["equivalent", "--form", str(form_file), "--form", str(diag_file)], capsys
    )
    assert code == 0
    diag_file.write_text(json.dumps({"diag": "123"}))  # a string, not three entries
    _assert_input_error(["invariants", "--form", str(diag_file)], capsys, "diag must be a JSON array")


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    # the JSON decoder recurses once per level, so 100,000 nested arrays
    # exhaust the recursion limit: that is malformed input, not a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    _assert_input_error(["verify", str(deep)], capsys, "malformed JSON")
    _assert_input_error(["invariants", "--form", str(deep)], capsys, "malformed JSON")


def test_galois_cli(capsys):
    code, out = _run_main(
        ["galois", "--n", "3", "--diag", "1,1,1", "--primes", "150", "--seed", "1"],
        capsys,
    )
    data = json.loads(out)
    assert data["n"] == 3
    assert data["sn_verdict"] in ("certified", "inconclusive")
    assert (code == 0) == (data["sn_verdict"] == "certified")
    counts = data["cycle_stats"]["counts"]
    assert sum(counts.values()) == data["cycle_stats"]["primes_used"] == 150

    code, _ = _run_main(["galois", "--diag", "1,0,1", "--primes", "10"], capsys)
    assert code == 2
    code, _ = _run_main(["galois", "--n", "2", "--diag", "1,1,1", "--primes", "10"], capsys)
    assert code == 2
    code, _ = _run_main(["galois", "--primes", "10"], capsys)
    assert code == 2
    _assert_input_error(["galois", "--diag", "1,abc"], capsys)
    _assert_input_error(["galois", "--diag", "1,2,3", "--primes", "-5"], capsys)
    _assert_input_error(["galois", "--diag", "1,2,3", "--bound", "0"], capsys)
    _assert_input_error(["galois", "--diag", "1,2,3", "--bound", "-3"], capsys)
    _assert_input_error(["galois", "--n", "0"], capsys, "--n must be positive")
    _assert_input_error(["galois", "--n", "-2"], capsys, "--n must be positive")


def test_group_verify_cli(capsys):
    code, out = _run_main(["group-verify", "--p", "2", "--k", "1", "--m", "3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["lemma_a"] is True
    assert data["lemma_b"]["derived"] is True and data["lemma_b"]["exhaustive"] is True
    assert all(row["ok"] for row in data["lemma_c"])

    code, _ = _run_main(["group-verify", "--p", "2", "--k", "1", "--m", "4"], capsys)
    assert code == 2
    _assert_input_error(["group-verify", "--p", "2", "--k", "1", "--m", "3", "--n", "0"], capsys)
    _assert_input_error(["group-verify", "--p", "2", "--k", "1", "--m", "15", "--n", "4"], capsys)
    # orders above the cap: one line naming the constant, before any O(order)
    # work and before m is factored (so an m above FACTOR_LIMIT is refused for
    # the order); order 200,006 comes first, so a missing cap fails in seconds
    # instead of building 2^40 elements
    for p, k, m in (("2", "1", "100003"), ("2", "40", "3"), ("2", "1", str(FACTOR_LIMIT + 1))):
        _assert_input_error(
            ["group-verify", "--p", p, "--k", k, "--m", m], capsys, f"MAX_GROUP_ORDER = {MAX_GROUP_ORDER}"
        )
    run = _run_fresh_process(["group-verify", "--p", "2", "--k", "1", "--m", "100003"])
    assert run.returncode == 2 and run.stdout == ""
    assert "Traceback" not in run.stderr and "MAX_GROUP_ORDER" in run.stderr

    code, out = _run_main(
        ["group-verify", "--p", "2", "--k", "1", "--m", "15", "--n", "5"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["lemma_c"] == [{"n": 5, "index_H0": 10, "index_H1": 5, "ok": True}]


def test_group_verify_at_the_order_cap(monkeypatch, capsys):
    # order 199,998 = 2 * 99999, 99999 = 3^2 * 41 * 271: every property is
    # read off its check, so no closure runs and the 12 divisors cost a
    # few products each
    def no_closure(self, gens):
        raise RuntimeError("a closure ran")

    monkeypatch.setattr(SemidirectGroup, "subgroup_closure", no_closure)
    code, out = _run_main(["group-verify", "--p", "2", "--k", "1", "--m", "99999"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 199998 and data["lemma_a"] is True
    assert data["lemma_b"] == {"derived": True, "exhaustive": None}
    assert len(data["lemma_c"]) == 12 and all(row["ok"] for row in data["lemma_c"])
    # nor on a hand-built group past the enumeration's cutoff, where (a) is
    # false on most of them
    past_cutoff = [g for g in hand_built_groups() if g.order > 300]
    assert len(past_cutoff) == 495
    verdicts = [verify_group(g)["lemma_a"] for g in past_cutoff]
    assert True in verdicts and False in verdicts


def test_a_huge_decimal_exponent_is_refused_in_a_fresh_process(tmp_path, capsys):
    # main lifts the int-digit limit for each command, and the reader then
    # bounds a decimal exponent by Python's default limit: 10**99999999 is
    # never built, on the command line or in a certificate
    run = _run_fresh_process(["invariants", "--diag", "1e99999999,1"], cpu_seconds=5)
    _assert_fresh_input_error(run)
    code, out = _run_main(["realize", "--diag", "1,2", "--seed", "1"], capsys)
    assert code == 0
    cert = json.loads(out)
    cert["f"][0] = "1e99999999"
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(cert))
    _assert_fresh_input_error(_run_fresh_process(["verify", str(cert_file)], cpu_seconds=5))


def test_group_verify_exhaustive_at_order_10006(capsys):
    # the forced enumeration is near linear in the order: one class closure
    # per class of cyclic subgroups, joins built from cosets
    code, out = _run_main(["group-verify", "--p", "2", "--k", "1", "--m", "5003", "--exhaustive"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 10006
    assert data["lemma_b"] == {"derived": True, "exhaustive": True}


def test_usage_error_exit_code(capsys):
    assert main(["realize"]) == 2  # no form given
    assert main(["no-such-command"]) == 2
    assert main(["invariants", "--diag", "1,1", "--json"]) == 2  # no such flag
    # options that no caller set are gone: the search schedule and the prime
    # floor are constants, and every command writes its report; only realize
    # and galois draw anything, so only they take --seed
    for argv in (
        ["realize", "--diag", "1,1", "--bounds", "1"],
        ["realize", "--diag", "1,1", "--tries", "1"],
        ["galois", "--n", "3", "--prime-floor", "5"],
        ["invariants", "--diag", "1,1", "--quiet"],
        ["verify", "cert.json", "--seed", "1"],
        ["invariants", "--diag", "2,3", "--seed", "99"],
        ["equivalent", "--diag", "1,1", "--diag", "2,2", "--seed", "1"],
        ["group-verify", "--p", "2", "--k", "1", "--m", "3", "--seed", "1"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err and "Traceback" not in captured.err


def _readme_cli_section() -> str:
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return text[text.index("\n## CLI\n") : text.index("\n## Certificate format\n")]


def test_readme_cli_commands_run(tmp_path, monkeypatch, capsys):
    # every command of the README's CLI block exits as documented: N where a
    # trailing "# exit N" says so, else 0; "> FILE" saves stdout for the next
    monkeypatch.chdir(tmp_path)
    block = _readme_cli_section().split("```sh\n")[1].split("```")[0]
    commands = [line for line in block.splitlines() if line.startswith("traceforms ")]
    assert commands
    for line in commands:
        command, _, comment = line.partition("#")
        documented = re.match(r"\s*exit (\d)", comment)
        argv = shlex.split(command)[1:]
        target = None
        if ">" in argv:
            argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == (int(documented.group(1)) if documented else 0), line
        if target:
            Path(target).write_text(out)


def test_readme_cli_section_names_every_flag():
    # an option the README does not document fails here
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {flag for sub in commands.choices.values() for action in sub._actions for flag in action.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _readme_cli_section()))
    assert flags - {"-h", "--help"} == named


def test_certificate_beyond_int_str_digit_limit(tmp_path, capsys):
    # alpha's entries run past Python's default 4300-digit int<->str limit;
    # main lifts it for the command and restores it on return
    limit = sys.get_int_max_str_digits()
    diag = ",".join(str(10**1000 + k) for k in (1, 3, 7))
    code, out = _run_main(["realize", "--diag", diag, "--seed", "1"], capsys)
    assert code == 0
    assert max(len(x) for x in json.loads(out)["alpha"]) > limit
    assert sys.get_int_max_str_digits() == limit
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out)
    code, out = _run_main(["verify", str(cert_file)], capsys)
    assert code == 0 and json.loads(out) == {"valid": True}
    assert sys.get_int_max_str_digits() == limit


# argv fuzzing: every subcommand with a random subset of its flags, each value
# drawn from a pool of good and bad inputs; sizes stay small so a run is cheap
BAD = st.sampled_from(["", "0", "-3", "abc", "1/0"])


def _pool(*good):
    return st.one_of(st.sampled_from(good), BAD)


SMALL_INTS = _pool("1", "2", "3")
DIAGS = st.one_of(
    st.lists(st.sampled_from(["1", "-1", "2", "2/3", "-5"]), min_size=1, max_size=3).map(",".join),
    st.just(f"1,{FACTOR_LIMIT + 1}"),
    BAD,
)
PRIMES = _pool("5", "20")
GROUP = {"--p": _pool("2", "3"), "--k": _pool("1", "2"), "--m": _pool("3", "7", "15")}
# flags every drawn argv carries (the default of 300 galois primes is slow),
# then optional ones; equivalent needs a second --diag to reach a verdict
REQUIRED = {
    "realize": {"--diag": DIAGS},
    "verify": {},
    "invariants": {"--diag": DIAGS},
    "equivalent": {"--diag": DIAGS},
    "galois": {"--primes": PRIMES},
    "group-verify": GROUP,
}
OPTIONAL = {
    "realize": {"--seed": SMALL_INTS},
    "verify": {},
    "invariants": {},
    "equivalent": {"--diag": DIAGS},
    "galois": {"--n": SMALL_INTS, "--diag": DIAGS, "--bound": SMALL_INTS, "--seed": SMALL_INTS},
    "group-verify": {"--n": _pool("1", "3", "5"), "--exhaustive": st.none()},
}


def _draw_flags(data, pool, optional):
    names = sorted(pool)
    if optional:
        names = data.draw(st.lists(st.sampled_from(names), unique=True)) if names else []
    argv = []
    for name in names:
        value = data.draw(pool[name])
        argv += [name] if value is None else [name, value]
    return argv


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_argv_fuzz(data):
    command = data.draw(st.sampled_from(sorted(REQUIRED)))
    argv = [command]
    if command == "verify":
        argv.append(data.draw(_pool("missing.json")))
    argv += _draw_flags(data, REQUIRED[command], optional=False)
    argv += _draw_flags(data, OPTIONAL[command], optional=True)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
        assert "Traceback" not in err
    else:
        json.loads(out)
