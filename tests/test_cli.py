import contextlib
import io
import json
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from traceforms import quadform
from traceforms.algebra.intmath import FACTOR_LIMIT
from traceforms.cli import main
from traceforms.groups import MAX_GROUP_ORDER


def _run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_fresh_process(argv, *python_flags):
    cmd = [sys.executable, *python_flags, "-m", "traceforms.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True)


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
    _assert_input_error(["realize", "--diag", "1,1", "--bounds", ""], capsys)
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
    identity = [["1", "0"], ["0", "1"]]
    data.update(A=identity, P=identity, gram=identity, f=["1", "-2", "1"])
    bad_file.write_text(json.dumps(data))
    code, out = _run_main(["verify", str(bad_file)], capsys)
    assert code == 1
    assert json.loads(out) == {"valid": False, "failed_clause": "not_separable"}


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
    _assert_input_error(
        ["galois", "--diag", "1,2,3", "--primes", "5", "--prime-floor", "3317044064679887385961981"], capsys
    )


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


def test_group_verify_exhaustive_at_order_10006(capsys):
    # the forced enumeration is near linear in the order: one class closure
    # per class of cyclic subgroups, joins built from cosets
    code, out = _run_main(["group-verify", "--p", "2", "--k", "1", "--m", "5003", "--exhaustive"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 10006
    assert data["lemma_b"] == {"derived": True, "exhaustive": True}


def test_quiet_flag(capsys):
    code, out = _run_main(["invariants", "--diag", "1,1", "--quiet"], capsys)
    assert code == 0 and out == ""


def test_usage_error_exit_code(capsys):
    assert main(["realize"]) == 2  # no form given
    assert main(["no-such-command"]) == 2
    assert main(["invariants", "--diag", "1,1", "--json"]) == 2  # no such flag


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
BOUNDS = _pool("1", "1,2", "2,1")
PRIMES = _pool("5", "20")
FLOORS = _pool("100", str(FACTOR_LIMIT + 1))
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
    "realize": {"--bounds": BOUNDS, "--tries": SMALL_INTS},
    "verify": {},
    "invariants": {},
    "equivalent": {"--diag": DIAGS},
    "galois": {"--n": SMALL_INTS, "--diag": DIAGS, "--bound": SMALL_INTS, "--prime-floor": FLOORS},
    "group-verify": {"--n": _pool("1", "3", "5"), "--exhaustive": st.none()},
}
COMMON = {"--seed": SMALL_INTS, "--quiet": st.none()}


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
    argv += _draw_flags(data, COMMON, optional=True)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
        assert "Traceback" not in err
    elif "--quiet" in argv:
        assert out == ""
    else:
        json.loads(out)
