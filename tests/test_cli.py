import contextlib
import io
import json
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from traceforms.algebra.intmath import FACTOR_LIMIT
from traceforms.cli import main


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


def test_realize_degenerate_is_usage_error(capsys):
    code, _ = _run_main(["realize", "--diag", "1,0"], capsys)
    assert code == 2
    _assert_input_error(["realize", "--diag", "1,1", "--bounds", ""], capsys)


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
    _assert_input_error(["galois", "--n", "0"], capsys)
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

    code, out = _run_main(
        ["group-verify", "--p", "2", "--k", "1", "--m", "15", "--n", "5"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["lemma_c"] == [{"n": 5, "index_H0": 10, "index_H1": 5, "ok": True}]


def test_quiet_flag(capsys):
    code, out = _run_main(["invariants", "--diag", "1,1", "--quiet"], capsys)
    assert code == 0 and out == ""


def test_usage_error_exit_code(capsys):
    assert main(["realize"]) == 2  # no form given
    assert main(["no-such-command"]) == 2


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
