import json
from fractions import Fraction

import pytest

from traceforms.algebra import Matrix, RationalPoly
from traceforms.quadform import SymmetricForm, invariants
from traceforms.serialize import (
    canonical_dumps,
    certificate_from_json,
    certificate_to_json,
    form_from_json,
    form_to_json,
    invariants_to_json,
    matrix_from_json,
    matrix_to_json,
    poly_from_json,
    poly_to_json,
    rational_from_str,
    rational_to_str,
)
from traceforms.traceform import SearchPolicy, realize


def test_rational_strings():
    assert rational_to_str(Fraction(3)) == "3"
    assert rational_to_str(Fraction(-1, 2)) == "-1/2"
    assert rational_from_str("7/3") == Fraction(7, 3)
    assert rational_from_str("-4") == Fraction(-4)
    assert rational_from_str(5) == Fraction(5)
    with pytest.raises(ValueError):
        rational_from_str(1.5)
    with pytest.raises(ValueError):
        rational_from_str(True)
    with pytest.raises(ValueError):
        rational_from_str("abc")


def test_poly_and_matrix_round_trip():
    f = RationalPoly((Fraction(1, 2), 0, -3, 1))
    assert poly_from_json(poly_to_json(f)) == f
    m = Matrix([[Fraction(1, 3), 2], [-5, Fraction(7, 2)]])
    assert matrix_from_json(matrix_to_json(m)) == m
    # a JSON string is not the array of its characters
    for bad in ("123", {"0": "1"}, 7, None):
        with pytest.raises(ValueError, match="polynomial must be a JSON array"):
            poly_from_json(bad)
        with pytest.raises(ValueError, match="matrix must be a JSON array"):
            matrix_from_json(bad)
    with pytest.raises(ValueError, match="matrix row must be a JSON array"):
        matrix_from_json(["10", "01"])


def test_form_round_trip_and_shorthand():
    form = SymmetricForm(Matrix([[0, 1], [1, 0]]))
    assert form_from_json(form_to_json(form)) == form
    assert form_from_json({"diag": ["2", "-1/2"]}) == SymmetricForm.diagonal(
        [2, Fraction(-1, 2)]
    )
    with pytest.raises(ValueError):
        form_from_json({"dim": 3, "gram": [["1", "0"], ["0", "1"]]})
    with pytest.raises(ValueError):
        form_from_json({"dim": 2})
    with pytest.raises(ValueError):
        form_from_json({"gram": [["1", "2"], ["3", "4"]]})  # not symmetric
    # diag is a JSON array and dim a JSON integer, checked against either shape
    with pytest.raises(ValueError, match="diag must be a JSON array"):
        form_from_json({"diag": "123"})
    with pytest.raises(ValueError, match="matrix row must be a JSON array"):
        form_from_json({"gram": [["1", "0"], "01"]})
    for bad in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="dim must be a JSON integer"):
            form_from_json({"dim": bad, "gram": [["1", "0"], ["0", "1"]]})
        with pytest.raises(ValueError, match="dim must be a JSON integer"):
            form_from_json({"dim": bad, "diag": ["1", "1"]})
    with pytest.raises(ValueError, match="dim does not match"):
        form_from_json({"dim": 3, "diag": ["1", "1"]})
    assert form_from_json({"dim": 2, "diag": ["1", "1"]}) == SymmetricForm.diagonal([1, 1])


def test_certificate_round_trip():
    cert = realize(SymmetricForm.diagonal([2, -3]), SearchPolicy(seed=5))
    data = json.loads(canonical_dumps(certificate_to_json(cert)))
    assert certificate_from_json(data) == cert
    with pytest.raises(ValueError):
        certificate_from_json({"D": form_to_json(cert.D)})
    # seed and tries are JSON integers, defaulting to 0; nothing is coerced
    for key in ("seed", "tries"):
        for bad in (7.9, 7.0, True, "7", None):
            with pytest.raises(ValueError, match=key):
                certificate_from_json({**data, key: bad})
    unnumbered = certificate_from_json({k: v for k, v in data.items() if k not in ("seed", "tries")})
    assert (unnumbered.seed, unnumbered.tries) == (0, 0)


def test_invariants_json_includes_real_place():
    inv = invariants(SymmetricForm.diagonal([-1, -1]))
    data = invariants_to_json(inv)
    assert data["disc"] == "1"
    assert data["signature"] == [0, 2]
    assert data["hasse_minus_one_at"] == ["2", "inf"]


def test_canonical_dumps_is_stable():
    payload = {"b": 1, "a": ["x"], "nested": {"z": "1/2", "y": 3}}
    assert canonical_dumps(payload) == canonical_dumps(dict(reversed(list(payload.items()))))
    assert canonical_dumps(payload).endswith("\n")
