"""Shared JSON encoding.

Every number crossing the JSON boundary is an exact rational rendered as the
string "p/q", or just "p" when the denominator is 1.  Polynomials are
coefficient arrays lowest degree first, matrices are row-major nested arrays,
forms are {"dim": n, "gram": [[..]]} with the shorthand {"diag": [..]}
accepted on input.  Input arrays must be JSON arrays (a string is not the
list of its characters) and dim a JSON integer.  Output is canonical: sorted
keys, fixed separators, trailing newline, no floats anywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import Matrix, RationalPoly
from .quadform import SymmetricForm, WittInvariants
from .traceform import Certificate


def rational_to_str(x) -> str:
    return str(Fraction(x))


def rational_from_str(s) -> Fraction:
    if isinstance(s, bool) or isinstance(s, float):
        raise ValueError(f"expected an exact rational string, got {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise ValueError(f"expected an exact rational string, got {s!r}")
    return Fraction(s)


def _array(data, what: str) -> list:
    # a JSON array only: a string is not read as the list of its characters
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a JSON array")
    return data


def poly_to_json(f: RationalPoly) -> list:
    return [rational_to_str(c) for c in f.coeffs]


def poly_from_json(data) -> RationalPoly:
    return RationalPoly([rational_from_str(c) for c in _array(data, "polynomial")])


def matrix_to_json(m: Matrix) -> list:
    return [[rational_to_str(x) for x in row] for row in m.rows]


def matrix_from_json(data) -> Matrix:
    return Matrix([[rational_from_str(x) for x in _array(row, "matrix row")] for row in _array(data, "matrix")])


def form_to_json(form: SymmetricForm) -> dict:
    return {"dim": form.dim, "gram": matrix_to_json(form.gram)}


def form_from_json(data) -> SymmetricForm:
    if not isinstance(data, dict):
        raise ValueError("form must be an object")
    if "diag" in data:
        form = SymmetricForm.diagonal([rational_from_str(x) for x in _array(data["diag"], "diag")])
    elif "gram" in data:
        form = SymmetricForm(matrix_from_json(data["gram"]))
    else:
        raise ValueError("form needs 'gram' or 'diag'")
    if "dim" in data and _int_from_json(data, "dim") != form.dim:
        raise ValueError("dim does not match the Gram matrix")
    return form


def invariants_to_json(inv: WittInvariants) -> dict:
    return {
        "dim": inv.dim,
        "disc": str(inv.disc),
        "signature": list(inv.signature),
        "hasse_minus_one_at": [
            str(p) for p in sorted(inv.hasse_minus_at, key=lambda v: (isinstance(v, str), v))
        ],
    }


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "D": form_to_json(cert.D),
        "A": matrix_to_json(cert.A),
        "f": poly_to_json(cert.f),
        "alpha": poly_to_json(cert.alpha),
        "P": matrix_to_json(cert.P),
        "gram": matrix_to_json(cert.gram),
        "seed": cert.seed,
        "tries": cert.tries,
    }


def _int_from_json(data: dict, key: str) -> int:
    # a JSON integer only: no float, bool or numeric string is coerced
    value = data.get(key, 0)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be a JSON integer, got {value!r}")
    return value


def certificate_from_json(data) -> Certificate:
    if not isinstance(data, dict):
        raise ValueError("certificate must be an object")
    missing = {"D", "A", "f", "alpha", "P", "gram"} - set(data)
    if missing:
        raise ValueError(f"certificate is missing {sorted(missing)}")
    return Certificate(
        D=form_from_json(data["D"]),
        A=matrix_from_json(data["A"]),
        f=poly_from_json(data["f"]),
        alpha=poly_from_json(data["alpha"]),
        P=matrix_from_json(data["P"]),
        gram=matrix_from_json(data["gram"]),
        seed=_int_from_json(data, "seed"),
        tries=_int_from_json(data, "tries"),
    )


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
