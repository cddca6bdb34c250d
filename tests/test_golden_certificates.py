"""Pinned certificate bytes.

`test_cli.py::test_byte_identical_output` compares two runs of the same code,
so it cannot see a change in what `realize` emits.  These SHA-256 digests of
the canonical JSON pin the output itself: any change to the candidate
sampler, the Krylov walk, alpha or the serialization shows up here.  The
diagonal digests were taken from the code before `Matrix` moved to integer
rows with one common denominator; the dense ones from `realize` working in
the target's own coordinates, where A is the drawn integer matrix and P the
Krylov basis of A D at e1.  Diagonal targets came out byte-identical across
that change.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest

from traceforms import Matrix, SearchPolicy, SymmetricForm, realize, verify_certificate
from traceforms.serialize import canonical_dumps, certificate_to_json

DENSE5 = [
    [2, 1, 0, -1, 3],
    [1, -3, 2, 0, 1],
    [0, 2, 5, 1, -2],
    [-1, 0, 1, 4, 1],
    [3, 1, -2, 1, -1],
]
DENSE8 = [[(3 * i * j + i + j) % 7 - 3 + (2 * i + 1 if i == j else 0) for j in range(8)] for i in range(8)]


def _dense(n):
    # the ROADMAP Baseline dense target: entries uniform in [-5, 5] from
    # random.Random(n), plus 11n on the diagonal
    rng = random.Random(n)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-5, 5)
        rows[i][i] += 11 * n
    return rows


RATIONAL4 = [
    [F(1, 2), F(1, 3), 0, F(-2, 5)],
    [F(1, 3), F(-3, 4), F(1, 6), 1],
    [0, F(1, 6), 2, F(3, 7)],
    [F(-2, 5), 1, F(3, 7), F(-5, 3)],
]

# name: (form, seed, SHA-256 of canonical_dumps(certificate_to_json(realize(...))))
GOLDEN = {
    "n1": (
        SymmetricForm.diagonal([F(-3, 7)]),
        0,
        "1246fb3509a9a91f0e4d7218b4fcd6cdb08d6b6d10f84b6e8f7f05137f4cbc7f",
    ),
    "rational_diag": (
        SymmetricForm.diagonal([F(1, 2), F(-3, 5), 7]),
        1,
        "2d630787f89a7b09cf82fdccc6bfef7202496980856cbd3a63d9c6d1812f0e76",
    ),
    "dense5": (
        SymmetricForm(Matrix(DENSE5)),
        2,
        "962fd5ee7092e3a05f2ebd020a5d7ce3472e1e6e5a6f3cf5c20cee3c8a208871",
    ),
    "dense8": (
        SymmetricForm(Matrix(DENSE8)),
        1,
        "80da76874b486f8257a3be735503f5901b1e0ded09d6cc86a284271ce352b9ae",
    ),
    "dense16": (
        SymmetricForm(Matrix(_dense(16))),
        1,
        "16dc37b242712eccd30fc7e4819162ce80817468480ba4447b7471a5fe3c2489",
    ),
    "rational_dense4": (
        SymmetricForm(Matrix(RATIONAL4)),
        3,
        "951637d2f5c252b7710e9d7b76f8bed83c4629ddf1a48b906256cb492b1c221f",
    ),
    "diag1to12": (
        SymmetricForm.diagonal(range(1, 13)),
        1,
        "c7abb23fc260fa34b59b788582b2a75f34bed94f5b9be6834e0f443b8a70dad2",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_certificate_bytes_are_pinned(name):
    form, seed, digest = GOLDEN[name]
    cert = realize(form, SearchPolicy(seed=seed))
    assert verify_certificate(cert)
    text = canonical_dumps(certificate_to_json(cert))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
