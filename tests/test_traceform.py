import contextlib
import random
import sys
from dataclasses import replace
from fractions import Fraction

import matrix_oracles as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceforms.algebra import (
    Matrix,
    RationalPoly,
    charpoly,
    discriminant,
    is_irreducible_over_rationals,
    power_traces,
    trace_moments,
)
from matrix_oracles import krylov_matrix
from poly_oracles import add, mul, remainder
from traceform_oracles import realize_via_congruence
from traceforms.algebra import poly
from traceforms.galois import generic_experiment
from traceforms.quadform import DegenerateForm, SymmetricForm, equivalent, hilbert_symbol
from traceforms import traceform
from traceforms.cli import main
from traceforms.serialize import canonical_dumps, certificate_to_json
from traceforms.traceform import (
    Certificate,
    InconsistentHankel,
    SearchExhausted,
    SearchPolicy,
    _mix,
    realize,
    scaled_trace_gram,
    solve_alpha,
    verify_certificate,
)

F2 = RationalPoly((-2, 0, 1))  # x^2 - 2
I2 = Matrix([[1, 0], [0, 1]])
ALPHA2 = RationalPoly((Fraction(1, 2), Fraction(1, 4)))


def _random_symmetric(rng, n, span=9):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randrange(-span, span + 1))
    return Matrix(rows)


def _target(rng, n, kind):
    """A nondegenerate symmetric D: diagonal with nonzero integer entries,
    dense with integer entries, or dense with rational entries."""
    if kind == "diagonal":
        return Matrix.diagonal([rng.randrange(-9, 10) or 1 for _ in range(n)])
    while True:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                den = rng.randrange(1, 5) if kind == "rational" else 1
                rows[i][j] = rows[j][i] = Fraction(rng.randrange(-9, 10), den)
        d = Matrix(rows)
        if oracle.det(d.rows) != 0:
            return d


TARGET_KINDS = ("diagonal", "dense", "rational")


def test_scaled_trace_gram_examples():
    assert scaled_trace_gram(RationalPoly((-3, 1)), RationalPoly((7,))) == Matrix([[7]])
    assert scaled_trace_gram(F2, RationalPoly.one()) == Matrix([[2, 0], [0, 4]])
    assert scaled_trace_gram(F2, ALPHA2) == Matrix([[1, 1], [1, 2]])
    # alpha = 0 mod f, reduced or not, has the zero trace form
    zero = Matrix([[0, 0], [0, 0]])
    assert scaled_trace_gram(F2, RationalPoly()) == zero
    assert scaled_trace_gram(F2, mul(F2, (3,))) == zero
    assert scaled_trace_gram(F2, mul(F2, (1, Fraction(-2, 3), 5))) == zero
    # trace_moments refuses a non-monic or constant modulus for it
    for f in (RationalPoly((-3, 2)), RationalPoly((5,)), RationalPoly()):
        with pytest.raises(ValueError, match="monic modulus of degree >= 1"):
            scaled_trace_gram(f, RationalPoly.one())


def test_scaled_trace_gram_is_hankel_and_nonsingular():
    rng = random.Random(50)
    polys = [F2, RationalPoly((-1, -1, 0, 1)), RationalPoly((1, 0, 0, 0, 1)), RationalPoly((-1, -1, 0, 0, 0, 1))]
    for f in polys:
        for _ in range(10):
            alpha = RationalPoly(
                [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(f.degree)]
            )
            if remainder(alpha, f).is_zero:
                continue
            g = scaled_trace_gram(f, alpha)
            n = f.degree
            for i in range(n):
                for j in range(n):
                    if i + j < 2 * n - 1 and i > 0 and j < n - 1:
                        assert g[i, j] == g[i - 1, j + 1]
            assert g.det() != 0  # trace pairing of a separable algebra


def test_solve_alpha_examples():
    assert solve_alpha(F2, (2, 0, 4)) == RationalPoly.one()
    assert solve_alpha(F2, (1, 1, 2)) == ALPHA2
    with pytest.raises(InconsistentHankel):
        solve_alpha(F2, (1, 1, 5))
    with pytest.raises(ValueError):
        solve_alpha(F2, (1, 1))
    # (x - 1)^2 (x + 2) has a repeated root: its trace pairing is singular,
    # and the kernel's own error is not chained onto the one raised
    with pytest.raises(ValueError, match="trace pairing is singular") as raised:
        solve_alpha(mul((-1, 1), (-1, 1), (2, 1)), (1, 0, 0, 0, 0))
    assert raised.value.__cause__ is None and raised.value.__suppress_context__


def test_solve_alpha_round_trip():
    rng = random.Random(51)
    # the last two have non-integral coefficients: monic models with b = 12 and b = 18
    for f in (
        F2,
        RationalPoly((-2, 0, 0, 1)),
        RationalPoly((-1, -1, 0, 0, 1)),
        RationalPoly((Fraction(1, 6), Fraction(-1, 4), 0, 1)),
        RationalPoly((Fraction(2, 9), Fraction(-1, 3), 0, Fraction(1, 2), 0, 1)),
    ):
        n = f.degree
        for _ in range(20):
            alpha = RationalPoly(
                [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(n)]
            )
            if remainder(alpha, f).is_zero:
                continue
            g = scaled_trace_gram(f, alpha)
            moments = [g[0, 0]] + [g[0, j] for j in range(1, n)] + [
                g[n - 1, j] for j in range(1, n)
            ]
            assert solve_alpha(f, moments) == remainder(alpha, f)


def _solve_alpha_oracle(f: RationalPoly, moments) -> RationalPoly:
    """solve_alpha on Fractions: the pairing system (Tr(x^(i+j))) solved by
    Gauss-Jordan over Q, and the overdetermined moments recomputed from alpha."""
    n = f.degree
    moments = [Fraction(m) for m in moments]
    traces = power_traces(f, 3 * n - 3)
    pairing = [[traces[i + j] for j in range(n)] for i in range(n)]
    try:
        alpha = RationalPoly(oracle.solve_linear(pairing, moments[:n]))
    except ValueError:
        raise ValueError("trace pairing is singular; modulus is not separable") from None
    for m in range(n, 2 * n - 1):
        if sum((c * traces[k + m] for k, c in enumerate(alpha.coeffs)), Fraction(0)) != moments[m]:
            raise InconsistentHankel(f"moment {m} is inconsistent")
    return alpha


# integer and non-integral coefficients mix, so the monic model's b ranges over 1 and above
COEFFS = st.one_of(st.integers(-9, 9).map(Fraction), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))


@st.composite
def _moment_problems(draw):
    """(kind, f, moments): f monic of degree 1..8, repeated roots forced for
    'inseparable'; moments the trace moments of some alpha, one of the
    overdetermined ones then shifted for 'perturbed', or drawn freely."""
    kind = draw(st.sampled_from(("consistent", "perturbed", "inseparable", "arbitrary")))
    if kind == "inseparable":
        h = RationalPoly(draw(st.lists(COEFFS, min_size=1, max_size=3)) + [1])
        f = mul(h, h, draw(st.lists(COEFFS, max_size=8 - 2 * h.degree)) + [1])
    else:
        f = RationalPoly(draw(st.lists(COEFFS, min_size=1, max_size=8)) + [1])
    n = f.degree
    if kind == "arbitrary":
        return kind, f, draw(st.lists(COEFFS, min_size=2 * n - 1, max_size=2 * n - 1))
    alpha = RationalPoly(draw(st.lists(COEFFS, min_size=1, max_size=n)))
    moments = list(trace_moments(f, alpha, 2 * n - 1))
    if kind == "perturbed" and n > 1:
        moments[draw(st.integers(n, 2 * n - 2))] += draw(COEFFS.filter(bool))
    return kind, f, moments


@settings(max_examples=300, deadline=None)
@given(_moment_problems())
def test_solve_alpha_matches_fraction_oracle(problem):
    kind, f, moments = problem
    try:
        expected = _solve_alpha_oracle(f, moments)
    except ValueError as exc:  # InconsistentHankel is one
        with pytest.raises(ValueError) as raised:
            solve_alpha(f, moments)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        outcome = type(exc)
    else:
        assert solve_alpha(f, moments) == expected
        outcome = RationalPoly
    if discriminant(f) == 0:
        assert outcome is ValueError  # the singular pairing, never a verdict on the moments
    elif kind == "perturbed" and f.degree > 1:
        assert outcome is InconsistentHankel
    elif kind in ("consistent", "perturbed"):
        assert outcome is RationalPoly


def test_golden_certificate():
    # worked instance: D = I2, A = [[1,1],[1,-1]]
    d_form = SymmetricForm(I2)
    a = Matrix([[1, 1], [1, -1]])
    f = charpoly(a * d_form.gram)
    assert f == F2
    p = krylov_matrix(a, (Fraction(1), Fraction(0)))
    assert p == Matrix([[1, 1], [0, 1]])
    gram = p.transpose() * d_form.gram * p
    assert gram == Matrix([[1, 1], [1, 2]])
    alpha = solve_alpha(f, (gram[0, 0], gram[0, 1], gram[1, 1]))
    assert alpha == ALPHA2
    assert scaled_trace_gram(f, alpha) == gram
    cert = Certificate(D=d_form, A=a, f=f, alpha=alpha, P=p, gram=gram)
    assert verify_certificate(cert)


def test_verify_rejects_tampering():
    d_form = SymmetricForm(I2)
    a = Matrix([[1, 1], [1, -1]])
    p = Matrix([[1, 1], [0, 1]])
    gram = Matrix([[1, 1], [1, 2]])
    cert = Certificate(D=d_form, A=a, f=F2, alpha=ALPHA2, P=p, gram=gram)

    tampered = replace(cert, alpha=RationalPoly.one())
    check = verify_certificate(tampered)
    assert not check and check.failed_clause == "gram_mismatch"

    tampered = replace(cert, f=RationalPoly((-1, 0, 1)))
    check = verify_certificate(tampered)
    assert not check and check.failed_clause == "charpoly_mismatch"

    tampered = replace(cert, A=Matrix([[1, 1], [0, -1]]))
    check = verify_certificate(tampered)
    assert not check and check.failed_clause == "a_not_symmetric"

    tampered = replace(cert, P=Matrix([[1, 1], [1, 1]]))
    check = verify_certificate(tampered)
    assert not check and check.failed_clause == "congruence_mismatch"

    tampered = replace(cert, alpha=mul(F2, (2,)))
    check = verify_certificate(tampered)
    assert not check and check.failed_clause == "alpha_zero"

    tampered = replace(cert, gram=Matrix([[1]]))
    check = verify_certificate(tampered)
    assert not check and check.failed_clause == "shape_mismatch"

    # reducible but correct charpoly: construct from a diagonal A over diag D
    d2 = SymmetricForm.diagonal([1, 1])
    a2 = Matrix.diagonal([1, 2])
    f2 = charpoly(a2 * d2.gram)
    cert2 = Certificate(D=d2, A=a2, f=f2, alpha=RationalPoly.one(), P=I2, gram=I2)
    check = verify_certificate(cert2)
    assert not check and check.failed_clause == "not_irreducible"

    # A = D = P = gram = I2: f = charpoly(A D) = (x - 1)^2 has a repeated root,
    # a repeated factor, so the inseparable f fails as reducible
    cert3 = Certificate(D=SymmetricForm(I2), A=I2, f=RationalPoly((1, -2, 1)), alpha=RationalPoly.one(), P=I2, gram=I2)
    check = verify_certificate(cert3)
    assert not check and check.failed_clause == "not_irreducible"


def test_verify_rejects_a_singular_p():
    # replacing one column of a valid P by the sum of the others makes P
    # singular, so P^T D P is singular and cannot equal the nonsingular gram
    for diag, seed in (([1, -1], 0), ([-5, 7, 11], 3), ([2, 3, -1, 6], 5)):
        cert = realize(SymmetricForm.diagonal(diag), SearchPolicy(seed=seed))
        assert verify_certificate(cert)
        n = len(diag)
        for k in range(n):
            rows = [list(row) for row in cert.P.rows]
            for row in rows:
                row[k] = sum(row[j] for j in range(n) if j != k)
            singular = Matrix(rows)
            assert oracle.det(singular.rows) == 0
            check = verify_certificate(replace(cert, P=singular))
            assert not check and check.failed_clause == "congruence_mismatch"


@contextlib.contextmanager
def _counted(function):
    """Count calls of the poly function through every package module that binds it."""
    calls = []
    original = getattr(poly, function)

    def spy(f, *args):
        calls.append(f)
        return original(f, *args)

    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.startswith("traceforms") and getattr(module, function, None) is original:
                patch.setattr(module, function, spy)
        yield calls


def test_one_discriminant_per_separability_decision():
    # irreducibility decides separability, so realize reads one integer model
    # (and so one discriminant) per candidate and one in its closing verify
    for diag, seed, tries in (([1, 1], 9, 11), ([1, 1, 1], 21, 8), ([2, -3, 5], 9, 1)):
        with _counted("_integer_model") as calls:
            cert = realize(SymmetricForm.diagonal(diag), SearchPolicy(seed=seed))
        assert cert.tries == tries and len(calls) == tries + 1
        with _counted("_integer_model") as calls:
            assert verify_certificate(cert)
        assert len(calls) == 1

    # an inseparable f is reducible: its one decision names the clause
    cert = Certificate(D=SymmetricForm(I2), A=I2, f=RationalPoly((1, -2, 1)), alpha=RationalPoly.one(), P=I2, gram=I2)
    with _counted("_integer_model") as calls:
        assert verify_certificate(cert).failed_clause == "not_irreducible"
    assert len(calls) == 1

    # generic_experiment: one model serves the separability name (seed 4
    # inseparable), the cycle-type walk and its witness (seed 3, irreducible)
    # and the complete decision the walk leaves open (seed 0, reducible)
    for seed in (3, 4, 0):
        with _counted("_integer_model") as calls:
            generic_experiment([1, 1], 1, 5, seed=seed)
        assert len(calls) == 1


def test_solve_alpha_computes_power_sums_once():
    # one Newton pass up to 3n-3 serves both the pairing system and the
    # check of the overdetermined moments n..2n-2
    for diag, seed in (([5], 0), ([1, 1], 9), ([2, -3, 5], 9), ([1, -2, 3, -4, 5, 6], 1)):
        cert = realize(SymmetricForm.diagonal(diag), SearchPolicy(seed=seed))
        n = len(diag)
        moments = [cert.gram[0, m] if m < n else cert.gram[m - n + 1, n - 1] for m in range(2 * n - 1)]
        with _counted("_newton_sums") as calls:
            assert solve_alpha(cert.f, moments) == cert.alpha
        assert calls == [cert.f]
    with _counted("_newton_sums") as calls, pytest.raises(InconsistentHankel):
        solve_alpha(F2, (1, 1, 5))
    assert len(calls) == 1


def test_unreduced_alpha():
    # alpha + f h is the same element of Q[x]/(f) as alpha, whatever its degree:
    # its trace moments are alpha's, so scaled_trace_gram and verify read it
    # unreduced, and f h itself has the zero trace form, which verify names
    # alpha_zero
    rng = random.Random(57)
    cert = realize(SymmetricForm.diagonal([2, -3, 5]), SearchPolicy(seed=9))
    zero = Matrix([[0] * 3] * 3)
    for _ in range(10):
        h = RationalPoly(
            [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(rng.randrange(1, 9))]
        )
        if h.is_zero:
            continue
        assert scaled_trace_gram(F2, add(ALPHA2, mul(F2, h))) == scaled_trace_gram(F2, ALPHA2)
        unreduced = replace(cert, alpha=add(cert.alpha, mul(cert.f, h)))
        assert unreduced.alpha.degree >= cert.f.degree
        assert scaled_trace_gram(cert.f, unreduced.alpha) == cert.gram
        assert verify_certificate(unreduced)
        assert scaled_trace_gram(cert.f, mul(cert.f, h)) == zero
        check = verify_certificate(replace(cert, alpha=mul(cert.f, h)))
        assert not check and check.failed_clause == "alpha_zero"


def _gram_oracle(f: RationalPoly, alpha: RationalPoly) -> Matrix:
    """(Tr(alpha x^(i+j))) as the traces of alpha(C) C^(i+j), C the companion
    matrix of the monic f (multiplication by x on Q[x]/(f)): Horner on
    Fraction rows, with no power sums and no reduction mod f."""
    n = f.degree
    companion = tuple(
        tuple(-f.coeffs[i] if j == n - 1 else Fraction(i == j + 1) for j in range(n)) for i in range(n)
    )
    acc = tuple((Fraction(0),) * n for _ in range(n))
    for c in reversed(alpha.coeffs):
        acc = oracle.mul(acc, companion)
        acc = tuple(tuple(x + c * (i == j) for j, x in enumerate(row)) for i, row in enumerate(acc))
    traces = []
    for _ in range(2 * n - 1):
        traces.append(sum(acc[i][i] for i in range(n)))
        acc = oracle.mul(acc, companion)
    return Matrix([[traces[i + j] for j in range(n)] for i in range(n)])


@st.composite
def _verify_problems(draw):
    """(cert, h, kind): D diagonal and A symmetric with small integer entries
    (zeros too), n <= 4, f = charpoly(A D).  alpha has degree up to 3n, plus
    or equal to f h at times; gram is alpha's oracle Gram matrix or random,
    P random.  kind 'krylov' takes P from the Krylov walk of A D at e1 and
    alpha solving the moments of P^T D P (for irreducible f), so alpha's
    Gram matrix is P^T D P: a valid certificate, before alpha is shifted."""
    n = draw(st.integers(1, 4))
    small = st.integers(-3, 3)
    upper = {(i, j): draw(small) for i in range(n) for j in range(i, n)}
    a = Matrix([[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])
    form = SymmetricForm.diagonal(draw(st.lists(small, min_size=n, max_size=n)))
    f = charpoly(a * form.gram)
    h = RationalPoly(draw(st.lists(COEFFS, min_size=1, max_size=n + 1)))
    square = st.lists(st.lists(COEFFS, min_size=n, max_size=n), min_size=n, max_size=n)
    kind = draw(st.sampled_from(("oracle", "random", "krylov")))
    alpha = RationalPoly(draw(st.lists(COEFFS, max_size=3 * n + 1)))
    p = Matrix(draw(square))
    if kind == "krylov" and is_irreducible_over_rationals(f):
        p = krylov_matrix(a * form.gram, [Fraction(i == 0) for i in range(n)])
        target = p.transpose() * form.gram * p
        alpha = solve_alpha(f, [target[0, m] if m < n else target[m - n + 1, n - 1] for m in range(2 * n - 1)])
    shift = draw(st.sampled_from(("none", "plus", "equal")))
    if shift == "plus":
        alpha = add(alpha, mul(f, h))
    elif shift == "equal":
        alpha = mul(f, h)
    gram = _gram_oracle(f, alpha) if kind != "random" else Matrix(draw(square))
    return Certificate(D=form, A=a, f=f, alpha=alpha, P=p, gram=gram), h, kind


@settings(max_examples=200, deadline=None)
@given(_verify_problems(), st.sampled_from(("A", "P", "gram")), st.integers(0, 5), st.integers(0, 5))
def test_verify_is_total_and_reads_alpha_zero_off_the_trace_form(problem, name, rows, cols):
    cert, h, kind = problem
    check = verify_certificate(cert)  # total: a verdict, never an exception
    # alpha and alpha + f h are one element of Q[x]/(f): one verdict
    shifted = verify_certificate(replace(cert, alpha=add(cert.alpha, mul(cert.f, h))))
    assert (shifted.ok, shifted.failed_clause) == (check.ok, check.failed_clause)
    # an A, P or gram of another shape is refused when built, or fails shape_mismatch
    if (rows, cols) != (cert.D.dim,) * 2:
        try:
            reshaped = Matrix([[i - j for j in range(cols)] for i in range(rows)])
        except ValueError:
            assert rows != cols or rows == 0
        else:
            assert verify_certificate(replace(cert, **{name: reshaped})).failed_clause == "shape_mismatch"
    if not is_irreducible_over_rationals(cert.f):
        assert check.failed_clause == "not_irreducible"
        return
    assert (check.failed_clause == "alpha_zero") == remainder(cert.alpha, cert.f).is_zero
    if kind != "random":
        # the oracle Gram matrix is the one verify computes
        assert check.failed_clause != "gram_mismatch"
    if kind == "krylov" and check.failed_clause != "alpha_zero":
        assert check


def test_realize_one_dimensional():
    cert = realize(SymmetricForm.diagonal([5]))
    assert cert.f == RationalPoly((-5, 1))
    assert cert.alpha == RationalPoly((5,))
    assert cert.A == Matrix([[1]]) and cert.P == Matrix([[1]])
    assert verify_certificate(cert)


def test_realize_examples():
    for diag in ([1, -1], [1, 1], [2, 3], [-5, 7, 11]):
        cert = realize(SymmetricForm.diagonal(diag), SearchPolicy(seed=3))
        assert verify_certificate(cert)
        assert equivalent(SymmetricForm(cert.gram), SymmetricForm.diagonal(diag))


DEGENERATE_DENSE = (
    [[1, 2], [2, 4]],  # rank 1, no zero on the diagonal
    [[2, 1, 2], [1, 3, 1], [2, 1, 2]],  # a repeated row
    [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 9)]],  # rational, rank 1
)


def test_realize_rejects_degenerate():
    with pytest.raises(DegenerateForm):
        realize(SymmetricForm.diagonal([1, 0]))
    with pytest.raises(DegenerateForm):
        realize(SymmetricForm(Matrix([[1, 1], [1, 1]])))
    for rows in DEGENERATE_DENSE:
        assert oracle.det(rows) == 0 and all(rows[i][i] for i in range(len(rows)))
        with pytest.raises(DegenerateForm):
            realize(SymmetricForm(Matrix(rows)))


def test_realize_dense_targets():
    rng = random.Random(52)
    done = 0
    while done < 8:
        n = rng.randrange(2, 5)
        gram = _random_symmetric(rng, n, span=6)
        if gram.det() == 0:
            continue
        done += 1
        cert = realize(SymmetricForm(gram), SearchPolicy(seed=done))
        assert verify_certificate(cert)
        assert equivalent(SymmetricForm(cert.gram), SymmetricForm(gram))


def _bytes(cert):
    return canonical_dumps(certificate_to_json(cert))


def test_realize_matches_congruence_oracle_on_diagonal_targets():
    # Q = I for a diagonal target, so working in D's own coordinates changes
    # no byte of the certificate
    rng = random.Random(58)
    for n in range(1, 11):
        for _ in range(2):
            diag = [Fraction(rng.choice((-1, 1)) * rng.randrange(1, 20), rng.randrange(1, 6)) for _ in range(n)]
            form, policy = SymmetricForm.diagonal(diag), SearchPolicy(seed=rng.randrange(100))
            assert _bytes(realize(form, policy)) == _bytes(realize_via_congruence(form, policy))


def test_realize_agrees_with_congruence_oracle_on_dense_targets():
    # on dense targets A and P change, but both certificates verify, so each
    # gram is a scaled trace form congruent to the same D
    rng = random.Random(59)
    for kind in ("dense", "rational"):
        for seed in range(8):
            form = SymmetricForm(_target(rng, rng.randrange(2, 6), kind))
            cert = realize(form, SearchPolicy(seed=seed))
            ref = realize_via_congruence(form, SearchPolicy(seed=seed))
            assert verify_certificate(cert) and verify_certificate(ref)
            assert cert.D == ref.D == form


def test_realize_takes_one_determinant_and_no_congruence(monkeypatch):
    # degeneracy is det D = 0, decided once; nothing diagonalizes the target
    diagonalized, determinants = [], []
    original_det = Matrix.det
    monkeypatch.setattr(Matrix, "det", lambda m: determinants.append(m) or original_det(m))
    for name, module in list(sys.modules.items()):
        original = getattr(module, "congruence_diagonalize", None)
        if name.startswith("traceforms") and original is not None:
            monkeypatch.setattr(
                module, "congruence_diagonalize", lambda b, original=original: diagonalized.append(b) or original(b)
            )
    rng = random.Random(60)
    for kind in TARGET_KINDS:
        for n in (1, 3, 5):
            form = SymmetricForm(_target(rng, n, kind))
            determinants.clear()
            assert verify_certificate(realize(form, SearchPolicy(seed=n)))
            assert determinants == [form.gram]
    assert diagonalized == []


def test_certificate_a_is_the_seeded_draw(monkeypatch):
    # A is the integer matrix the search drew, not a conjugate of it; three
    # tries per bound make some searches cross into bound 2
    monkeypatch.setattr(traceform, "TRIES_PER_BOUND", 3)
    rng = random.Random(61)
    bounds = []
    for kind in TARGET_KINDS:
        for seed in range(5):
            n = rng.randrange(2, 7)
            cert = realize(SymmetricForm(_target(rng, n, kind)), SearchPolicy(seed=seed))
            bounds.append(traceform.BOUND_SCHEDULE[(cert.tries - 1) // traceform.TRIES_PER_BOUND])
            draw = Matrix.random_symmetric(n, bounds[-1], random.Random(_mix(seed, cert.tries - 1)))
            assert cert.A == draw and cert.A.denominator == 1
    assert max(bounds) >= 2


def test_seed_determinism():
    form = SymmetricForm.diagonal([3, -2, 5])
    a = realize(form, SearchPolicy(seed=42))
    b = realize(form, SearchPolicy(seed=42))
    assert a == b
    c = realize(form, SearchPolicy(seed=43))
    assert verify_certificate(c)


def test_inexact_inputs_are_refused():
    # 0.1 is 3602879701896397/36028797018963968 as a float: no entry point
    # silently certifies or classifies that instead of 1/10
    refusals = (
        lambda: realize(SymmetricForm.diagonal([0.1, 1])),
        lambda: SymmetricForm.diagonal([True, 1]),
        lambda: RationalPoly((1, 0.5)),
        lambda: generic_experiment([0.5, 1], 9, 5),
        lambda: hilbert_symbol(0.5, 3, 3),
        lambda: solve_alpha(F2, [2, 0, 4.0]),
    )
    for refused in refusals:
        with pytest.raises(ValueError, match="^expected an exact rational"):
            refused()
    assert realize(SymmetricForm.diagonal(["1/10", 1])) == realize(SymmetricForm.diagonal([Fraction(1, 10), 1]))


def test_a_string_is_not_a_sequence():
    # "12" is not the row [1, 2], nor "123" the coefficients 1, 2, 3
    refusals = (
        lambda: Matrix("12"),
        lambda: Matrix(["12", "34"]),
        lambda: Matrix.diagonal("11"),
        lambda: SymmetricForm.diagonal("11"),
        lambda: RationalPoly("123"),
    )
    for refused in refusals:
        with pytest.raises(ValueError, match="not the string"):
            refused()


SEARCH_EXHAUSTED_SEED_2 = """{
  "detail": "no irreducible specialization in 2 tries (bounds (1,), seed 2)",
  "error": "search_exhausted",
  "seed": 2
}
"""


def test_search_exhausted_on_pathological_policy(monkeypatch, capsys):
    # two draws at bound 1: both of seed 2's give diag(1, 1) a reducible charpoly
    monkeypatch.setattr(traceform, "BOUND_SCHEDULE", (1,))
    monkeypatch.setattr(traceform, "TRIES_PER_BOUND", 2)
    with pytest.raises(SearchExhausted, match=r"in 2 tries \(bounds \(1,\), seed 2\)$"):
        realize(SymmetricForm.diagonal([1, 1]), SearchPolicy(seed=2))
    # seed 4 succeeds at its first draw under the same schedule
    assert realize(SymmetricForm.diagonal([1, 1]), SearchPolicy(seed=4)).tries == 1
    # the CLI reports the exhausted search as a negative verdict, exit 1
    assert main(["realize", "--diag", "1,1", "--seed", "2"]) == 1
    assert capsys.readouterr().out == SEARCH_EXHAUSTED_SEED_2


def test_hankel_property_before_filtering():
    # (P^T D P)_{ij} depends only on i+j for any symmetric A, D: a consequence
    # of (AD)^T D = D (AD), which needs no diagonal D
    for kind in TARGET_KINDS:
        rng = random.Random(53)
        checked = 0
        while checked < 100:
            n = rng.randrange(2, 7)
            d = _target(rng, n, kind)
            a = _random_symmetric(rng, n)
            m = a * d
            try:
                p = krylov_matrix(m, tuple(Fraction(1 if i == 0 else 0) for i in range(n)))
            except oracle.SingularKrylov:
                continue
            checked += 1
            gram = p.transpose() * d * p
            for i in range(n):
                for j in range(n):
                    if i > 0 and j < n - 1:
                        assert gram[i, j] == gram[i - 1, j + 1]


def test_self_adjointness_identity():
    # (AD)^T D = D (AD) exactly, for all symmetric A and D
    rng = random.Random(54)
    for _ in range(100):
        n = rng.randrange(1, 6)
        a = _random_symmetric(rng, n)
        d = _random_symmetric(rng, n)
        m = a * d
        assert m.transpose() * d == d * m


def test_cyclicity_under_irreducibility():
    # for irreducible charpoly(A D) every nonzero vector is cyclic for A D,
    # whether D is diagonal, dense or rational: realize's walk at e1 needs it
    for kind in TARGET_KINDS:
        rng = random.Random(55)
        found = 0
        while found < 50:
            n = rng.randrange(2, 5)
            d = _target(rng, n, kind)
            a = _random_symmetric(rng, n, span=5)
            m = a * d
            if not is_irreducible_over_rationals(charpoly(m)):
                continue
            found += 1
            vectors = [
                tuple(Fraction(1 if i == j else 0) for i in range(n)) for j in range(n)
            ] + [tuple(Fraction(rng.randrange(-5, 6)) for _ in range(n)) for _ in range(5)]
            for v in vectors:
                if all(x == 0 for x in v):
                    continue
                assert krylov_matrix(m, v).det() != 0


def test_certificate_bookkeeping():
    rng = random.Random(56)
    for seed in range(10):
        n = rng.randrange(1, 5)
        diag = [rng.randrange(-9, 10) or 1 for _ in range(n)]
        form = SymmetricForm.diagonal(diag)
        cert = realize(form, SearchPolicy(seed=seed))
        assert verify_certificate(cert)
        # det(gram) = det(D) det(P)^2 exactly
        assert cert.gram.det() == form.gram.det() * cert.P.det() ** 2
        # round trip through the invariant classifier
        assert equivalent(form, SymmetricForm(cert.gram))
