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
from traceforms.algebra import poly
from traceforms.galois import generic_experiment
from traceforms.quadform import DegenerateForm, SymmetricForm, equivalent
from traceforms.traceform import (
    Certificate,
    InconsistentHankel,
    SearchExhausted,
    SearchPolicy,
    realize,
    scaled_trace_gram,
    solve_alpha,
    verify_certificate,
)

X = RationalPoly.x()
F2 = X * X - 2
ALPHA2 = RationalPoly((Fraction(1, 2), Fraction(1, 4)))


def _random_symmetric(rng, n, span=9):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randrange(-span, span + 1))
    return Matrix(rows)


def test_scaled_trace_gram_examples():
    assert scaled_trace_gram(RationalPoly((-3, 1)), RationalPoly((7,))) == Matrix([[7]])
    assert scaled_trace_gram(F2, RationalPoly.one()) == Matrix([[2, 0], [0, 4]])
    assert scaled_trace_gram(F2, ALPHA2) == Matrix([[1, 1], [1, 2]])
    with pytest.raises(ValueError):
        scaled_trace_gram(F2, F2 * 3)  # alpha = 0 mod f


def test_scaled_trace_gram_is_hankel_and_nonsingular():
    rng = random.Random(50)
    polys = [F2, X**3 - X - 1, X**4 + 1, X**5 - X - 1]
    for f in polys:
        for _ in range(10):
            alpha = RationalPoly(
                [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(f.degree)]
            )
            if (alpha % f).is_zero:
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
        solve_alpha((X - 1) ** 2 * (X + 2), (1, 0, 0, 0, 0))
    assert raised.value.__cause__ is None and raised.value.__suppress_context__


def test_solve_alpha_round_trip():
    rng = random.Random(51)
    # the last two have non-integral coefficients: monic models with b = 12 and b = 18
    for f in (
        F2,
        X**3 - 2,
        X**4 - X - 1,
        X**3 - Fraction(1, 4) * X + Fraction(1, 6),
        X**5 + Fraction(1, 2) * X**3 - Fraction(1, 3) * X + Fraction(2, 9),
    ):
        n = f.degree
        for _ in range(20):
            alpha = RationalPoly(
                [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(n)]
            )
            if (alpha % f).is_zero:
                continue
            g = scaled_trace_gram(f, alpha)
            moments = [g[0, 0]] + [g[0, j] for j in range(1, n)] + [
                g[n - 1, j] for j in range(1, n)
            ]
            assert solve_alpha(f, moments) == alpha % f


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
        f = h * h * RationalPoly(draw(st.lists(COEFFS, max_size=8 - 2 * h.degree)) + [1])
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
    d_form = SymmetricForm(Matrix.identity(2))
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
    d_form = SymmetricForm(Matrix.identity(2))
    a = Matrix([[1, 1], [1, -1]])
    p = Matrix([[1, 1], [0, 1]])
    gram = Matrix([[1, 1], [1, 2]])
    cert = Certificate(D=d_form, A=a, f=F2, alpha=ALPHA2, P=p, gram=gram)

    tampered = replace(cert, alpha=RationalPoly.one())
    check = verify_certificate(tampered)
    assert not check and check.failed_clause == "gram_mismatch"

    tampered = replace(cert, f=X * X - 1)
    check = verify_certificate(tampered)
    assert not check and check.failed_clause == "charpoly_mismatch"

    tampered = replace(cert, A=Matrix([[1, 1], [0, -1]]))
    check = verify_certificate(tampered)
    assert not check and check.failed_clause == "a_not_symmetric"

    tampered = replace(cert, P=Matrix([[1, 1], [1, 1]]))
    check = verify_certificate(tampered)
    assert not check and check.failed_clause in ("p_not_invertible", "congruence_mismatch")

    tampered = replace(cert, alpha=F2 * 2)
    check = verify_certificate(tampered)
    assert not check and check.failed_clause == "alpha_zero"

    tampered = replace(cert, gram=Matrix([[1]]))
    check = verify_certificate(tampered)
    assert not check and check.failed_clause == "shape_mismatch"

    # reducible but correct charpoly: construct from a diagonal A over diag D
    d2 = SymmetricForm.diagonal([1, 1])
    a2 = Matrix.diagonal([1, 2])
    f2 = charpoly(a2 * d2.gram)
    cert2 = Certificate(D=d2, A=a2, f=f2, alpha=RationalPoly.one(), P=Matrix.identity(2), gram=Matrix.identity(2))
    check = verify_certificate(cert2)
    assert not check and check.failed_clause == "not_irreducible"

    # A = D = P = gram = I2: f = charpoly(A D) = (x - 1)^2 has a repeated root
    i2 = Matrix.identity(2)
    cert3 = Certificate(D=SymmetricForm(i2), A=i2, f=(X - 1) ** 2, alpha=RationalPoly.one(), P=i2, gram=i2)
    check = verify_certificate(cert3)
    assert not check and check.failed_clause == "not_separable"


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

    # an inseparable f costs a second discriminant, to name its clause
    i2 = Matrix.identity(2)
    cert = Certificate(D=SymmetricForm(i2), A=i2, f=(X - 1) ** 2, alpha=RationalPoly.one(), P=i2, gram=i2)
    with _counted("_integer_model") as calls:
        assert verify_certificate(cert).failed_clause == "not_separable"
    assert len(calls) == 2

    # generic_experiment: the decision, then the cycle-type walk (seed 3,
    # irreducible) or the separability name (seed 4 inseparable, seed 0 reducible)
    for seed in (3, 4, 0):
        with _counted("_integer_model") as calls:
            generic_experiment([1, 1], 1, 5, seed=seed)
        assert len(calls) == 2


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
    # alpha + f h is the same element of Q[x]/(f) as alpha, whatever its degree;
    # verify divides it by f once, for the alpha_zero clause, and hands the
    # remainder to scaled_trace_gram
    rng = random.Random(57)
    cert = realize(SymmetricForm.diagonal([2, -3, 5]), SearchPolicy(seed=9))
    original = RationalPoly.__divmod__
    divisions = []

    def spy(a, b):
        if a.degree >= b.degree:  # a long division, not the free remainder of a reduced a
            divisions.append(a)
        return original(a, b)

    for _ in range(10):
        h = RationalPoly(
            [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(rng.randrange(1, 9))]
        )
        if h.is_zero:
            continue
        assert scaled_trace_gram(F2, ALPHA2 + F2 * h) == scaled_trace_gram(F2, ALPHA2)
        unreduced = replace(cert, alpha=cert.alpha + cert.f * h)
        divisions.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RationalPoly, "__divmod__", spy)
            assert verify_certificate(unreduced)
        assert divisions == [unreduced.alpha]
        check = verify_certificate(replace(cert, alpha=cert.f * h))
        assert not check and check.failed_clause == "alpha_zero"


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


def test_realize_rejects_degenerate():
    with pytest.raises(DegenerateForm):
        realize(SymmetricForm.diagonal([1, 0]))
    with pytest.raises(DegenerateForm):
        realize(SymmetricForm(Matrix([[1, 1], [1, 1]])))


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


def test_seed_determinism():
    form = SymmetricForm.diagonal([3, -2, 5])
    a = realize(form, SearchPolicy(seed=42))
    b = realize(form, SearchPolicy(seed=42))
    assert a == b
    c = realize(form, SearchPolicy(seed=43))
    assert verify_certificate(c)


def test_search_policy_validation():
    for schedule in ((), (0, 1), (2, 1), (1, 1)):
        with pytest.raises(ValueError):
            SearchPolicy(bound_schedule=schedule)
    with pytest.raises(ValueError):
        SearchPolicy(max_tries_per_bound=0)
    assert SearchPolicy(bound_schedule=(1,), max_tries_per_bound=1).bound_schedule == (1,)


def test_search_exhausted_on_pathological_policy():
    # a single try with bound 1 on a target that defeats it; seed chosen so
    # the sampled matrix yields a reducible characteristic polynomial
    form = SymmetricForm.diagonal([1, 1])
    policy = SearchPolicy(seed=0, bound_schedule=(1,), max_tries_per_bound=1)
    try:
        cert = realize(form, policy)
        assert verify_certificate(cert)  # got lucky: still a valid certificate
    except SearchExhausted:
        pass


def test_hankel_property_before_filtering():
    # (P^T D P)_{ij} depends only on i+j for any symmetric A, D: a consequence
    # of (AD)^T D = D (AD)
    rng = random.Random(53)
    checked = 0
    while checked < 100:
        n = rng.randrange(2, 7)
        d = Matrix.diagonal([rng.randrange(-9, 10) or 1 for _ in range(n)])
        a = _random_symmetric(rng, n)
        m = a * d
        try:
            p = krylov_matrix(m, tuple(Fraction(1 if i == 0 else 0) for i in range(n)))
        except Exception:
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
    rng = random.Random(55)
    found = 0
    while found < 50:
        n = rng.randrange(2, 5)
        d = Matrix.diagonal([rng.randrange(-9, 10) or 1 for _ in range(n)])
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
        assert cert.gram.det() == form.det() * cert.P.det() ** 2
        # round trip through the invariant classifier
        assert equivalent(form, SymmetricForm(cert.gram))
