"""Realization of non-degenerate rational quadratic forms as scaled trace forms.

Given a target form D, the pipeline finds a symmetric integer matrix A such
that f = charpoly(A D) is separable and irreducible, which makes D the Gram
matrix of x -> Tr(alpha x^2) on the field F = Q[x]/(f) for a suitable nonzero
alpha in F.  The witness it emits is fully explicit and exactly checkable:

  * f itself, with the separability and irreducibility claims re-decidable;
  * alpha, recovered by solving the trace-pairing linear system against the
    Hankel moment sequence h_m = e1^T D M^m e1 of M = A D;
  * a change of basis P, the Krylov columns M^k e1, with P^T D P = Gram(f, alpha):
    no diagonal basis is needed, as D A D is symmetric, so M is self-adjoint
    for D, and for irreducible f every nonzero vector is cyclic for M.

Everything is exact; `verify_certificate` re-derives each clause from scratch
and reports the first one that fails.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .algebra import (
    Matrix,
    RationalPoly,
    charpoly,
    is_irreducible_over_rationals,
    is_separable,
    trace_moments,
)
from .algebra.matrix import _int_solve
from .algebra.poly import _newton_sums
from .quadform import DegenerateForm, SymmetricForm


class InconsistentHankel(ValueError):
    """The moment sequence is not the trace sequence of any scaling element."""


class SearchExhausted(RuntimeError):
    """No specialization with irreducible characteristic polynomial was found."""


@dataclass(frozen=True)
class SearchPolicy:
    """Seeded schedule for sampling candidate symmetric integer matrices."""

    seed: int = 0
    bound_schedule: tuple[int, ...] = (1, 2, 3, 5, 9)
    max_tries_per_bound: int = 200

    def __post_init__(self):
        if not self.bound_schedule:
            raise ValueError("bound schedule must not be empty")
        if any(b <= 0 for b in self.bound_schedule) or list(self.bound_schedule) != sorted(
            set(self.bound_schedule)
        ):
            raise ValueError("bound schedule must be strictly increasing and positive")
        if self.max_tries_per_bound < 1:
            raise ValueError("need at least one try per bound")


@dataclass(frozen=True)
class Certificate:
    """Explicit witness that D is isomorphic to a scaled trace form.

    Invariants (all enforced by verify_certificate): f = charpoly(A D) is
    monic, separable, irreducible; alpha is nonzero in Q[x]/(f), read off the
    trace form of the separable f (alpha need not be reduced mod f); gram is
    the Gram matrix of Tr(alpha x^2) in the power basis and a Hankel matrix;
    P^T D P = gram, which makes P invertible since gram is nonsingular.
    """

    D: SymmetricForm
    A: Matrix
    f: RationalPoly
    alpha: RationalPoly
    P: Matrix
    gram: Matrix
    seed: int = 0
    tries: int = 0


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    failed_clause: str = field(default="", compare=False)

    def __bool__(self):
        return self.ok


def scaled_trace_gram(f: RationalPoly, alpha: RationalPoly) -> Matrix:
    """Gram matrix of x -> Tr(alpha x^2) on Q[x]/(f) in the power basis.

    Entry (i, j) is Tr(alpha x^(i+j)); the matrix is symmetric Hankel by
    construction.  alpha need not be reduced mod f, and alpha = 0 mod f gives
    the zero matrix.  f is expected monic (and irreducible when the result is
    meant to be a field trace form; that is not re-checked here).
    """
    if not f.is_monic or f.degree < 1:
        raise ValueError("modulus must be monic of degree >= 1")
    n = f.degree
    moments = trace_moments(f, alpha, 2 * n - 1)
    return Matrix([[moments[i + j] for j in range(n)] for i in range(n)])


def solve_alpha(f: RationalPoly, moments) -> RationalPoly:
    """The alpha with Tr(alpha x^m) = moments[m] for m = 0..2n-2, if any.

    Solves the n x n trace-pairing system (nonsingular exactly when f is
    separable), then checks the remaining n-1 overdetermined constraints and
    raises InconsistentHankel if they fail.

    With f's power sums s_k / b^k (`_newton_sums`) and z_j = a_j / b^j for
    alpha = sum_j a_j x^j, row m reads sum_j s_(m+j) z_j = b^m h_m: an integer
    Hankel system once the moments h_m are cleared by their lcm H.  Its first
    n rows are solved fraction-free, the rest are checked in integers, and
    a_j = b^j y_j / (d H) are the only Fractions built.
    """
    n = f.degree
    if not f.is_monic or n < 1:
        raise ValueError("modulus must be monic of degree >= 1")
    moments = [Fraction(m) for m in moments]
    if len(moments) != 2 * n - 1:
        raise ValueError(f"expected {2 * n - 1} moments, got {len(moments)}")
    # one Newton pass to 3n-3 serves the pairing and the overdetermined check
    _, b, sums = _newton_sums(f, 3 * n - 3)
    scale = math.lcm(*(h.denominator for h in moments))
    rhs = [h.numerator * (scale // h.denominator) * b**m for m, h in enumerate(moments)]
    try:
        y, d = _int_solve([sums[m : m + n] for m in range(n)], rhs[:n])
    except ValueError:
        raise ValueError("trace pairing is singular; modulus is not separable") from None
    for m in range(n, 2 * n - 1):
        if sum(map(mul, sums[m:], y)) != d * rhs[m]:
            raise InconsistentHankel(f"moment {m} is inconsistent")
    return RationalPoly(Fraction(b**j * yj, d * scale) for j, yj in enumerate(y))


def _mix(seed: int, counter: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + counter * 0xBF58476D1CE4E5B9 + 1) & (
        (1 << 64) - 1
    )


def realize(form: SymmetricForm, policy: SearchPolicy | None = None) -> Certificate:
    """Produce a scaled-trace-form certificate for a non-degenerate form.

    Raises DegenerateForm when det D = 0.  Samples symmetric integer matrices
    A on a growing coefficient schedule until charpoly(A D) is irreducible
    (hence separable), then reads alpha and P off the Krylov walk of A D at
    e1, in D's own coordinates; the certificate's A is the drawn matrix.
    Deterministic for a fixed policy: candidates come from a seed-derived
    counter sequence and the first success wins.
    """
    policy = policy or SearchPolicy()
    n = form.dim
    d = form.gram
    # a zero constant term of f would not do: det A may vanish where det D does not
    if d.det() == 0:
        raise DegenerateForm("cannot realize a degenerate form")

    if n == 1:
        # f = x - d1, alpha = d1: the trace on F = Q is the identity
        candidates = [Matrix([[1]])]
    else:
        schedule = (b for b in policy.bound_schedule for _ in range(policy.max_tries_per_bound))
        candidates = (
            Matrix.random_symmetric(n, bound, random.Random(_mix(policy.seed, k)))
            for k, bound in enumerate(schedule)
        )
    tries = 0
    for found in candidates:
        tries += 1
        m = found * d
        f = charpoly(m)
        if is_irreducible_over_rationals(f):
            break
    else:
        raise SearchExhausted(
            f"no irreducible specialization in {tries} tries "
            f"(bounds {policy.bound_schedule}, seed {policy.seed})"
        )

    # one walk M^k e1, k < 2n-1: its first n vectors form P (e1 is cyclic for irreducible f),
    # and M^T D = D M makes (P^T D P)_ij = e1^T D M^(i+j) e1 = (row 0 of D) . M^(i+j) e1.
    # It runs in integers on B = L M (L = M's denominator), so M^k e1 = B^k e1 / L^k.
    b, scale = m.numerators, m.denominator
    walk = [(1,) + (0,) * (n - 1)]
    for _ in range(2 * n - 2):
        v = walk[-1]
        walk.append(tuple(sum(map(mul, row, v)) for row in b))
    p = Matrix.from_columns(
        [Fraction(x, scale**k) for x in w] for k, w in enumerate(walk[:n])
    )
    row0, den = d.numerators[0], d.denominator
    moments = [Fraction(sum(map(mul, row0, w)), den * scale**k) for k, w in enumerate(walk)]

    alpha = solve_alpha(f, moments)
    gram = Matrix([[moments[i + j] for j in range(n)] for i in range(n)])

    cert = Certificate(
        D=form,
        A=found,
        f=f,
        alpha=alpha,
        P=p,
        gram=gram,
        seed=policy.seed,
        tries=tries,
    )
    check = verify_certificate(cert)
    if not check:
        raise AssertionError(f"internal error: fresh certificate failed {check.failed_clause}")
    return cert


def verify_certificate(cert: Certificate) -> CertificateCheck:
    """Re-derive every certificate clause; report the first failure.

    Total: never raises on well-formed field types, only returns a verdict.
    Clauses, in order: shapes consistent, A symmetric, f = charpoly(A D),
    f irreducible over Q (hence separable; when not, `is_separable` names the
    clause not_separable or not_irreducible), alpha nonzero mod f (its Gram
    matrix Tr(alpha x^(i+j)) is not zero), gram matches that Gram matrix,
    P^T D P = gram.  P needs no clause of its own: for separable f and
    alpha != 0 mod f the form Tr(alpha x y) is nondegenerate, so gram is
    nonsingular and P^T D P = gram forces det P != 0.
    """
    d = cert.D.gram
    n = d.nrows
    if not (
        cert.A.is_square
        and cert.A.nrows == n
        and cert.P.is_square
        and cert.P.nrows == n
        and cert.gram.is_square
        and cert.gram.nrows == n
    ):
        return CertificateCheck(False, "shape_mismatch")
    if not cert.A.is_symmetric:
        return CertificateCheck(False, "a_not_symmetric")
    if cert.f.degree != n or charpoly(cert.A * d) != cert.f:
        return CertificateCheck(False, "charpoly_mismatch")
    if not is_irreducible_over_rationals(cert.f):
        return CertificateCheck(False, "not_irreducible" if is_separable(cert.f) else "not_separable")
    # f is separable here, so the trace pairing is nondegenerate: alpha = 0 mod f
    # exactly when every Tr(alpha x^m) vanishes, i.e. when its gram is zero
    gram = scaled_trace_gram(cert.f, cert.alpha)
    if not any(map(any, gram.numerators)):
        return CertificateCheck(False, "alpha_zero")
    if gram != cert.gram:
        return CertificateCheck(False, "gram_mismatch")
    if cert.P.transpose() * d * cert.P != cert.gram:
        return CertificateCheck(False, "congruence_mismatch")
    return CertificateCheck(True)
