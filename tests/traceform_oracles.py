"""Reference realization through a diagonalizing congruence.

`realize_via_congruence` is the body `traceforms.traceform.realize` had
while it diagonalized the target first: it finds Q and D' = diag(d) with
Q^T D Q = D', samples A' against D', walks the Krylov vectors of
M = A' D' at e1 and pulls the witness back, A = Q A' Q^T and P = Q P'.
The package now samples A against D itself and needs no Q; for a diagonal
target Q = I, so both emit the same certificate, and on any target both
certify the same form.
"""

import random
from fractions import Fraction
from operator import mul

from traceforms.algebra import Matrix, charpoly, congruence_diagonalize, is_irreducible_over_rationals
from traceforms.quadform import DegenerateForm, SymmetricForm
from traceforms import traceform
from traceforms.traceform import (
    Certificate,
    SearchExhausted,
    SearchPolicy,
    _mix,
    solve_alpha,
    verify_certificate,
)


def realize_via_congruence(form: SymmetricForm, policy: SearchPolicy | None = None) -> Certificate:
    policy = policy or SearchPolicy()
    n = form.dim
    q, diag = congruence_diagonalize(form.gram)
    # Q is invertible, so D is degenerate exactly when its diagonal holds a 0
    if 0 in diag:
        raise DegenerateForm("cannot realize a degenerate form")
    dprime = Matrix.diagonal(diag)

    if n == 1:
        # f = x - d1, alpha = d1: the trace on F = Q is the identity
        candidates = [Matrix([[1]])]
    else:
        schedule = (b for b in traceform.BOUND_SCHEDULE for _ in range(traceform.TRIES_PER_BOUND))
        candidates = (
            Matrix.random_symmetric(n, bound, random.Random(_mix(policy.seed, k)))
            for k, bound in enumerate(schedule)
        )
    tries = 0
    for found in candidates:
        tries += 1
        m = found * dprime
        f = charpoly(m)
        if is_irreducible_over_rationals(f):
            break
    else:
        raise SearchExhausted(
            f"no irreducible specialization in {tries} tries "
            f"(bounds {traceform.BOUND_SCHEDULE}, seed {policy.seed})"
        )

    # one walk M^k e1, k < 2n-1: its first n vectors form P'; for diagonal D',
    # e1^T D' M^k e1 = d_1 (M^k e1)_1.  It runs in integers on B = L M
    # (L = M's denominator), so M^k e1 = B^k e1 / L^k.
    b, scale = m.numerators, m.denominator
    walk = [(1,) + (0,) * (n - 1)]
    for _ in range(2 * n - 2):
        v = walk[-1]
        walk.append(tuple(sum(map(mul, row, v)) for row in b))
    p_prime = Matrix([Fraction(x, scale**k) for x in w] for k, w in enumerate(walk[:n])).transpose()
    moments = [diag[0] * Fraction(w[0], scale**k) for k, w in enumerate(walk)]

    alpha = solve_alpha(f, moments)
    gram = Matrix([[moments[i + j] for j in range(n)] for i in range(n)])

    cert = Certificate(
        D=form,
        A=q * found * q.transpose(),
        f=f,
        alpha=alpha,
        P=q * p_prime,
        gram=gram,
        seed=policy.seed,
        tries=tries,
    )
    check = verify_certificate(cert)
    if not check:
        raise AssertionError(f"internal error: fresh certificate failed {check.failed_clause}")
    return cert
