"""Acceptance suite: the package-level exit criteria.

Each test prints one PASS/FAIL line (run pytest with -s or look at captured
output).  Criteria are exact or carry explicit tolerances; every random draw
is seeded.
"""

import random
import statistics
import time
from fractions import Fraction

from traceforms.algebra import (
    Matrix,
    RationalPoly,
    charpoly,
    cycle_type_mod_p,
    factorize,
    is_irreducible_over_rationals,
    primes_above,
)
from matrix_oracles import krylov_matrix
from traceforms.algebra.modpoly import BadPrime
from traceforms.galois import CERTIFIED, INCONCLUSIVE, generic_experiment, sample_cycle_types, sn_certificate
from traceforms.groups import IDENTITY, construct_group, sweep_parameters, verify_group
from traceforms.quadform import (
    REAL_PLACE,
    SymmetricForm,
    equivalent,
    hilbert_symbol,
    invariants,
)
from traceforms.traceform import Certificate, SearchPolicy, realize, solve_alpha, verify_certificate


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {verdict} -- {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_end_to_end_realization():
    rng = random.Random(0xC1)
    times_small, times_six = [], []
    verified = 0
    for trial in range(100):
        n = rng.randrange(1, 7)
        diag = [rng.choice([v for v in range(-9, 10) if v]) for _ in range(n)]
        form = SymmetricForm.diagonal(diag)
        start = time.perf_counter()
        cert = realize(form, SearchPolicy(seed=trial))
        elapsed = time.perf_counter() - start
        (times_six if n == 6 else times_small).append(elapsed)
        if verify_certificate(cert):
            verified += 1
    med_small = statistics.median(times_small) if times_small else 0.0
    med_six = statistics.median(times_six) if times_six else 0.0
    ok = verified == 100 and med_small <= 1.0 and med_six <= 10.0
    _report(
        1,
        "end-to-end realization",
        ok,
        f"{verified}/100 certificates verified; median time n<=5: {med_small:.3f}s "
        f"(limit 1s), n=6: {med_six:.3f}s (limit 10s)",
    )


def test_criterion_2_golden_certificate():
    d_form = SymmetricForm(Matrix([[1, 0], [0, 1]]))
    a = Matrix([[1, 1], [1, -1]])
    f = charpoly(a * d_form.gram)
    p = krylov_matrix(a, (Fraction(1), Fraction(0)))
    gram = p.transpose() * d_form.gram * p
    alpha = solve_alpha(f, (gram[0, 0], gram[0, 1], gram[1, 1]))
    cert = Certificate(D=d_form, A=a, f=f, alpha=alpha, P=p, gram=gram)
    ok = (
        f == RationalPoly((-2, 0, 1))
        and alpha == RationalPoly((Fraction(1, 2), Fraction(1, 4)))
        and p == Matrix([[1, 1], [0, 1]])
        and gram == Matrix([[1, 1], [1, 2]])
        and p.transpose() * d_form.gram * p == gram
        and bool(verify_certificate(cert))
    )
    _report(
        2,
        "golden certificate",
        ok,
        "D=I2, A=[[1,1],[1,-1]] gives f=x^2-2, alpha=1/2+x/4, P=[[1,1],[0,1]], "
        "gram=[[1,1],[1,2]], P^T D P = gram exactly",
    )


def test_criterion_3_galois_evidence():
    rng = random.Random(0xC3)
    summary = []
    ok = True
    for n in (3, 4, 5):
        successes = 0
        for trial in range(100):
            diag = [rng.choice([v for v in range(-9, 10) if v]) for _ in range(n)]
            report = generic_experiment(diag, 20, 300, seed=rng.randrange(2**32))
            if report.irreducible and report.sn_verdict == CERTIFIED:
                successes += 1
                stats = report.cycle_stats
                freq = Fraction(stats.counts.get((n,), 0), stats.primes_used)
                if abs(freq - Fraction(1, n)) > Fraction(1, 10):
                    ok = False
        if successes < 95:
            ok = False
        summary.append(f"n={n}: {successes}/100 certified")
    _report(
        3,
        "generic specialization has full symmetric Galois group",
        ok,
        "; ".join(summary) + " (need >=95 each, n-cycle frequency within 0.1 of 1/n)",
    )


def test_criterion_4_group_property_sweep():
    start = time.perf_counter()
    params = sweep_parameters(500)
    failures = []
    exhaustive_runs = 0
    for p, k, m in params:
        group = construct_group(p, k, m)
        report = verify_group(group)
        if not report["all_pass"]:
            failures.append((p, k, m))
        if report["lemma_b"]["exhaustive"] is not None:
            exhaustive_runs += 1
        else:
            assert group.order > 300
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed <= 60.0
    _report(
        4,
        "semidirect group sweep",
        ok,
        f"{len(params)} parameter sets (p in 2,3,5; m*p^k <= 500), "
        f"{exhaustive_runs} with exhaustive normal-subgroup enumeration, "
        f"failures: {failures or 'none'}, runtime {elapsed:.1f}s (limit 60s)",
    )


def _local_solvable_bruteforce(a, b, p, k):
    mod = p**k
    for z in range(mod):
        zz = z * z % mod
        for x in range(mod):
            ax = a * x * x % mod
            for y in range(mod):
                if x % p == 0 and y % p == 0 and z % p == 0:
                    continue
                if (zz - ax - b * y * y) % mod == 0:
                    return True
    return False


def test_criterion_5_hilbert_product_formula():
    rng = random.Random(0xC5)
    product_ok = True
    for _ in range(1000):
        a = rng.choice([-1, 1]) * rng.randrange(1, 10**4)
        b = rng.choice([-1, 1]) * rng.randrange(1, 10**4)
        # the relevant places: 2, the real place and every prime of a or b
        places = {2, REAL_PLACE} | set(factorize(a)) | set(factorize(b))
        product = 1
        for v in places:
            product *= hilbert_symbol(a, b, v)
        if product != 1:
            product_ok = False
    classical_ok = (
        hilbert_symbol(-1, -1, 2) == -1
        and hilbert_symbol(-1, -1, REAL_PLACE) == -1
        and hilbert_symbol(2, 3, 2) == -1
        and hilbert_symbol(2, 3, 3) == -1
    )
    # independent oracle: no primitive solution modulo a prime power certifies -1
    oracle_ok = (
        not _local_solvable_bruteforce(-1, -1, 2, 3)
        and not _local_solvable_bruteforce(2, 3, 2, 5)
        and not _local_solvable_bruteforce(2, 3, 3, 3)
    )
    ok = product_ok and classical_ok and oracle_ok
    _report(
        5,
        "Hilbert symbol product formula",
        ok,
        f"1000 seeded pairs |a|,|b| <= 10^4 multiply to +1: {product_ok}; "
        f"classical values match: {classical_ok}; brute-force local oracle concurs: {oracle_ok}",
    )


def _random_invertible(rng, n, span=3):
    while True:
        q = Matrix([[Fraction(rng.randrange(-span, span + 1)) for _ in range(n)] for _ in range(n)])
        if q.det() != 0:
            return q


def test_criterion_6_equivalence_soundness():
    rng = random.Random(0xC6)
    congruent_ok = 0
    for _ in range(200):
        n = rng.randrange(1, 6)
        while True:
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = Fraction(rng.randrange(-9, 10))
            gram = Matrix(rows)
            if gram.det() != 0:
                break
        q = _random_invertible(rng, n)
        if equivalent(SymmetricForm(gram), SymmetricForm(q.transpose() * gram * q)):
            congruent_ok += 1

    # pairs agreeing in all invariants but one: <1,d> vs <1,d'> differ only in
    # the discriminant class (their Hasse sets are empty); +/- square-scaled
    # quaternary forms differ only in signature (disc 1, Hasse trivial both
    # ways); <a,b> vs <1, disc(a,b)> differ only in the Hasse set when the
    # symbols are nontrivial
    disc_pairs, signature_pairs, hasse_pairs = [], [], []
    squarefree_pool = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30]
    for d1, d2 in zip(squarefree_pool, squarefree_pool[1:]):
        disc_pairs.append((SymmetricForm.diagonal([1, d1]), SymmetricForm.diagonal([1, d2])))
    while len(signature_pairs) < 17:
        scale = [rng.randrange(1, 5) ** 2 for _ in range(4)]
        signature_pairs.append(
            (SymmetricForm.diagonal(scale), SymmetricForm.diagonal([-s for s in scale]))
        )
    while len(hasse_pairs) < 16:
        a = rng.randrange(1, 40)
        b = rng.randrange(1, 40)
        f1 = SymmetricForm.diagonal([a, b])
        inv1 = invariants(f1)
        f2 = SymmetricForm.diagonal([1, inv1.disc])
        if invariants(f2).hasse_minus_at != inv1.hasse_minus_at:
            hasse_pairs.append((f1, f2))
    pairs = disc_pairs[:17] + signature_pairs[:17] + hasse_pairs[:16]
    assert len(pairs) == 50
    distinct_ok = 0
    single_component_ok = True
    for f1, f2 in pairs:
        i1, i2 = invariants(f1), invariants(f2)
        differences = [
            i1.dim != i2.dim,
            i1.disc != i2.disc,
            i1.signature != i2.signature,
            i1.hasse_minus_at != i2.hasse_minus_at,
        ]
        if sum(differences) != 1:
            single_component_ok = False
        if not equivalent(f1, f2):
            distinct_ok += 1
    ok = congruent_ok == 200 and distinct_ok == 50 and single_component_ok
    _report(
        6,
        "equivalence soundness",
        ok,
        f"congruent pairs equivalent: {congruent_ok}/200; "
        f"single-invariant-differing pairs inequivalent: {distinct_ok}/50",
    )


def test_criterion_7_real_place_counterexample():
    rng = random.Random(0xC7)
    all_indefinite = True
    for _ in range(100):
        a = Fraction(rng.randrange(-30, 31), rng.randrange(1, 9))
        b = Fraction(rng.randrange(-30, 31), rng.randrange(1, 9))
        if a == 0 and b == 0:
            a = Fraction(1)
        gram = Matrix([[2 * a, -2 * b], [-2 * b, -2 * a]])
        if invariants(SymmetricForm(gram)).signature != (1, 1):
            all_indefinite = False
    definite = invariants(SymmetricForm.diagonal([1, 1])).signature == (2, 0)
    ok = all_indefinite and definite
    _report(
        7,
        "real-place counterexample mechanism",
        ok,
        "scaled conjugation Gram [[2a,-2b],[-2b,-2a]] has signature (1,1) in 100/100 "
        f"samples: {all_indefinite}; <1,1> has signature (2,0): {definite}",
    )


def test_criterion_8_factorization_stress():
    f = RationalPoly((1, 0, 0, 0, 1))  # x^4 + 1
    irreducible = is_irreducible_over_rationals(f)
    reducible_mod_all = True
    checked = 0
    for p in primes_above(1):
        if checked >= 50:
            break
        try:
            pattern = cycle_type_mod_p(f, p)
        except BadPrime:
            continue
        checked += 1
        if len(pattern) < 2:
            reducible_mod_all = False
    verdict = sn_certificate(sample_cycle_types(f, 300, prime_floor=2), 4)
    ok = irreducible and reducible_mod_all and checked == 50 and verdict == INCONCLUSIVE
    _report(
        8,
        "factorization stress (x^4 + 1)",
        ok,
        f"irreducible over Q: {irreducible}; reducible at all first 50 good primes: "
        f"{reducible_mod_all}; S_4 verdict: {verdict} (must stay inconclusive)",
    )


def test_criterion_9_power_formula_oracle():
    params = sweep_parameters(500)
    identity_ok = True
    walk_ok = True
    walked = 0
    for p, k, m in params:
        group = construct_group(p, k, m)
        if group.power((0, 1), group.pk) != IDENTITY:
            identity_ok = False
        if group.power((1, 1), group.pk) != IDENTITY:
            identity_ok = False
        if group.order > 200:
            continue
        walked += 1
        for el in group.elements():
            beta = group._alpha_pow[el[1]]
            geometric = 0
            beta_power = 1
            iterated = IDENTITY
            for n in range(1, group.order + 1):
                geometric = (geometric + beta_power) % group.m
                beta_power = beta_power * beta % group.m
                iterated = group.multiply(iterated, el)
                closed = (el[0] * geometric % group.m, n * el[1] % group.pk)
                if closed != iterated:
                    walk_ok = False
    ok = identity_ok and walk_ok
    _report(
        9,
        "power formula oracle",
        ok,
        f"(0,1)^(p^k) = (1,1)^(p^k) = identity in all {len(params)} swept groups: "
        f"{identity_ok}; closed form = iterated multiplication for every element and "
        f"exponent in all {walked} groups of order <= 200: {walk_ok}",
    )
