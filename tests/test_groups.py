import hashlib
import math
import random

import pytest

from traceforms import groups
from traceforms.groups import (
    Element,
    InvalidParams,
    NonDivisor,
    SemidirectGroup,
    construct_group,
    index_subgroups,
    p_elements,
    p_generated_subgroup,
    prime_to_p_quotient_check,
    qualifying_alphas,
    quotient_check_derived,
    quotient_check_exhaustive,
    sweep_parameters,
    verify_group,
)
from traceforms.serialize import canonical_dumps

SMALL_PARAMS = [(2, 1, 3), (3, 1, 7), (2, 1, 9), (2, 2, 5), (5, 1, 11), (2, 1, 15), (2, 3, 3)]


def test_construct_examples():
    g = construct_group(2, 1, 3)
    assert g.alpha == 2 and g.order == 6  # this is S_3

    g = construct_group(3, 1, 7)
    assert g.alpha == 2 and g.order == 21

    with pytest.raises(InvalidParams):
        construct_group(2, 1, 4)  # p | m
    with pytest.raises(InvalidParams):
        construct_group(3, 1, 5)  # p does not divide phi(5) = 4
    with pytest.raises(InvalidParams):
        construct_group(4, 1, 5)  # p not prime
    with pytest.raises(InvalidParams):
        construct_group(2, 1, 1)


def test_construct_requires_unit_alpha_minus_one():
    # 14 = 2 * 7 and 2 is not 1 mod 3: both order-3 units fix residues mod 2,
    # the generation property fails, so the parameters are rejected
    with pytest.raises(InvalidParams):
        construct_group(3, 1, 14)
    # for m = 15 and p = 2, alpha = 4 and 11 are excluded (gcd(alpha-1, 15) > 1)
    # and only alpha = 14 = -1 qualifies
    assert qualifying_alphas(2, 1, 15) == [14]
    assert construct_group(2, 1, 15).alpha == 14


def test_multiplication_law():
    g = construct_group(2, 1, 3)
    assert g.multiply(Element(0, 0), Element(2, 1)) == Element(2, 1)
    assert g.multiply(Element(1, 1), Element(1, 1)) == Element(0, 0)
    # non-commutativity witness
    assert g.multiply(Element(0, 1), Element(1, 0)) == Element(2, 1)
    assert g.multiply(Element(1, 0), Element(0, 1)) == Element(1, 1)


def test_associativity_random_triples():
    rng = random.Random(70)
    for params in SMALL_PARAMS:
        g = construct_group(*params)
        elements = list(g.elements())
        for _ in range(1000 // len(SMALL_PARAMS) + 1):
            a, b, c = (rng.choice(elements) for _ in range(3))
            assert g.multiply(g.multiply(a, b), c) == g.multiply(a, g.multiply(b, c))


def test_inverses_and_identity():
    for params in SMALL_PARAMS:
        g = construct_group(*params)
        for el in g.elements():
            assert g.multiply(el, g.inverse(el)) == g.identity
            assert g.multiply(g.inverse(el), el) == g.identity


def test_power_identities():
    for params in SMALL_PARAMS:
        g = construct_group(*params)
        assert g.power(Element(0, 1), g.pk) == g.identity
        assert g.power(Element(1, 1), g.pk) == g.identity
        for a in range(g.m):
            assert g.power(Element(a, 0), g.m) == g.identity


def test_power_closed_form_vs_iteration():
    # power() raises on divergence internally; walk everything in groups
    # of order <= 200 up to the group order
    for params in SMALL_PARAMS:
        g = construct_group(*params)
        if g.order > 200:
            continue
        for el in g.elements():
            acc = g.identity
            for n in range(1, g.order + 1):
                acc = g.multiply(acc, el)
                assert g.power(el, n) == acc
        with pytest.raises(ValueError):
            g.power(g.identity, -1)


def test_element_order_against_iteration():
    for params in SMALL_PARAMS:
        g = construct_group(*params)
        for el in g.elements():
            acc, order = el, 1
            while acc != g.identity:
                acc = g.multiply(acc, el)
                order += 1
            assert g.element_order(el) == order
            assert g.order % order == 0  # Lagrange


def test_p_generated_subgroup_examples():
    g = construct_group(2, 1, 3)
    assert p_generated_subgroup(g) == frozenset(g.elements())
    assert g.subgroup_closure([g.identity]) == frozenset({g.identity})
    g = construct_group(3, 1, 7)
    assert p_generated_subgroup(g) == frozenset(g.elements())


def test_quotient_checks():
    for params in SMALL_PARAMS:
        g = construct_group(*params)
        assert prime_to_p_quotient_check(g)
        assert quotient_check_derived(g) == quotient_check_exhaustive(g)


def test_quotient_negative_control():
    # direct product Z/3 x Z/2 via alpha = 1: the quotient Z/3 has order
    # prime to p = 2, so both check paths must say no
    direct = SemidirectGroup(2, 1, 3, alpha=1)
    assert not quotient_check_derived(direct)
    assert not quotient_check_exhaustive(direct)
    # p-elements of the direct product are {(0,0), (0,1)}: closure order 2
    assert len(p_generated_subgroup(direct)) == 2
    assert set(p_elements(direct)) == {Element(0, 0), Element(0, 1)}


def test_index_subgroups_examples():
    g = construct_group(2, 1, 3)
    h0, h1 = index_subgroups(g, 1)
    assert len(h0) == 3 and len(h1) == 6
    h0, h1 = index_subgroups(g, 3)
    assert h0 == frozenset({g.identity}) and len(h1) == 2

    g = construct_group(2, 1, 15)
    h0, h1 = index_subgroups(g, 5)
    assert g.order // len(h0) == 10 and g.order // len(h1) == 5

    for n in (4, 0, -3):
        with pytest.raises(NonDivisor, match="positive divisor"):
            index_subgroups(g, n)


def test_h0_alpha_invariance():
    for params in SMALL_PARAMS:
        g = construct_group(*params)
        for n in [d for d in range(1, g.m + 1) if g.m % d == 0]:
            h0, _ = index_subgroups(g, n)
            for el in h0:
                assert Element(g.alpha * el.a % g.m, 0) in h0


def test_verify_group_report():
    report = verify_group(construct_group(2, 1, 3))
    assert report["all_pass"]
    assert report["lemma_a"] is True
    assert report["lemma_b"] == {"derived": True, "exhaustive": True}
    assert [(row["n"], row["index_H0"], row["index_H1"]) for row in report["lemma_c"]] == [
        (1, 2, 1),
        (3, 6, 3),
    ]


def test_exhaustive_flag_forces_enumeration_above_the_cutoff():
    small, large = construct_group(2, 1, 3), construct_group(2, 1, 151)  # orders 6 and 302
    assert verify_group(small, exhaustive=True) == verify_group(small)
    assert verify_group(large)["lemma_b"] == {"derived": True, "exhaustive": None}
    assert verify_group(large, exhaustive=True)["lemma_b"] == {"derived": True, "exhaustive": True}
    assert prime_to_p_quotient_check(large, exhaustive=True)


def test_p_elements_are_closed_under_conjugation():
    # the derived quotient check takes the plain closure of the p-elements as
    # their normal closure; conjugating by the generators (1, 0) and (0, 1)
    # must keep every p-element a p-element, in the direct product too
    direct = SemidirectGroup(2, 1, 3, alpha=1)
    for g in [construct_group(*params) for params in SMALL_PARAMS] + [direct]:
        elements = set(p_elements(g))
        for t in (Element(1, 0), Element(0, 1)):
            assert {g.conjugate(t, el) for el in elements} <= elements, g


def test_verify_group_reads_the_p_elements_once(monkeypatch):
    calls = []

    def spy(group):
        calls.append(group)
        return p_elements(group)

    monkeypatch.setattr(groups, "p_elements", spy)
    for params in [(2, 1, 3), (3, 1, 7), (2, 1, 151)]:
        calls.clear()
        verify_group(construct_group(*params))
        assert len(calls) == 1, params
    # an index that does not divide m is refused before any closure runs
    calls.clear()
    with pytest.raises(NonDivisor):
        verify_group(construct_group(2, 1, 151), index_divisors=[4], exhaustive=True)
    assert calls == []


# verify_group over sweep_parameters(150): 78 groups, each on the exhaustive path
SWEEP_150_SHA256 = "02cffcafe7fc420e56e09210af87c974ce5b899f97c4606db3e1fe03e6ef03ac"


def test_sweep_reports_are_pinned():
    params = sweep_parameters(150)
    reports = [verify_group(construct_group(*p)) for p in params]
    assert len(reports) == 78
    assert all(report["lemma_b"]["exhaustive"] is not None for report in reports)
    assert hashlib.sha256(canonical_dumps(reports).encode()).hexdigest() == SWEEP_150_SHA256


def test_alpha_choice_independence():
    # the properties hold for every qualifying alpha, not just the smallest
    for params in [(2, 1, 21), (3, 1, 13), (2, 2, 15), (5, 1, 31)]:
        p, k, m = params
        alphas = qualifying_alphas(p, k, m)
        assert alphas, params
        for alpha in alphas:
            g = SemidirectGroup(p, k, m, alpha)
            if g.order > 200:
                continue
            assert p_generated_subgroup(g) == frozenset(g.elements())
            assert quotient_check_derived(g)
            assert quotient_check_exhaustive(g)


def test_conjugacy_classes_partition():
    for params in SMALL_PARAMS:
        g = construct_group(*params)
        classes = g.conjugacy_classes()
        assert sum(len(c) for c in classes) == g.order
        union = set()
        for c in classes:
            assert not (union & c)
            union |= c
        for c in classes:
            for el in c:
                assert {g.conjugate(h, el) for h in g.elements()} == set(c)


def test_sweep_parameters_match_validation():
    params = sweep_parameters(120)
    assert (2, 1, 3) in params and (3, 1, 7) in params
    assert (3, 1, 14) not in params
    for p, k, m in params:
        assert m * p**k <= 120
        assert m % p != 0
        g = construct_group(p, k, m)
        assert math.gcd(g.alpha - 1, m) == 1
        assert pow(g.alpha, p, m) == 1 and g.alpha % m != 1
