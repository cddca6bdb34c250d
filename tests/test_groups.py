import hashlib
import math
import random
import time

import pytest
from group_oracles import conjugate, hand_built_groups, inverse
from group_oracles import index_subgroups as index_subgroups_oracle
from group_oracles import normal_subgroups as normal_subgroups_oracle
from group_oracles import p_elements as p_elements_oracle
from group_oracles import subgroup_closure as subgroup_closure_oracle
from group_oracles import verify_group as verify_group_oracle

from traceforms import groups
from traceforms.algebra import divisors
from traceforms.algebra.intmath import FACTOR_LIMIT, next_prime
from traceforms.cli import main
from traceforms.groups import (
    MAX_GROUP_ORDER,
    Element,
    InvalidParams,
    NonDivisor,
    SemidirectGroup,
    construct_group,
    index_subgroups,
    p_elements,
    p_generated_subgroup,
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
    with pytest.raises(InvalidParams, match=r"p = 3 does not divide phi\(5\)"):
        construct_group(3, 1, 5)  # phi(5) = 4
    with pytest.raises(InvalidParams, match=r"p = 3 does not divide phi\(10\)"):
        construct_group(3, 1, 10)  # phi(10) = 4: neither 2 nor 5 is 1 mod 3
    with pytest.raises(InvalidParams):
        construct_group(4, 1, 5)  # p not prime
    with pytest.raises(InvalidParams, match=r"p = 2 does not divide phi\(1\)"):
        construct_group(2, 1, 1)

    # the enumeration, --exhaustive and the closures walk all m p^k elements,
    # so the order is capped up front; the first refusal is just above the
    # cap, so a missing cap fails here instead of building 2^40 elements
    assert construct_group(2, 1, 99991).order == 199982 <= MAX_GROUP_ORDER
    for p, k, m in ((2, 1, 100003), (2, 40, 3), (2, 10**6, 3)):
        with pytest.raises(InvalidParams, match="MAX_GROUP_ORDER"):
            construct_group(p, k, m)


def test_order_cap_comes_before_factoring_m(monkeypatch, capsys):
    # an order past the cap is refused before m is factored: an 81-bit m costs
    # Brent's rho half a second, and an m above FACTOR_LIMIT is refused for the
    # order, not for its factorization
    below = next_prime(2**40) * next_prime(2**40 + 10**7)
    above = next_prime(2**41) * next_prime(2**41 + 10**6)
    assert below.bit_length() == 81 and above > FACTOR_LIMIT
    calls = []
    monkeypatch.setattr(groups, "factorize", lambda n: calls.append(n) or {})
    for m in (below, above):
        with pytest.raises(InvalidParams, match=f"MAX_GROUP_ORDER = {MAX_GROUP_ORDER}"):
            construct_group(2, 1, m)
        assert main(["group-verify", "--p", "2", "--k", "1", "--m", str(m)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"MAX_GROUP_ORDER = {MAX_GROUP_ORDER}" in err
    assert calls == []


def test_construct_requires_unit_alpha_minus_one():
    # 14 = 2 * 7 and 2 is not 1 mod 3: both order-3 units fix residues mod 2,
    # the generation property fails, so the parameters are rejected
    with pytest.raises(InvalidParams, match=r"prime factors \[2\] of m are not 1 mod p"):
        construct_group(3, 1, 14)
    # 5 divides phi(33) = 20 through 11 = 1 (mod 5), but 3 is not 1 mod 5
    with pytest.raises(InvalidParams, match=r"prime factors \[3\] of m are not 1 mod p"):
        construct_group(5, 1, 33)
    # for m = 15 and p = 2, alpha = 4 and 11 are excluded (gcd(alpha-1, 15) > 1)
    # and only alpha = 14 = -1 qualifies
    assert list(qualifying_alphas(2, 15)) == [14]
    assert construct_group(2, 1, 15).alpha == 14


def test_a_hand_built_group_must_be_a_group():
    # every check assumes alpha^p = 1 (mod m) and p prime to m: alpha = 2 has
    # order 4 mod 15, so its product would not be associative, and p = 2
    # divides m = 4; both are refused before any element exists
    with pytest.raises(InvalidParams, match=r"alpha = 2 does not satisfy alpha\^2 = 1 \(mod 15\)"):
        SemidirectGroup(2, 1, 15, alpha=2)
    with pytest.raises(InvalidParams, match="p = 2 divides m = 4"):
        SemidirectGroup(2, 1, 4, alpha=1)
    for p, k, m in ((4, 1, 5), (2, 0, 3), (2, 1, 0)):
        with pytest.raises(InvalidParams):
            SemidirectGroup(p, k, m, alpha=1)
    # alpha = 1 mod 1 is 0, and Z/1 x| Z/2 is the group Z/2
    assert verify_group(SemidirectGroup(2, 1, 1, alpha=0))["all_pass"]


def test_a_hand_built_group_is_capped_before_its_table():
    # the constructor builds a p^k-entry table of alpha^x, so it refuses an
    # order past the cap first: k = 17 (order 393,216) is the first power of
    # 2 past the cap at m = 3, and k = 40 would ask for 2^40 entries
    started = time.perf_counter()
    for k in (17, 40, 10**6):
        with pytest.raises(InvalidParams, match=f"MAX_GROUP_ORDER = {MAX_GROUP_ORDER}"):
            SemidirectGroup(2, k, 3, alpha=2)
    assert time.perf_counter() - started < 1
    assert SemidirectGroup(2, 16, 3, alpha=2).order == 196_608 <= MAX_GROUP_ORDER


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
            assert g.multiply(el, inverse(g, el)) == g.identity
            assert g.multiply(inverse(g, el), el) == g.identity


def test_power_identities():
    for params in SMALL_PARAMS:
        g = construct_group(*params)
        assert g.power(Element(0, 1), g.pk) == g.identity
        assert g.power(Element(1, 1), g.pk) == g.identity
        for a in range(g.m):
            assert g.power(Element(a, 0), g.m) == g.identity


def test_power_closed_form_vs_iteration():
    # power() is the closed form alone; compare it with iterated
    # multiplication for every element of the groups of order <= 200, up to
    # the group order
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


def test_p_elements_match_the_definition():
    # the p-elements read off the power formula are the g with g^(p^k) = e,
    # on the small groups, the direct product, the alpha = 4 mutant and every
    # group of the sweep
    mutants = [SemidirectGroup(2, 1, 3, alpha=1), SemidirectGroup(2, 1, 15, alpha=4)]
    cases = [construct_group(*params) for params in SMALL_PARAMS + sweep_parameters(150)]
    for g in cases + mutants:
        assert set(p_elements(g)) == p_elements_oracle(g), g


def test_p_generated_subgroup_examples():
    g = construct_group(2, 1, 3)
    assert p_generated_subgroup(g) == frozenset(g.elements())
    assert g.subgroup_closure([g.identity]) == frozenset({g.identity})
    g = construct_group(3, 1, 7)
    assert p_generated_subgroup(g) == frozenset(g.elements())


def test_quotient_checks():
    for params in SMALL_PARAMS:
        g = construct_group(*params)
        assert verify_group(g)["lemma_b"] == {"derived": True, "exhaustive": True}
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


def test_index_subgroups_match_the_explicit_sets():
    # the closures of (n, 0) and of (n, 0), (0, 1) are the sets listed
    # element by element, on every divisor of every swept group and of the
    # direct product
    cases = [construct_group(*params) for params in sweep_parameters(500)]
    cases.append(SemidirectGroup(2, 1, 3, alpha=1))
    pairs = 0
    for g in cases:
        for n in divisors(g.m):
            assert index_subgroups(g, n) == index_subgroups_oracle(g, n), (g, n)
            pairs += 1
    assert pairs == 868 + 2


def test_index_subgroups_close_their_generators_once(monkeypatch):
    # one closure of one generator for H0, one of two for H1; nothing is
    # re-closed to confirm it
    g = construct_group(2, 1, 15)
    calls = []
    real = g.subgroup_closure
    monkeypatch.setattr(g, "subgroup_closure", lambda gens: calls.append(list(gens)) or real(gens))
    index_subgroups(g, 5)
    assert calls == [[Element(5, 0)], [Element(5, 0), Element(0, 1)]]


def test_power_makes_no_multiplication(monkeypatch):
    g = construct_group(2, 2, 5)
    calls = []
    real = g.multiply
    monkeypatch.setattr(g, "multiply", lambda a, b: calls.append((a, b)) or real(a, b))
    assert g.power(Element(3, 1), 7) == Element(3, 3)
    assert g.power(Element(2, 2), g.order) == g.identity
    assert calls == []


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


def test_verify_group_raises_when_the_quotient_paths_disagree(monkeypatch):
    # the exhaustive half of (b) cross-checks the derived half; a flipped
    # enumeration must raise, not pass or report either verdict
    real = groups.quotient_check_exhaustive
    monkeypatch.setattr(groups, "quotient_check_exhaustive", lambda g: not real(g))
    with pytest.raises(ArithmeticError, match="quotient check paths disagree"):
        verify_group(construct_group(2, 1, 3))
    large = construct_group(2, 1, 151)
    with pytest.raises(ArithmeticError, match="quotient check paths disagree"):
        verify_group(large, exhaustive=True)
    # above the cutoff and not forced, the enumeration does not run
    assert verify_group(large)["lemma_b"] == {"derived": True, "exhaustive": None}


def test_p_elements_are_closed_under_conjugation():
    # the derived quotient check takes the plain closure of the p-elements as
    # their normal closure; conjugating by the generators (1, 0) and (0, 1)
    # must keep every p-element a p-element, in the direct product too
    direct = SemidirectGroup(2, 1, 3, alpha=1)
    for g in [construct_group(*params) for params in SMALL_PARAMS] + [direct]:
        elements = set(p_elements(g))
        for t in (Element(1, 0), Element(0, 1)):
            assert {conjugate(g, t, el) for el in elements} <= elements, g


def test_verify_group_reads_the_p_elements_once(monkeypatch):
    # (a) is read off the p steps, so verify_group never lists the
    # p-elements: not on a constructed group, and not on the alpha = 4 mutant,
    # where (a) is false
    calls = []

    def spy(group):
        calls.append(group)
        return p_elements(group)

    monkeypatch.setattr(groups, "p_elements", spy)
    for params in [(2, 1, 3), (3, 1, 7), (2, 1, 151)]:
        calls.clear()
        verify_group(construct_group(*params))
        assert calls == [], params
    calls.clear()
    assert verify_group(SemidirectGroup(2, 1, 15, alpha=4))["lemma_a"] is False
    assert calls == []
    # an index that does not divide m is refused before any work
    calls.clear()
    with pytest.raises(NonDivisor):
        verify_group(construct_group(2, 1, 151), index_divisors=[4], exhaustive=True)
    assert calls == []


def test_witness_reports_match_the_closure_oracle():
    # byte for byte against the closure-based report, on the bench sweep, the
    # hand-built family (812 of its 1,116 groups fail (a)), the README's
    # group-verify examples and two groups past the exhaustive cutoff with the
    # enumeration forced
    cases = [(construct_group(*params), {}) for params in sweep_parameters(500)]
    cases += [(g, {}) for g in hand_built_groups()]
    cases += [
        (construct_group(2, 1, 3), {}),
        (construct_group(2, 1, 15), {"index_divisors": [5]}),
        (construct_group(2, 1, 151), {"exhaustive": True}),
        (construct_group(5, 1, 101), {"exhaustive": True}),
        (construct_group(2, 1, 1009), {"exhaustive": True}),
    ]
    for g, kwargs in cases:
        expected = canonical_dumps(verify_group_oracle(g, **kwargs))
        assert canonical_dumps(verify_group(g, **kwargs)) == expected, (g, kwargs)


def test_mutants_fail_lemma_a_on_both_paths():
    # alpha - 1 = 3 is not a unit mod 15, so (1,1) is no p-element and the
    # p-elements generate a subgroup of order 10; the direct product's
    # p-elements generate one of order 2.  The p steps give d = 3 and d = 3,
    # and the closure and the enumeration say no too.
    for g in (SemidirectGroup(2, 1, 15, alpha=4), SemidirectGroup(2, 1, 3, alpha=1)):
        report = verify_group(g)
        assert report["lemma_a"] is False and report["all_pass"] is False, g
        assert report["lemma_b"] == {"derived": False, "exhaustive": False}, g
        assert canonical_dumps(report) == canonical_dumps(verify_group_oracle(g)), g


def _lie(monkeypatch, g, wrong_el, wrong_n, wrong, calls=1):
    # g.power answers (wrong_el, wrong_n) with `wrong` on its first `calls`
    # calls, and right otherwise; returns the list that records the lies
    real, lied = g.power, []

    def power(el, n):
        if (el, n) == (wrong_el, wrong_n) and len(lied) < calls:
            lied.append(n)
            return wrong
        return real(el, n)

    monkeypatch.setattr(g, "power", power)
    return lied


def test_a_failed_index_witness_raises_naming_its_divisor(monkeypatch):
    # a (c) witness that fails ends the check: verify_group raises, naming
    # the divisor.  Keys: the group, power's argument, exponent, wrong value
    # and the number of calls answered wrongly; values: the divisor named
    breaks = {
        # (5,0)^3 != e, or (5,0)^1 = e: the order of (5,0) is unproven
        ((2, 1, 15), Element(5, 0), 3, Element(1, 0), 1): 5,
        ((2, 1, 15), Element(5, 0), 1, Element(0, 0), 1): 5,
        # (0,1)^1 = e: the order of (0,1) is unproven at the first divisor
        ((2, 1, 15), Element(0, 1), 1, Element(0, 0), 1): 1,
        # (0,1)^-1 = (0,1)^3 read as (0,2): the conjugate of (1,0) then has
        # x = 3, so (0,1) is not shown to normalize H0 at n = 1
        ((2, 2, 5), Element(0, 1), 3, Element(0, 2), 1): 1,
        # (0,1)^-1 = (0,1)^2 read as (1,2), at n = 1 and n = 7: the conjugate
        # of (7,0) = e is then (2,0), outside H0 = {e} at n = 7
        ((3, 1, 7), Element(0, 1), 2, Element(1, 2), 2): 7,
    }
    for (params, wrong_el, wrong_n, wrong, calls), n in breaks.items():
        g = construct_group(*params)
        lied = _lie(monkeypatch, g, wrong_el, wrong_n, wrong, calls)
        with pytest.raises(ArithmeticError, match=f"index witness fails for n = {n} on"):
            verify_group(g)
        assert lied == [wrong_n] * calls, (params, wrong_el, wrong_n)
        monkeypatch.undo()


def test_a_wrong_p_step_is_caught_by_the_enumeration(monkeypatch):
    # at p = 2, a wrong (1,1)^(p^k), read into step_1, flips (a) either way;
    # at order <= 300 the enumeration disagrees and verify_group raises
    breaks = [
        # (1,1)^2 = e read as (5,0): step_1 = 3, so (a) would read false
        (construct_group(2, 1, 15), Element(1, 1), 2, Element(5, 0)),
        # (1,1)^4 = e read as (1,0): step_1 = 5 = m
        (construct_group(2, 2, 5), Element(1, 1), 4, Element(1, 0)),
        # the alpha = 4 mutant's (1,1)^2 = (5,0) read as e: (a) would read true
        (SemidirectGroup(2, 1, 15, alpha=4), Element(1, 1), 2, Element(0, 0)),
    ]
    for g, wrong_el, wrong_n, wrong in breaks:
        assert g.order <= groups.EXHAUSTIVE_MAX_ORDER
        lied = _lie(monkeypatch, g, wrong_el, wrong_n, wrong)
        with pytest.raises(ArithmeticError, match="quotient check paths disagree"):
            verify_group(g)
        assert lied == [wrong_n], g
        monkeypatch.undo()


# verify_group over sweep_parameters(150): 78 groups, each on the exhaustive path
SWEEP_150_SHA256 = "02cffcafe7fc420e56e09210af87c974ce5b899f97c4606db3e1fe03e6ef03ac"
# over sweep_parameters(500), the bench sweep: 278 groups, of which the 114 of
# orders 301-500 report "exhaustive": null
SWEEP_500_SHA256 = "86a1b4562b2ab761f0afc7592e7c275157dd15bf2eca2a50da76cf1028823b26"


def test_sweep_reports_are_pinned():
    for max_order, count, skipped, digest in (
        (150, 78, 0, SWEEP_150_SHA256),
        (500, 278, 114, SWEEP_500_SHA256),
    ):
        reports = [verify_group(construct_group(*p)) for p in sweep_parameters(max_order)]
        assert len(reports) == count
        unenumerated = [r["order"] for r in reports if r["lemma_b"]["exhaustive"] is None]
        assert len(unenumerated) == skipped and all(order > 300 for order in unenumerated)
        assert hashlib.sha256(canonical_dumps(reports).encode()).hexdigest() == digest


def test_subgroup_closure_matches_the_bfs_oracle():
    # closure by whole cosets against the breadth-first search, on the swept
    # groups, the direct product and two groups past the exhaustive cutoff,
    # for the p-elements, every conjugacy class, seeded random lists (also
    # with a duplicate and the identity), the empty list, and lists whose
    # later generators already lie in the closure
    rng = random.Random(34)
    direct = SemidirectGroup(2, 1, 3, alpha=1)
    cases = [construct_group(*params) for params in sweep_parameters(150)]
    cases += [direct, construct_group(2, 1, 1009), construct_group(3, 1, 91)]
    for g in cases:
        elements = list(g.elements())
        lists = [p_elements(g), [], [g.identity]] + g.conjugacy_classes()
        for _ in range(8):
            gens = rng.choices(elements, k=rng.randint(1, 4))
            lists.append(gens)
            padded = list(gens)
            padded.insert(rng.randrange(len(padded) + 1), rng.choice(gens))
            padded.insert(rng.randrange(len(padded) + 1), g.identity)
            lists.append(padded)
            x, y = gens[0], rng.choice(elements)
            lists.append([x, g.power(x, 2), y, g.multiply(x, y), g.multiply(y, x)])
        for gens in lists:
            assert g.subgroup_closure(gens) == subgroup_closure_oracle(g, gens), (g, gens)
    assert direct.subgroup_closure([]) == frozenset({direct.identity})


def test_normal_subgroups_match_the_bfs_oracle():
    # the same set of normal subgroups as the breadth-first search over
    # unions of classes, on the swept groups, a group with nontrivial
    # prime-to-p quotients, and two groups past the exhaustive cutoff
    direct = SemidirectGroup(2, 1, 3, alpha=1)
    cases = [construct_group(*params) for params in sweep_parameters(150)]
    cases += [direct, construct_group(2, 1, 1009), construct_group(3, 1, 91)]
    for g in cases:
        assert set(groups._normal_subgroups(g)) == set(normal_subgroups_oracle(g)), g


def test_normal_subgroups_take_one_closure_per_cyclic_subgroup_class(monkeypatch):
    # (2, 1, 1009): the identity, 504 classes {(a, 0), (-a, 0)} that all
    # generate the normal Z/1009, and one class of involutions
    g = construct_group(2, 1, 1009)
    assert len(g.conjugacy_classes()) == 506
    calls = []
    real = g.subgroup_closure
    monkeypatch.setattr(g, "subgroup_closure", lambda gens: calls.append(gens) or real(gens))
    assert [len(n) for n in groups._normal_subgroups(g)] == [1, 1009, 2018]
    assert len(calls) == 3


def test_group_operations_return_elements():
    # multiply, the cosets, the power walk, the classes, elements() and
    # p_elements build Elements without the NamedTuple constructor; the type
    # must survive every operation, and the identity is one shared constant
    g = construct_group(2, 2, 5)
    a, b = Element(3, 1), Element(2, 3)
    assert type(g.multiply(a, b)) is Element
    assert type(g.power(a, 7)) is Element
    assert g.multiply(a, b).a == g.multiply(a, b)[0]
    for normal in groups._normal_subgroups(g):
        assert all(type(el) is Element for el in normal)
    built = [g.subgroup_closure(gens) for gens in ([a], [a, b], [b, a], p_elements(g))]
    built += g.conjugacy_classes()
    built += [g.elements(), p_elements(g)]
    built += [h for n in divisors(g.m) for h in index_subgroups(g, n)]
    for elements in built:
        assert all(type(el) is Element for el in elements)
    assert g.identity is g.identity is construct_group(2, 1, 3).identity


def test_alpha_choice_independence():
    # the properties hold for every qualifying alpha, not just the smallest
    for params in [(2, 1, 21), (3, 1, 13), (2, 2, 15), (5, 1, 31)]:
        p, k, m = params
        alphas = list(qualifying_alphas(p, m))
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
                assert {conjugate(g, h, el) for h in g.elements()} == set(c)


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
