"""Reference normal-subgroup enumeration.

`normal_subgroups` is the body `traceforms.groups._normal_subgroups` had
before it took one class closure per class of cyclic subgroups and built joins
from cosets: a breadth-first search that closes every found normal subgroup
with every conjugacy class from scratch.  It is quadratic in the order, so the
tests run it on small groups only and compare the two sets.
"""

from traceforms.groups import SemidirectGroup


def normal_subgroups(group: SemidirectGroup) -> list[frozenset]:
    classes = group.conjugacy_classes()
    trivial = frozenset({group.identity})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        base = frontier.pop()
        for cls in classes:
            if cls <= base:
                continue
            # class-closed generating set, so the closure is normal
            candidate = group.subgroup_closure(set(base) | set(cls))
            if candidate not in found:
                found.add(candidate)
                frontier.append(candidate)
    return sorted(found, key=len)
