"""Helpers shared by several test modules."""
import json

from maxleaf.digraph import Digraph


def state_space_cap(bag_size: int) -> int:
    """Regression guard on DP table sizes: Bell(bag_size) * 4**bag_size."""
    bell = [[1]]
    for i in range(1, bag_size + 1):
        row = [bell[-1][-1]]
        for x in bell[-1]:
            row.append(row[-1] + x)
        bell.append(row)
    b = bell[bag_size][0] if bag_size > 0 else 1
    return b * 4 ** bag_size


def serialize_json(D) -> str:
    """A digraph as the JSON document parse reads: arcs sorted."""
    return json.dumps({"n": D.n, "arcs": [list(a) for a in sorted(D.arcs)]})


# one invalid decomposition per check that tighten and the DP share with
# validate_pd, on a digraph with a 2-cycle: the edge {1,2} in no bag, a
# vertex outside the graph, and vertex 1 in bags 0 and 2 only
CHECKED_DIGRAPH = Digraph.build(4, [(0, 1), (1, 0), (1, 2), (2, 3)])
INVALID_DECOMPOSITIONS = {
    "axiom 2": (frozenset({0, 1}), frozenset({2, 3})),
    "bag vertex 7 outside": (frozenset({0, 1, 2}), frozenset({2, 3, 7})),
    "axiom 3": (frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({1})),
}
