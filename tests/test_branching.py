import pytest

from maxleaf.branching import (
    OutBranching,
    classify,
    leaf_count,
    validate,
)
from maxleaf.digraph import Digraph, FormatError


def path_branching(n):
    return OutBranching(n, 0, tuple([-1] + list(range(n - 1))))


def star_branching(n):
    return OutBranching(n, 0, tuple([-1] + [0] * (n - 1)))


class TestValidate:
    def test_non_host_arc(self):
        D = Digraph.build(3, [(0, 1), (1, 2), (2, 0)])
        T = OutBranching.from_parent_map(3, 0, {1: 0, 2: 0})
        assert "non-host arc" in validate(D, T)

    def test_valid_path(self):
        D = Digraph.build(3, [(0, 1), (1, 2)])
        assert validate(D, path_branching(3)) is None

    def test_cycle_among_non_roots(self):
        D = Digraph.build(3, [(0, 1), (1, 2), (2, 1)])
        T = OutBranching.from_parent_map(3, 0, {1: 2, 2: 1})
        assert "unreachable" in validate(D, T)

    def test_missing_parent(self):
        D = Digraph.build(3, [(0, 1), (1, 2)])
        T = OutBranching(3, 0, (-1, 0, -1))
        assert "no parent" in validate(D, T)

    def test_messages_pinned(self):
        n = 6
        D = Digraph.build(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        cases = [
            # 3 <-> 4 is a parent cycle that avoids the root; 1 hangs off
            # it and is the least unreachable vertex; 2 and 5 are reachable
            ((0, (-1, 3, 0, 4, 3, 2)), "unreachable from root: vertex 1"),
            # 5 -> 4 -> 3 -> 5 cycles; 1 and 2 reach the root
            ((0, (-1, 0, 1, 5, 3, 4)), "unreachable from root: vertex 3"),
            # a cycle through a wrong root's own parent
            ((2, (-1, 0, 1, 2, 3, 4)), "root 2 has a parent"),
            ((6, (-1, 0, 1, 2, 3, 4)), "root 6 out of range"),
            ((1, (-1, -1, 1, 2, 3, 4)), "non-root vertex 0 has no parent"),
            ((0, (-1, 0, 0, 0, 0, 9)), "parent 9 of 5 out of range"),
        ]
        for (root, parent), message in cases:
            assert validate(D, OutBranching(n, root, parent)) == message
        D = Digraph.build(n, [(i, i + 1) for i in range(n - 1)])
        T = OutBranching(n, 0, (-1, 0, 1, 2, 3, 3))
        assert validate(D, T) == "non-host arc (3, 5)"
        assert validate(D, OutBranching(n, 0, (-1, 0, 1, 2, 3, 4))) is None


class TestClassify:
    def test_star(self):
        cls = classify(star_branching(5))
        assert cls.leaves == {1, 2, 3, 4}
        assert cls.branches == {0}
        assert cls.links == frozenset()
        assert cls.link_paths == ()

    def test_path(self):
        cls = classify(path_branching(4))
        assert cls.leaves == {3}
        assert cls.links == {0, 1, 2}
        assert cls.link_paths == ((0, 1, 2),)
        assert cls.first_vertices == {0}

    def test_binary_tree_fact1_tight(self):
        # root 0 -> 1,2; 1 -> 3,4; 2 -> 5,6
        T = OutBranching.from_parent_map(
            7, 0, {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2})
        cls = classify(T)
        assert len(cls.branches) == len(cls.leaves) - 1 == 3

    def test_counting_facts_on_random_trees(self):
        import random
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 14)
            parent = {v: rng.randint(0, v - 1) for v in range(1, n)}
            T = OutBranching.from_parent_map(n, 0, parent)
            cls = classify(T)
            nl = len(cls.leaves)
            assert len(cls.branches) <= nl - 1
            assert len(cls.link_paths) <= 2 * nl - 1
            assert cls.leaves | cls.links | cls.branches == set(range(n))
            covered = [v for p in cls.link_paths for v in p]
            assert sorted(covered) == sorted(cls.links)

    def test_link_paths_ordered_by_depth_then_id(self):
        # two link paths at different depths
        T = OutBranching.from_parent_map(
            6, 0, {1: 0, 2: 0, 3: 1, 4: 2, 5: 4})
        cls = classify(T)
        depths = T.depths()
        keys = [(depths[p[0]], p[0]) for p in cls.link_paths]
        assert keys == sorted(keys)


class TestLeafCount:
    def test_star(self):
        assert leaf_count(star_branching(5)) == 4

    def test_path(self):
        assert leaf_count(path_branching(4)) == 1

    def test_single_vertex_counts_zero(self):
        assert leaf_count(OutBranching(1, 0, (-1,))) == 0


class TestSerialization:
    def test_json_round_trip(self):
        T = OutBranching.from_parent_map(4, 2, {0: 2, 1: 0, 3: 2})
        back = OutBranching.from_json(T.to_json(), 4)
        assert back == T

    @pytest.mark.parametrize("key", [" 1", "\u0663", "01", "+1", "-0"])
    def test_parent_key_must_be_decimal_form(self, key):
        # int() accepts each of these as a vertex; only str(v) is a key
        with pytest.raises(FormatError, match="parent key"):
            OutBranching.from_json('{"root": 0, "parent": {"%s": 0}}' % key, 4)


def test_depth_increases_along_arcs():
    T = OutBranching.from_parent_map(6, 0, {1: 0, 2: 1, 3: 1, 4: 3, 5: 0})
    d = T.depths()
    for v in range(6):
        if v != T.root:
            assert d[v] == d[T.parent[v]] + 1
