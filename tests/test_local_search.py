import hashlib
import random

import pytest

from maxleaf.branching import OutBranching, leaf_count, validate
from maxleaf.digraph import Digraph, has_out_branching
from maxleaf.local_search import (
    Certificate,
    ExchangeMove,
    MoveRejection,
    apply_move,
    best_of_restarts,
    bfs_branching,
    check_structural_conditions,
    dfs_branching,
    improve_to_1ae,
    is_1ae_optimal,
)
from maxleaf.oracles import naive_max_leaf_branching


def random_strong(n, seed, extra=0.25):
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < extra:
                arcs.add((u, v))
    return Digraph.build(n, arcs)


def exhaustive_1ae_certificate(D, T):
    """Oracle: try every (tree arc, non-tree arc) swap in lexicographic
    order and report the first one that yields more leaves."""
    tree_arcs = sorted(T.arcs())
    non_tree = sorted(D.arcs - set(tree_arcs))
    for removed in tree_arcs:
        for added in non_tree:
            move = ExchangeMove.single(removed, added)
            try:
                if leaf_count(apply_move(D, T, move)) > leaf_count(T):
                    return Certificate("improvable", move)
            except MoveRejection:
                pass
    return Certificate("optimal")


def random_branchings(count, seed):
    """BFS/DFS branchings from random roots of random digraphs, n <= 9."""
    rng = random.Random(seed)
    while count > 0:
        n = rng.randint(2, 9)
        p = rng.uniform(0.15, 0.6)
        D = Digraph.build(n, [(u, v) for u in range(n) for v in range(n)
                              if u != v and rng.random() < p])
        ok, roots = has_out_branching(D)
        if not ok:
            continue
        build = rng.choice([bfs_branching, dfs_branching])
        yield D, build(D, rng.choice(sorted(roots)), rng)
        count -= 1


def deep_dfs_branching(D, root, rng):
    """Depth-first tree that parents each vertex at its first visit, so
    its root paths are long and improve_to_1ae makes several moves."""
    parent = [-1] * D.n
    seen = [False] * D.n
    stack = [(root, -1)]
    while stack:
        u, p = stack.pop()
        if seen[u]:
            continue
        seen[u] = True
        parent[u] = p
        nbrs = list(D.out_adj[u])
        rng.shuffle(nbrs)
        stack.extend((w, u) for w in nbrs if not seen[w])
    return OutBranching(D.n, root, tuple(parent))


class TestApplyMove:
    def test_swap_changes_parent(self):
        # path 0->1->2 plus shortcut 0->2
        D = Digraph.build(3, [(0, 1), (1, 2), (0, 2)])
        T = OutBranching(3, 0, (-1, 0, 1))
        T2 = apply_move(D, T, ExchangeMove.single((1, 2), (0, 2)))
        assert T2.parent == (-1, 0, 0)
        assert leaf_count(T2) == 2

    def test_root_change_allowed(self):
        D = Digraph.build(2, [(0, 1), (1, 0)])
        T = OutBranching(2, 0, (-1, 0))
        T2 = apply_move(D, T, ExchangeMove.single((0, 1), (1, 0)))
        assert T2.root == 1

    def test_rejects_cycle(self):
        D = Digraph.build(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
        T = OutBranching(4, 0, (-1, 0, 1, 2))
        with pytest.raises(MoveRejection, match="cycle|two parents"):
            apply_move(D, T, ExchangeMove.single((0, 1), (3, 1)))

    def test_rejects_arc_not_in_host(self):
        D = Digraph.build(3, [(0, 1), (1, 2)])
        T = OutBranching(3, 0, (-1, 0, 1))
        with pytest.raises(MoveRejection, match="host"):
            apply_move(D, T, ExchangeMove.single((1, 2), (0, 2)))

    def test_rejects_removed_not_in_tree(self):
        D = Digraph.build(3, [(0, 1), (1, 2), (0, 2)])
        T = OutBranching(3, 0, (-1, 0, 0))
        with pytest.raises(MoveRejection, match="removed"):
            apply_move(D, T, ExchangeMove.single((1, 2), (1, 2)))


class TestCertificate:
    def test_path_with_shortcut_improvable(self):
        D = Digraph.build(3, [(0, 1), (1, 2), (0, 2)])
        T = OutBranching(3, 0, (-1, 0, 1))
        cert = is_1ae_optimal(D, T)
        assert cert.status == "improvable"
        assert cert.violating_move == ExchangeMove.single((1, 2), (0, 2))

    def test_star_optimal(self):
        D = Digraph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        T = OutBranching(4, 0, (-1, 0, 0, 0))
        assert is_1ae_optimal(D, T).status == "optimal"

    def test_directed_cycle_path_is_optimal(self):
        # on a directed cycle the only branching per root is the path
        n = 6
        D = Digraph.build(n, [(i, (i + 1) % n) for i in range(n)])
        T = bfs_branching(D, 0)
        assert is_1ae_optimal(D, T).status == "optimal"

    def test_rejects_invalid_branching(self):
        D = Digraph.build(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            is_1ae_optimal(D, OutBranching(3, 0, (-1, 0, 0)))

    def test_matches_exhaustive_sweep(self):
        improvable = rerooted = 0
        for D, T in random_branchings(2500, seed=20070707):
            cert = is_1ae_optimal(D, T)
            assert cert == exhaustive_1ae_certificate(D, T), (sorted(D.arcs), T)
            if cert.status == "improvable":
                improvable += 1
                (added,) = cert.violating_move.added
                rerooted += added[1] == T.root
        # the corpus exercises both move kinds, re-rooting included
        assert improvable >= 400 and rerooted >= 200, (improvable, rerooted)

    def test_matches_exhaustive_sweep_along_trajectories(self):
        # every tree improve_to_1ae passes through, n 8-14, up to its optimum
        steps = rerooted = 0
        rng = random.Random(7070)
        for i in range(60):
            n = 8 + i % 7
            D = random_strong(n, rng.randrange(1 << 30), extra=rng.uniform(0.1, 0.4))
            T0 = T = deep_dfs_branching(D, rng.randrange(n), rng)
            while True:
                cert = exhaustive_1ae_certificate(D, T)
                assert is_1ae_optimal(D, T) == cert, (sorted(D.arcs), T)
                if cert.status == "optimal":
                    break
                steps += 1
                (added,) = cert.violating_move.added
                rerooted += added[1] == T.root
                T = apply_move(D, T, cert.violating_move)
            assert improve_to_1ae(D, T0) == T
        assert steps >= 200 and rerooted >= 80, (steps, rerooted)


class TestImprove:
    def test_reaches_local_optimum(self):
        for seed in range(8):
            D = random_strong(10, seed)
            T = improve_to_1ae(D, bfs_branching(D, 0))
            assert validate(D, T) is None
            assert is_1ae_optimal(D, T).status == "optimal"

    def test_never_decreases_leaves(self):
        D = random_strong(9, 3)
        T0 = dfs_branching(D, 0)
        T = improve_to_1ae(D, T0)
        assert leaf_count(T) >= leaf_count(T0)

    def test_rejects_invalid_start(self):
        D = Digraph.build(3, [(0, 1), (1, 2)])
        bogus = OutBranching(3, 0, (-1, 0, 0))
        with pytest.raises(ValueError):
            improve_to_1ae(D, bogus)


class TestStructuralConditions:
    def test_certified_optima_have_no_violations(self):
        # the three conditions are necessary for 1-AE optimality
        for seed in range(12):
            D = random_strong(9, seed, extra=0.3)
            T = improve_to_1ae(D, bfs_branching(D, seed % D.n))
            assert check_structural_conditions(D, T) == []

    def test_condition_a_triggered(self):
        # two root paths 0->1->2->3 and 0->4->5->6, cross arc 5 -> 2
        # between non-leaves where 2's parent has tree out-degree 1
        tree = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6)]
        D = Digraph.build(7, tree + [(5, 2)])
        T = OutBranching(7, 0, (-1, 0, 1, 2, 0, 4, 5))
        vio = check_structural_conditions(D, T)
        assert any(v.condition == "a" and v.arc == (5, 2) for v in vio)

    def test_condition_b_triggered(self):
        # root path 0 -> 1 -> 2 -> 3 with a forward shortcut 0 -> 2
        D = Digraph.build(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        T = OutBranching(4, 0, (-1, 0, 1, 2))
        vio = check_structural_conditions(D, T)
        assert any(v.condition == "b" and v.arc == (0, 2) for v in vio)

    def test_condition_c_triggered(self):
        # cycle back to the root from a non-leaf
        D = Digraph.build(4, [(0, 1), (1, 2), (2, 3), (2, 0)])
        T = OutBranching(4, 0, (-1, 0, 1, 2))
        vio = check_structural_conditions(D, T)
        assert any(v.condition == "c" and v.arc == (2, 0) for v in vio)

    def test_leaf_arcs_exempt(self):
        # non-tree arc out of a leaf never violates anything
        D = Digraph.build(3, [(0, 1), (0, 2), (2, 1)])
        T = OutBranching(3, 0, (-1, 0, 0))
        assert check_structural_conditions(D, T) == []


class TestTraversals:
    def test_bfs_branching_valid(self):
        D = random_strong(12, 1)
        for root in range(12):
            assert validate(D, bfs_branching(D, root)) is None

    def test_dfs_branching_valid(self):
        D = random_strong(12, 2)
        assert validate(D, dfs_branching(D, 4)) is None

    def test_unreachable_root_rejected(self):
        D = Digraph.build(3, [(0, 1)])
        with pytest.raises(ValueError, match="reach"):
            bfs_branching(D, 2)


class TestBestOfRestarts:
    def test_deterministic(self):
        D = random_strong(11, 9)
        a = best_of_restarts(D, range(11), 2, seed=5)
        b = best_of_restarts(D, range(11), 2, seed=5)
        assert a == b

    def test_result_is_certified_optimal(self):
        D = random_strong(10, 4)
        T = best_of_restarts(D, range(10), 2, seed=1)
        assert is_1ae_optimal(D, T).status == "optimal"

    def test_often_matches_exact_on_small(self):
        hits = 0
        for seed in range(10):
            D = random_strong(6, seed, extra=0.3)
            opt, _ = naive_max_leaf_branching(D)
            T = best_of_restarts(D, range(6), 2, seed=seed)
            assert leaf_count(T) <= opt
            hits += leaf_count(T) == opt
        assert hits >= 8  # local search is near-exact at this scale

    def test_empty_roots_rejected(self):
        D = Digraph.build(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="empty"):
            best_of_restarts(D, [], 1, seed=0)

    def test_root_that_cannot_reach_all_rejected(self):
        D = Digraph.build(3, [(0, 1), (1, 2), (2, 1)])
        with pytest.raises(ValueError, match="reach"):
            best_of_restarts(D, [0, 1], 2, seed=0)

    def test_no_starts_rejected(self):
        D = Digraph.build(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="starts_per_root"):
            best_of_restarts(D, [0], 0, seed=0)

    def test_golden_results(self):
        # SHA-256 of the results on a seeded corpus, recorded with the
        # move finder that scanned every arc of D
        lines = []
        for n in range(6, 31):
            for seed in range(4):
                D = random_strong(n, 1000 * n + seed, extra=(0.1, 0.2, 0.3, 0.45)[seed])
                T = best_of_restarts(D, range(n), 2, seed=seed)
                lines.append(f"{n} {seed} {T.root} {T.parent}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "0bcfefa76bf408e39c8945d71ba6e2f9649ebacfcd022e7ecfeb8d24ccaf124f"
