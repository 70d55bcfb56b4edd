import hashlib
import random
import time

import pytest

from maxleaf import local_search
from maxleaf.branching import BranchingError, OutBranching, leaf_count, validate
from maxleaf.digraph import Digraph, has_out_branching
from maxleaf.generators import gen_random_strong, gen_random_strong_min_in3
from maxleaf.local_search import (
    Certificate,
    ExchangeMove,
    _bfs_1ae,
    _first_improving_1ae_move,
    _start,
    best_of_restarts,
    bfs_branching,
    check_structural_conditions,
    dfs_branching,
    improve_to_1ae,
    is_1ae_optimal,
)
from maxleaf.oracles import BudgetExhausted

from helpers import naive_max_leaf_branching


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


class MoveRejection(Exception):
    """Move does not produce an out-branching; the message says why."""


def _arc_set_to_branching(D, arcs):
    """Interpret an arc set as an out-branching of D, or raise MoveRejection."""
    n = D.n
    if len(arcs) != n - 1:
        raise MoveRejection("wrong arc count")
    parent = [-1] * n
    for u, v in arcs:
        if parent[v] != -1:
            raise MoveRejection(f"vertex {v} has two parents")
        parent[v] = u
    roots = [v for v in range(n) if parent[v] == -1]
    if len(roots) != 1:
        raise MoveRejection("disconnected")
    T = OutBranching(n, roots[0], tuple(parent))
    if any(d < 0 for d in T.depths()):
        raise MoveRejection("cycle")
    return T


def apply_move(D, T, move):
    """Oracle for the exchange: rebuild the tree from its arc set with
    `removed` swapped for `added`, checking everything on the way;
    raises MoveRejection when the result is not an out-branching of D.
    A root change is allowed."""
    tree_arcs = T.arcs()
    if move.removed not in tree_arcs:
        raise MoveRejection("removed arc not in tree")
    if move.added in tree_arcs:
        raise MoveRejection("added arc already in tree")
    if move.added not in D.arcs:
        raise MoveRejection("added arc not in host digraph")
    return _arc_set_to_branching(D, (tree_arcs - {move.removed}) | {move.added})


def exhaustive_1ae_certificate(D, T):
    """Oracle: try every (tree arc, non-tree arc) swap in lexicographic
    order and report the first one that yields more leaves."""
    tree_arcs = sorted(T.arcs())
    non_tree = sorted(D.arcs - set(tree_arcs))
    for removed in tree_arcs:
        for added in non_tree:
            move = ExchangeMove(removed, added)
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


def reference_bfs_branching(D, root, rng=None):
    """bfs_branching as it was before the one-pass builder: a queue, and
    each out-neighbor list shuffled by rng.shuffle."""
    parent = [-1] * D.n
    seen = [False] * D.n
    seen[root] = True
    queue = [root]
    i = 0
    while i < len(queue):
        u = queue[i]
        i += 1
        nbrs = list(D.out_adj[u])
        if rng is not None:
            rng.shuffle(nbrs)
        for w in nbrs:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                queue.append(w)
    return OutBranching(D.n, root, tuple(parent))


def reference_dfs_branching(D, root, rng=None):
    """dfs_branching as it was before the one-pass builder."""
    parent = [-1] * D.n
    seen = [False] * D.n
    seen[root] = True
    stack = [root]
    while stack:
        u = stack.pop()
        nbrs = list(D.out_adj[u])
        if rng is not None:
            rng.shuffle(nbrs)
        for w in nbrs:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                stack.append(w)
    return OutBranching(D.n, root, tuple(parent))


def reference_restarts(D, roots, starts_per_root, seed):
    """best_of_restarts as the composition of the public pieces: the least
    (-leaves, root, parent) over improve_to_1ae of every seeded start."""
    best = None
    for root in sorted(set(roots)):
        for s in range(starts_per_root):
            rng = random.Random(seed * 1000003 + root * 8191 + s)
            build = reference_bfs_branching if s % 2 == 0 else reference_dfs_branching
            T = improve_to_1ae(D, build(D, root, rng))
            key = (-leaf_count(T), T.root, T.parent)
            if best is None or key < best[0]:
                best = (key, T)
    return best[1]


class TestApplyMove:
    def test_swap_changes_parent(self):
        # path 0->1->2 plus shortcut 0->2
        D = Digraph.build(3, [(0, 1), (1, 2), (0, 2)])
        T = OutBranching(3, 0, (-1, 0, 1))
        T2 = apply_move(D, T, ExchangeMove((1, 2), (0, 2)))
        assert T2.parent == (-1, 0, 0)
        assert leaf_count(T2) == 2

    def test_root_change_allowed(self):
        D = Digraph.build(2, [(0, 1), (1, 0)])
        T = OutBranching(2, 0, (-1, 0))
        T2 = apply_move(D, T, ExchangeMove((0, 1), (1, 0)))
        assert T2.root == 1

    def test_rejects_cycle(self):
        D = Digraph.build(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
        T = OutBranching(4, 0, (-1, 0, 1, 2))
        with pytest.raises(MoveRejection, match="cycle|two parents"):
            apply_move(D, T, ExchangeMove((0, 1), (3, 1)))

    def test_rejects_arc_not_in_host(self):
        D = Digraph.build(3, [(0, 1), (1, 2)])
        T = OutBranching(3, 0, (-1, 0, 1))
        with pytest.raises(MoveRejection, match="host"):
            apply_move(D, T, ExchangeMove((1, 2), (0, 2)))

    def test_rejects_removed_not_in_tree(self):
        D = Digraph.build(3, [(0, 1), (1, 2), (0, 2)])
        T = OutBranching(3, 0, (-1, 0, 0))
        with pytest.raises(MoveRejection, match="removed"):
            apply_move(D, T, ExchangeMove((1, 2), (1, 2)))


class TestCertificate:
    def test_path_with_shortcut_improvable(self):
        D = Digraph.build(3, [(0, 1), (1, 2), (0, 2)])
        T = OutBranching(3, 0, (-1, 0, 1))
        cert = is_1ae_optimal(D, T)
        assert cert.status == "improvable"
        assert cert.violating_move == ExchangeMove((1, 2), (0, 2))

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
                added = cert.violating_move.added
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
                added = cert.violating_move.added
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

    def test_matches_reference_descent_on_large_digraphs(self):
        # the in-place descent against the finder plus the rebuilding
        # apply_move, one move at a time, n 30-200 from three kinds of start
        moves = rerooted = 0
        for i in range(48):
            n = (30, 50, 80, 120, 160, 200)[i % 6]
            D = (gen_random_strong(n, 700 + i, (3, 5, 10)[i % 3]) if i % 2 == 0
                 else gen_random_strong_min_in3(n, 700 + i))
            rng = random.Random(i)
            for build in (bfs_branching, dfs_branching, deep_dfs_branching):
                T0 = T = build(D, rng.randrange(n), rng)
                while True:
                    move = _first_improving_1ae_move(D, T)
                    if move is None:
                        break
                    moves += 1
                    rerooted += move.added[1] == T.root
                    T = apply_move(D, T, move)
                assert improve_to_1ae(D, T0) == T, (i, build.__name__)
        assert moves >= 2500 and rerooted >= 250, (moves, rerooted)


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

    def test_inlined_draw_matches_shuffle(self):
        # root 0 of a star has out-neighbors 1..length, every other vertex
        # one; the root's child list is its shuffled neighbor list, and the
        # generator is left in the same state as after rng.shuffle
        for length in range(81):
            D = Digraph.build(length + 1, [(0, v) for v in range(1, length + 1)]
                              + [(v, 0) for v in range(1, length + 1)])
            for seed in range(300):
                rng, ref = random.Random(seed), random.Random(seed)
                _, ch = _start(D, 0, rng, True)
                nbrs = list(D.out_adj[0])
                ref.shuffle(nbrs)
                assert ch[0] == nbrs, (length, seed)
                assert rng.getrandbits(64) == ref.getrandbits(64), (length, seed)

    def test_same_trees_as_reference_builders(self):
        for i in range(24):
            n = (5, 12, 30, 80)[i % 4]
            D = (gen_random_strong(n, 300 + i, (3, 10, 20)[i % 3]) if i % 2 == 0
                 else gen_random_strong_min_in3(n, 300 + i))
            for root in range(0, n, max(1, n // 6)):
                assert bfs_branching(D, root) == reference_bfs_branching(D, root)
                assert dfs_branching(D, root) == reference_dfs_branching(D, root)
                for seed in range(3):
                    assert (bfs_branching(D, root, random.Random(seed))
                            == reference_bfs_branching(D, root, random.Random(seed)))
                    assert (dfs_branching(D, root, random.Random(seed))
                            == reference_dfs_branching(D, root, random.Random(seed)))


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

    def test_deadline_in_reach_changes_nothing(self):
        D = random_strong(11, 9)
        assert (best_of_restarts(D, range(11), 2, seed=5, deadline=time.monotonic() + 600)
                == best_of_restarts(D, range(11), 2, seed=5))

    def test_past_deadline_stops_after_first_start(self):
        D = random_strong(11, 9)
        with pytest.raises(BudgetExhausted) as info:
            best_of_restarts(D, range(11), 2, seed=5, deadline=time.monotonic() - 1)
        first = best_of_restarts(D, [0], 1, seed=5)
        assert info.value.witness == first
        assert info.value.best_value == leaf_count(first)

    def test_matches_composition_of_public_pieces(self):
        for i in range(12):
            n = (30, 60, 120, 200)[i % 4]
            D = (gen_random_strong(n, 500 + i, (3, 5, 10)[i % 3]) if i % 2 == 0
                 else gen_random_strong_min_in3(n, 500 + i))
            rng = random.Random(i)
            roots = rng.sample(range(n), 4)
            starts = 1 + i % 3
            deadline = time.monotonic() + 600 if i % 2 else None
            assert (best_of_restarts(D, roots, starts, seed=i, deadline=deadline)
                    == reference_restarts(D, roots, starts, seed=i)), i

    def test_bfs_descent_matches_composition(self):
        for i in range(6):
            D = gen_random_strong(40, 600 + i, 10)
            for root in range(0, 40, 7):
                assert _bfs_1ae(D, root) == improve_to_1ae(D, bfs_branching(D, root))

    @staticmethod
    def corrupt_descent(monkeypatch):
        # a descent that leaves one vertex its own parent
        real = local_search._descend

        def corrupt(D, root, parent, ch):
            root = real(D, root, parent, ch)
            v = 1 if root == 0 else 0
            parent[v] = v
            return root

        monkeypatch.setattr(local_search, "_descend", corrupt)

    def test_returned_tree_is_validated(self, monkeypatch):
        D = random_strong(11, 9)
        self.corrupt_descent(monkeypatch)
        with pytest.raises(BranchingError):
            best_of_restarts(D, range(11), 2, seed=5)
        with pytest.raises(BranchingError):
            _bfs_1ae(D, 0)
        with pytest.raises(BranchingError):
            improve_to_1ae(D, bfs_branching(D, 0))

    def test_tree_carried_past_deadline_is_validated(self, monkeypatch):
        D = random_strong(11, 9)
        self.corrupt_descent(monkeypatch)
        with pytest.raises(BranchingError):
            best_of_restarts(D, range(11), 2, seed=5, deadline=time.monotonic() - 1)

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
