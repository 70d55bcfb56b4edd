import pytest

from maxleaf.digraph import is_strongly_connected
from maxleaf.generators import (
    InstanceSpec,
    Lcg,
    gen_ht,
    gen_random_dag_single_source,
    gen_random_digraph,
    gen_random_strong,
    gen_random_strong_min_in3,
    generate,
    ht_vertex,
)


class TestLcg:
    def test_deterministic(self):
        a = [Lcg(7).randint(0, 999) for _ in range(5)]
        b = [Lcg(7).randint(0, 999) for _ in range(5)]
        assert a == b

    def test_range(self):
        rng = Lcg(1)
        vals = [rng.randint(3, 5) for _ in range(200)]
        assert set(vals) == {3, 4, 5}

    def test_shuffle_is_permutation(self):
        rng = Lcg(9)
        xs = list(range(20))
        rng.shuffle(xs)
        assert sorted(xs) == list(range(20))
        assert xs != list(range(20))

    def test_chance_extremes(self):
        rng = Lcg(2)
        assert all(rng.chance(1, 1) for _ in range(20))
        assert not any(rng.chance(0, 7) for _ in range(20))


class TestInstanceSpec:
    def test_param_lookup(self):
        spec = InstanceSpec("ht", (("t", 6),), 3)
        assert spec.param("t") == 6
        with pytest.raises(KeyError):
            spec.param("n")

    def test_label(self):
        spec = InstanceSpec("random_strong", (("n", 10), ("pct", 20)), 1)
        assert spec.label() == "random_strong(n=10,pct=20;seed=1)"

    def test_generate_dispatch(self):
        assert generate(InstanceSpec("ht", (("t", 6),))).n == 37
        assert generate(InstanceSpec("random_strong", (("n", 8),), 1)).n == 8

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            generate(InstanceSpec("nope", ()))


class TestExtremalFamily:
    def test_order_is_t_squared_plus_one(self):
        for t in (6, 7, 8):
            assert gen_ht(t).n == t * t + 1

    def test_strong_and_min_in_degree(self):
        D = gen_ht(6)
        assert is_strongly_connected(D)
        assert D.min_in_degree() >= 3

    def test_rejects_small_t(self):
        with pytest.raises(ValueError, match="t >= 6"):
            gen_ht(5)

    def test_hub_shared_across_spokes(self):
        t = 6
        assert all(ht_vertex(t, i, 0) == 0 for i in range(1, t + 1))
        ids = {ht_vertex(t, i, j) for i in range(1, t + 1)
               for j in range(t + 1)}
        assert ids == set(range(t * t + 1))

    def test_spoke_structure(self):
        t = 6
        D = gen_ht(t)
        # bidirected path along each spoke up to index t-2
        for i in (1, t):
            for j in range(t - 2):
                a, b = ht_vertex(t, i, j), ht_vertex(t, i, j + 1)
                assert (a, b) in D.arcs and (b, a) in D.arcs
            # two-step back-jumps
            for j in range(3, t - 1):
                assert (ht_vertex(t, i, j), ht_vertex(t, i, j - 2)) in D.arcs
            # complete digraph on the last four spoke vertices
            tail = [ht_vertex(t, i, j) for j in range(t - 3, t + 1)]
            for a in tail:
                for b in tail:
                    if a != b:
                        assert (a, b) in D.arcs

    def test_deterministic(self):
        assert gen_ht(6).arcs == gen_ht(6).arcs


class TestRandomFamilies:
    def test_random_strong_is_strong(self):
        for seed in range(5):
            D = gen_random_strong(15, seed)
            assert is_strongly_connected(D)

    def test_random_strong_reproducible(self):
        assert gen_random_strong(12, 3).arcs == gen_random_strong(12, 3).arcs
        assert gen_random_strong(12, 3).arcs != gen_random_strong(12, 4).arcs

    def test_min_in3_family(self):
        for seed in range(5):
            D = gen_random_strong_min_in3(10, seed)
            assert is_strongly_connected(D)
            assert D.min_in_degree() >= 3

    def test_dag_single_source(self):
        for seed in range(5):
            D = gen_random_dag_single_source(12, seed)
            sources = [v for v in range(12) if D.in_degree(v) == 0]
            assert sources == [0]
            assert all(u < v for u, v in D.arcs)

    def test_random_digraph_density_scales(self):
        sparse = gen_random_digraph(20, 1, pct=10)
        dense = gen_random_digraph(20, 1, pct=80)
        assert sparse.m < dense.m

    @pytest.mark.parametrize("gen", [gen_random_strong, gen_random_dag_single_source,
                                     gen_random_digraph])
    @pytest.mark.parametrize("pct", [-5, 101, 500])
    def test_pct_outside_0_100_rejected(self, gen, pct):
        with pytest.raises(ValueError, match=f"pct must be in 0..100, got {pct}"):
            gen(5, 0, pct)

    @pytest.mark.parametrize("family", ["random_strong", "random_dag_single_source",
                                        "random_digraph"])
    def test_pct_bounds_accepted(self, family):
        for pct in (0, 100):
            assert generate(InstanceSpec(family, (("n", 5), ("pct", pct)), 0)).n == 5

    def test_size_guards(self):
        with pytest.raises(ValueError):
            gen_random_strong(1, 0)
        with pytest.raises(ValueError):
            gen_random_strong_min_in3(3, 0)
        with pytest.raises(ValueError):
            gen_random_dag_single_source(0, 0)
