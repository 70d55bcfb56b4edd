import json
import time

import pytest

from maxleaf.cli import (
    EXIT_ASSERT,
    EXIT_BUDGET,
    EXIT_NO,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from maxleaf.digraph import parse, serialize
from maxleaf.generators import InstanceSpec, generate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, D, name="g.txt"):
    p = tmp_path / name
    p.write_text(serialize(D))
    return str(p)


@pytest.fixture
def k4_path(tmp_path):
    from maxleaf.digraph import Digraph
    D = Digraph.build(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    return write_graph(tmp_path, D)


@pytest.fixture
def cycle_path(tmp_path):
    from maxleaf.digraph import Digraph
    D = Digraph.build(5, [(i, (i + 1) % 5) for i in range(5)])
    return write_graph(tmp_path, D)


class TestGen:
    def test_ht_family_header(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "ht", "--t", "6")
        assert code == EXIT_OK
        assert out.startswith("37 ")
        assert parse(out).n == 37

    def test_gen_to_file(self, capsys, tmp_path):
        dest = tmp_path / "inst.txt"
        code, out, _ = run(capsys, "gen", "--family", "random_strong",
                           "--n", "9", "--seed", "4", "--out", str(dest))
        assert code == EXIT_OK
        assert parse(dest.read_text()).n == 9

    def test_gen_reproducible(self, capsys):
        _, a, _ = run(capsys, "gen", "--family", "random_strong_min_in3",
                      "--n", "11", "--seed", "2")
        _, b, _ = run(capsys, "gen", "--family", "random_strong_min_in3",
                      "--n", "11", "--seed", "2")
        assert a == b

    def test_missing_t_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "ht")
        assert code == EXIT_USAGE
        assert "--t" in err


class TestSolve:
    def test_exact_on_k4(self, capsys, k4_path):
        code, out, _ = run(capsys, "solve", "--exact", k4_path)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["leaves"] == 3

    def test_local_on_cycle(self, capsys, cycle_path):
        code, out, _ = run(capsys, "solve", "--local", cycle_path)
        assert code == EXIT_OK
        assert json.loads(out)["leaves"] == 1

    def test_fpt_yes_no(self, capsys, k4_path):
        code, out, _ = run(capsys, "solve", "--fpt", "--k", "3", k4_path)
        assert code == EXIT_OK
        assert json.loads(out)["answer"] == "yes"
        code, out, _ = run(capsys, "solve", "--fpt", "--k", "4", k4_path)
        assert code == EXIT_NO
        assert json.loads(out)["answer"] == "no"

    def test_fpt_requires_k(self, capsys, k4_path):
        code, _, err = run(capsys, "solve", "--fpt", k4_path)
        assert code == EXIT_USAGE
        assert "--k" in err

    def test_exact_budget_exhaustion(self, capsys, tmp_path, monkeypatch):
        D = generate(InstanceSpec("random_strong_min_in3", (("n", 30),), 1))
        p = write_graph(tmp_path, D)
        code, out, _ = run(capsys, "solve", "--exact",
                           "--time-budget-ms", "0.0", p)
        assert code == EXIT_BUDGET
        assert json.loads(out)["status"] == "budget"

    def test_fpt_budget_exhaustion(self, capsys, tmp_path):
        # its strong decomposition has width 15; the DP cannot finish
        D = generate(InstanceSpec("random_strong", (("n", 16), ("pct", 15)), 5))
        p = write_graph(tmp_path, D)
        start = time.monotonic()
        code, out, _ = run(capsys, "solve", "--fpt", "--k", "13",
                           "--time-budget-ms", "500", p)
        assert time.monotonic() - start < 10
        assert code == EXIT_BUDGET
        doc = json.loads(out)
        assert doc["status"] == "budget"
        assert 1 <= doc["lower_bound"] < 13

    def test_malformed_graph_usage_error(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("3 1\n0 9\n")
        code, _, err = run(capsys, "solve", "--local", str(p))
        assert code == EXIT_USAGE
        assert "error" in err


class TestDecompose:
    def test_strong_witness(self, capsys, k4_path):
        code, out, _ = run(capsys, "decompose", "--mode", "strong",
                           "--k", "2", k4_path)
        assert code == EXIT_OK
        assert json.loads(out)["kind"] == "witness"

    def test_strong_decomposition_to_file(self, capsys, cycle_path, tmp_path):
        dest = tmp_path / "out.pd"
        code, out, _ = run(capsys, "decompose", "--mode", "strong",
                           "--k", "3", "--out", str(dest), cycle_path)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "decomposition"
        assert dest.exists()

    def test_acyclic_mode(self, capsys, tmp_path):
        from maxleaf.digraph import Digraph
        D = Digraph.build(4, [(0, 1), (1, 2), (2, 3)])
        p = write_graph(tmp_path, D)
        code, out, _ = run(capsys, "decompose", "--mode", "acyclic",
                           "--k", "2", p)
        assert code == EXIT_OK

    def test_acyclic_rejects_cyclic_input(self, capsys, cycle_path):
        code, _, err = run(capsys, "decompose", "--mode", "acyclic",
                           "--k", "2", cycle_path)
        assert code == EXIT_USAGE
        assert "acyclic" in err


class TestCheck:
    def test_pd_round_trip(self, capsys, cycle_path, tmp_path):
        dest = tmp_path / "c.pd"
        run(capsys, "decompose", "--mode", "strong", "--k", "3",
            "--out", str(dest), cycle_path)
        code, out, _ = run(capsys, "check", "--pd", cycle_path, str(dest))
        assert code == EXIT_OK
        assert json.loads(out)["valid"]

    def test_pd_invalid(self, capsys, cycle_path, tmp_path):
        bad = tmp_path / "bad.pd"
        bad.write_text("0 1\n")  # misses vertices and edges
        code, _, err = run(capsys, "check", "--pd", cycle_path, str(bad))
        assert code == EXIT_USAGE
        assert "axiom" in err

    def test_branching_and_1ae(self, capsys, k4_path, tmp_path):
        _, out, _ = run(capsys, "solve", "--local", k4_path)
        wit = json.loads(out)["witness"]
        art = tmp_path / "t.json"
        art.write_text(json.dumps(wit))
        code, out, _ = run(capsys, "check", "--branching", k4_path, str(art))
        assert code == EXIT_OK
        assert json.loads(out)["leaves"] == 3
        code, out, _ = run(capsys, "check", "--1ae", k4_path, str(art))
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "optimal"

    def test_1ae_improvable_exit_code(self, capsys, tmp_path):
        from maxleaf.branching import OutBranching
        from maxleaf.digraph import Digraph
        D = Digraph.build(3, [(0, 1), (1, 2), (0, 2)])
        p = write_graph(tmp_path, D)
        T = OutBranching(3, 0, (-1, 0, 1))
        art = tmp_path / "t.json"
        art.write_text(T.to_json())
        code, out, _ = run(capsys, "check", "--1ae", p, str(art))
        assert code == EXIT_NO
        assert json.loads(out)["status"] == "improvable"

    @pytest.fixture
    def triangle_path(self, tmp_path):
        from maxleaf.digraph import Digraph
        return write_graph(tmp_path, Digraph.build(3, [(0, 1), (1, 2), (2, 0)]),
                           "tri.txt")

    @pytest.mark.parametrize("flag, artifact", [
        ("--branching", '{"root": 0}'),              # no "parent" key
        ("--branching", '{"root": 0, "parent": {"7": 0, "2": 1}}'),  # key out of range
        ("--1ae", '{"root": 0}'),
        ("--pd", '{"bags": [["x", 1]]}'),            # non-integer vertex
    ])
    def test_malformed_artifact_is_usage_error(self, capsys, tmp_path,
                                               triangle_path, flag, artifact):
        art = tmp_path / "artifact.json"
        art.write_text(artifact)
        code, _, err = run(capsys, "check", flag, triangle_path, str(art))
        assert code == EXIT_USAGE
        assert err.startswith("error: ")

    def test_malformed_text_pd_names_line(self, capsys, tmp_path, triangle_path):
        art = tmp_path / "bad.pd"
        art.write_text("0 1\n1 two\n")
        code, _, err = run(capsys, "check", "--pd", triangle_path, str(art))
        assert code == EXIT_USAGE
        assert "line 2" in err

    def test_internal_error_exits_4(self, capsys, monkeypatch, triangle_path):
        import maxleaf.cli

        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(maxleaf.cli, "best_of_restarts", out_of_memory)
        code, out, err = run(capsys, "solve", "--local", triangle_path)
        assert code == EXIT_ASSERT
        assert out == ""
        assert "MemoryError" in err


class TestVerify:
    def test_theorem2_small_batch(self, capsys, tmp_path):
        prefix = str(tmp_path / "rep")
        code, out, _ = run(capsys, "verify", "--campaign", "theorem2",
                           "--count", "3", "--n-min", "8", "--n-max", "16",
                           "--time-budget-ms", "20000", "--out", prefix)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"]
        assert (tmp_path / "rep.csv").exists()
        assert (tmp_path / "rep.json").exists()

    def test_widths_campaign(self, capsys):
        code, out, _ = run(capsys, "verify", "--campaign", "widths",
                           "--count", "2", "--n-min", "8", "--n-max", "12",
                           "--k", "3")
        assert code == EXIT_OK
        assert json.loads(out)["passed"]

    def test_lemma2_campaign(self, capsys):
        code, out, _ = run(capsys, "verify", "--campaign", "lemma2",
                           "--count", "2", "--n-min", "8",
                           "--time-budget-ms", "20000")
        assert code == EXIT_OK
        assert json.loads(out)["passed"]


class TestBench:
    def test_bench_reports_local_search(self, capsys):
        code, out, _ = run(capsys, "bench", "--t", "6",
                           "--time-budget-ms", "1.0")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["n"] == 37
        assert doc["local_search_leaves"] >= 1


def test_unknown_subcommand_is_usage(capsys):
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE
