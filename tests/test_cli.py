import io
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import maxleaf
from maxleaf.cli import (
    EXIT_ASSERT,
    EXIT_BUDGET,
    EXIT_NO,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from maxleaf.digraph import Digraph, parse, serialize
from maxleaf.generators import InstanceSpec, generate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, D, name="g.txt"):
    p = tmp_path / name
    p.write_text(serialize(D))
    return str(p)


RANDOM_STRONG_9 = generate(InstanceSpec("random_strong", (("n", 9), ("pct", 20)), 4))


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

    @pytest.mark.parametrize("argv, flag", [
        (["--family", "random_strong_min_in3", "--n", "5", "--pct", "500"], "--pct"),
        (["--family", "ht", "--t", "6", "--n", "3", "--pct", "900"], "--n"),
        (["--family", "random_strong", "--n", "5", "--t", "9"], "--t"),
    ])
    def test_flag_the_family_does_not_read_is_usage_error(self, capsys, argv, flag):
        # the keys of generators.FAMILY_PARAMS, as verify --params checks them
        code, out, err = run(capsys, "gen", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"{flag} is not read by family" in err

    @pytest.mark.parametrize("family", ["random_strong", "random_dag_single_source",
                                        "random_digraph"])
    @pytest.mark.parametrize("pct", ["-5", "101", "500"])
    def test_pct_outside_0_100_is_usage_error(self, capsys, family, pct):
        code, out, err = run(capsys, "gen", "--family", family, "--n", "5",
                             "--pct", pct)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"pct must be in 0..100, got {pct}" in err


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

    def test_fpt_outside_strong_and_class_l(self, capsys, tmp_path):
        # 0 -> 1 <-> 2 is neither strong nor in class L: the DP still
        # decides it, while the paper's strong construction refuses it
        p = write_graph(tmp_path, Digraph.build(3, [(0, 1), (1, 2), (2, 1)]))
        code, out, _ = run(capsys, "solve", "--fpt", "--k", "3", p)
        assert code == EXIT_NO
        doc = json.loads(out)
        assert (doc["answer"], doc["leaves"]) == ("no", 1)
        code, out, _ = run(capsys, "decompose", "--mode", "strong", "--k", "2", p)
        assert code == EXIT_USAGE
        assert out == ""

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
        doc = json.loads(out)
        assert doc["status"] == "budget"
        assert doc["lower_bound"] >= 0

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

    def test_fpt_state_cap_exits_3_before_memory_runs_out(self, tmp_path):
        # the width-15 instance again, with no time limit in reach: only
        # the DP state cap (lowered here) can stop it inside 512 MiB
        D = generate(InstanceSpec("random_strong", (("n", 16), ("pct", 15)), 5))
        p = write_graph(tmp_path, D)
        code = ("import sys; from maxleaf import cli, fpt; "
                "fpt.MAX_DP_STATES = 200_000; sys.exit(cli.main(sys.argv[1:]))")
        limit = 512 << 20

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        env = dict(os.environ, PYTHONPATH=str(Path(maxleaf.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code, "solve", "--fpt", "--k", "13",
             "--time-budget-ms", "600000", p],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=cap_address_space)
        assert "MemoryError" not in proc.stderr
        assert proc.returncode == EXIT_BUDGET, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["status"] == "budget"
        assert 1 <= doc["lower_bound"] < 13

    def test_local_budget_exhaustion(self, capsys, tmp_path):
        # 300 restarts take well over 100 ms; the first one always runs
        D = generate(InstanceSpec("random_strong", (("n", 150), ("pct", 5)), 1))
        p = write_graph(tmp_path, D)
        code, out, _ = run(capsys, "solve", "--local", "--time-budget-ms", "100", p)
        assert code == EXIT_BUDGET
        doc = json.loads(out)
        assert doc["status"] == "budget"
        assert 1 <= doc["lower_bound"] < D.n

    @pytest.mark.parametrize("argv, env", [
        (["solve", "--local", "--time-budget-ms", "nan"], None),
        (["solve", "--exact", "--time-budget-ms", "-1"], None),
        (["solve", "--exact"], "nan"),
        (["solve", "--fpt", "--k", "2"], "-0.5"),
        (["verify", "--campaign", "lemma2", "--count", "1"], "nan"),
    ])
    def test_nan_or_negative_budget_usage_error(self, capsys, monkeypatch,
                                                cycle_path, argv, env):
        # no deadline comparison with NaN is ever true, so a NaN budget
        # would never run out
        if env is not None:
            monkeypatch.setenv("MAXLEAF_TIME_BUDGET_MS", env)
        if argv[0] == "solve":
            argv = argv + [cycle_path]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "time budget" in err and ">= 0" in err

    def test_malformed_graph_usage_error(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("3 1\n0 9\n")
        code, _, err = run(capsys, "solve", "--local", str(p))
        assert code == EXIT_USAGE
        assert "error" in err


WITNESS_8_LEAVES_4 = ('{"root": 8, "parent": {"0": 1, "1": 4, "2": 3, "3": 8, '
                      '"4": 8, "5": 7, "6": 3, "7": 1}}')


@pytest.mark.parametrize("argv, stdout", [
    (["solve", "--exact"],
     '{"leaves": 4, "witness": {"root": 1, "parent": {"0": 1, "2": 3, "3": 0, '
     '"4": 1, "5": 7, "6": 3, "7": 1, "8": 2}}}\n'),
    (["solve", "--local"],
     '{"leaves": 4, "witness": {"root": 1, "parent": {"0": 1, "2": 3, "3": 5, '
     '"4": 1, "5": 7, "6": 5, "7": 1, "8": 2}}}\n'),
    (["decompose", "--mode", "strong", "--k", "2"],
     '{"kind": "witness", "leaves": 4, "witness": ' + WITNESS_8_LEAVES_4 + '}\n'),
    (["solve", "--fpt", "--k", "3"],
     '{"answer": "yes", "k": 3, "leaves": 4, "witness": ' + WITNESS_8_LEAVES_4
     + ', "method": "local-search", "width": null, "states_peak": null}\n'),
], ids=["exact", "local", "decompose", "fpt"])
def test_witness_output_pinned(capsys, tmp_path, argv, stdout):
    p = write_graph(tmp_path, RANDOM_STRONG_9)
    assert run(capsys, *argv, p) == (EXIT_OK, stdout, "")


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

    def test_acyclic_single_vertex_at_k1(self, capsys, tmp_path):
        # the one vertex has no leaf and width 0, above 4k-6 = -2; no
        # diagnostic, since that bound is for k >= 2
        from maxleaf.digraph import Digraph
        p = write_graph(tmp_path, Digraph.build(1, []))
        assert run(capsys, "decompose", "--mode", "acyclic", "--k", "1", p) \
            == (EXIT_OK, "0\n", "")

    def test_strong_single_vertex_at_k0(self, capsys, tmp_path):
        # the one vertex has no leaf, which is at least k = 0 leaves
        p = write_graph(tmp_path, Digraph.build(1, []))
        code, out, err = run(capsys, "decompose", "--mode", "strong",
                             "--k", "0", p)
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out) == {"kind": "witness", "leaves": 0,
                                   "witness": {"root": 0, "parent": {}}}

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

    @pytest.mark.parametrize("bags, message", [
        # eight edges in no bag: the first in the order underlying_graph
        # holds them is named, and it is not the least one, {0,6}
        ("0 1 2 3\n4 5 6 7 8\n", "axiom 2: edge {3,8} in no bag"),
        # vertices 2 and 5 are each in bags 0 and 2 only
        ("0 1 2 3 4 5 6 7 8\n0\n0 5 2\n",
         "axiom 3: vertex 2 occurs non-contiguously"),
    ])
    def test_pd_invalid_message_pinned(self, capsys, tmp_path, bags, message):
        p = write_graph(tmp_path, RANDOM_STRONG_9)
        art = tmp_path / "bad.pd"
        art.write_text(bags)
        assert run(capsys, "check", "--pd", p, str(art)) == \
            (EXIT_USAGE, "", f"invalid: {message}\n")

    def test_pd_blank_line_is_empty_bag(self, capsys, tmp_path):
        from maxleaf.digraph import Digraph
        p = write_graph(tmp_path, Digraph.build(1, []))
        art = tmp_path / "gap.pd"
        art.write_text("0\n\n0\n")
        code, _, err = run(capsys, "check", "--pd", p, str(art))
        assert code == EXIT_USAGE
        assert "axiom 3" in err

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

    @pytest.mark.parametrize("n, seed, root, expected", [
        (12, 3, 0, '{"removed": [[10, 4]], "added": [[1, 4]]}'),
        (8, 0, 5, '{"removed": [[2, 1]], "added": [[1, 5]]}'),  # re-roots at 1
    ])
    def test_1ae_violating_move_output(self, capsys, tmp_path, n, seed, root, expected):
        from maxleaf.local_search import dfs_branching
        D = generate(InstanceSpec("random_strong", (("n", n), ("pct", 20)), seed))
        p = write_graph(tmp_path, D)
        art = tmp_path / "t.json"
        art.write_text(dfs_branching(D, root).to_json())
        code, out, _ = run(capsys, "check", "--1ae", p, str(art))
        assert code == EXIT_NO
        assert out == ('{"valid": true, "status": "improvable", "violating_move": '
                       + expected + '}\n')

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

    @pytest.mark.parametrize("campaign", ["theorem2", "lemma2", "widths"])
    def test_repro_reruns_its_record(self, capsys, campaign):
        code, out, _ = run(capsys, "verify", "--campaign", campaign,
                           "--count", "1", "--n-min", "8", "--seed", "3",
                           "--k", "4")
        assert code == EXIT_OK
        first = json.loads(out)["records"][0]
        argv = shlex.split(first["repro"])
        assert argv[:2] == ["maxleaf", "verify"]
        code, out, _ = run(capsys, *argv[1:])
        assert code == EXIT_OK
        assert json.loads(out)["records"][0] == first

    @pytest.mark.parametrize("argv, message", [
        (["--family", "ht"], "--family and --params must be given together"),
        (["--params", "t=3"], "--family and --params must be given together"),
        (["--family", "random_strong", "--params", "n=1_0,pct=10"],
         "--params pair 'n=1_0' is not key=integer"),
        (["--family", "random_strong", "--params", "n10"],
         "--params pair 'n10' is not key=integer"),
        (["--family", "ht", "--params", "n=5", "--k", "4"],
         "--params key 'n' is unknown for family ht (keys: t)"),
        (["--family", "random_strong", "--params", "pct=10"],
         "--params key 'n' is missing for family random_strong"),
        (["--family", "random_strong", "--params", "n=8,pct=10,n=9"],
         "--params key 'n' is repeated"),
        (["--family", "petersen", "--params", "n=10"],
         "unknown family 'petersen'"),
    ])
    def test_family_and_params_are_checked(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", "--campaign", "widths",
                             "--count", "1", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("count", ["0", "-3"])
    @pytest.mark.parametrize("campaign", ["theorem2", "lemma2", "widths"])
    def test_count_below_one_is_usage_error(self, capsys, campaign, count):
        # a campaign over no instance checked nothing, so it cannot pass
        code, out, err = run(capsys, "verify", "--campaign", campaign,
                             "--count", count)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"--count must be at least 1, got {count}" in err

    @pytest.mark.parametrize("params", ["n=8,pct=500", "n=8,pct=-1"])
    def test_params_pct_outside_0_100_is_usage_error(self, capsys, params):
        code, out, err = run(capsys, "verify", "--campaign", "widths",
                             "--family", "random_strong", "--params", params)
        assert code == EXIT_USAGE
        assert out == ""
        assert "pct must be in 0..100" in err

    def test_family_and_params_select_the_instance(self, capsys):
        code, out, _ = run(capsys, "verify", "--campaign", "widths",
                           "--family", "ht", "--params", "t=6", "--k", "4")
        assert code == EXIT_OK
        records = json.loads(out)["records"]
        assert len(records) == 1 and "--family ht" in records[0]["repro"]


def test_unknown_subcommand_is_usage(capsys):
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE


@st.composite
def contract_digraphs(draw):
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.sets(st.sampled_from(pairs), max_size=20)) if pairs else set()
    return Digraph.build(n, arcs)


# lines of a few tokens, most of them small integers, so that a fuzzed file
# often gets past the header and into a solver
token_lines = st.lists(
    st.lists(st.one_of(st.integers(-2, 9).map(str),
                       st.sampled_from(["x", "1.5", "-", "{", "[]", ""])),
             max_size=3).map(" ".join),
    max_size=8).map("\n".join)
fuzzed = st.one_of(st.text(max_size=40), token_lines)
artifacts = st.one_of(
    fuzzed,
    st.fixed_dictionaries({
        "root": st.integers(-1, 8),
        "parent": st.dictionaries(st.integers(0, 8).map(str),
                                  st.integers(-1, 8), max_size=8),
    }).map(json.dumps),
    st.lists(st.lists(st.integers(-1, 8), max_size=4).map(
        lambda bag: " ".join(map(str, bag))), max_size=6).map("\n".join),
)
ks = st.integers(-1, 9).map(str)
# commands that read the graph file, which the test appends
commands = st.one_of(
    st.tuples(st.just("solve"), st.sampled_from(["--exact", "--local", "--fpt"]),
              st.just("--k"), ks),
    st.tuples(st.just("decompose"), st.just("--mode"),
              st.sampled_from(["strong", "acyclic"]), st.just("--k"), ks),
    st.tuples(st.just("check"), st.sampled_from(["--pd", "--branching"])),
)
# gen and verify read no file; every n stays at most 8 and ht's t at most
# 8 (65 vertices) for gen, below 6 (which it refuses) for verify
families = st.sampled_from(["ht", "random_strong", "random_strong_min_in3",
                            "random_dag_single_source", "random_digraph"])
small = st.integers(-2, 8).map(str)
pcts = st.sampled_from(["-5", "0", "15", "100", "101", "500"])
seeds = st.integers(-3, 1000).map(str)


def _options(pairs):
    return [x for flag, value in pairs if value is not None for x in (flag, value)]


gen_commands = st.builds(
    lambda family, t, n, pct, seed: ["gen", "--family", family, *_options(
        [("--t", t), ("--n", n), ("--pct", pct), ("--seed", seed)])],
    families, st.none() | st.integers(4, 8).map(str),
    st.one_of(st.none(), small, small), st.none() | pcts, st.none() | seeds)
# mostly the size key, perhaps pct, now and then a key that is unknown or
# repeated
params = st.builds(
    lambda size, pct, extra: ",".join(filter(None, [size, pct, extra])),
    st.one_of(small.map("n={}".format), small.map("n={}".format),
              st.integers(-2, 5).map("t={}".format)),
    st.none() | pcts.map("pct={}".format),
    st.none() | st.sampled_from(["x=1", "n=3", "pct=x", ""]))
verify_commands = st.builds(
    lambda campaign, selected, count, k, seed: [
        "verify", "--campaign", campaign, "--n-min", "4", "--n-max", "8",
        *_options([("--count", count), ("--k", k), ("--seed", seed)]),
        *(["--family", selected[0], "--params", selected[1]] if selected else [])],
    st.sampled_from(["theorem2", "lemma2", "widths"]),
    st.none() | st.tuples(families, params),
    st.sampled_from(["-1", "0", "1", "2", "1", "2"]), st.none() | ks,
    st.none() | seeds)


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(argv=st.one_of(commands, gen_commands, verify_commands),
       graph=st.one_of(contract_digraphs().map(serialize), fuzzed),
       artifact=artifacts)
def test_exit_code_contract(contract_dir, argv, graph, artifact):
    argv = list(argv)
    if argv[0] in ("solve", "decompose", "check"):
        # a header of a million vertices or more allocates that many lists
        assume(not re.search(r"\d{6}", graph))
        graph_path = contract_dir / "g.txt"
        graph_path.write_text(graph)
        argv.append(str(graph_path))
    if argv[0] == "check":
        artifact_path = contract_dir / "artifact.txt"
        artifact_path.write_text(artifact)
        argv.append(str(artifact_path))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_NO, EXIT_USAGE, EXIT_BUDGET), err.getvalue()
    assert "Traceback" not in err.getvalue()
