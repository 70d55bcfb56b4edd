"""Property tests for the artifact formats: every serializer round-trips
through its parser, and a parser given any text raises FormatError or
nothing."""
import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxleaf.branching import OutBranching
from maxleaf.decomposition import PathDecomposition, validate_pd
from maxleaf.digraph import (
    Digraph,
    FormatError,
    Graph,
    parse,
    serialize,
)

from helpers import serialize_json

FUZZ = settings(max_examples=500, deadline=None, derandomize=True)


@st.composite
def digraphs(draw):
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.sets(st.sampled_from(pairs), max_size=30)) if pairs else set()
    return Digraph.build(n, arcs)


@st.composite
def branchings(draw):
    """An out-branching on 0..n-1: each vertex after the first in a
    random order takes its parent among the vertices before it."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n)))
    parent = [-1] * n
    for i in range(1, n):
        parent[order[i]] = order[draw(st.integers(0, i - 1))]
    return OutBranching(n, order[0], tuple(parent))


bag_lists = st.lists(st.frozensets(st.integers(-5, 50), max_size=8), max_size=10)

edge_list_like = st.lists(
    st.lists(st.one_of(st.integers(-3, 12).map(str),
                       st.sampled_from(["x", "1.5", "-", "0x1", ""])),
             max_size=3).map(" ".join),
    max_size=8).map("\n".join)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["n", "arcs", "root", "parent", "bags", "0", "1", "2"]),
        inner, max_size=4),
    max_leaves=12)

# documents with every key of one format, so the values get checked
keyed = st.one_of(*(st.fixed_dictionaries(dict.fromkeys(keys, json_values))
                    for keys in (("n", "arcs"), ("root", "parent"), ("bags",))))

documents = st.one_of(st.text(max_size=60), edge_list_like,
                      st.one_of(json_values, keyed).map(json.dumps))

PARSERS = {
    "digraph.parse": parse,
    "OutBranching.from_json": lambda text: OutBranching.from_json(text, 6),
    "PathDecomposition.from_json": PathDecomposition.from_json,
    "PathDecomposition.from_text": PathDecomposition.from_text,
}


@FUZZ
@given(digraphs())
def test_digraph_round_trips(D):
    assert parse(serialize(D)) == D
    assert parse(serialize_json(D)) == D


@FUZZ
@given(branchings())
def test_branching_round_trips(T):
    assert OutBranching.from_json(T.to_json(), T.n) == T


@FUZZ
@given(bag_lists)
def test_decomposition_round_trips(bags):
    P = PathDecomposition(tuple(bags))
    assert PathDecomposition.from_json(P.to_json()) == P
    assert PathDecomposition.from_text(P.to_text()) == P


def test_empty_bag_survives_text_round_trip():
    # a blank line is an empty bag, so vertex 0 stays split in two runs
    P = PathDecomposition((frozenset({0}), frozenset(), frozenset({0})))
    assert P.to_text() == "0\n\n0\n"
    back = PathDecomposition.from_text(P.to_text())
    assert back == P
    assert validate_pd(Graph(1, ()), back) == \
        "axiom 3: vertex 0 occurs non-contiguously"
    assert PathDecomposition.from_text("") == PathDecomposition(())


@pytest.mark.parametrize("name", sorted(PARSERS))
@FUZZ
@given(text=documents)
def test_parser_raises_only_format_error(name, text):
    # no vertex count of a million or more: a header may allocate n lists
    assume(not re.search(r"\d{6}", text))
    try:
        PARSERS[name](text)
    except FormatError:
        pass


@pytest.mark.parametrize("text", [
    '{"n": 1, "arcs": 5}',
    '{"n": 1, "arcs": null}',
    '{"n": 2, "arcs": [[[0], 1]]}',
    '{"n": true, "arcs": []}',
    '{"n": 2, "arcs": [[0, true]]}',
])
def test_malformed_json_digraph_raises_format_error(text):
    with pytest.raises(FormatError):
        parse(text)
