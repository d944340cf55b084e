import csv
import io
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hellrank import (
    BipartiteGraph,
    EdgeListParseError,
    NeighborDegreeVector,
    Side,
    UnipartiteGraph,
    UnknownNodeError,
    distance_matrix,
    load_edge_list,
    load_node_list,
    neighbor_degree_vector,
    project,
    threshold_graph,
    weighted_neighbor_degree_vector,
)
from hellrank import graph as graph_module
from hellrank.baselines import bipartite_degree, pagerank
from hellrank.hellinger import hellrank

from oracles import dict_bipartite, dict_csr, random_bipartite
from test_hellinger import traced_peak


class TestLoadEdgeList:
    def test_whitespace_and_comments(self):
        g = load_edge_list(["% comment", "", "a 1", "b\t2", "# also comment", "a 2"])
        assert sorted(g.left_nodes) == ["a", "b"]
        assert sorted(g.right_nodes) == ["1", "2"]
        assert g.num_links == 3

    def test_explicit_delimiter(self):
        g = load_edge_list(["a,1", "b,2"], delimiter=",")
        assert g.num_links == 2

    def test_duplicate_lines_collapse(self):
        g = load_edge_list(["a 1", "a 1", "a 2"])
        assert g.num_links == 2
        assert g.degree("a", Side.LEFT) == 2

    def test_duplicate_weights_sum(self):
        g = load_edge_list(["a 1 2.0", "a 1 0.5"], has_weights=True)
        assert g.num_links == 1
        assert g.link_weight("a", "1") == 2.5

    def test_field_count_error_carries_lineno(self):
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(["a 1", "broken"])
        assert err.value.lineno == 2

    def test_weight_errors(self):
        with pytest.raises(EdgeListParseError, match="non-numeric"):
            load_edge_list(["a 1 x"], has_weights=True)
        with pytest.raises(EdgeListParseError, match="> 0"):
            load_edge_list(["a 1 0"], has_weights=True)
        with pytest.raises(EdgeListParseError, match="expected 3 fields"):
            load_edge_list(["a 1"], has_weights=True)

    @pytest.mark.parametrize("text", ["inf", "1e309", "nan", "-inf", "Infinity"])
    def test_non_finite_weight_names_its_line(self, text):
        # 1e309 parses as inf
        with pytest.raises(EdgeListParseError, match="finite and > 0") as err:
            load_edge_list(["a 1 2", f"b 1 {text}"], has_weights=True)
        assert err.value.lineno == 2

    def test_isolated_nodes(self):
        g = load_edge_list(["a 1"], isolated_left=["z"], isolated_right=["9"])
        assert g.degree("z", Side.LEFT) == 0
        assert g.degree("9", Side.RIGHT) == 0
        assert g.n1 == 2 and g.n2 == 2


def test_load_node_list():
    left, right = load_node_list(["# hdr", "left alice", "right item 7", ""])
    assert left == ["alice"]
    assert right == ["item 7"]
    with pytest.raises(EdgeListParseError):
        load_node_list(["middle x"])


def test_node_list_label_with_delimiter_rejected():
    assert load_node_list(["left a\tb"], delimiter=" ") == (["a\tb"], [])
    with pytest.raises(EdgeListParseError, match="whitespace") as err:
        load_node_list(["left alice", "# hdr", "right item 7"], delimiter=None)
    assert err.value.lineno == 3
    with pytest.raises(EdgeListParseError, match="line 1"):
        load_node_list(["left a\tb"], delimiter="\t")


class TestBipartiteGraph:
    def test_sides_are_separate_namespaces(self):
        g = BipartiteGraph([("x", "x"), ("x", "y")])
        assert g.degree("x", Side.LEFT) == 2
        assert g.degree("x", Side.RIGHT) == 1
        with pytest.raises(ValueError, match="both sides"):
            g.side_of("x")
        assert g.side_of("y") is Side.RIGHT

    def test_unknown_node(self, fig1):
        with pytest.raises(UnknownNodeError):
            fig1.degree("Z")
        with pytest.raises(UnknownNodeError):
            fig1.neighbors("A", Side.RIGHT)

    def test_neighbors_sorted(self, fig1):
        assert fig1.neighbors("D", Side.LEFT) == ("3", "4", "5", "6", "7")
        assert fig1.neighbors("3", Side.RIGHT) == ("B", "C", "D")

    def test_counts(self, fig1):
        assert (fig1.n1, fig1.n2, fig1.num_links) == (4, 7, 11)

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="> 0"):
            BipartiteGraph([("a", "1")], weights=[-1.0])
        for w in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite and > 0"):
                BipartiteGraph([("a", "1")], weights=[w])
        # each weight is finite, their sum is not
        with pytest.raises(ValueError, match="'b' -- '2' sum to inf"):
            BipartiteGraph([("a", "1"), ("b", "2"), ("b", "2")], weights=[1.0, 1e308, 1e308])
        with pytest.raises(ValueError, match="one-to-one"):
            BipartiteGraph([("a", "1")], weights=[1.0, 2.0])
        with pytest.raises(ValueError, match="no link weights"):
            BipartiteGraph([("a", "1")]).link_weight("a", "1")

    def test_summed_node_weight_is_bounded(self):
        # each weight is finite; the raw kernel adds two nodes' summed
        # weights, so each may reach half the largest double, not pass it
        edges = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "z"), ("c", "x")]
        with pytest.raises(ValueError, match="left node 'a' sum to inf"):
            BipartiteGraph(edges, weights=[1e308, 1e308, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match=r"left node 'a' sum to 9e\+307"):
            BipartiteGraph(edges, weights=[4.5e307, 4.5e307, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match=r"right node 'x' sum to 1e\+308"):
            BipartiteGraph([("a", "x"), ("b", "x")], weights=[5e307, 5e307])
        assert BipartiteGraph(edges, weights=[4.4e307, 4.4e307, 1.0, 1.0, 1.0]).is_weighted

    def test_links_are_read_only(self):
        g = BipartiteGraph([("a", "x"), ("b", "x")], weights=[1.0, 2.0])
        for a in (g._indptr, g._indices, g._degree, g._weights):
            with pytest.raises(ValueError):
                a[0] = 1

    def test_equality(self, fig1):
        again = BipartiteGraph(reversed([(u, v) for u in fig1.left_nodes for v in fig1.neighbors(u, Side.LEFT)]))
        assert fig1 == again
        assert fig1 != BipartiteGraph([("A", "1")])


class TestNeighborDegreeVector:
    def test_fig1_vectors(self, fig1):
        assert neighbor_degree_vector(fig1, "A").entries == {2: 1.0}
        assert neighbor_degree_vector(fig1, "B").entries == {2: 2.0, 3: 1.0}
        assert neighbor_degree_vector(fig1, "C").entries == {2: 1.0, 3: 1.0}
        assert neighbor_degree_vector(fig1, "D").entries == {1: 4.0, 3: 1.0}

    def test_total_mass_is_degree(self, fig1):
        for x in fig1.left_nodes:
            assert neighbor_degree_vector(fig1, x).total_mass == fig1.degree(x, Side.LEFT)

    def test_dense(self):
        v = NeighborDegreeVector({1: 2.0, 3: 1.0})
        assert v.dense() == [2.0, 0.0, 1.0]
        assert v.dense(5) == [2.0, 0.0, 1.0, 0.0, 0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            NeighborDegreeVector({0: 1.0})
        with pytest.raises(ValueError):
            NeighborDegreeVector({1: -1.0})

    def test_weighted(self):
        g = BipartiteGraph([("a", "1"), ("a", "2"), ("b", "2")], weights=[2.0, 0.5, 1.0])
        assert weighted_neighbor_degree_vector(g, "a").entries == {1: 2.0, 2: 0.5}
        with pytest.raises(ValueError, match="no link weights"):
            weighted_neighbor_degree_vector(BipartiteGraph([("a", "1")]), "a")


class TestProjection:
    def test_fig1_left(self, fig1):
        proj = project(fig1, Side.LEFT)
        assert sorted(proj.edges()) == [("A", "B"), ("B", "C"), ("B", "D"), ("C", "D")]
        assert proj.num_edges == 4
        assert proj.degree("B") == 3

    def test_isolated_survive(self):
        g = BipartiteGraph([("a", "1")], isolated_left=["z"])
        proj = project(g, Side.LEFT)
        assert set(proj.nodes) == {"a", "z"}
        assert proj.num_edges == 0

    @pytest.mark.parametrize("budget", [1, 100, graph_module._BLOCK_ELEMENTS])
    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
    def test_matches_shared_neighbors(self, side, budget, rng, monkeypatch):
        # budget 1 lists the 2-hop walks of one node at a time
        monkeypatch.setattr(graph_module, "_BLOCK_ELEMENTS", budget)
        for _ in range(6):
            g = random_bipartite(rng, 30, 25, 0.15)
            nodes = g.nodes(side)
            want = {
                (u, v)
                for i, u in enumerate(nodes)
                for v in nodes[i + 1 :]
                if set(g.neighbors(u, side)) & set(g.neighbors(v, side))
            }
            proj = project(g, side)
            assert proj.nodes == nodes
            assert {tuple(sorted(e)) for e in proj.edges()} == {tuple(sorted(e)) for e in want}


class TestUnipartiteGraph:
    def test_validation(self):
        with pytest.raises(ValueError, match="self-loop"):
            UnipartiteGraph(["a"], [("a", "a")])
        with pytest.raises(UnknownNodeError):
            UnipartiteGraph(["a"], [("a", "b")])
        with pytest.raises(UnknownNodeError):
            UnipartiteGraph(["a"], []).neighbors("b")

    def test_serialization(self):
        g = UnipartiteGraph(["a", "b", "c"], [("a", "b")])
        buf = io.StringIO()
        g.to_edge_list(buf, delimiter=",")
        assert buf.getvalue() == "a,b\n"
        buf = io.StringIO()
        g.to_dot(buf)
        text = buf.getvalue()
        assert text.startswith("graph G {") and '"a" -- "b";' in text and '"c";' in text

    def test_edge_list_quotes_labels(self):
        g = UnipartiteGraph(["x,1", 'q"', "c"], [("x,1", 'q"'), ("x,1", "c")])
        buf = io.StringIO()
        g.to_edge_list(buf, delimiter=",")
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert sorted(map(tuple, rows)) == sorted(g.edges())

    def test_dot_escapes_labels(self):
        g = UnipartiteGraph(['say "hi"', "tail\\"], [('say "hi"', "tail\\")])
        buf = io.StringIO()
        g.to_dot(buf)
        assert buf.getvalue() == (
            'graph G {\n  "say \\"hi\\"";\n  "tail\\\\";\n'
            '  "say \\"hi\\"" -- "tail\\\\";\n}\n'
        )


# Short labels over an alphabet with NUL, non-ASCII, quotes and commas; both
# sides draw from it, so the same label often names a node on each side.
LABELS = st.text(
    st.sampled_from(["a", "B", "\x00", "é", "日", "😀", '"', "'", ",", " "]), max_size=3
)
# Multiples of 1/4: their sums are exact in any order.
WEIGHTS = st.integers(1, 40).map(lambda i: i / 4)


@st.composite
def edge_lists(draw):
    """(lines, weights, isolated_left, isolated_right, a permutation of the lines)."""
    links = draw(st.lists(st.tuples(LABELS, LABELS), max_size=25, unique=True))
    lines = links + (draw(st.lists(st.sampled_from(links), max_size=10)) if links else [])
    weights = draw(st.lists(WEIGHTS, min_size=len(lines), max_size=len(lines)))
    isolated = [draw(st.lists(LABELS, max_size=4)) for _ in Side]
    return lines, weights, *isolated, draw(st.permutations(range(len(lines))))


@settings(max_examples=200, deadline=None)
@given(edge_lists())
@example(([("x", "x\x00"), ("x\x00", "x"), ('q"', "a,b"), ("x", "é"), ("x", "x\x00")],
          [1.0, 2.0, 0.5, 0.25, 3.0], ["é", "x"], ["x"], [4, 2, 0, 3, 1]))
def test_graph_core_properties(case):
    lines, weights, isolated_left, isolated_right, order = case
    expect = {Side.LEFT: {}, Side.RIGHT: {}}
    for u, v in lines:
        expect[Side.LEFT].setdefault(u, set()).add(v)
        expect[Side.RIGHT].setdefault(v, set()).add(u)
    for side, isolated in ((Side.LEFT, isolated_left), (Side.RIGHT, isolated_right)):
        for x in isolated:
            expect[side].setdefault(x, set())
    for w in (None, weights):
        g = BipartiteGraph(lines, w, isolated_left, isolated_right)
        shuffled = BipartiteGraph(
            [lines[k] for k in order], w and [w[k] for k in order], isolated_left, isolated_right
        )
        assert shuffled == g
        assert g.num_links == len(set(lines))
        for side in Side:
            assert g.nodes(side) == tuple(expect[side])  # first seen, isolated last
            for x, ns in expect[side].items():
                assert g.neighbors(x, side) == tuple(sorted(ns))
                assert g.degree(x, side) == len(ns)
        if w is not None:
            for link in set(lines):
                assert g.link_weight(*link) == sum(wk for l, wk in zip(lines, w) if l == link)
        indptr, indices = g._indptr, g._indices
        rows = [(Side.LEFT, x) for x in g.left_nodes] + [(Side.RIGHT, y) for y in g.right_nodes]
        for i, (side, x) in enumerate(rows):
            row = tuple(rows[j][1] for j in indices[indptr[i] : indptr[i + 1]])
            assert row == g.neighbors(x, side)


# Edge-list fields: no whitespace; a left label never starts a comment.
RIGHT_LABELS = st.text(st.sampled_from(["a", "B", "é", "日", "\x00", '"', ",", "1", "%", "#"]),
                       min_size=1, max_size=3)
LEFT_LABELS = RIGHT_LABELS.filter(lambda x: not x.startswith(("%", "#")))
SEPARATORS = st.sampled_from([" ", "\t", " \t  "])
NOISE = st.sampled_from(["", "   ", "\t", "% a comment", "#", "# x 1 2"])


@st.composite
def edge_files(draw):
    """(lines, edges, weights, isolated_left, isolated_right): the lines of an
    edge list with three columns (weights drawn) or two (weights None), with
    repeated links, comment and blank lines, and the links they hold."""
    links = draw(st.lists(st.tuples(LEFT_LABELS, RIGHT_LABELS), max_size=20))
    edges = links + (draw(st.lists(st.sampled_from(links), max_size=10)) if links else [])
    edges = draw(st.permutations(edges))
    weighted = draw(st.booleans())
    # any positive doubles: their sums depend on the order they are added in
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(edges), max_size=len(edges)))
    lines = []
    for (u, v), w in zip(edges, weights):
        lines += draw(st.lists(NOISE, max_size=1))
        cells = [u, v, repr(w)] if weighted else [u, v]
        lines.append(draw(st.sampled_from(["", " "])) + draw(SEPARATORS).join(cells) + "\n")
    isolated = [draw(st.lists(labels, max_size=3)) for labels in (LEFT_LABELS, RIGHT_LABELS)]
    return lines, edges, weights if weighted else None, *isolated


@settings(max_examples=200, deadline=None)
@given(edge_files())
@example((["b 1 0.1\n", "% c\n", "a b 0.2\n", "b 1 0.7\n", "\n", "b 1 0.3\n"],
          [("b", "1"), ("a", "b"), ("b", "1"), ("b", "1")], [0.1, 0.2, 0.7, 0.3], ["c", "a"], ["b"]))
def test_ingest_equals_the_dict_oracle(case):
    lines, edges, weights, isolated_left, isolated_right = case
    want = dict_bipartite(edges, weights, isolated_left, isolated_right)
    for g in (
        load_edge_list(lines, has_weights=weights is not None,
                       isolated_left=isolated_left, isolated_right=isolated_right),
        BipartiteGraph(edges, weights, isolated_left, isolated_right),
    ):
        assert (g.left_nodes, g.right_nodes) == want[:2]
        for got, expect in zip((g._indptr, g._indices, g._degree), want[2:5]):
            assert np.array_equal(got, expect)
        assert (g._weights is None) == (weights is None)
        assert weights is None or np.array_equal(g._weights, want[5])
    # the CSR of the projections and threshold graphs, each pair given both ways
    nodes = tuple(dict.fromkeys([x for e in edges for x in e] + isolated_left))
    index = {x: i for i, x in enumerate(nodes)}
    pairs = [(index[u], index[v]) for u, v in edges if u != v]
    a, b = np.array(pairs + [(j, i) for i, j in pairs], dtype=np.int64).reshape(-1, 2).T
    unipartite = UnipartiteGraph._from_pairs(nodes, a, b)
    indptr, indices, _, _ = dict_csr(nodes, pairs)
    assert unipartite.nodes == nodes
    assert np.array_equal(unipartite._indptr, indptr)
    assert np.array_equal(unipartite._indices, indices)


class TestMemory:
    """Reading an edge list and writing a graph hold no Python object per link."""

    @pytest.fixture(scope="class")
    def lines(self):
        # 30k links: authors with skewed productivity, papers drawn uniformly
        rng = np.random.default_rng(3)
        authors = np.floor(3000 * rng.random(30_000) ** 2).astype(np.int64)
        papers = rng.integers(0, 12_000, 30_000)
        return [f"a{x}\tp{y}\n" for x, y in zip(authors.tolist(), papers.tolist())]

    def test_load_edge_list(self, lines):
        # the graph itself keeps about 3 MB; holding a (left, right) tuple per
        # link while reading raises the peak to about 12 MB
        g, peak = traced_peak(lambda: load_edge_list(lines))
        assert g.num_links > 29_000
        assert peak < 8e6

    def test_label_index_on_first_lookup(self, lines):
        # the graph holds each side's labels once, as a tuple; the reader's
        # {label: index} dicts are not kept
        g = load_edge_list(lines)
        assert "_left_index" not in vars(g) and "_right_index" not in vars(g)
        assert g.neighbors("a0", Side.LEFT) and g.degree("a0") >= 1
        assert {"_left_index", "_right_index"} <= vars(g).keys()
        assert g._left_index == {x: i for i, x in enumerate(g.left_nodes)}
        assert load_edge_list(lines).side_of("p0") is Side.RIGHT
        with pytest.raises(UnknownNodeError):
            load_edge_list(lines).degree("nobody")
        with pytest.raises(ValueError, match="both sides"):
            BipartiteGraph([("x", "x"), ("x", "y")]).side_of("x")

    def test_score_tables_hold_an_array(self, lines):
        # a table keeps the graph's label tuple and one float64 per node; a
        # dict of Python floats per table kept about 62 bytes per node
        g = load_edge_list(lines)
        g.side_of("a0")  # the kernel looks nodes up by label; build the index first
        for side, table in [
            (Side.RIGHT, lambda: pagerank(g, side=Side.RIGHT)),
            (Side.LEFT, lambda: pagerank(g, side=Side.LEFT)),
            (Side.RIGHT, lambda: bipartite_degree(g, Side.RIGHT)),
            (Side.LEFT, lambda: hellrank(g, Side.LEFT)),
        ]:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                scores = table()
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            n = len(g.nodes(side))
            assert len(scores) == n > 2000
            assert kept < 16 * n + 4096, (scores.metric, kept / n)
            assert scores.scores.labels is g.nodes(side)

    def test_to_edge_list_of_a_projection(self, lines):
        proj = project(load_edge_list(lines), Side.LEFT)
        assert proj.num_edges > 30_000
        with open(os.devnull, "w") as null:
            _, peak = traced_peak(lambda: proj.to_edge_list(null))
        assert peak < 1e6

    def test_to_dot_of_a_threshold_graph(self, lines):
        tg = threshold_graph(distance_matrix(load_edge_list(lines), Side.LEFT), 0.15)
        assert tg.num_edges > 30_000
        with open(os.devnull, "w") as null:
            _, peak = traced_peak(lambda: tg.to_dot(null))
        assert peak < 1e6
