import concurrent.futures
import csv
import io
import math
import os
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hellrank import (
    BipartiteGraph,
    DistanceMatrix,
    DistanceMode,
    Side,
    distance_bounds,
    distance_matrix,
    hellinger_distance,
    hellrank,
    node_distance,
    threshold_graph,
)
from hellrank import graph as graph_module
from hellrank import hellinger
from hellrank.graph import UnipartiteGraph, _fixed6_rows
from hellrank.hellinger import DegenerateDistancesWarning

from oracles import (
    brute_distance,
    brute_hellrank,
    column_gram,
    dict_unique_rows,
    random_bipartite,
    sqrt_mass_rows,
)

MODES = [DistanceMode.NORMALIZED, DistanceMode.RAW]


def class_edges(n_classes: int, copies: int) -> list[tuple[str, str]]:
    """Left nodes in n_classes groups of `copies` nodes; the nodes of a group
    share one neighbor-degree vector and the groups' vectors all differ."""
    edges = []
    for c in range(n_classes):
        for r in range(copies):
            x = f"c{c}r{r}"
            edges += [(x, f"{x}p{t}") for t in range(1 + c % 4)]
            edges += [(x, f"h{t}") for t in range(c // 4 + 1)]
    return edges


def class_graph(n_classes: int, copies: int) -> BipartiteGraph:
    return BipartiteGraph(class_edges(n_classes, copies))


def random_edges(rng, n1: int, n2: int, p: float) -> list[tuple[str, str]]:
    return [(f"L{i}", f"R{j}") for i, j in zip(*np.nonzero(rng.random((n1, n2)) < p))]


def traced_peak(call):
    """call()'s result and the peak memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_matches_oracle(g: BipartiteGraph, mode: DistanceMode) -> None:
    got = hellrank(g, Side.LEFT, mode)
    want = brute_hellrank(g, Side.LEFT, mode is DistanceMode.NORMALIZED)
    for x in g.left_nodes:
        assert got[x] == pytest.approx(want[x], abs=1e-9)


class TestHellingerDistance:
    def test_identical_is_zero(self):
        assert hellinger_distance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_disjoint_unit_vectors(self):
        assert hellinger_distance([1, 0], [0, 1]) == pytest.approx(1.0)

    def test_mapping_alignment(self):
        assert hellinger_distance({1: 4.0}, {2: 4.0}) == pytest.approx(2.0)
        assert hellinger_distance({1: 1.0, 5: 0.0}, {1: 1.0}) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError, match=">= 0"):
            hellinger_distance([-1.0], [1.0])
        with pytest.raises(ValueError, match="mismatch"):
            hellinger_distance([1.0], [1.0, 2.0])
        with pytest.raises(TypeError):
            hellinger_distance({1: 1.0}, [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # nan passed the >= 0 check and came out as a nan distance
        for p, q in [([bad, 1.0], [1.0, 1.0]), ([1.0], [bad]), ({1: bad}, {2: 1.0}), ({1: 1.0}, {1: bad})]:
            with pytest.raises(ValueError, match="finite"):
                hellinger_distance(p, q)


class TestNodeDistance:
    def test_fig1_normalized(self, fig1):
        expected = {
            ("A", "B"): 0.428373,
            ("A", "C"): 0.541196,
            ("A", "D"): 1.0,
            ("B", "C"): 0.120006,
            ("B", "D"): 0.861279,
            ("C", "D"): 0.826905,
        }
        for (x, y), d in expected.items():
            assert node_distance(fig1, x, y) == pytest.approx(d, abs=1e-6)

    def test_fig1_raw(self, fig1):
        assert node_distance(fig1, "A", "B", DistanceMode.RAW) == pytest.approx(1.082392, abs=1e-6)
        assert node_distance(fig1, "A", "D", DistanceMode.RAW) == pytest.approx(math.sqrt(6), abs=1e-9)

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            g = random_bipartite(rng, 8, 10, 0.3)
            nodes = g.left_nodes
            for mode in MODES:
                for i in range(len(nodes)):
                    for j in range(i + 1, len(nodes)):
                        assert node_distance(g, nodes[i], nodes[j], mode, Side.LEFT) == pytest.approx(
                            brute_distance(g, nodes[i], nodes[j], Side.LEFT, mode is DistanceMode.NORMALIZED),
                            abs=1e-12,
                        )

    def test_isolated_node_normalized(self):
        g = BipartiteGraph([("a", "1")], isolated_left=["z"])
        assert node_distance(g, "a", "z") == pytest.approx(1 / math.sqrt(2))
        assert node_distance(g, "a", "z", DistanceMode.RAW) == pytest.approx(1.0)

    def test_cross_side_rejected(self, fig1):
        with pytest.raises(ValueError, match="different sides"):
            node_distance(fig1, "A", "1")

    def test_weighted(self):
        g = BipartiteGraph([("a", "1"), ("b", "1"), ("b", "2")], weights=[1.0, 4.0, 1.0])
        # masses: a -> {2: 1}, b -> {2: 4, 1: 1}; normalized D_H^2 = 1 - sqrt(0.8)
        got = node_distance(g, "a", "b", weighted=True)
        assert got == pytest.approx(math.sqrt(1 - math.sqrt(0.8)), abs=1e-12)
        with pytest.raises(ValueError, match="no link weights"):
            node_distance(BipartiteGraph([("a", "1"), ("b", "1")]), "a", "b", weighted=True)


class TestNodeDistanceOracle:
    """node_distance, plain and weighted, against brute_distance on
    inputs where a pair's distance cancels or a vector is empty."""

    @staticmethod
    def near_duplicate_graph(weights: bool) -> BipartiteGraph:
        # vectors {1: 3000, 2: 1} and {1: 3001, 2: 1}, as in TestAdversarialKernel
        edges = [("a", "s"), ("b", "s"), ("c", "t")]
        edges += [("a", f"a{t}") for t in range(3000)]
        edges += [("b", f"b{t}") for t in range(3001)]
        return BipartiteGraph(edges, [1.0 + (t % 3) / 4 for t in range(len(edges))] if weights else None)

    @staticmethod
    def assert_pairs_match(g: BipartiteGraph, pairs, mode: DistanceMode) -> None:
        normalized = mode is DistanceMode.NORMALIZED
        for x, y in pairs:
            want = brute_distance(g, x, y, Side.LEFT, normalized)
            assert node_distance(g, x, y, mode) == pytest.approx(want, abs=1e-12)
            if g.is_weighted:
                want = brute_distance(g, x, y, Side.LEFT, normalized, weighted=True)
                got = node_distance(g, x, y, mode, weighted=True)
                assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("weights", [False, True])
    def test_near_duplicate_pair(self, mode, weights):
        g = self.near_duplicate_graph(weights)
        assert node_distance(g, "a", "b", mode) > 0.0
        self.assert_pairs_match(g, [("a", "b"), ("b", "a"), ("a", "c")], mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("weights", [None, [2.0, 0.5, 1.5, 3.0]])
    def test_isolated_nodes(self, mode, weights):
        g = BipartiteGraph(
            [("a", "1"), ("b", "1"), ("b", "2"), ("c", "2")], weights, isolated_left=["z1", "z2"]
        )
        assert node_distance(g, "z1", "z2", mode) == 0.0
        self.assert_pairs_match(g, [("z1", "z2"), ("z1", "a"), ("b", "z2"), ("a", "b")], mode)

    def test_random_weighted_graphs(self, rng):
        for _ in range(10):
            edges = random_edges(rng, 8, 10, 0.3)
            g = BipartiteGraph(edges, rng.uniform(0.1, 5.0, size=len(edges)))
            nodes = g.left_nodes
            for mode in MODES:
                self.assert_pairs_match(g, [(x, y) for x in nodes for y in nodes if x < y], mode)


class TestUnitWeights:
    """With every link weight 1.0 the weighted path equals the unweighted one
    exactly: the weight sums are the neighbor counts."""

    def test_weighted_equals_unweighted(self, rng):
        edges = random_edges(rng, 30, 20, 0.15)
        plain = BipartiteGraph(edges, isolated_left=["z1", "z2"])
        g = BipartiteGraph(edges, [1.0] * len(edges), isolated_left=["z1", "z2"])
        for side in Side:
            nodes = g.nodes(side)
            for mode in MODES:
                for x, y in [(nodes[0], z) for z in nodes[1:]] + [(nodes[3], nodes[7])]:
                    assert node_distance(g, x, y, mode, side, weighted=True) == node_distance(
                        plain, x, y, mode, side
                    )
                assert np.array_equal(
                    distance_matrix(g, side, mode, weighted=True).values,
                    distance_matrix(plain, side, mode).values,
                )
                assert hellrank(g, side, mode, weighted=True).scores == hellrank(plain, side, mode).scores


class TestDistanceBounds:
    def test_values(self):
        lo, hi = distance_bounds(3, 1)
        assert lo == pytest.approx(math.sqrt(3) - 1)
        assert hi == pytest.approx(2.0)
        assert distance_bounds(1, 3) == distance_bounds(3, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            distance_bounds(0, 1)


class TestDistanceMatrix:
    def test_matches_node_distance(self, fig1):
        for mode in MODES:
            m = distance_matrix(fig1, Side.LEFT, mode)
            assert np.allclose(m.values, m.values.T)
            assert np.all(np.diag(m.values) == 0.0)
            for x in fig1.left_nodes:
                for y in fig1.left_nodes:
                    if x != y:
                        assert m[x, y] == pytest.approx(node_distance(fig1, x, y, mode), abs=1e-12)

    def test_size_cap(self, fig1, monkeypatch):
        monkeypatch.setattr(hellinger, "MATRIX_CAP", 3)
        with pytest.raises(MemoryError, match="cap 3"):
            distance_matrix(fig1, Side.RIGHT)
        m = distance_matrix(fig1, Side.RIGHT, force=True)
        assert m.values.shape == (7, 7)

    def test_empty_side(self):
        g = BipartiteGraph([], isolated_left=["a"])
        with pytest.raises(ValueError, match="empty"):
            distance_matrix(g, Side.RIGHT)

    def test_expansion_temporary_is_bounded(self, monkeypatch):
        g = class_graph(20, 100)  # 2000 nodes; 16 of the 20 vectors cover 1600 of them
        want = distance_matrix(g, Side.LEFT).values
        block = 16
        monkeypatch.setattr(hellinger, "_BLOCK_ROWS", block)
        m, peak = traced_peak(lambda: distance_matrix(g, Side.LEFT))
        n = len(m.labels)
        assert peak <= m.values.nbytes + 4 * block * n * 8
        assert np.array_equal(m.values, want)

    def test_csv_writer_memory_is_bounded(self, rng):
        # cells are formatted a block of rows at a time, never the whole matrix
        peaks = []
        for n in (500, 1500):
            values = rng.random((n, n)) * 12  # one- and two-digit integer parts
            m = DistanceMatrix(Side.LEFT, [f"n{i}" for i in range(n)], values, DistanceMode.RAW)
            with open(os.devnull, "w") as null:
                peaks.append(traced_peak(lambda: m.to_csv(null))[1])
        assert peaks[1] < 3 * 2**20  # the 1500 x 1500 values alone take 18 MB
        assert peaks[1] < 1.5 * peaks[0]

    def test_csv_quotes_labels(self):
        g = BipartiteGraph([("x,1", "p"), ('say "hi"', "p"), ("plain", "q")])
        buf = io.StringIO()
        distance_matrix(g, Side.LEFT).to_csv(buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["", "x,1", 'say "hi"', "plain"]
        assert [r[0] for r in rows[1:]] == ["x,1", 'say "hi"', "plain"]
        assert all(len(r) == 4 for r in rows)

    def test_unknown_label(self, fig1):
        m = distance_matrix(fig1, Side.LEFT)
        assert m["A", "D"] == 1.0
        with pytest.raises(ValueError, match="'Z'"):
            m["A", "Z"]
        with pytest.raises(ValueError, match="'Z'"):
            m["Z", "A"]

    def test_csv_shape(self, fig1):
        buf = io.StringIO()
        distance_matrix(fig1, Side.LEFT).to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",A,B,C,D"
        assert len(lines) == 5
        assert lines[1].split(",")[1] == "0.000000"


class TestHellRank:
    def test_fig1_values(self, fig1):
        hr = hellrank(fig1, Side.LEFT)
        assert hr.metric == "hellrank"
        expected = {"A": 2.030901, "B": 2.837568, "C": 2.687978, "D": 1.487993}
        for x, v in expected.items():
            assert hr[x] == pytest.approx(v, abs=1e-6)

    def test_matches_brute_force(self, rng):
        for _ in range(10):
            g = random_bipartite(rng, 7, 6, 0.35)
            for mode in MODES:
                got = hellrank(g, Side.LEFT, mode)
                want = brute_hellrank(g, Side.LEFT, mode is DistanceMode.NORMALIZED)
                for x in g.left_nodes:
                    assert got[x] == pytest.approx(want[x], abs=1e-9)

    def test_raw_metric_name(self, fig1):
        assert hellrank(fig1, Side.LEFT, DistanceMode.RAW).metric == "hellrank-raw"

    def test_small_side_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            hellrank(BipartiteGraph([("a", "1")]), Side.LEFT)

    def test_size_checks_run_before_the_counts(self, fig1, monkeypatch):
        def counts(*args):
            raise AssertionError("the count matrix was built")

        monkeypatch.setattr(hellinger, "_node_counts", counts)
        monkeypatch.setattr(hellinger, "MATRIX_CAP", 1)
        with pytest.raises(MemoryError, match="cap 1"):
            distance_matrix(fig1, Side.LEFT)
        with pytest.raises(ValueError, match="empty"):
            distance_matrix(BipartiteGraph([], isolated_left=["a"]), Side.RIGHT)
        with pytest.raises(ValueError, match=">= 2"):
            hellrank(BipartiteGraph([("a", "1")]), Side.LEFT)

    @pytest.mark.parametrize("name, value", [
        ("threads", 0), ("threads", -3), ("threads", 1.5), ("threads", True),
    ])
    def test_block_and_threads_are_checked(self, fig1, name, value):
        # the block height is the constant hellinger._BLOCK_ROWS, and
        # distance_matrix computes on the calling thread and takes no threads
        with pytest.raises(ValueError, match=f"^{name} must be"):
            hellrank(fig1, Side.LEFT, **{name: value})
        # numpy integers are integers
        got = hellrank(fig1, Side.LEFT, threads=np.int32(2))
        assert got.scores == hellrank(fig1, Side.LEFT).scores

    def test_degenerate_uniform(self):
        g = BipartiteGraph([("a", "1"), ("b", "2")])
        with pytest.warns(DegenerateDistancesWarning):
            hr = hellrank(g, Side.LEFT)
        assert hr["a"] == hr["b"] == 1.0

    def test_threads_deterministic(self, rng, monkeypatch):
        g = random_bipartite(rng, 80, 30, 0.15)
        monkeypatch.setattr(hellinger, "_BLOCK_ROWS", 16)
        a = hellrank(g, Side.LEFT, threads=1)
        b = hellrank(g, Side.LEFT, threads=4)
        assert a.scores == b.scores

    def test_threads_deterministic_with_duplicates(self, monkeypatch):
        g = class_graph(40, 5)
        monkeypatch.setattr(hellinger, "_BLOCK_ROWS", 16)
        for mode in MODES:
            a = hellrank(g, Side.LEFT, mode, threads=1)
            b = hellrank(g, Side.LEFT, mode, threads=4)
            assert a.scores == b.scores

    def test_threads_split_a_side_of_a_few_hundred_vectors(self, monkeypatch, rng):
        g = random_bipartite(rng, 300, 60, 0.1)  # nearly 300 distinct vectors
        spans = []

        class Recording(ThreadPoolExecutor):
            def map(self, fn, *iterables):
                spans.append(list(iterables[0]))
                return super().map(fn, spans[-1])

        # _run_blocks imports the executor where it starts a pool
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        two = hellrank(g, Side.LEFT, threads=2)
        assert len(spans) == 1 and len(spans[0]) > 1
        assert two.scores == hellrank(g, Side.LEFT, threads=1).scores

    def test_streamed_consumers_never_hold_the_matrix(self):
        # nearly all 1500 vectors are distinct; the whole matrix takes 18 MB
        g = random_bipartite(np.random.default_rng(3), 1500, 1000, 0.008)
        with open(os.devnull, "w") as null:
            _, peak = traced_peak(lambda: distance_matrix(g, Side.LEFT).to_csv(null))
        assert peak < 8e6
        tg, peak = traced_peak(lambda: threshold_graph(distance_matrix(g, Side.LEFT), 0.5))
        assert peak < 8e6
        assert tg.num_edges > 10_000  # the edges are built too

    def test_streamed_distances_hold_one_kernel_block(self):
        # nearly all 1500 vectors are distinct.  Writing the matrix holds the
        # kernel's block x u array, the rows copied out of it for later runs
        # (at most one more block's worth) and one run of formatted cells
        g = random_bipartite(np.random.default_rng(3), 1500, 1000, 0.008)
        m = distance_matrix(g, Side.LEFT)
        block = hellinger._BLOCK_ROWS
        U, mu, _, coef = m._kernel[:4]
        u, n = U.shape[0], len(m.labels)
        one_block = block * u * 8
        run = np.random.default_rng(1).random((graph_module._FORMAT_BLOCK_CELLS // n, n))
        _, formatting = traced_peak(lambda: list(_fixed6_rows(run)))
        with open(os.devnull, "w") as null:
            _, peak = traced_peak(lambda: m.to_csv(null))
        assert peak < 2 * one_block + formatting
        # the kernel alone: its gram's array and runs of about
        # graph._BLOCK_ELEMENTS cells, here up to eight arrays of them
        columns = hellinger._columns(U)
        _, peak = traced_peak(lambda: hellinger._block_distances(U, mu, 0, block, coef, columns))
        assert peak < one_block + 8 * graph_module._BLOCK_ELEMENTS * 8

    def test_working_memory_grows_with_the_block_not_the_side(self):
        # nearly all 1500 vectors are distinct, so u is about the side's size
        g = random_bipartite(np.random.default_rng(3), 1500, 1000, 0.008)
        _, peak = traced_peak(lambda: hellrank(g, Side.LEFT))
        assert peak < 8e6
        m, peak = traced_peak(lambda: distance_matrix(g, Side.LEFT))
        assert peak - m.values.nbytes < 8e6

    def test_duplicate_heavy_side_holds_one_count_matrix(self):
        # 4000 left nodes with Zipf degrees over 4000 right nodes of skewed
        # popularity: 42 distinct neighbor degrees, 1172 distinct vectors.  The
        # count matrix (1.3 MB) must be the only n x c array: the bound sits
        # between the peak with it alone (3.1 MB) and with copies of it (6.1 MB)
        rng = np.random.default_rng(7)
        k = np.minimum(rng.zipf(2.0, 4000), 30)
        pull = 1 / np.arange(1, 4001) ** 0.6
        links = np.stack([np.repeat(np.arange(4000), k), rng.choice(4000, k.sum(), p=pull / pull.sum())], 1)
        g = BipartiteGraph([(f"L{i}", f"R{j}") for i, j in np.unique(links, axis=0).tolist()])
        _, peak = traced_peak(lambda: hellrank(g, Side.LEFT))
        assert peak < 4.5e6


class TestAdversarialKernel:
    """Inputs that stress the collapse to distinct vectors and the
    cancellation fix-up, against the brute-force oracle."""

    @pytest.mark.parametrize("mode", MODES)
    def test_many_exact_duplicates(self, mode, monkeypatch):
        g = class_graph(8, 5)
        assert_matches_oracle(g, mode)
        monkeypatch.setattr(hellinger, "_BLOCK_ROWS", 3)
        m = distance_matrix(g, Side.LEFT, mode)
        assert m["c2r0", "c2r4"] == 0.0
        assert m["c2r0", "c3r0"] > 0.0

    @pytest.mark.parametrize("mode", MODES)
    def test_proportional_vectors(self, mode):
        # a, b, c have vectors {1: k, 2: k} for k = 1, 2, 3; e has {1: 3}
        edges = [("a", "q1"), ("c", "q1"), ("b", "q2"), ("c", "q2"), ("b", "q3"), ("c", "q3")]
        for x, k in (("a", 1), ("b", 2), ("c", 3), ("e", 3)):
            edges += [(x, f"{x}p{t}") for t in range(k)]
        g = BipartiteGraph(edges)
        assert_matches_oracle(g, mode)
        m = distance_matrix(g, Side.LEFT, mode)
        if mode is DistanceMode.NORMALIZED:
            assert m["a", "b"] == m["a", "c"] == m["b", "c"] == 0.0
            hr = hellrank(g, Side.LEFT, mode)
            assert hr["a"] == hr["b"] == hr["c"]
        else:
            assert min(m["a", "b"], m["a", "c"], m["b", "c"]) > 0.0

    @pytest.mark.parametrize("mode", MODES)
    def test_isolated_nodes(self, mode):
        edges = [("a", "1"), ("b", "1"), ("b", "2"), ("c", "2"), ("c", "3"), ("d", "3")]
        g = BipartiteGraph(edges, isolated_left=["z1", "z2", "z3"])
        assert_matches_oracle(g, mode)
        m = distance_matrix(g, Side.LEFT, mode)
        assert m["z1", "z3"] == 0.0
        want = brute_distance(g, "z1", "a", Side.LEFT, mode is DistanceMode.NORMALIZED)
        assert m["z1", "a"] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("budget", [1, graph_module._BLOCK_ELEMENTS])
    def test_near_duplicate_pair(self, mode, budget, monkeypatch):
        # vectors {1: 3000, 2: 1} and {1: 3001, 2: 1}: in normalized mode the
        # gram form of their squared distance (~5e-12) falls under the
        # cancellation threshold, so it is recomputed by subtraction; budget 1
        # forms the mass sums one row at a time, so b's row is not a block's first
        monkeypatch.setattr(graph_module, "_BLOCK_ELEMENTS", budget)
        edges = [("a", "s"), ("b", "s"), ("c", "t")]
        edges += [("a", f"a{t}") for t in range(3000)]
        edges += [("b", f"b{t}") for t in range(3001)]
        g = BipartiteGraph(edges)
        normalized = mode is DistanceMode.NORMALIZED
        m = distance_matrix(g, Side.LEFT, mode)
        d = m["a", "b"]
        assert d > 0.0 and m["b", "a"] == d
        assert d == pytest.approx(brute_distance(g, "a", "b", Side.LEFT, normalized), rel=1e-9)
        assert_matches_oracle(g, mode)


class TestThresholdGraph:
    def test_edges_strictly_below(self, fig1):
        m = distance_matrix(fig1, Side.LEFT)
        tg = threshold_graph(m, 0.43)
        assert sorted(tg.edges()) == [("A", "B"), ("B", "C")]
        assert set(tg.nodes) == {"A", "B", "C", "D"}
        assert threshold_graph(m, 0.12) .num_edges == 0  # boundary excluded: d(B,C)=0.120006

    def test_validation(self, fig1):
        with pytest.raises(ValueError, match=">= 0"):
            threshold_graph(distance_matrix(fig1, Side.LEFT), -0.1)

    def test_nan_rejected_inf_allowed(self, fig1):
        m = distance_matrix(fig1, Side.LEFT)
        with pytest.raises(ValueError, match=">= 0"):
            threshold_graph(m, math.nan)
        assert threshold_graph(m, math.inf).num_edges == 6

    def test_matches_dense_formula_with_ties(self, rng):
        n = 60
        values = rng.integers(0, 10, size=(n, n)) / 10  # many entries equal each threshold
        labels = [f"n{i}" for i in range(n)]
        m = DistanceMatrix(Side.LEFT, labels, values, DistanceMode.NORMALIZED)
        for threshold in (0.0, 0.3, 0.5, 0.9, 1.0):
            ii, jj = np.nonzero(np.triu(values < threshold, k=1))
            want = UnipartiteGraph(labels, [(labels[i], labels[j]) for i, j in zip(ii, jj)])
            got = threshold_graph(m, threshold)
            assert got == want
            assert got.num_edges == len(ii)


# -- labels and side order carry no weight -------------------------------------

# Short labels over an alphabet with NUL, non-ASCII, quotes and commas: a
# relabelling changes the sorted order of a node's neighbors and so the
# order in which a weighted node's link weights are summed.
LABELS = st.text(st.sampled_from(["a", "B", "\x00", "é", "😀", '"', ",", " "]), max_size=3)


@st.composite
def relabelled_graphs(draw):
    """(links (i, j) between n1 left and n2 right nodes, their weights or
    None, one new label per node of each side, a shuffle of the links)."""
    n1, n2 = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    pair = st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1))
    links = draw(st.lists(pair, max_size=25))
    size = len(links)
    weights = draw(st.none() | st.lists(st.floats(0.01, 100), min_size=size, max_size=size))
    names = [draw(st.lists(LABELS, min_size=n, max_size=n, unique=True)) for n in (n1, n2)]
    return links, weights, names, draw(st.permutations(range(size)))


def assert_same_side(g, side, h, h_side, relabel):
    """hellrank and distance_matrix of g's side equal those of h's side, node
    x of g being node relabel[x] of h, within 1e-12 relative."""
    for weighted in sorted({False, g.is_weighted}):
        for mode in MODES:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateDistancesWarning)
                a, b = (hellrank(x, s, mode, weighted=weighted) for x, s in ((g, side), (h, h_side)))
            labels = a.labels
            np.testing.assert_allclose([b[relabel[x]] for x in labels], [a[x] for x in labels],
                                       rtol=1e-12, atol=0)
            m, mm = (distance_matrix(x, s, mode, weighted=weighted) for x, s in ((g, side), (h, h_side)))
            index = {label: i for i, label in enumerate(mm.labels)}
            at = [index[relabel[x]] for x in m.labels]
            np.testing.assert_allclose(mm.values[np.ix_(at, at)], m.values, rtol=1e-12, atol=0)


@settings(max_examples=150, deadline=None)
@given(relabelled_graphs())
def test_scores_and_distances_ignore_labels_and_side_order(case):
    links, weights, (new_left, new_right), order = case
    left = [f"L{i}" for i in range(len(new_left))]
    right = [f"R{j}" for j in range(len(new_right))]
    g = BipartiteGraph([(left[i], right[j]) for i, j in links], weights, left, right)
    # an injective relabelling of each side, the lines in another order
    relabelled = BipartiteGraph(
        [(new_left[links[k][0]], new_right[links[k][1]]) for k in order],
        weights and [weights[k] for k in order],
        new_left[::-1],
        new_right[::-1],
    )
    # left and right swapped
    swapped = BipartiteGraph([(right[j], left[i]) for i, j in links], weights, right, left)
    relabel = {Side.LEFT: dict(zip(left, new_left)), Side.RIGHT: dict(zip(right, new_right))}
    for side in Side:
        assert_same_side(g, side, relabelled, side, relabel[side])
        assert_same_side(g, side, swapped, side.other, {x: x for x in g.nodes(side)})


# -- the streamed matrix is the materialised one ---------------------------------

# label prefixes that CSV must quote or that sort unlike ASCII
PREFIXES = ["", "x,", '"q" ', "é", "a\"b,"]


@st.composite
def streamed_cases(draw):
    """(graph, mode, weighted, block): duplicate-heavy classes of
    left nodes, random extra links, isolated nodes on both sides, labels that
    need quoting."""
    edges = class_edges(draw(st.integers(1, 9)), draw(st.integers(1, 6)))
    n_extra = draw(st.integers(0, 6))
    pair = st.tuples(st.integers(0, n_extra + 2), st.integers(0, 5))
    edges += [(f"e{i}", f"h{j}") for i, j in draw(st.lists(pair, max_size=15))]
    left = sorted({x for x, _ in edges})
    prefix = dict(zip(left, draw(st.lists(st.sampled_from(PREFIXES), min_size=len(left), max_size=len(left)))))
    size = len(edges)
    weights = draw(st.none() | st.lists(st.floats(0.01, 100), min_size=size, max_size=size))
    g = BipartiteGraph(
        [(prefix[x] + x, y) for x, y in edges],
        weights,
        isolated_left=[f"z,{i}" for i in range(draw(st.integers(0, 3)))],
        isolated_right=[f"w{i}" for i in range(draw(st.integers(0, 2)))],
    )
    return (g, draw(st.sampled_from(MODES)), draw(st.booleans()) and weights is not None,
            draw(st.sampled_from([1, 3, 16, 128])))


def csv_text(m: DistanceMatrix) -> str:
    buf = io.StringIO()
    m.to_csv(buf)
    return buf.getvalue()


@settings(max_examples=80, deadline=None)
@given(streamed_cases(), st.sampled_from([0.0, 0.1, 0.5, 0.75, 2.0, math.inf]))
def test_streamed_matrix_equals_materialised(case, threshold):
    g, mode, weighted, block = case
    # a function-scoped monkeypatch fixture would be shared by every example
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hellinger, "_BLOCK_ROWS", block)
        m = distance_matrix(g, Side.LEFT, mode, weighted=weighted)
        # both stream before .values is first read
        streamed_csv, streamed_cut = csv_text(m), threshold_graph(m, threshold)
        full = DistanceMatrix(m.side, m.labels, m.values, m.mode)
    assert streamed_csv == csv_text(full)
    ii, jj = np.nonzero(np.triu(full.values < threshold, 1))
    assert streamed_cut == UnipartiteGraph(m.labels, [(m.labels[i], m.labels[j]) for i, j in zip(ii, jj)])
    assert np.array_equal(m.values, distance_matrix(g, Side.LEFT, mode, weighted=weighted).values)


# -- score-level properties -----------------------------------------------------


@st.composite
def small_graphs(draw):
    """(distinct links between up to 9 left and 7 right nodes, isolated left
    nodes)."""
    n1, n2 = draw(st.integers(2, 9)), draw(st.integers(1, 7))
    pair = st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1))
    links = draw(st.lists(pair, min_size=1, max_size=30, unique=True))
    isolated = [f"z{i}" for i in range(draw(st.integers(0, 2)))]
    return [(f"L{i}", f"R{j}") for i, j in links], isolated


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_raw_distances_lie_within_the_degree_bounds(case):
    edges, isolated = case
    g = BipartiteGraph(edges, isolated_left=isolated)
    m = distance_matrix(g, Side.LEFT, DistanceMode.RAW)
    k = [g.degree(x, Side.LEFT) for x in m.labels]
    for i, j in zip(*np.triu_indices(len(k), 1)):
        if k[i] and k[j]:
            lo, hi = distance_bounds(k[i], k[j])
            # compared squared, up to rounding of the masses k_i + k_j
            slack = 1e-12 * (k[i] + k[j])
            assert lo * lo - slack <= m.values[i, j] ** 2 <= hi * hi + slack


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.data())
def test_triangle_inequality(case, data):
    edges, isolated = case
    weights = data.draw(st.none() | st.lists(st.floats(0.01, 100), min_size=len(edges), max_size=len(edges)))
    g = BipartiteGraph(edges, weights, isolated_left=isolated)
    for mode in MODES:
        d = distance_matrix(g, Side.LEFT, mode, weighted=weights is not None).values
        slack = 1e-9 * (1 + d.max())
        for y in range(len(d)):
            assert np.all(d <= d[:, y : y + 1] + d[y : y + 1, :] + slack)


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_unit_weights_give_the_unweighted_scores(case):
    edges, isolated = case
    plain = BipartiteGraph(edges, isolated_left=isolated)
    unit = BipartiteGraph(edges, [1.0] * len(edges), isolated_left=isolated)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateDistancesWarning)
        for side in Side:
            if len(plain.nodes(side)) < 2:
                continue
            for mode in MODES:
                assert hellrank(unit, side, mode, weighted=True).scores == hellrank(plain, side, mode).scores


# -- the kernel's preamble and gram blocks against loops ------------------------

TWO_UP = np.nextafter(2.0, 3.0)  # its square root is sqrt(2.0)


@st.composite
def count_matrices(draw):
    """Count matrices of 1 to 40 rows drawn from a few base rows: repeated
    rows, all-zero rows, rows scaled by 2 or 4 (equal once normalized), and
    counts 2.0 and TWO_UP, whose equal roots have unequal raw masses."""
    c = draw(st.integers(1, 4))
    count = st.sampled_from([0.0, 0.25, 1.0, 2.0, TWO_UP, 3.0])
    base = draw(st.lists(st.lists(count, min_size=c, max_size=c), min_size=1, max_size=4))
    base.append([0.0] * c)
    rows = draw(st.lists(st.tuples(st.sampled_from(base), st.sampled_from([1.0, 2.0, 4.0])),
                         min_size=1, max_size=40))
    return np.array([[x * f for x in row] for row, f in rows])


@settings(max_examples=200, deadline=None)
@given(count_matrices(), st.sampled_from(MODES), st.sampled_from([1, graph_module._BLOCK_ELEMENTS]))
# equal roots, unequal masses, interleaved
@example(np.array([[2.0], [TWO_UP], [2.0], [TWO_UP]]), DistanceMode.RAW, 1)
# more rows than an insertion sort takes: only a stable sort keeps node order
@example(np.array([[(7 * i) % 3, 1.0] for i in range(60)]), DistanceMode.NORMALIZED, 1)
def test_distinct_rows_match_the_dict_oracle(C, mode, budget):
    normalized = mode is DistanceMode.NORMALIZED
    totals = hellinger._row_sums(C)
    want = sqrt_mass_rows(C, totals, normalized)
    S, masses, _ = hellinger._sqrt_mass_matrix(C, mode)
    assert S is C  # computed in the count matrix's own array
    assert np.array_equal(S, want)
    assert np.array_equal(masses, (totals > 0).astype(float) if normalized else totals)
    saved = graph_module._BLOCK_ELEMENTS
    graph_module._BLOCK_ELEMENTS = budget  # budget 1 compares one pair of rows at a time
    try:
        got = hellinger._unique_rows(S, masses)
    finally:
        graph_module._BLOCK_ELEMENTS = saved
    for mine, ref in zip(got, dict_unique_rows(S, masses)):
        assert np.array_equal(mine, ref)


@pytest.mark.parametrize("budget", [1, graph_module._BLOCK_ELEMENTS])
def test_gram_blocks_match_one_scatter_per_column(budget, monkeypatch):
    # budget 1 scatters one row of a column's products at a time
    monkeypatch.setattr(graph_module, "_BLOCK_ELEMENTS", budget)
    rng = np.random.default_rng(11)
    for u, c, p in ((1, 1, 1.0), (40, 3, 0.5), (300, 12, 0.2)):
        S = np.sqrt(rng.random((u, c)) * (rng.random((u, c)) < p))
        columns = hellinger._columns(S)
        for lo, hi in [(0, u), *hellinger._blocks(u, 16)]:
            want = column_gram(S, lo, hi)
            assert np.array_equal(hellinger._gram(S, lo, hi, columns), want)


def test_bits_do_not_depend_on_block_height_or_threads(monkeypatch):
    # duplicate classes and random links; 40-row runs of the matrix, or one
    # row per run, so that the node runs cut across the kernel's blocks
    rng = np.random.default_rng(17)
    edges = class_edges(12, 4) + random_edges(rng, 70, 40, 0.08)
    weights = list(rng.exponential(1.0, len(edges)) + 1e-3)
    g = BipartiteGraph(edges, weights, isolated_left=["z"])
    n = len(g.left_nodes)
    for mode in MODES:
        for weighted in (False, True):
            u = distance_matrix(g, Side.LEFT, mode, weighted=weighted)._kernel[0].shape[0]
            results = []
            for block in (1, 3, 64, 128, u):
                monkeypatch.setattr(hellinger, "_BLOCK_ROWS", block)
                for threads in (1, 4):
                    scores = hellrank(g, Side.LEFT, mode, weighted=weighted, threads=threads)
                    for cells in (40 * n, 1):
                        monkeypatch.setattr(graph_module, "_FORMAT_BLOCK_CELLS", cells)
                        m = distance_matrix(g, Side.LEFT, mode, weighted=weighted)
                        results.append((np.array(list(scores.scores.values())), csv_text(m),
                                        [threshold_graph(m, t) for t in (0.3, 0.6)]))
            first = results[0]
            assert first[2][1].num_edges > first[2][0].num_edges > 0
            for scores, text, cuts in results[1:]:
                assert np.array_equal(scores, first[0])
                assert text == first[1]
                assert cuts == first[2]
