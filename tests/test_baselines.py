import contextlib
import io

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms import bipartite as nxb

from hellrank import (
    BipartiteGraph,
    PageRankConfig,
    Side,
    bipartite_betweenness,
    bipartite_closeness,
    bipartite_degree,
    eigenvector_centrality,
    latapy_cc,
    latapy_pair_cc,
    opsahl_cc,
    opsahl_path_counts,
    pagerank,
    projected_centrality,
)
from hellrank import baselines
from hellrank.baselines import DisconnectedGraphWarning, betweenness_ceiling
from hellrank.cli import run

from oracles import brute_latapy_cc, enumerate_4paths, random_bipartite
from test_imports import fresh_run


def to_networkx(graph):
    """networkx copy with right labels prefixed (shared namespace there)."""
    G = nx.Graph()
    left = list(graph.left_nodes)
    G.add_nodes_from(left, bipartite=0)
    G.add_nodes_from(("R_" + y for y in graph.right_nodes), bipartite=1)
    for x in left:
        for y in graph.neighbors(x, Side.LEFT):
            G.add_edge(x, "R_" + y)
    return G, left


class TestDegree:
    def test_fig1(self, fig1):
        d = bipartite_degree(fig1, Side.LEFT)
        assert d["A"] == pytest.approx(1 / 7)
        assert d["D"] == pytest.approx(5 / 7)
        r = bipartite_degree(fig1, Side.RIGHT)
        assert r["3"] == pytest.approx(3 / 4)

    def test_ranking(self, davis):
        assert bipartite_degree(davis, Side.LEFT).ranked()[0][0] in ("Evelyn", "Theresa")


class TestCloseness:
    def test_fig1_golden(self, fig1):
        c = bipartite_closeness(fig1, Side.LEFT)
        for label, want in zip("ABCD", (0.35, 0.61, 0.52, 0.68)):
            assert c[label] == pytest.approx(want, abs=0.01)

    def test_matches_networkx(self, davis):
        G, left = to_networkx(davis)
        ref = nxb.closeness_centrality(G, left, normalized=True)
        mine = bipartite_closeness(davis, Side.LEFT)
        for x in left:
            assert mine[x] == pytest.approx(ref[x], abs=1e-12)

    def test_disconnected_warns(self):
        g = BipartiteGraph([("a", "1"), ("b", "2")])
        with pytest.warns(DisconnectedGraphWarning):
            c = bipartite_closeness(g, Side.LEFT)
        # a reaches 1 of 3 other nodes at distance 1; the numerator is
        # n2 + 2(n1 - 1) = 4, scaled by the reachable fraction 1/3
        assert c["a"] == pytest.approx((1 / 3) * 4 / 1)

    def test_isolated_scores_zero(self):
        g = BipartiteGraph([("a", "1")], isolated_left=["z"])
        with pytest.warns(DisconnectedGraphWarning):
            assert bipartite_closeness(g, Side.LEFT)["z"] == 0.0


class TestBetweenness:
    def test_fig1_values(self, fig1):
        b = bipartite_betweenness(fig1, Side.LEFT)
        assert b["A"] == 0.0
        assert b["B"] == pytest.approx(0.452381, abs=1e-6)
        assert b["C"] == pytest.approx(0.071429, abs=1e-6)
        assert b["D"] == pytest.approx(0.714286, abs=1e-6)

    def test_matches_networkx(self, davis, fig1):
        for g in (davis, fig1):
            G, left = to_networkx(g)
            ref = nxb.betweenness_centrality(G, left)
            mine = bipartite_betweenness(g, Side.LEFT)
            for x in left:
                assert mine[x] == pytest.approx(ref[x], abs=1e-12)

    def test_ceiling_attained_by_star_center(self):
        # single left hub connected to every right node: its raw betweenness
        # is all right-right pairs, which equals the ceiling for n_own=1? use
        # the two-sided case instead: path A-1-B gives node 1 the full ceiling.
        g = BipartiteGraph([("A", "1"), ("B", "1")])
        b = bipartite_betweenness(g, Side.RIGHT)
        assert b["1"] == pytest.approx(1.0)
        assert betweenness_ceiling(1, 2) == pytest.approx(1.0)


class TestPageRank:
    def test_sums_to_one(self, fig1):
        both = pagerank(fig1)
        total = sum(both[Side.LEFT].scores.values()) + sum(both[Side.RIGHT].scores.values())
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_networkx(self, davis, fig1):
        for g in (davis, fig1):
            G, left = to_networkx(g)
            ref = nx.pagerank(G, alpha=0.85, tol=1e-12, max_iter=1000)
            mine = pagerank(g, PageRankConfig(tolerance=1e-14), Side.LEFT)
            for x in left:
                assert mine[x] == pytest.approx(ref[x], abs=1e-9)

    def test_lazy_equals_reduced_damping(self, fig1):
        # averaging the walk with staying put has the same fixed point as the
        # plain chain at damping d / (2 - d)
        d = 0.85
        lazy = pagerank(fig1, PageRankConfig(damping=d, lazy=True, tolerance=1e-14), Side.LEFT)
        plain = pagerank(fig1, PageRankConfig(damping=d / (2 - d), tolerance=1e-14), Side.LEFT)
        for x in fig1.left_nodes:
            assert lazy[x] == pytest.approx(plain[x], abs=1e-9)

    def test_dangling_nodes(self):
        g = BipartiteGraph([("a", "1")], isolated_left=["z"])
        scores = pagerank(g, side=Side.LEFT)
        assert scores["z"] > 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PageRankConfig(damping=1.0)
        with pytest.raises(ValueError):
            PageRankConfig(tolerance=0.0)


class TestEigenvector:
    def test_matches_networkx(self, davis):
        G, left = to_networkx(davis)
        ref = nx.eigenvector_centrality_numpy(G)
        top = max(ref[x] for x in left)
        mine = eigenvector_centrality(davis, Side.LEFT)
        for x in left:
            assert mine[x] == pytest.approx(ref[x] / top, abs=1e-8)

    def test_best_node_gets_one(self, fig1):
        ev = eigenvector_centrality(fig1, Side.LEFT)
        assert max(ev.scores.values()) == pytest.approx(1.0)
        assert ev.ranked()[0][0] == "D"


class TestClusteringCoefficients:
    def test_pair_cc_fig1(self, fig1):
        assert latapy_pair_cc(fig1, "A", "B", Side.LEFT) == pytest.approx(1 / 3)
        assert latapy_pair_cc(fig1, "B", "C", Side.LEFT) == pytest.approx(2 / 3)
        assert latapy_pair_cc(fig1, "A", "D", Side.LEFT) == 0.0

    def test_latapy_fig1(self, fig1):
        cc = latapy_cc(fig1, Side.LEFT)
        assert cc["A"] == pytest.approx(1 / 3)
        # D's same-side 2-hop neighbors are B and C (shared event 3)
        assert cc["D"] == pytest.approx((1 / 7 + 1 / 6) / 2, abs=1e-9)

    def test_no_two_hop_neighbors(self):
        g = BipartiteGraph([("a", "1")])
        assert latapy_cc(g, Side.LEFT)["a"] == 0.0

    @pytest.mark.parametrize("budget", [1, baselines._BLOCK_ELEMENTS])
    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
    def test_latapy_matches_oracle(self, side, budget, monkeypatch):
        # budget 1 counts the 2-hop walks of one node at a time
        monkeypatch.setattr(baselines, "_BLOCK_ELEMENTS", budget)
        for g in latapy_graphs():
            mine = latapy_cc(g, side)
            for x, want in brute_latapy_cc(g, side).items():
                assert mine[x] == pytest.approx(want, rel=1e-12, abs=0)

    def test_opsahl_fig1(self, fig1):
        assert opsahl_path_counts(fig1) == (19, 0)
        assert opsahl_cc(fig1) == 0.0

    def test_opsahl_matches_enumeration(self, rng):
        for _ in range(12):
            g = random_bipartite(rng, 5, 5, 0.4)
            assert opsahl_path_counts(g) == enumerate_4paths(g)

    def test_opsahl_no_paths_warns(self):
        g = BipartiteGraph([("a", "1")])
        with pytest.warns(UserWarning, match="no 4-paths"):
            assert opsahl_cc(g) == 0.0

    def test_opsahl_closed_case(self):
        # 3x3 complete bipartite graph: every 4-path closes through the third
        # right node
        g = BipartiteGraph([(u, v) for u in "abc" for v in "123"])
        paths, closed = opsahl_path_counts(g)
        assert paths > 0 and closed == paths
        assert opsahl_cc(g) == 1.0


class TestProjectedCentrality:
    def test_matches_networkx(self, davis):
        G, left = to_networkx(davis)
        P = nxb.projected_graph(G, left)
        refs = {
            "degree": nx.degree_centrality(P),
            "closeness": nx.closeness_centrality(P),
            "betweenness": nx.betweenness_centrality(P, normalized=True),
        }
        for metric, ref in refs.items():
            mine = projected_centrality(davis, Side.LEFT, metric)
            assert mine.metric == metric + "1"
            for x in left:
                assert mine[x] == pytest.approx(ref[x], abs=1e-12)

    def test_unknown_metric(self, fig1):
        with pytest.raises(ValueError, match="unknown projected metric"):
            projected_centrality(fig1, Side.LEFT, "katz")


def disconnected_graphs():
    """Seeded random graphs with several components and isolated nodes on both sides."""
    rng = np.random.default_rng(2024)
    for n1, n2, p in ((14, 9, 0.12), (9, 16, 0.1), (25, 20, 0.07)):
        g = random_bipartite(rng, n1, n2, p)
        G, _ = to_networkx(g)
        assert nx.number_connected_components(G) > 2
        assert any(G.degree(v) == 0 for v in g.left_nodes)
        assert any(G.degree("R_" + v) == 0 for v in g.right_nodes)
        yield g, G


def side_nodes(graph, side):
    """(labels, networkx node names) of one side, as to_networkx names them."""
    if side is Side.LEFT:
        return list(graph.left_nodes), list(graph.left_nodes)
    return list(graph.right_nodes), ["R_" + y for y in graph.right_nodes]


def reachable_closeness(G, v, numerator):
    """The module's closeness from networkx distances: numerator / distance
    sum, scaled by the fraction of the other nodes that v reaches."""
    dist = [d for u, d in nx.single_source_shortest_path_length(G, v).items() if u != v]
    if not sum(dist):
        return 0.0
    return len(dist) / (len(G) - 1) * numerator / sum(dist)


@pytest.fixture(params=[None, 1, 100], ids=["default-blocks", "one-source", "partial-blocks"])
def block_budget(request, monkeypatch):
    """Element budget of a BFS block; small budgets split the sources into
    many blocks, the last one short."""
    if request.param is not None:
        monkeypatch.setattr(baselines, "_BLOCK_ELEMENTS", request.param)


@pytest.mark.usefixtures("block_budget")
@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
class TestDisconnectedAgainstNetworkx:
    def test_bipartite_closeness(self, side):
        for g, G in disconnected_graphs():
            with pytest.warns(DisconnectedGraphWarning):
                mine = bipartite_closeness(g, side)
            n_own, n_other = (g.n1, g.n2) if side is Side.LEFT else (g.n2, g.n1)
            for x, v in zip(*side_nodes(g, side)):
                ref = reachable_closeness(G, v, n_other + 2 * (n_own - 1))
                assert mine[x] == pytest.approx(ref, abs=1e-12)

    def test_bipartite_betweenness(self, side):
        for g, G in disconnected_graphs():
            mine = bipartite_betweenness(g, side)
            raw = nx.betweenness_centrality(G, normalized=False)
            n_own, n_other = (g.n1, g.n2) if side is Side.LEFT else (g.n2, g.n1)
            ceiling = betweenness_ceiling(n_own, n_other)
            for x, v in zip(*side_nodes(g, side)):
                assert mine[x] == pytest.approx(raw[v] / ceiling, abs=1e-12)

    def test_projected_closeness_and_betweenness(self, side):
        for g, G in disconnected_graphs():
            labels, names = side_nodes(g, side)
            P = nxb.projected_graph(G, names)
            n = len(P)
            with pytest.warns(DisconnectedGraphWarning):
                closeness = projected_centrality(g, side, "closeness")
            betweenness = projected_centrality(g, side, "betweenness")
            raw = nx.betweenness_centrality(P, normalized=False)
            for x, v in zip(labels, names):
                assert closeness[x] == pytest.approx(
                    reachable_closeness(P, v, n - 1), abs=1e-12
                )
                assert betweenness[x] == pytest.approx(
                    raw[v] / ((n - 1) * (n - 2) / 2), abs=1e-12
                )


def latapy_graphs():
    """Seeded random graphs with isolated nodes, labels shared by both sides,
    first-seen label order unlike sorted order, and a linked node without
    2-hop neighbors."""
    rng = np.random.default_rng(77)
    for n1, n2, p in ((12, 9, 0.2), (20, 30, 0.08), (40, 25, 0.1)):
        names = [str(k) for k in rng.permutation(2 * (n1 + n2))]  # "10" sorts before "9"
        left, right = names[:n1], names[n1 // 2 : n1 // 2 + n2]
        adj = rng.random((n1, n2)) < p
        edges = [(left[i], right[j]) for i, j in zip(*np.nonzero(adj))] + [("lone", "solo")]
        edges = [edges[k] for k in rng.permutation(len(edges))]
        g = BipartiteGraph(edges, isolated_left=["iso"], isolated_right=["iso"])
        assert set(g.left_nodes) & set(g.right_nodes) - {"iso"}
        assert list(g.left_nodes) != sorted(g.left_nodes)
        assert list(g.right_nodes) != sorted(g.right_nodes)
        yield g


def giant_and_small_components(seed: int) -> list[tuple[str, str]]:
    """Edges of a random giant component plus 30 small paths and stars, in
    shuffled order, so that components are not contiguous in node order."""
    rng = np.random.default_rng(seed)
    adj = rng.random((40, 30)) < 0.12
    edges = [(f"a{i}", f"p{j}") for i, j in zip(*np.nonzero(adj))]
    for k in range(30):
        authors = [f"s{k}.{i}" for i in range(1 + k % 4)]
        papers = [f"q{k}.{i}" for i in range(1 + k % 3)]
        edges += [(authors[i % len(authors)], papers[i % len(papers)])
                  for i in range(len(authors) + len(papers) - 1)]
    return [edges[k] for k in rng.permutation(len(edges))]


def sweep_values(graph: BipartiteGraph, side: Side, order: tuple[str, ...]) -> list[np.ndarray]:
    """Every sweep-based score of one side, the metrics computed in ``order``."""
    compute = {
        "closeness2": lambda: bipartite_closeness(graph, side),
        "betweenness2": lambda: bipartite_betweenness(graph, side),
        "closeness1": lambda: projected_centrality(graph, side, "closeness"),
        "betweenness1": lambda: projected_centrality(graph, side, "betweenness"),
    }
    with pytest.warns(DisconnectedGraphWarning):
        tables = {name: compute[name]() for name in order}
    return [np.array([tables[name][x] for x in graph.nodes(side)]) for name in sorted(tables)]


class TestSweepMemo:
    @pytest.mark.filterwarnings("ignore::hellrank.baselines.DisconnectedGraphWarning")
    def test_graphs_with_the_same_labels_keep_their_own_values(self):
        # the same nodes in the same order, different links, scored in turn
        rng = np.random.default_rng(5)
        spine = [(f"L{i}", f"R{i % 10}") for i in range(12)]
        graphs = [
            BipartiteGraph(spine + [(f"L{i}", f"R{j}") for i, j in zip(*np.nonzero(adj))])
            for adj in rng.random((2, 12, 10)) < 0.08
        ]
        assert graphs[0].left_nodes == graphs[1].left_nodes
        assert graphs[0].right_nodes == graphs[1].right_nodes
        assert graphs[0] != graphs[1]
        for g in graphs + graphs:
            G, left = to_networkx(g)
            P = nxb.projected_graph(G, left)
            raw = nx.betweenness_centrality(G, normalized=False)
            ceiling = betweenness_ceiling(g.n1, g.n2)
            closeness = bipartite_closeness(g, Side.LEFT)
            betweenness = bipartite_betweenness(g, Side.LEFT)
            projected = projected_centrality(g, Side.LEFT, "closeness")
            for x in left:
                assert closeness[x] == pytest.approx(
                    reachable_closeness(G, x, g.n2 + 2 * (g.n1 - 1)), abs=1e-12
                )
                assert betweenness[x] == pytest.approx(raw[x] / ceiling, abs=1e-12)
                assert projected[x] == pytest.approx(reachable_closeness(P, x, len(P) - 1), abs=1e-12)
            assert latapy_cc(g, Side.LEFT).scores == pytest.approx(
                brute_latapy_cc(g, Side.LEFT), rel=1e-12
            )

    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
    def test_call_order_does_not_change_bits(self, side):
        edges = giant_and_small_components(3)
        forward = sweep_values(BipartiteGraph(edges), side,
                               ("closeness2", "betweenness2", "closeness1", "betweenness1"))
        backward = sweep_values(BipartiteGraph(edges), side,
                                ("betweenness1", "closeness1", "betweenness2", "closeness2"))
        for a, b in zip(forward, backward):
            assert np.array_equal(a, b)

    def test_every_closeness_call_warns(self):
        g = BipartiteGraph(giant_and_small_components(4))
        for _ in range(2):
            for call in (
                lambda: bipartite_closeness(g, Side.LEFT),
                lambda: bipartite_closeness(g, Side.RIGHT),
                lambda: projected_centrality(g, Side.LEFT, "closeness"),
            ):
                with pytest.warns(DisconnectedGraphWarning):
                    call()

    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
    def test_block_budget_does_not_change_bits(self, side, monkeypatch):
        edges = giant_and_small_components(6)
        results = []
        for budget in (1, 100, baselines._BLOCK_ELEMENTS):
            monkeypatch.setattr(baselines, "_BLOCK_ELEMENTS", budget)
            order = ("closeness2", "betweenness2", "closeness1", "betweenness1")
            results.append(sweep_values(BipartiteGraph(edges), side, order))
        for other in results[1:]:
            for a, b in zip(results[0], other):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_cli_bytes_do_not_depend_on_block_budget(self, side, tmp_path, monkeypatch, capsys):
        path = tmp_path / "edges.tsv"
        path.write_text("".join(f"{u}\t{v}\n" for u, v in giant_and_small_components(8)))
        argv = ["scores", "--input", str(path), "--metric", "all", "--side", side]
        outputs = []
        for budget in (1, 8192):
            monkeypatch.setattr(baselines, "_BLOCK_ELEMENTS", budget)
            with pytest.warns(DisconnectedGraphWarning):
                assert run(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "metric, sweeps",
        [("all", [True, True]), ("closeness2", [False]), ("closeness1", [False])],
    )
    def test_scores_sweeps_each_graph_once(self, metric, sweeps, tmp_path, monkeypatch):
        # `all` runs betweenness first, so closeness reads its sweep; closeness
        # alone runs the sweep without the dependency accumulation
        path = tmp_path / "edges.tsv"
        path.write_text("".join(f"{u}\t{v}\n" for u, v in giant_and_small_components(9)))
        calls = []
        sweep = baselines._sweep

        def counted(A, betweenness):
            calls.append(betweenness)
            return sweep(A, betweenness)

        monkeypatch.setattr(baselines, "_sweep", counted)
        with pytest.warns(DisconnectedGraphWarning), contextlib.redirect_stdout(io.StringIO()):
            assert run(["scores", "--input", str(path), "--metric", metric]) == 0
        assert calls == sweeps

    def test_memoised_arrays_are_read_only(self):
        g = BipartiteGraph(giant_and_small_components(10))
        A = baselines._adjacency(g)
        arrays = [*baselines._links(g), A.data, A.indices, A.indptr]
        with pytest.warns(DisconnectedGraphWarning):
            bipartite_closeness(g, Side.LEFT)
        bipartite_betweenness(g, Side.LEFT)
        arrays += [a for key, entry in g._memo.items() if "sweep" in key for a in entry]
        assert len(arrays) == 2 + 3 + 2 + 3
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 1


def test_latapy_loads_no_scipy():
    result = fresh_run(["scores", "--dataset", "davis", "--metric", "latapy"])
    assert result["status"] == 0
    assert result["scipy"] == []
