import contextlib
import hashlib
import io
import os
import subprocess
import sys
from functools import partial

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    project,
    projected_centrality,
)
from hellrank import baselines
from hellrank import graph as graph_module
from hellrank.baselines import DisconnectedGraphWarning, betweenness_ceiling
from hellrank.cli import run

from oracles import brute_latapy_cc, enumerate_4paths, random_bipartite, scipy_bfs, unfolded_sweep
from test_hellinger import traced_peak
from test_imports import SRC, fresh_run


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


def hub_graphs():
    """Seeded random graphs with isolated nodes, labels shared by both sides
    and hubs of degree 8 or more, whose rows a pairwise sum would add in
    another order."""
    rng = np.random.default_rng(31)
    for n1, n2, p in ((15, 12, 0.15), (40, 30, 0.06), (60, 90, 0.03)):
        names = [str(k) for k in rng.permutation(2 * (n1 + n2))]
        left, right = names[:n1], names[n1 // 2 : n1 // 2 + n2]
        adj = rng.random((n1, n2)) < p
        adj[0, : max(9, n2 // 2)] = True
        adj[: max(8, n1 // 3), -1] = True
        edges = [(left[i], right[j]) for i, j in zip(*np.nonzero(adj))]
        edges = [edges[k] for k in rng.permutation(len(edges))]
        g = BipartiteGraph(edges, isolated_left=["iso"], isolated_right=["iso"])
        assert set(g.left_nodes) & set(g.right_nodes) - {"iso"}
        assert max(len(g.neighbors(x, Side.LEFT)) for x in g.left_nodes) >= 8
        assert max(len(g.neighbors(y, Side.RIGHT)) for y in g.right_nodes) >= 8
        yield g


def scipy_adjacency(graph):
    import scipy.sparse as sp

    indptr, indices = graph._indptr, graph._indices
    n = len(indptr) - 1
    return sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))


def scipy_pagerank(A, config):
    """The module's PageRank iteration with scipy's CSR product."""
    n = A.shape[0]
    deg = np.asarray(A.sum(axis=0)).ravel()
    dangling = deg == 0
    inv = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg))
    r = np.ones(n) / n
    for _ in range(config.max_iterations):
        walked = A @ (r * inv) + r[dangling].sum() / n
        if config.lazy:
            walked = 0.5 * (walked + r)
        nxt = (1.0 - config.damping) / n + config.damping * walked
        err = float(np.abs(nxt - r).sum())
        r = nxt
        if err < config.tolerance:
            return r


def scipy_eigenvector(A, tolerance=1e-10):
    """The module's power iteration on A + I with scipy's CSR product."""
    v = np.ones(A.shape[0]) / np.sqrt(A.shape[0])
    while True:
        w = A @ v + v
        w /= np.sqrt(np.add.reduce(w * w))  # the module's norm, which calls no BLAS
        done = float(np.abs(w - v).max()) < tolerance
        v = w
        if done:
            return np.abs(v)


def side_values(graph, side, scores):
    return np.array([scores[x] for x in graph.nodes(side)])


class TestProductMatchesScipy:
    """PageRank and eigenvector multiply by the adjacency without scipy; every
    float must equal what scipy's CSR product gives."""

    def test_product(self):
        rng = np.random.default_rng(8)
        for g in hub_graphs():
            A = scipy_adjacency(g)
            n = A.shape[0]
            product = baselines._product(g)
            for x in (rng.random(n), rng.standard_normal(n) * 1e3 ** rng.random(n)):
                assert np.array_equal(product(x), A @ x)

    @pytest.mark.parametrize(
        "config", [PageRankConfig(), PageRankConfig(damping=0.5, lazy=True, tolerance=1e-14)]
    )
    def test_pagerank(self, config):
        for g in hub_graphs():
            r = scipy_pagerank(scipy_adjacency(g), config)
            both = pagerank(g, config)
            mine = np.concatenate([side_values(g, s, both[s]) for s in (Side.LEFT, Side.RIGHT)])
            assert np.array_equal(mine, r)

    def test_eigenvector(self):
        for g in hub_graphs():
            v = scipy_eigenvector(scipy_adjacency(g))
            for side in (Side.LEFT, Side.RIGHT):
                lo, hi = baselines._side_range(g, side)
                ref = v[lo:hi] / (v[lo:hi].max() or 1.0)
                assert np.array_equal(side_values(g, side, eigenvector_centrality(g, side)), ref)


EIGENVECTOR_HEX = """
import numpy as np
from hellrank import BipartiteGraph, Side, eigenvector_centrality

# 12,000 left nodes of degree 3 and 9,000 right nodes of degree 4 (fewer where
# a repeated link is dropped): near-regular, so the iteration converges fast
rng = np.random.default_rng(5)
left = np.repeat(np.arange(12000), 3)
right = rng.permutation(np.repeat(np.arange(9000), 4))
g = BipartiteGraph(sorted({(f"a{a}", f"p{b}") for a, b in zip(left.tolist(), right.tolist())}))
for side in (Side.LEFT, Side.RIGHT):
    print(*(v.hex() for v in eigenvector_centrality(g, side).scores.values()))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 cores for 2 BLAS threads")
def test_eigenvector_is_the_same_at_any_blas_thread_count():
    # OpenBLAS splits a dot product of over 10,000 entries across its
    # threads, so a norm through BLAS moved with OPENBLAS_NUM_THREADS
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-c", EIGENVECTOR_HEX],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert len(outputs[0].split()) == 21000
    assert outputs[0] == outputs[1]


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

    @pytest.mark.parametrize("budget", [1, graph_module._BLOCK_ELEMENTS])
    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
    def test_latapy_matches_oracle(self, side, budget, monkeypatch):
        # budget 1 counts the 2-hop walks of one node at a time
        monkeypatch.setattr(graph_module, "_BLOCK_ELEMENTS", budget)
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
        monkeypatch.setattr(graph_module, "_BLOCK_ELEMENTS", request.param)


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


def leaf_heavy_powerlaw():
    """Authors x papers, each author on 1-4 papers drawn with probability
    falling as 1 / rank, so most papers and many authors have degree 1."""
    rng = np.random.default_rng(12)
    papers = 1.0 / np.arange(1, 121)
    papers /= papers.sum()
    edges = []
    for a in range(150):
        picks = rng.choice(120, size=min(rng.geometric(0.6), 4), replace=False, p=papers)
        edges += [(f"a{a}", f"p{j}") for j in picks]
    return BipartiteGraph(edges)


def fold_graphs():
    """Graphs with degree-1 nodes in every position the fold tells apart."""
    yield BipartiteGraph([("hub", str(j)) for j in range(6)])  # a star: all but one are leaves
    yield BipartiteGraph([("a", "1"), ("b", "1"), ("b", "2"), ("c", "2"), ("c", "3")])  # a path
    yield BipartiteGraph([("a", "1"), ("b", "2")], isolated_left=["z"], isolated_right=["y"])
    yield k2_graph()
    yield mixed_fold_graph()
    g = leaf_heavy_powerlaw()
    assert (g._degree == 1).mean() > 0.4
    yield g


def k2_graph():
    """Four K2 components and nothing else."""
    return BipartiteGraph([("a", "1"), ("b", "2"), ("c", "3"), ("d", "4")])


def mixed_fold_graph():
    """21 nodes, of which 8 are kept: a star whose center is dropped with
    its 3 leaves; a path of 6 whose 2 ends are leaves; a K2 component; an
    isolated node on each side; and a hub h with two leaves, linked on to a
    path that ends in the leaf f.  The K2 component is dropped: one end is
    folded into the other."""
    edges = [("s", "s1"), ("s", "s2"), ("s", "s3")]
    edges += [("a", "1"), ("b", "1"), ("b", "2"), ("c", "2"), ("c", "3")]
    edges += [("k", "kk")]
    edges += [("h", "p1"), ("h", "p2"), ("h", "p3"), ("g", "p3"), ("g", "p4"), ("f", "p4")]
    return BipartiteGraph(edges, isolated_left=["z"], isolated_right=["y"])


def swept_csrs(graph):
    """(CSR, how the sweep and the hop count read it) of every sweep and
    hop count the baselines run: the graph through its own CSR, each
    projection through the graph's incidence, and each projection through
    its own CSR as well."""
    yield graph, baselines._Adjacency
    for side in (Side.LEFT, Side.RIGHT):
        proj = project(graph, side)
        yield proj, partial(baselines._Incidence, graph, side)
        yield proj, baselines._Adjacency


def kept_nodes(G):
    """The nodes the fold keeps, from networkx degrees: not a leaf, and with
    a neighbor that is not a leaf.  A leaf has degree 1 and a neighbor of
    degree 2 or more, or of degree 1 and a lower index."""
    def leaf(v):
        if G.degree(v) != 1:
            return False
        (u,) = G[v]
        return G.degree(u) >= 2 or u < v

    return [v for v in G if not leaf(v) and any(not leaf(u) for u in G[v])]


@pytest.mark.usefixtures("block_budget")
class TestDegreeOneFold:
    def test_hop_counts_equal_the_unfolded_sweep(self):
        for g in fold_graphs():
            for csr, through in swept_csrs(g):
                mine = baselines._hops(csr._indptr, csr._indices, through)
                ref = unfolded_sweep(scipy_adjacency(csr), False)
                assert np.array_equal(mine[0], ref[0])
                assert np.array_equal(mine[1], ref[1])

    def test_betweenness_matches_unfolded_sweep_and_networkx(self):
        for g in fold_graphs():
            for csr, through in swept_csrs(g):
                A = scipy_adjacency(csr)
                bc = baselines._sweep(csr._indptr, csr._indices, through)
                np.testing.assert_allclose(bc, unfolded_sweep(A, True)[2], rtol=1e-12, atol=0)
                raw = nx.betweenness_centrality(nx.from_scipy_sparse_array(A), normalized=False)
                np.testing.assert_allclose(bc, [raw[v] for v in range(A.shape[0])],
                                           rtol=1e-12, atol=0)

    def test_one_source_column_per_kept_node(self, monkeypatch):
        columns = []
        for cls in (baselines._Adjacency, baselines._Incidence):
            def counted(self, m, width, blocks=cls.blocks):
                for block in blocks(self, m, width):
                    columns.append(block[1] - block[0])
                    yield block

            monkeypatch.setattr(cls, "blocks", counted)
        g = mixed_fold_graph()
        baselines._sweep(g._indptr, g._indices)
        assert len(g._degree) == 21 and sum(columns) == 8
        columns.clear()
        g = k2_graph()
        bc = baselines._sweep(g._indptr, g._indices)
        reached, total = baselines._hops(g._indptr, g._indices)
        assert columns == []  # every node is a leaf or dropped
        assert (reached == 1).all() and (total == 1).all() and (bc == 0).all()
        for g in fold_graphs():
            for csr, through in swept_csrs(g):
                columns.clear()
                baselines._sweep(csr._indptr, csr._indices, through)
                G = nx.from_scipy_sparse_array(scipy_adjacency(csr))
                assert sum(columns) == len(kept_nodes(G))


def test_bipartite_levels_and_products_equal_scipy():
    # the bipartite graph's BFS and level product against scipy's CSR
    # product, on blocks whose sources run from kept left nodes into
    # kept right nodes; every float must be the same
    import scipy.sparse as sp

    rng = np.random.default_rng(3)
    mixed = 0
    for g in [*fold_graphs(), *hub_graphs()]:
        _, _, _, kept, ptr, col = baselines._fold(g._indptr, g._indices)
        m, left = len(ptr) - 1, np.count_nonzero(kept[: g.n1])  # kept left nodes come first
        A = sp.csr_matrix((np.ones(len(col)), col, ptr), shape=(m, m))
        for width in {max(m, 1), 2, 3, 5}:
            step = baselines._Adjacency(kept, ptr, col, width)
            for lo, hi, levels, sigma in step.blocks(m, width):
                mixed += lo < left < hi
                ref_levels, ref_sigma = scipy_bfs(A, lo, hi)
                assert np.array_equal(sigma.reshape(hi - lo, m), ref_sigma.T)
                assert len(levels) == len(ref_levels)
                for (keys, _), mask in zip(levels, ref_levels):
                    assert np.array_equal(keys, np.flatnonzero(mask.T))
                for into, level in zip(levels, levels[1:]):
                    X = rng.random((m, hi - lo)) * 1e3 ** rng.random((m, hi - lo))
                    got = step.product(into, level, X.T.ravel())
                    assert np.array_equal(got, (A @ X).T.ravel()[into[0]])
    assert mixed >= 5


def expanded_pair_by_pair(ptr, col, n_target, weight, keys):
    """(owner, target, weight) of the pairs ``keys`` of a block, each pair's
    CSR row read in turn and shifted to its own column's target keys."""
    rows = len(ptr) - 1
    links = []
    for i, key in enumerate(keys.tolist()):
        column, node = divmod(key, rows)
        for j in range(ptr[node], ptr[node + 1]):
            links.append((i, column * n_target + col[j], 1 if weight is None else weight[j]))
    return np.array(links, dtype=np.int64).reshape(-1, 3).T


def test_rows_expand_each_pair_into_its_columns_targets(monkeypatch):
    # every CSR a sweep expands: the reduced graph's own, and through the
    # incidence B_K, whose targets are the other side's, and the weighted E
    csrs = []
    rows = baselines._Rows

    def recorded(ptr, col, n_target, width=1, weight=None):
        csrs.append((ptr, col, n_target, weight))
        return rows(ptr, col, n_target, width, weight)

    monkeypatch.setattr(baselines, "_Rows", recorded)
    g = BipartiteGraph(giant_and_small_components(3))
    for csr, through in swept_csrs(g):
        baselines._sweep(csr._indptr, csr._indices, through)
    monkeypatch.undo()
    assert any(n_target != len(ptr) - 1 for ptr, _, n_target, _ in csrs)
    assert any(weight is not None and len(weight) for *_, weight in csrs)
    rng = np.random.default_rng(4)
    for ptr, col, n_target, weight in csrs:
        m = len(ptr) - 1
        for width in sorted({1, 2, 5, m}):
            keys = np.sort(rng.choice(width * m, size=min(width * m, 400), replace=False))
            assert width == 1 or len(np.unique(keys // m)) > 1
            owner, target, w = rows(ptr, col, n_target, width, weight)(keys)
            want = expanded_pair_by_pair(ptr, col, n_target, weight, keys)
            assert np.array_equal(owner, want[0]) and np.array_equal(target, want[1])
            assert w is None if weight is None else np.array_equal(w, want[2])


def cluster_chain() -> BipartiteGraph:
    """40 seeded random clusters of 8 authors and 8 papers, each author on
    its own paper and on each other one with probability 1/2, each cluster
    linked to the one before by one link.  The chain is long, so a block's
    BFS runs up to 110 levels deep and keeps many levels of links."""
    rng = np.random.default_rng(1)
    edges = []
    for c in range(40):
        adj = rng.random((8, 8)) < 0.5
        adj[np.arange(8), np.arange(8)] = True
        edges += [(f"a{c}.{i}", f"p{c}.{j}") for i, j in zip(*np.nonzero(adj))]
        if c:
            edges.append((f"a{c}.0", f"p{c - 1}.{rng.integers(8)}"))
    return BipartiteGraph(edges)


def block_sizes(csr, through) -> tuple[int, int, int]:
    """(width, held, widest) of the sweep of ``csr``: its block width; the
    most bytes that the levels of one block hold, at 8 a key, 4 an owner,
    4 a target and 4 a weight; and the most links of one level."""
    _, _, _, kept, ptr, col = baselines._fold(csr._indptr, csr._indices)
    m = len(ptr) - 1
    width = max(1, min(m, graph_module._BLOCK_ELEMENTS // m))
    held = widest = 0
    for _, _, levels, _ in through(kept, ptr, col, width).blocks(m, width):
        block = 0
        for keys, links in levels:
            parts = links if isinstance(links[0], tuple) else (links,)  # B_K and E, or one CSR
            size = sum(len(owner) for owner, _, _ in parts)
            block += 8 * len(keys) + 8 * size + sum(4 * len(w) for *_, w in parts if w is not None)
            widest = max(widest, size)
        held = max(held, block)
    return width, held, widest


@pytest.mark.parametrize("sweep", ["bipartite", "left", "right"])
def test_sweep_holds_one_block_of_int32_links(sweep, monkeypatch):
    # the traced peak of a betweenness call, over that of the same call
    # with one source a block (the graph's, the fold's and the incidence's
    # arrays), is at most one block's levels, the expansion of one level
    # and its product (up to four 8-byte arrays a link), and six arrays of
    # one float a pair of a block
    g = cluster_chain()
    if sweep == "bipartite":
        csr, through = g, baselines._Adjacency
        call = partial(bipartite_betweenness, g, Side.LEFT)
    else:
        side = Side[sweep.upper()]
        csr, through = project(g, side), partial(baselines._Incidence, g, side)
        call = partial(projected_centrality, g, side, "betweenness")
    width, held, widest = block_sizes(csr, through)
    assert width > 1 and held > 8 * 8 * widest  # a block holds many levels
    budget = graph_module._BLOCK_ELEMENTS
    _, peak = traced_peak(call)
    monkeypatch.setattr(graph_module, "_BLOCK_ELEMENTS", 1)
    _, fixed = traced_peak(call)
    assert peak - fixed < held + 4 * 8 * widest + 6 * 8 * budget


@st.composite
def hop_graphs(draw):
    """A bipartite graph of a random core, stars, K2 components, isolated
    nodes on both sides and brooms: a hub whose spokes each carry k leaves,
    so that its 63-65 or 127-129 spokes are kept sources with one fold count
    k, and words and blocks split at their edges."""
    n1, n2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    pair = st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1))
    edges = [(f"c{i}", f"C{j}") for i, j in draw(st.lists(pair, max_size=20))]
    for s, size in enumerate(draw(st.lists(st.integers(1, 5), max_size=3))):
        edges += [(f"s{s}", f"S{s}.{j}") for j in range(size)]
    edges += [(f"k{i}", f"K{i}") for i in range(draw(st.integers(0, 3)))]
    sizes = st.sampled_from([63, 64, 65, 127, 128, 129])
    for b, (spokes, k, flip) in enumerate(draw(st.lists(
            st.tuples(sizes, st.integers(1, 2), st.booleans()), max_size=2))):
        broom = [(f"h{b}", f"H{b}.{i}") for i in range(spokes)]
        broom += [(f"l{b}.{i}.{j}", f"H{b}.{i}") for i in range(spokes) for j in range(k)]
        edges += [(v, u) for u, v in broom] if flip else broom
    isolated = [[f"i{j}" for j in range(draw(st.integers(0, 2)))] for _ in range(2)]
    return BipartiteGraph(edges, isolated_left=isolated[0], isolated_right=isolated[1])


@settings(max_examples=40, deadline=None)
@given(hop_graphs())
def test_hops_equal_the_unfolded_sweep(g):
    budget = graph_module._BLOCK_ELEMENTS
    try:
        for csr, through in swept_csrs(g):
            ref = unfolded_sweep(scipy_adjacency(csr), False)[:2]
            for size in (1, 100, budget):
                graph_module._BLOCK_ELEMENTS = size
                mine = baselines._hops(csr._indptr, csr._indices, through)
                assert all(np.array_equal(a, b) for a, b in zip(mine, ref))
    finally:
        graph_module._BLOCK_ELEMENTS = budget


@st.composite
def projection_graphs(draw):
    """A bipartite graph of a random core, pairs of nodes on either side that
    share 2-4 neighbors (so that the projection's co-occurrence counts
    exceed 1), stars, K2 components, isolated nodes on both sides and at
    most one broom."""
    n1, n2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    pair = st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1))
    edges = [(f"c{i}", f"C{j}") for i, j in draw(st.lists(pair, max_size=24))]
    for s, (shared, right, (i, j), (x, y)) in enumerate(draw(st.lists(
            st.tuples(st.integers(2, 4), st.booleans(), pair, pair), max_size=3))):
        # p and q share `shared` new neighbors, and each has one more in the
        # core, so that a shortest path can run from p's through q to q's
        if right:
            edges += [(f"t{s}.{k}", f"{end}{s}") for end in "PQ" for k in range(shared)]
            edges += [(f"c{i}", f"P{s}"), (f"c{x}", f"Q{s}")]
        else:
            edges += [(f"{end}{s}", f"T{s}.{k}") for end in "pq" for k in range(shared)]
            edges += [(f"p{s}", f"C{j}"), (f"q{s}", f"C{y}")]
    for s, size in enumerate(draw(st.lists(st.integers(1, 5), max_size=3))):
        edges += [(f"s{s}", f"S{s}.{j}") for j in range(size)]
    edges += [(f"k{i}", f"K{i}") for i in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        # a broom as in hop_graphs: its 63-65 spokes are a projected clique
        # of kept nodes, so a block of sources spans one or two 64-bit words,
        # and each spoke has a leaf whose pairs count the spoke's reach
        spokes, flip = draw(st.sampled_from([63, 64, 65])), draw(st.booleans())
        broom = [(u, f"H{i}") for i in range(spokes) for u in ("h", f"l{i}")]
        broom += [(f"l{i}", f"R{i}") for i in range(spokes)]
        edges += [(v, u) for u, v in broom] if flip else broom
    isolated = [[f"i{j}" for j in range(draw(st.integers(0, 2)))] for _ in range(2)]
    return BipartiteGraph(edges, isolated_left=isolated[0], isolated_right=isolated[1])


@settings(max_examples=60, deadline=None)
@given(projection_graphs())
def test_projected_betweenness_matches_networkx(g):
    # the sweep through the incidence, B_K (B_Kᵀ x) - E x, against networkx
    # on the projection, and the same bits under every block budget; the hop
    # counts through the incidence equal those over the projection's CSR
    budget = graph_module._BLOCK_ELEMENTS
    G, _ = to_networkx(g)
    try:
        for side in (Side.LEFT, Side.RIGHT):
            proj = project(g, side)
            values = []
            for size in (1, 100, 8192):
                graph_module._BLOCK_ELEMENTS = size
                through = partial(baselines._Incidence, g, side)
                values.append(baselines._sweep(proj._indptr, proj._indices, through))
                hops = baselines._hops(proj._indptr, proj._indices, through)
                own = baselines._hops(proj._indptr, proj._indices)
                assert all(np.array_equal(a, b) for a, b in zip(hops, own))
            assert all(np.array_equal(values[0], v) for v in values[1:])
            raw = nx.betweenness_centrality(nxb.projected_graph(G, side_nodes(g, side)[1]),
                                            normalized=False)
            ref = [raw[v] for v in side_nodes(g, side)[1]]
            np.testing.assert_allclose(values[0], ref, rtol=1e-12, atol=0)
    finally:
        graph_module._BLOCK_ELEMENTS = budget


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
    """The sweep-based scores of a graph: each graph's own values, whatever
    the call order and the block size, and a BFS sweep only for betweenness."""

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
        for budget in (1, 100, graph_module._BLOCK_ELEMENTS, 65536):
            monkeypatch.setattr(graph_module, "_BLOCK_ELEMENTS", budget)
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
            monkeypatch.setattr(graph_module, "_BLOCK_ELEMENTS", budget)
            with pytest.warns(DisconnectedGraphWarning):
                assert run(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_betweenness_runs_no_hop_count(self, monkeypatch):
        # the sweep's own BFS gives the reach of its closed-form leaf pairs;
        # the graph's digest is of the values when that reach came from
        # _hops, and the projections' are of their sweeps through the graph's
        # incidence, within 3.1e-16 relative of their sweeps with scipy's
        # product of the projection
        calls = []
        hops = baselines._hops
        monkeypatch.setattr(baselines, "_hops", lambda *args: calls.append(args) or hops(*args))
        g = BipartiteGraph(giant_and_small_components(9))
        sweeps = [(g, baselines._Adjacency)]
        sweeps += [(project(g, side), partial(baselines._Incidence, g, side))
                   for side in (Side.LEFT, Side.RIGHT)]
        digests = [hashlib.sha256(baselines._sweep(c._indptr, c._indices, through).tobytes())
                   .hexdigest()[:16] for c, through in sweeps]
        assert calls == []
        assert digests == ["e1b8526d75cae2ba", "ed7ddd25bf85c488", "512800fec7397102"]

    @pytest.mark.parametrize("metric", ["all", "closeness2", "closeness1"])
    def test_only_betweenness_sweeps(self, metric, tmp_path, monkeypatch):
        # closeness takes its hop counts from _hops; `all` sweeps the graph and
        # its left projection once each, for their betweenness
        edges = giant_and_small_components(9)
        path = tmp_path / "edges.tsv"
        path.write_text("".join(f"{u}\t{v}\n" for u, v in edges))
        sizes = []
        sweep = baselines._sweep

        def counted(indptr, indices, *through):
            sizes.append(len(indptr) - 1)
            return sweep(indptr, indices, *through)

        monkeypatch.setattr(baselines, "_sweep", counted)
        with pytest.warns(DisconnectedGraphWarning), contextlib.redirect_stdout(io.StringIO()):
            assert run(["scores", "--input", str(path), "--metric", metric]) == 0
        g = BipartiteGraph(edges)
        assert sizes == ([g.n1 + g.n2, g.n1] if metric == "all" else [])


def test_latapy_loads_no_scipy():
    result = fresh_run(["scores", "--dataset", "davis", "--metric", "latapy"])
    assert result["status"] == 0
    assert result["scipy"] == []
