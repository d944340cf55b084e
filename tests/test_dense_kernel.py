"""The dense distance kernel against the scipy.sparse kernel it replaced.

Every float must be the same double, not merely close: the CLI prints six
decimals, and a last-bit change can flip a printed digit.
"""

import numpy as np
import pytest

from hellrank import (
    BipartiteGraph,
    DistanceMode,
    NullModelParams,
    Side,
    distance_matrix,
    hellrank,
    monte_carlo_distance,
    node_distance,
)

from oracles import sparse_kernel

MODES = [DistanceMode.NORMALIZED, DistanceMode.RAW]


def skewed_graph(seed: int, weighted: bool) -> BipartiteGraph:
    """About 150 x 100 nodes with heavy-tailed degrees on both sides, so that
    rows repeat, columns hold many rows, and blocks of 16 split the side."""
    rng = np.random.default_rng(seed)
    n1, n2 = 150, 100
    pull = 1.0 / np.arange(1, n2 + 1) ** 0.8
    pull /= pull.sum()
    edges = []
    for i in range(n1):
        degree = min(int(rng.zipf(2.0)), 40)
        edges += [(f"L{i}", f"R{j}") for j in rng.choice(n2, size=degree, replace=False, p=pull)]
    weights = rng.exponential(1.0, size=len(edges)) + 1e-3 if weighted else None
    return BipartiteGraph(
        edges, weights, isolated_left=["z1", "z2"], isolated_right=[f"R{j}" for j in range(n2)]
    )


def scores_array(scores) -> np.ndarray:
    return np.array([scores[x] for x in scores.scores])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("seed, weighted", [(1, False), (2, False), (3, True), (4, True)])
def test_all_pairs_bit_identical(monkeypatch, seed, weighted, side, mode):
    g = skewed_graph(seed, weighted)
    with monkeypatch.context() as mp:
        sparse_kernel(mp)
        want_scores = scores_array(hellrank(g, side, mode, weighted=weighted))
        want_matrix = distance_matrix(g, side, mode, weighted=weighted).values
    for block in (1, 16, 128, 1024):
        for threads in (1, 4):
            got = hellrank(g, side, mode, weighted=weighted, threads=threads, block=block)
            assert np.array_equal(scores_array(got), want_scores)
        m = distance_matrix(g, side, mode, weighted=weighted, block=block)
        assert np.array_equal(m.values, want_matrix)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("weighted", [False, True])
def test_near_duplicate_pair_bit_identical(monkeypatch, mode, weighted):
    # vectors {1: 3000, 2: 1} and {1: 3001, 2: 1}: the gram form cancels
    edges = [("a", "s"), ("b", "s"), ("c", "t")]
    edges += [("a", f"a{t}") for t in range(3000)]
    edges += [("b", f"b{t}") for t in range(3001)]
    weights = [1.0 + (t % 3) / 4 for t in range(len(edges))] if weighted else None
    g = BipartiteGraph(edges, weights)
    pairs = [("a", "b"), ("b", "a"), ("a", "c")]
    with monkeypatch.context() as mp:
        sparse_kernel(mp)
        want = [node_distance(g, x, y, mode, weighted=weighted) for x, y in pairs]
    got = [node_distance(g, x, y, mode, weighted=weighted) for x, y in pairs]
    assert got == want
    assert got[0] > 0.0


@pytest.mark.parametrize(
    "n1, n2, p, k, samples, seed",
    [(6, 40, 0.15, 6, 103, 1), (12, 60, 0.1, 5, 150, 4), (30, 200, 0.05, 10, 500, 9)],
)
def test_empirical_monte_carlo_bit_identical(monkeypatch, n1, n2, p, k, samples, seed):
    params = NullModelParams(n1, n2, p, k)
    with monkeypatch.context() as mp:
        sparse_kernel(mp)
        want = monte_carlo_distance(params, samples, seed)
    assert monte_carlo_distance(params, samples, seed) == want


def test_rows_with_equal_roots_but_unequal_mass_stay_apart(monkeypatch):
    # sqrt(2.0) == sqrt(2.0000000000000004): the two rows of S are equal, but
    # their raw masses are not, so neither are their distances to "c"
    w = np.nextafter(2.0, 3.0)
    edges = [("a", "1"), ("b", "2"), ("c", "3"), ("c", "4"), ("d", "3")]
    g = BipartiteGraph(edges, [2.0, w, 3.0, 0.7, 1.3])
    with monkeypatch.context() as mp:
        sparse_kernel(mp)
        want = distance_matrix(g, Side.LEFT, DistanceMode.RAW, weighted=True).values
    got = distance_matrix(g, Side.LEFT, DistanceMode.RAW, weighted=True).values
    assert np.array_equal(got, want)
    assert got[0, 2] != got[1, 2]
