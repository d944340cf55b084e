"""Independent brute-force reference implementations used only by tests.

Everything here is deliberately naive: dense vectors, explicit pair loops,
exhaustive path enumeration.  Nothing imports from the production distance
or clustering code paths beyond the graph container itself.  The exception
is the last section, a copy of the scipy.sparse distance kernel that the
dense kernel must match bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from hellrank.graph import BipartiteGraph, Side


def dense_neighbor_degree_vector(
    graph: BipartiteGraph, node: str, side: Side, weighted: bool = False
) -> list[float]:
    top = 0
    for s in (Side.LEFT, Side.RIGHT):
        for x in graph.nodes(s):
            top = max(top, graph.degree(x, s))
    vec = [0.0] * max(top, 1)
    for nb in graph.neighbors(node, side):
        link = (node, nb) if side is Side.LEFT else (nb, node)
        vec[graph.degree(nb, side.other) - 1] += graph.link_weight(*link) if weighted else 1.0
    return vec


def brute_distance(
    graph: BipartiteGraph, x: str, y: str, side: Side, normalized: bool, weighted: bool = False
) -> float:
    p = dense_neighbor_degree_vector(graph, x, side, weighted)
    q = dense_neighbor_degree_vector(graph, y, side, weighted)
    if normalized:
        sp, sq = sum(p), sum(q)
        p = [v / sp for v in p] if sp else p
        q = [v / sq for v in q] if sq else q
        factor = 1.0 / math.sqrt(2)
    else:
        factor = 1.0
    return factor * math.sqrt(sum((math.sqrt(a) - math.sqrt(b)) ** 2 for a, b in zip(p, q)))


def brute_hellrank(graph: BipartiteGraph, side: Side, normalized: bool) -> dict[str, float]:
    nodes = list(graph.nodes(side))
    n = len(nodes)
    out = {}
    for x in nodes:
        total = sum(brute_distance(graph, x, z, side, normalized) for z in nodes)
        out[x] = n / total if total > 0 else 1.0
    return out


def enumerate_4paths(graph: BipartiteGraph) -> tuple[int, int]:
    """Count simple 5-node paths and those whose ends share an outside neighbor."""
    adjacency: dict[str, set[str]] = {}
    for side in (Side.LEFT, Side.RIGHT):
        for x in graph.nodes(side):
            adjacency[("L" if side is Side.LEFT else "R") + x] = {
                ("R" if side is Side.LEFT else "L") + nb for nb in graph.neighbors(x, side)
            }
    paths = 0
    closed = 0

    def extend(path: list[str]):
        nonlocal paths, closed
        if len(path) == 5:
            paths += 1
            shared = (adjacency[path[0]] & adjacency[path[4]]) - set(path[1:4])
            if shared:
                closed += 1
            return
        for nxt in adjacency[path[-1]]:
            if nxt not in path:
                extend(path + [nxt])

    for start in adjacency:
        extend([start])
    # each undirected path was found from both ends
    assert paths % 2 == 0 and closed % 2 == 0
    return paths // 2, closed // 2


def brute_latapy_cc(graph: BipartiteGraph, side: Side) -> dict[str, float]:
    """Mean Jaccard overlap of each node's neighborhood with those of its
    2-hop same-side neighbors, from explicit sets; 0 without 2-hop neighbors."""
    scores = {}
    for u in graph.nodes(side):
        nu = set(graph.neighbors(u, side))
        two_hop = set()
        for mid in nu:
            two_hop.update(graph.neighbors(mid, side.other))
        two_hop.discard(u)
        overlaps = []
        for v in sorted(two_hop):
            nv = set(graph.neighbors(v, side))
            overlaps.append(len(nu & nv) / len(nu | nv))
        scores[u] = sum(overlaps) / len(overlaps) if overlaps else 0.0
    return scores


def brute_kendall_tau_a(x, y) -> float:
    n = len(x)
    concordant = discordant = 0
    for i, j in itertools.combinations(range(n), 2):
        s = (x[i] - x[j]) * (y[i] - y[j])
        if s > 0:
            concordant += 1
        elif s < 0:
            discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


def blocked_kendall_counts(x, y, block: int = 2048) -> tuple[int, int, int, int]:
    """(concordant, discordant, ties_x, ties_y) pair counts from the signs of
    every pair's differences, compared block by block in O(n^2)."""
    x = np.asarray(x)
    y = np.asarray(y)
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for lo in range(0, n, block):
        dx = np.sign(x[lo : lo + block, None] - x[None, :])
        dy = np.sign(y[lo : lo + block, None] - y[None, :])
        prod = dx * dy
        # restrict to i < j
        upper = np.arange(n)[None, :] > np.arange(lo, min(lo + block, n))[:, None]
        concordant += int(np.count_nonzero((prod > 0) & upper))
        discordant += int(np.count_nonzero((prod < 0) & upper))
        ties_x += int(np.count_nonzero((dx == 0) & upper))
        ties_y += int(np.count_nonzero((dy == 0) & upper))
    return concordant, discordant, ties_x, ties_y


def poisson_hellinger_sq_series(
    k1: float, lam1: float, k2: float, lam2: float, terms: int = 2000
) -> float:
    """0.5 * sum_i (sqrt(k1 * pmf1_i) - sqrt(k2 * pmf2_i))^2, truncated."""
    from scipy.stats import poisson

    i = np.arange(terms)
    p = k1 * poisson.pmf(i, lam1)
    q = k2 * poisson.pmf(i, lam2)
    return float(0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2))


def sample_model_distances(n1: int, n2: int, p: float, k: int, samples: int, seed: int) -> np.ndarray:
    """Limit-model distance draws: degrees from G(n1,n2,p), distance k,i -> d.

    A designated reference node is rejection-sampled to degree k; the other
    n1-1 node degrees stay unconditioned Binomial(n2, p).
    """
    rng = np.random.default_rng(seed)
    out: list[np.ndarray] = []
    count = 0
    while count < samples:
        if int(rng.binomial(n2, p)) != k:
            continue
        deg = rng.binomial(n2, p, size=n1 - 1).astype(float)
        d = np.sqrt(np.maximum(k + deg - 2.0 * np.sqrt(k * deg), 0.0))
        out.append(d)
        count += len(d)
    return np.concatenate(out)[:samples]


def empirical_mc_distances(
    n1: int, n2: int, p: float, k: int, samples: int, seed: int
) -> np.ndarray:
    """Raw-mode distances from a degree-k reference node to the other left
    nodes of G(n1, n2, p) draws, scored by brute_distance on string-labelled
    graphs.

    Draws the same random numbers in the same order as the empirical
    monte_carlo_distance: a one-row reference draw, repeated until its degree
    is k, then the other n1 - 1 rows.
    """
    rng = np.random.default_rng(seed)
    out: list[list[float]] = []
    count = 0
    while count < samples:
        row = rng.random((1, n2)) < p
        if int(row.sum()) != k:
            continue
        graph = bipartite_from_matrix(np.vstack([row, rng.random((n1 - 1, n2)) < p]))
        out.append([brute_distance(graph, "L0", f"L{i}", Side.LEFT, False) for i in range(1, n1)])
        count += n1 - 1
    return np.concatenate(out)[:samples]


def random_bipartite(rng: np.random.Generator, n1: int, n2: int, p: float) -> BipartiteGraph:
    return bipartite_from_matrix(rng.random((n1, n2)) < p)


def bipartite_from_matrix(adj: np.ndarray) -> BipartiteGraph:
    """Left node Li -- right node Rj wherever adj[i, j]; every node is kept."""
    n1, n2 = adj.shape
    edges = [(f"L{i}", f"R{j}") for i, j in zip(*np.nonzero(adj))]
    return BipartiteGraph(
        edges,
        isolated_left=[f"L{i}" for i in range(n1)],
        isolated_right=[f"R{j}" for j in range(n2)],
    )


# -- the scipy.sparse distance kernel that the dense one replaced ------------
#
# The dense kernel in hellrank.hellinger must reproduce these functions to the
# last bit.  ``sparse_kernel`` swaps them in for the dense ones, so the same
# hellrank / distance_matrix / node_distance / monte_carlo_distance code runs
# on either kernel and the two results can be compared with np.array_equal.


def sparse_count_matrix(rows, degrees, weights, n):
    import scipy.sparse as sp

    values, cols = np.unique(degrees, return_inverse=True)
    return sp.csr_matrix((weights, (rows, cols)), shape=(n, max(len(values), 1)))


def sparse_sqrt_mass_matrix(C, mode):
    import scipy.sparse as sp

    from hellrank.hellinger import DistanceMode

    totals = np.asarray(C.sum(axis=1)).ravel()
    if mode is DistanceMode.RAW:
        return C.sqrt(), totals, 1.0
    mass = C.data / np.repeat(totals, np.diff(C.indptr))
    S = sp.csr_matrix((np.sqrt(mass), C.indices, C.indptr), shape=C.shape)
    return S, (totals > 0).astype(float), 0.5


def sparse_unique_rows(S, masses):
    first: dict = {}
    inverse = np.empty(S.shape[0], dtype=np.int64)
    for i in range(S.shape[0]):
        a, b = S.indptr[i], S.indptr[i + 1]
        key = (S.indices[a:b].tobytes(), S.data[a:b].tobytes(), float(masses[i]))
        inverse[i] = first.setdefault(key, len(first))
    keep = np.unique(inverse, return_index=True)[1]
    return S[keep], masses[keep], inverse, np.bincount(inverse)


def sparse_sq_diff(S, a, b, coef):
    diff = S[a] - S[b]
    return coef * np.asarray(diff.multiply(diff).sum(axis=1)).ravel()


def sparse_block_distances(S, masses, lo, hi, coef):
    gram = (S[lo:hi] @ S.T).toarray()
    d2 = coef * (masses[lo:hi, None] + masses[None, :] - 2.0 * gram)
    diag = np.arange(hi - lo)
    d2[diag, lo + diag] = 0.0
    r, j = np.nonzero(d2 < 1e-9 * (masses[lo:hi, None] + masses[None, :] + 1.0))
    off = lo + r != j
    r, j = r[off], j[off]
    if len(r):
        d2[r, j] = sparse_sq_diff(S, lo + r, j, coef)
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


def sparse_kernel(monkeypatch) -> None:
    """Run the sparse kernel above wherever the package runs its own."""
    from hellrank import hellinger, nullmodel

    swaps = {
        "_count_matrix": sparse_count_matrix,
        "_sqrt_mass_matrix": sparse_sqrt_mass_matrix,
        "_unique_rows": sparse_unique_rows,
        "_sq_diff": sparse_sq_diff,
        "_block_distances": sparse_block_distances,
    }
    for name, fn in swaps.items():
        monkeypatch.setattr(hellinger, name, fn)
    # nullmodel imported these three by name
    for name in ("_count_matrix", "_sqrt_mass_matrix", "_block_distances"):
        monkeypatch.setattr(nullmodel, name, swaps[name])
