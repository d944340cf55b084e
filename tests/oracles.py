"""Independent brute-force reference implementations used only by tests.

Everything here is deliberately naive: dense vectors, explicit pair loops,
exhaustive path enumeration.  Nothing imports from the production distance
or clustering code paths beyond the graph container itself.  The exception
are the last two sections: a copy of the scipy.sparse distance kernel that
the dense kernel must match bit for bit, and a copy of the BFS sweep from
before degree-1 folding, with scipy's CSR product, whose hop counts the
folded sweep must match.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from hellrank import graph as graph_module
from hellrank.graph import BipartiteGraph, Side, _frozen


def max_degree(graph: BipartiteGraph) -> int:
    return max(
        (graph.degree(x, s) for s in (Side.LEFT, Side.RIGHT) for x in graph.nodes(s)),
        default=0,
    )


def dense_neighbor_degree_vector(
    graph: BipartiteGraph, node: str, side: Side, top: int, weighted: bool = False
) -> list[float]:
    """``top``: the graph's ``max_degree``, computed once by the caller."""
    vec = [0.0] * max(top, 1)
    for nb in graph.neighbors(node, side):
        link = (node, nb) if side is Side.LEFT else (nb, node)
        vec[graph.degree(nb, side.other) - 1] += graph.link_weight(*link) if weighted else 1.0
    return vec


def dense_distance(p: list[float], q: list[float], normalized: bool) -> float:
    if normalized:
        sp, sq = sum(p), sum(q)
        p = [v / sp for v in p] if sp else p
        q = [v / sq for v in q] if sq else q
        factor = 1.0 / math.sqrt(2)
    else:
        factor = 1.0
    return factor * math.sqrt(sum((math.sqrt(a) - math.sqrt(b)) ** 2 for a, b in zip(p, q)))


def brute_distance(
    graph: BipartiteGraph, x: str, y: str, side: Side, normalized: bool, weighted: bool = False
) -> float:
    top = max_degree(graph)
    p = dense_neighbor_degree_vector(graph, x, side, top, weighted)
    q = dense_neighbor_degree_vector(graph, y, side, top, weighted)
    return dense_distance(p, q, normalized)


def brute_hellrank(graph: BipartiteGraph, side: Side, normalized: bool) -> dict[str, float]:
    nodes = list(graph.nodes(side))
    n = len(nodes)
    top = max_degree(graph)
    vectors = [dense_neighbor_degree_vector(graph, x, side, top) for x in nodes]
    out = {}
    for x, p in zip(nodes, vectors):
        total = sum(dense_distance(p, q, normalized) for q in vectors)
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
    monte_carlo_distance, batch by batch with its batch size: each graph's
    reference degree, redrawn until it is k; each graph's k reference
    neighbors; then the number of the batch's other edges and their cells,
    numbered row by row over the other n1 - 1 rows of each graph in turn.
    """
    from hellrank.nullmodel import _BATCH_CELLS

    rng = np.random.default_rng(seed)
    graphs = -(-samples // (n1 - 1))
    batch = max(1, _BATCH_CELLS // (n1 * max(n2, n1 + 1)))
    out: list[list[float]] = []
    for lo in range(0, graphs, batch):
        b = min(batch, graphs - lo)
        for _ in range(b):
            while rng.binomial(n2, p) != k:
                pass
        adj = np.zeros((b, n1, n2), dtype=bool)
        for g in range(b):
            adj[g, 0, rng.choice(n2, k, replace=False, shuffle=False)] = True
        cells = b * (n1 - 1) * n2
        others = np.zeros(cells, dtype=bool)
        others[rng.choice(cells, rng.binomial(cells, p), replace=False, shuffle=False)] = True
        adj[:, 1:, :] = others.reshape(b, n1 - 1, n2)
        for g in range(b):
            graph = bipartite_from_matrix(adj[g])
            out.append(
                [brute_distance(graph, "L0", f"L{i}", Side.LEFT, False) for i in range(1, n1)]
            )
    return np.concatenate(out)[:samples]


def gammaln_moments(
    n2: int, p: float, k: int, cutoff: int | None = None
) -> tuple[float, float, float]:
    """(mean, second moment, variance) of expected_distance_moments, summed
    as it sums them but with scipy's gammaln in the Poisson pmf."""
    from scipy.special import gammaln

    lam = n2 * p
    i = np.arange(1, (cutoff or n2) + 1, dtype=float)
    pmf = np.exp(-lam + i * math.log(lam) - gammaln(i + 1.0))
    d2 = np.maximum(k + i - 2.0 * np.sqrt(k * i), 0.0)
    m2 = float(np.sum(pmf * d2))
    m1 = float(np.sum(pmf * np.sqrt(d2)))
    return m1, m2, max(m2 - m1 * m1, 0.0)


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


def dict_csr(labels, pairs, weights=None):
    """(indptr, indices, degree, weights or None) of the symmetric CSR of the
    links labels[i] -- labels[j] for (i, j) in ``pairs``, built from dicts:
    row i lists its distinct neighbors in sorted label order, and a repeated
    link's weights are added in pair order from 0.0."""
    rows = [{} for _ in labels]
    for k, (i, j) in enumerate(pairs):
        w = 1.0 if weights is None else weights[k]
        rows[i][j] = rows[i].get(j, 0.0) + w
        rows[j][i] = rows[j].get(i, 0.0) + w
    indptr, indices, summed = [0], [], []
    for row in rows:
        for j in sorted(row, key=labels.__getitem__):
            indices.append(j)
            summed.append(row[j])
        indptr.append(len(indices))
    return (np.array(indptr), np.array(indices, dtype=np.int64), np.diff(indptr),
            None if weights is None else np.array(summed))


def dict_bipartite(edges, weights=None, isolated_left=(), isolated_right=()):
    """(left nodes, right nodes, *dict_csr) of ``BipartiteGraph(edges, weights,
    isolated_left, isolated_right)``: each side numbered first seen first,
    isolated nodes last, left rows before right rows."""
    left, right = {}, {}
    for u, v in edges:
        left.setdefault(u, len(left))
        right.setdefault(v, len(right))
    for u in isolated_left:
        left.setdefault(u, len(left))
    for v in isolated_right:
        right.setdefault(v, len(right))
    pairs = [(left[u], len(left) + right[v]) for u, v in edges]
    return (tuple(left), tuple(right), *dict_csr(tuple(left) + tuple(right), pairs, weights))


# -- the dense kernel's distinct rows and gram blocks, by loops ---------------


def sqrt_mass_rows(C: np.ndarray, totals: np.ndarray, normalized: bool) -> np.ndarray:
    """A new array of sqrt(C[i, j] / totals[i]) (normalized) or sqrt(C[i, j])
    at each nonzero count, 0.0 elsewhere; Python's / and math.sqrt round as
    numpy's do."""
    S = np.zeros(C.shape)
    for (i, j), x in np.ndenumerate(C):
        if x:
            S[i, j] = math.sqrt(x / totals[i] if normalized else x)
    return S


def dict_unique_rows(S: np.ndarray, masses: np.ndarray):
    """(U, mu, inverse, counts) of ``_unique_rows`` from a dict keyed on
    (row bytes, mass), numbered by first sight."""
    first: dict = {}
    inverse = np.array(
        [first.setdefault((row.tobytes(), float(m)), len(first)) for row, m in zip(S, masses)],
        dtype=np.int64,
    )
    keep = np.unique(inverse, return_index=True)[1]
    return S[keep], masses[keep], inverse, np.bincount(inverse)


def column_gram(S: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """S[lo:hi] @ S.T with one scatter per column, ascending: each entry
    receives its columns' products in the order the dense kernel adds them."""
    u = S.shape[0]
    g = np.zeros((hi - lo, u))
    flat = g.reshape(-1)
    for col in S.T:
        J = np.flatnonzero(col)
        I = J[(J >= lo) & (J < hi)]
        if len(I):
            flat[((I - lo) * u)[:, None] + J] += np.multiply.outer(col[I], col[J])
    return g


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


def sparse_block_distances(S, masses, lo, hi, coef, columns=None):
    # columns is the dense kernel's column index, which this kernel has none of
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
        "_columns": lambda S: None,
    }
    for name, fn in swaps.items():
        monkeypatch.setattr(hellinger, name, fn)
    # nullmodel imported these three by name
    for name in ("_count_matrix", "_sqrt_mass_matrix", "_sq_diff"):
        monkeypatch.setattr(nullmodel, name, swaps[name])


# -- the BFS sweep before degree-1 folding ------------------------------------
#
# ``hellrank.baselines._sweep`` folds the leaves out and adds them back in
# closed form; this is the sweep it replaced, one BFS column per node.  Its
# reached and total must come out equal, and its betweenness within 1e-12.


def scipy_bfs(A, lo: int, hi: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Level masks and shortest-path counts from the sources lo..hi-1 of the
    scipy CSR ``A``, one column per source, one sparse product per level."""
    cols = np.arange(hi - lo)
    sigma = np.zeros((A.shape[0], hi - lo))
    sigma[lo + cols, cols] = 1.0
    levels = [sigma > 0]
    frontier = sigma
    while True:
        reach = A @ frontier
        new = (reach > 0) & (sigma == 0)
        if not new.any():
            return levels, sigma
        frontier = reach * new
        sigma += frontier
        levels.append(new)


def unfolded_sweep(A, betweenness: bool) -> tuple[np.ndarray, ...]:
    """Per node of the symmetric CSR ``A``: the number of other nodes it
    reaches and the sum of its hop distances to them; with ``betweenness``,
    also its unweighted betweenness (endpoints excluded, each pair counted
    once).

    One BFS per block of sources gives all three.  Betweenness sums Brandes
    (2001) dependencies, accumulated level by level from the deepest: a node
    at level l-1 collects sigma_v / sigma_w * (1 + delta_w) from each
    neighbor w at level l.  Each source's dependencies are added in source
    order, one source at a time, so no bit of the result depends on how the
    sources were blocked.
    """
    n = A.shape[0]
    reached = np.zeros(n, dtype=np.int64)
    total = np.zeros(n, dtype=np.int64)
    bc = np.zeros(n)
    ones = np.ones(n)
    step = max(1, graph_module._BLOCK_ELEMENTS // max(n, 1))  # the budget _co_occurrences reads
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        levels, sigma = scipy_bfs(A, lo, hi)
        for level in range(1, len(levels)):
            # a product counts a level's nodes several times faster than .sum(axis=0)
            count = (ones @ levels[level]).astype(np.int64)
            reached[lo:hi] += count
            total[lo:hi] += level * count
        if not betweenness:
            continue
        divisor = np.where(sigma > 0, sigma, 1.0)
        delta = np.zeros(sigma.shape)
        for level in range(len(levels) - 1, 1, -1):
            share = (1.0 + delta) * levels[level] / divisor
            delta += levels[level - 1] * sigma * (A @ share)
        for column in delta.T:
            bc += column
    out = (reached, total, bc / 2.0)[: 2 + betweenness]
    for values in out:
        _frozen(values)
    return out
