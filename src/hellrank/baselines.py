"""Comparison centralities: bipartite degree/closeness/betweenness, PageRank,
eigenvector, the pairwise clustering coefficient, the global 4-path clustering
ratio, and the projected one-mode variants."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import BipartiteGraph, Side, UnipartiteGraph, project
from .scores import CentralityScores

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "PageRankConfig",
    "bipartite_degree",
    "bipartite_closeness",
    "bipartite_betweenness",
    "betweenness_ceiling",
    "eigenvector_centrality",
    "pagerank",
    "latapy_cc",
    "latapy_pair_cc",
    "opsahl_cc",
    "opsahl_path_counts",
    "projected_centrality",
]


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class DisconnectedGraphWarning(UserWarning):
    pass


@dataclass(frozen=True)
class PageRankConfig:
    damping: float = 0.85
    tolerance: float = 1e-10
    max_iterations: int = 1000
    # Average the walk with staying put.  The fixed point equals the plain
    # chain's at damping d/(2-d); useful because it reproduces published
    # rankings computed with oscillation-damped iterations on bipartite graphs.
    lazy: bool = False

    def __post_init__(self):
        if not 0 < self.damping < 1:
            raise ValueError(f"damping must be in (0,1), got {self.damping}")
        if self.tolerance <= 0 or self.max_iterations < 1:
            raise ValueError("tolerance must be > 0 and max_iterations >= 1")


# -- adjacency and breadth-first search --------------------------------------

# Elements per dense (nodes x sources) array of one BFS block; the block's
# source count follows from the node count.  Kept small: on a 1,300-node
# graph, 8x the budget raised the peak RSS of `scores --metric all` by about
# 4.5 MB (7%) and ran no faster.  Also the number of 2-hop walks
# `latapy_cc` counts at a time.
_BLOCK_ELEMENTS = 8192


def _memo(graph: BipartiteGraph, key, build):
    """``build()``, computed once per graph and kept on it under ``key``.

    A graph never changes, so an entry is never invalidated.  Two threads
    that miss at once both build the same value, and either one is kept.
    """
    if key not in graph._memo:
        graph._memo[key] = build()
    return graph._memo[key]


def _csr(lists) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the square 0/1 matrix whose row i holds the
    column indices ``lists[i]``."""
    indptr = np.cumsum([0] + [len(a) for a in lists])
    indices = np.fromiter((j for a in lists for j in a), dtype=np.int64, count=indptr[-1])
    return indptr, indices


def _scipy_csr(indptr: np.ndarray, indices: np.ndarray) -> sp.csr_matrix:
    # imported here, so that the Hellinger kernel's commands never load scipy
    import scipy.sparse as sp

    n = len(indptr) - 1
    return sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))


def _links(graph: BipartiteGraph) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the symmetric adjacency of both sides: the left
    nodes, then the right."""

    def build():
        labels = [(Side.LEFT, x) for x in graph.left_nodes] + [
            (Side.RIGHT, y) for y in graph.right_nodes
        ]
        index = {key: i for i, key in enumerate(labels)}
        arrays = _csr(
            [[index[(side.other, nb)] for nb in graph.neighbors(x, side)] for side, x in labels]
        )
        for a in arrays:
            a.flags.writeable = False  # shared by every caller through the memo
        return arrays

    return _memo(graph, "links", build)


def _adjacency(graph: BipartiteGraph) -> sp.csr_matrix:
    """``_links`` as a scipy CSR matrix."""

    def build():
        A = _scipy_csr(*_links(graph))
        for a in (A.data, A.indices, A.indptr):
            a.flags.writeable = False  # shared by every caller through the memo
        return A

    return _memo(graph, "adjacency", build)


def _side_range(graph: BipartiteGraph, side: Side) -> tuple[int, int]:
    """The side's node positions in ``_adjacency``: lo..hi-1."""
    return (0, graph.n1) if side is Side.LEFT else (graph.n1, graph.n1 + graph.n2)


def _on_side(graph: BipartiteGraph, values: np.ndarray, side: Side) -> dict[str, float]:
    """{label: value} for one side's nodes, ``values`` in ``_adjacency``'s order."""
    lo, hi = _side_range(graph, side)
    return dict(zip(graph.nodes(side), values[lo:hi].tolist()))


def _bfs(A: sp.csr_matrix, lo: int, hi: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Level masks and shortest-path counts from the sources lo..hi-1, one
    column per source: ``levels[l]`` marks the nodes at hop distance l.

    All sources advance one level per sparse product: the path counts of a
    level's nodes, summed over their neighbors, are the counts of the next
    level's nodes.
    """
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


def _sweep(A: sp.csr_matrix, betweenness: bool) -> tuple[np.ndarray, ...]:
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
    step = max(1, _BLOCK_ELEMENTS // max(n, 1))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        levels, sigma = _bfs(A, lo, hi)
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
        values.setflags(write=False)  # shared by every caller through the memo
    return out


def _swept(graph: BipartiteGraph, key, adjacency, betweenness: bool) -> tuple[np.ndarray, ...]:
    """``_sweep(adjacency(), ...)``, memoised on ``graph`` under ``key``.

    A caller without ``betweenness`` reads a full sweep if one is there, and
    otherwise runs and keeps one without the dependency accumulation.
    """
    if betweenness or key in graph._memo:
        return _memo(graph, key, lambda: _sweep(adjacency(), betweenness=True))
    return _memo(graph, (key, "hops"), lambda: _sweep(adjacency(), betweenness=False))


def _closeness_values(
    reached: np.ndarray, total: np.ndarray, numerators: np.ndarray, warn_label: str
) -> np.ndarray:
    """normalizer / distance-sum per node, with reachable-fraction scaling
    when the graph is disconnected."""
    n = len(reached)
    if (reached < n - 1).any():
        warnings.warn(
            f"{warn_label}: graph is disconnected; closeness restricted to "
            "reachable nodes and scaled by the reachable fraction",
            DisconnectedGraphWarning,
        )
    out = np.zeros(n)
    some = total > 0
    out[some] = reached[some] / (n - 1) * numerators[some] / total[some]
    return out


# -- bipartite measures ------------------------------------------------------


def bipartite_degree(graph: BipartiteGraph, side: Side) -> CentralityScores:
    """Degree divided by the size of the opposite side."""
    other = graph.n2 if side is Side.LEFT else graph.n1
    if other == 0:
        raise ValueError("opposite side is empty")
    return CentralityScores(
        side=side,
        metric="degree2",
        scores={x: graph.degree(x, side) / other for x in graph.nodes(side)},
    )


def bipartite_closeness(graph: BipartiteGraph, side: Side) -> CentralityScores:
    """Geodesic closeness with the two-mode normalizer n_other + 2(n_own - 1)."""
    reached, total = _swept(graph, "sweep", lambda: _adjacency(graph), False)[:2]
    n1, n2 = graph.n1, graph.n2
    numerators = np.repeat([float(n2 + 2 * (n1 - 1)), float(n1 + 2 * (n2 - 1))], [n1, n2])
    values = _closeness_values(reached, total, numerators, "bipartite_closeness")
    return CentralityScores(side=side, metric="closeness2", scores=_on_side(graph, values, side))


def betweenness_ceiling(n_own: int, n_other: int) -> float:
    """Largest attainable raw betweenness for a node given the side sizes."""
    s, t = divmod(n_own - 1, n_other)
    return 0.5 * (
        n_other**2 * (s + 1) ** 2
        + n_other * (s + 1) * (2 * t - s - 1)
        - t * (2 * s - t + 3)
    )


def bipartite_betweenness(graph: BipartiteGraph, side: Side) -> CentralityScores:
    """Shortest-path betweenness divided by the side-specific ceiling."""
    raw = _swept(graph, "sweep", lambda: _adjacency(graph), True)[2]
    n1, n2 = graph.n1, graph.n2
    bmax = betweenness_ceiling(n1, n2) if side is Side.LEFT else betweenness_ceiling(n2, n1)
    scores = {}
    for x, b in _on_side(graph, raw, side).items():
        v = b / bmax if bmax > 0 else 0.0
        if v > 1.0 + 1e-9 / max(bmax, 1.0):
            warnings.warn(f"betweenness of {x!r} exceeds its ceiling; clamping")
        scores[x] = min(v, 1.0)
    return CentralityScores(side=side, metric="betweenness2", scores=scores)


def eigenvector_centrality(
    graph: BipartiteGraph,
    side: Side,
    tolerance: float = 1e-10,
    max_iterations: int = 1000,
) -> CentralityScores:
    """Principal-eigenvector scores, scaled so the side's best node gets 1.

    Power iteration runs on A + I: the shift leaves eigenvectors untouched
    while breaking the +/-lambda pairing that makes plain iteration on a
    bipartite adjacency matrix oscillate.
    """
    A = _adjacency(graph)
    n = A.shape[0]
    v = np.ones(n) / math.sqrt(n)
    residual = math.inf
    for _ in range(max_iterations):
        w = A @ v + v
        norm = np.linalg.norm(w)
        if norm == 0:
            break
        w /= norm
        residual = float(np.abs(w - v).max())
        v = w
        if residual < tolerance:
            break
    else:
        raise ConvergenceError("eigenvector power iteration did not converge", residual)
    sub = _on_side(graph, np.abs(v), side)
    top = max(sub.values(), default=0.0) or 1.0
    return CentralityScores(
        side=side, metric="eigenvector", scores={x: val / top for x, val in sub.items()}
    )


def pagerank(
    graph: BipartiteGraph,
    config: PageRankConfig = PageRankConfig(),
    side: Side | None = None,
) -> CentralityScores | dict[Side, CentralityScores]:
    """Damped random-walk scores over all n1 + n2 nodes (they sum to 1).

    Each undirected link acts as two directed links; degree-0 nodes
    redistribute their mass uniformly.
    """
    A = _adjacency(graph)
    n = A.shape[0]
    if n == 0:
        raise ValueError("empty graph")
    deg = np.asarray(A.sum(axis=0)).ravel()
    dangling = deg == 0
    inv = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg))
    d = config.damping
    r = np.ones(n) / n
    for _ in range(config.max_iterations):
        walked = A @ (r * inv) + r[dangling].sum() / n
        if config.lazy:
            walked = 0.5 * (walked + r)
        nxt = (1.0 - d) / n + d * walked
        err = float(np.abs(nxt - r).sum())
        r = nxt
        if err < config.tolerance:
            break
    else:
        raise ConvergenceError("pagerank did not converge", err)

    def side_scores(s: Side) -> CentralityScores:
        return CentralityScores(side=s, metric="pagerank", scores=_on_side(graph, r, s))

    if side is not None:
        return side_scores(side)
    return {Side.LEFT: side_scores(Side.LEFT), Side.RIGHT: side_scores(Side.RIGHT)}


def latapy_pair_cc(graph: BipartiteGraph, u: str, v: str, side: Side | None = None) -> float:
    """Jaccard overlap of the two nodes' neighborhoods."""
    su = set(graph.neighbors(u, side))
    sv = set(graph.neighbors(v, side))
    union = su | sv
    return len(su & sv) / len(union) if union else 0.0


def latapy_cc(graph: BipartiteGraph, side: Side) -> CentralityScores:
    """Mean neighborhood-Jaccard with the 2-hop same-side neighbors.

    The overlap of u and v is c = (B Bᵀ)[u, v], the number of 2-hop walks
    u - w - v, and Jaccard(u, v) = c / (d_u + d_v - c) (Latapy, Magnien &
    Del Vecchio 2008).  The walks are listed for a run of nodes u at a time,
    about _BLOCK_ELEMENTS of them per run, and counted with ``np.unique``.
    Nodes with no 2-hop neighbors score 0.
    """
    indptr, indices = _links(graph)
    lo, hi = _side_range(graph, side)
    size = hi - lo
    deg = np.diff(indptr)
    # walks before each node u of the side, then all of them
    walked = np.cumsum(np.concatenate(([0], deg[indices[indptr[lo] : indptr[hi]]])))
    walked = walked[indptr[lo : hi + 1] - indptr[lo]]
    cut = np.flatnonzero(np.diff(walked[:-1] // _BLOCK_ELEMENTS, prepend=-1))
    cut = np.append(cut, size)
    total = np.zeros(size)
    count = np.zeros(size, dtype=np.int64)
    for a, b in zip(cut[:-1].tolist(), cut[1:].tolist()):
        mid = indices[indptr[lo + a] : indptr[lo + b]]  # w of each link u - w
        span = deg[mid]
        u = np.repeat(np.repeat(np.arange(b - a), deg[lo + a : lo + b]), span)
        offset = np.repeat(indptr[mid] - (np.cumsum(span) - span), span)
        v = indices[offset + np.arange(len(u))] - lo
        key, c = np.unique(u * size + v, return_counts=True)
        u, v = key // size, key % size
        pair = u + a != v
        u, v, c = u[pair], v[pair], c[pair]
        jaccard = c / (deg[lo + a + u] + deg[lo + v] - c)
        total[a:b] = np.bincount(u, weights=jaccard, minlength=b - a)
        count[a:b] = np.bincount(u, minlength=b - a)
    mean = np.divide(total, count, out=np.zeros(size), where=count > 0)
    return CentralityScores(
        side=side, metric="latapy", scores=dict(zip(graph.nodes(side), mean.tolist()))
    )


def opsahl_path_counts(graph: BipartiteGraph) -> tuple[int, int]:
    """(number of 4-paths, number of closed 4-paths).

    A 4-path is a simple path on 5 nodes; it is closed when its end nodes
    share a neighbor outside the path.
    """
    paths = 0
    closed = 0
    neighbor_sets: dict[tuple[Side, str], set[str]] = {}
    for side in (Side.LEFT, Side.RIGHT):
        for x in graph.nodes(side):
            neighbor_sets[(side, x)] = set(graph.neighbors(x, side))
    for side in (Side.LEFT, Side.RIGHT):
        # enumerate paths v0 - w0 - center - w1 - v2 ordered once via w0 < w1
        for center in graph.nodes(side):
            mids = graph.neighbors(center, side)
            for a in range(len(mids)):
                for b in range(a + 1, len(mids)):
                    w0, w1 = mids[a], mids[b]
                    ends0 = neighbor_sets[(side.other, w0)] - {center}
                    ends1 = neighbor_sets[(side.other, w1)] - {center}
                    for v0 in ends0:
                        n0 = neighbor_sets[(side, v0)]
                        for v2 in ends1:
                            if v0 == v2:
                                continue
                            paths += 1
                            shared = n0 & neighbor_sets[(side, v2)]
                            shared -= {w0, w1}
                            if shared:
                                closed += 1
    return paths, closed


def opsahl_cc(graph: BipartiteGraph) -> float:
    """Fraction of 4-paths whose ends share an outside neighbor; 0 if none exist."""
    paths, closed = opsahl_path_counts(graph)
    if paths == 0:
        warnings.warn("graph has no 4-paths; clustering ratio defined as 0")
        return 0.0
    return closed / paths


# -- projected one-mode measures ----------------------------------------------


def projected_centrality(
    graph: BipartiteGraph, side: Side, metric: str
) -> CentralityScores:
    """degree / closeness / betweenness on the one-mode projection."""
    proj = project(graph, side)
    nodes = proj.nodes
    n = len(nodes)

    def adjacency():
        index = {x: i for i, x in enumerate(nodes)}
        return _scipy_csr(*_csr([[index[v] for v in proj.neighbors(u)] for u in nodes]))

    if metric == "degree":
        values = np.array([proj.degree(u) for u in nodes], dtype=np.int64) / max(n - 1, 1)
    elif metric == "closeness":
        reached, total = _swept(graph, ("sweep", side), adjacency, False)[:2]
        values = _closeness_values(reached, total, np.full(n, float(n - 1)), "projected closeness")
    elif metric == "betweenness":
        denom = (n - 1) * (n - 2) / 2.0
        raw = _swept(graph, ("sweep", side), adjacency, True)[2]
        values = raw / denom if denom > 0 else np.zeros(n)
    else:
        raise ValueError(f"unknown projected metric {metric!r}")
    return CentralityScores(
        side=side, metric=f"{metric}1", scores=dict(zip(nodes, values.tolist()))
    )
