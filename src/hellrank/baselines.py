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
# 4.5 MB (7%) and ran no faster.
_BLOCK_ELEMENTS = 8192


def _csr(lists) -> sp.csr_matrix:
    """Square 0/1 CSR matrix whose row i holds the column indices ``lists[i]``."""
    # imported here, so that the Hellinger kernel's commands never load scipy
    import scipy.sparse as sp

    indptr = np.cumsum([0] + [len(a) for a in lists])
    indices = np.fromiter((j for a in lists for j in a), dtype=np.int64, count=indptr[-1])
    n = len(lists)
    return sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))


def _adjacency(graph: BipartiteGraph):
    """Labels (left then right) and the symmetric CSR adjacency of both sides."""
    labels = [(Side.LEFT, x) for x in graph.left_nodes] + [
        (Side.RIGHT, y) for y in graph.right_nodes
    ]
    index = {key: i for i, key in enumerate(labels)}
    return labels, _csr(
        [[index[(side.other, nb)] for nb in graph.neighbors(x, side)] for side, x in labels]
    )


def _on_side(labels, values, side: Side) -> dict[str, float]:
    """{label: value} for one side's nodes of ``_adjacency``'s labels."""
    return {x: v for (s, x), v in zip(labels, values.tolist()) if s is side}


def _source_blocks(n: int):
    step = max(1, _BLOCK_ELEMENTS // max(n, 1))
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _bfs(A: sp.csr_matrix, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Hop distances (-1 where unreachable) and shortest-path counts from the
    sources lo..hi-1, one column per source.

    All sources advance one level per sparse product: the path counts of a
    level's nodes, summed over their neighbors, are the counts of the next
    level's nodes.
    """
    cols = np.arange(hi - lo)
    dist = np.full((A.shape[0], hi - lo), -1, dtype=np.int64)
    sigma = np.zeros(dist.shape)
    dist[lo + cols, cols] = 0
    sigma[lo + cols, cols] = 1.0
    frontier = sigma
    level = 0
    while frontier.any():
        reach = A @ frontier
        new = (reach > 0) & (dist < 0)
        level += 1
        dist[new] = level
        sigma[new] = reach[new]
        frontier = np.where(new, sigma, 0.0)
    return dist, sigma


def _brandes(A: sp.csr_matrix) -> np.ndarray:
    """Unweighted betweenness, endpoints excluded, each pair counted once.

    Brandes (2001) dependencies, accumulated level by level from the deepest:
    a node at level l-1 collects sigma_v / sigma_w * (1 + delta_w) from each
    neighbor w at level l.
    """
    bc = np.zeros(A.shape[0])
    for lo, hi in _source_blocks(A.shape[0]):
        dist, sigma = _bfs(A, lo, hi)
        delta = np.zeros(dist.shape)
        for level in range(dist.max(), 1, -1):
            share = np.divide(1.0 + delta, sigma, out=np.zeros(dist.shape), where=dist == level)
            delta += (dist == level - 1) * sigma * (A @ share)
        bc += delta.sum(axis=1)
    return bc / 2.0


def _closeness_values(A: sp.csr_matrix, numerators: np.ndarray, warn_label: str) -> np.ndarray:
    """normalizer / distance-sum per node, with reachable-fraction scaling
    when the graph is disconnected."""
    n = A.shape[0]
    reached = np.zeros(n, dtype=np.int64)
    total = np.zeros(n, dtype=np.int64)
    for lo, hi in _source_blocks(n):
        dist, _ = _bfs(A, lo, hi)
        reached[lo:hi] = (dist > 0).sum(axis=0)
        total[lo:hi] = np.maximum(dist, 0).sum(axis=0)
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
    labels, A = _adjacency(graph)
    n1, n2 = graph.n1, graph.n2
    numerators = np.repeat([float(n2 + 2 * (n1 - 1)), float(n1 + 2 * (n2 - 1))], [n1, n2])
    values = _closeness_values(A, numerators, "bipartite_closeness")
    return CentralityScores(side=side, metric="closeness2", scores=_on_side(labels, values, side))


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
    labels, A = _adjacency(graph)
    raw = _brandes(A)
    n1, n2 = graph.n1, graph.n2
    bmax = betweenness_ceiling(n1, n2) if side is Side.LEFT else betweenness_ceiling(n2, n1)
    scores = {}
    for x, b in _on_side(labels, raw, side).items():
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
    labels, A = _adjacency(graph)
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
    sub = _on_side(labels, np.abs(v), side)
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
    labels, A = _adjacency(graph)
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
        return CentralityScores(side=s, metric="pagerank", scores=_on_side(labels, r, s))

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

    Nodes with no 2-hop neighbors score 0.
    """
    scores = {}
    for u in graph.nodes(side):
        two_hop = set()
        for mid in graph.neighbors(u, side):
            two_hop.update(graph.neighbors(mid, side.other))
        two_hop.discard(u)
        if not two_hop:
            scores[u] = 0.0
        else:
            scores[u] = sum(latapy_pair_cc(graph, u, v, side) for v in sorted(two_hop)) / len(two_hop)
    return CentralityScores(side=side, metric="latapy", scores=scores)


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
    index = {x: i for i, x in enumerate(nodes)}
    A = _csr([[index[v] for v in proj.neighbors(u)] for u in nodes])
    n = len(nodes)
    if metric == "degree":
        values = np.diff(A.indptr) / max(n - 1, 1)
    elif metric == "closeness":
        values = _closeness_values(A, np.full(n, float(n - 1)), "projected closeness")
    elif metric == "betweenness":
        denom = (n - 1) * (n - 2) / 2.0
        values = _brandes(A) / denom if denom > 0 else np.zeros(n)
    else:
        raise ValueError(f"unknown projected metric {metric!r}")
    return CentralityScores(
        side=side, metric=f"{metric}1", scores=dict(zip(nodes, values.tolist()))
    )
