"""Comparison centralities: bipartite degree/closeness/betweenness, PageRank,
eigenvector, the pairwise clustering coefficient, the global 4-path clustering
ratio, and the projected one-mode variants."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import graph as graph_module
from .graph import BipartiteGraph, Side, _co_occurrences, _side_range, project
from .scores import CentralityScores, ScoreArray

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

class _Rows:
    """The links of the CSR ``ptr``, ``col`` from its rows to ``n_target``
    nodes, each of weight 1 or ``weight``, read for (column, node) pairs of
    a block of up to ``width`` columns.  A row's pair has the key
    column * rows + row and a target's column * n_target + target, so a
    block's arrays are (column, node) arrays, flattened.

    The CSR is held once for all columns, as int32: a link's target key is
    its CSR entry plus its column's offset, added as its pair is expanded.
    A sweep keeps the owners and target keys of every level of a block, so
    they are int32 as well.  A block's keys are below width * rows and its
    target keys below width * n_target; the constructor checks that both
    fit."""

    def __init__(self, ptr: np.ndarray, col: np.ndarray, n_target: int, width: int = 1,
                 weight: np.ndarray | None = None):
        assert width * max(len(ptr) - 1, n_target) <= np.iinfo(np.int32).max
        self.ptr, self.degree, self.weight = ptr, np.diff(ptr), weight
        self.col = col[: ptr[-1]].astype(np.int32)
        self.offset = (np.arange(width) * n_target).astype(np.int32)  # per column

    def __call__(self, keys: np.ndarray) -> tuple:
        """(owner, target, weight) per link of the pairs ``keys``, pair
        after pair in CSR order: its pair's place in ``keys``, its target
        pair's key, and its weight (None for weight 1)."""
        column, node = np.divmod(keys, len(self.degree))
        degree = self.degree[node]
        owner = np.repeat(np.arange(len(keys)), degree)
        at = (self.ptr[node] - np.cumsum(degree) + degree).take(owner)
        at += np.arange(len(at))
        target = self.col.take(at)
        target += self.offset.take(column).take(owner)
        return owner.astype(np.int32), target, None if self.weight is None else self.weight.take(at)


def _pull(links: tuple, x: np.ndarray, n: int) -> np.ndarray:
    """Per pair of the n whose ``links`` these are, the weighted sum of x
    over its targets: ``A @ x`` on those pairs.

    ``np.bincount`` adds each pair's terms one at a time in link order,
    starting from 0.0.  For links in CSR order that is what scipy's
    ``csr_matvec`` and ``csr_matvecs`` do, so every float equals scipy's.
    ``np.add.reduceat`` would not: it sums a row of 8 or more terms pairwise.
    """
    owner, target, weight = links
    terms = x.take(target) if weight is None else x.take(target) * weight
    return np.bincount(owner, weights=terms, minlength=n)


def _push(links: tuple, values: np.ndarray, n: int) -> np.ndarray:
    """The n sums of the pairs' ``values`` spread to the targets of their
    unweighted ``links``: ``A @ x`` for x holding ``values`` on the pairs
    and 0 elsewhere.  A target adds its terms in link order, not in the
    order of its own row, which gives scipy's sums for integer values only."""
    owner, target, _ = links
    return np.bincount(target, weights=values.take(owner), minlength=n)


def _product(graph: BipartiteGraph):
    """``x -> A @ x`` for the 0/1 adjacency A of the graph's CSR, without scipy,
    summed as ``_pull`` sums."""
    n, indices = len(graph._degree), graph._indices
    owner = np.repeat(np.arange(n), graph._degree)
    # x[indices], not x.take(indices): take() copies a read-only index array on every call
    return lambda x: np.bincount(owner, weights=x[indices], minlength=n)


def _on_side(graph: BipartiteGraph, values: np.ndarray, side: Side, metric: str) -> CentralityScores:
    """The side's scores under ``metric``, ``values`` in the CSR's row order."""
    lo, hi = _side_range(graph, side)
    return CentralityScores(side, metric, ScoreArray(graph.nodes(side), values[lo:hi]))


def _fold(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, ...]:
    """(leaf, parent, k, kept, ptr, col) of the symmetric CSR ``indptr``,
    ``indices`` with its degree-1 nodes folded out (Baglioni, Geraci,
    Pellegrini & Lastres 2012).

    A leaf, a node of degree 1 whose neighbor p has degree 2 or more, or
    degree 1 and a lower index (the later end of a K2 component), is removed
    and counted in k_p, the leaves folded into p; ``parent`` lists the
    leaves' p in node order.  A node left with no neighbor (isolated, a star
    center whose neighbors were all leaves, or the earlier end of a K2) is
    dropped as well; what is kept is every other node.  Every shortest path
    to or from a leaf runs through its parent, so the leaves need no BFS of
    their own, and a kept node stands for itself and its k leaves.  ``ptr``,
    ``col`` is the reduced graph, the CSR of the links between kept nodes,
    renumbered in order; each of its rows is non-empty, since a node whose
    only neighbors are its leaves is dropped.
    """
    degree = np.diff(indptr)
    leaf = degree == 1
    other = indices[indptr[:-1][leaf]]
    leaf[leaf] = (degree[other] >= 2) | (other < np.flatnonzero(leaf))
    parent = indices[indptr[:-1][leaf]]
    k = np.bincount(parent, minlength=len(degree))
    kept = ~leaf & (degree > k)
    links = np.repeat(kept, degree) & kept[indices]
    ids = np.cumsum(kept) - 1
    ptr = np.concatenate([[0], np.cumsum(degree[kept] - k[kept])])
    return leaf, parent, k, kept, ptr, ids[indices[links]]


def _levels(chain: tuple, frontier: np.ndarray):
    """Per hop 0, 1, 2, ... of a multi-source BFS, the bitset rows of the
    nodes first reached at it, up to the last hop that reaches any (Then et
    al., "The More the Merrier: Efficient Multi-Source Graph Traversal",
    VLDB 2014).

    ``frontier``, hop 0, holds one row of ``uint64`` words per node, with
    each source's bit set in its own row.  A hop ORs the rows of each CSR
    (ptr, col) of ``chain`` in turn, every row of a CSR over its columns,
    and keeps the bits not seen before.  Every row of a CSR must be
    non-empty: ``reduceat`` reads an empty row as its next entry.
    """
    unseen = ~frontier
    while frontier.any():
        yield frontier
        for ptr, col in chain:
            # take(axis=0) gathers whole rows several times faster than frontier[col]
            frontier = np.bitwise_or.reduceat(frontier.take(col, axis=0), ptr[:-1], axis=0)
        frontier &= unseen
        unseen ^= frontier


def _csr(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, col) of the n-row CSR of the links rows[j] -> cols[j], sorted by row."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n)))), cols


class _Adjacency:
    """The BFS of the betweenness sweep and the hop count over the reduced
    graph's own CSR.

    ``blocks`` pushes each level's path counts along its links, which is
    exact for integers.  ``product`` sums each pair of a level over its own
    row in CSR order, as scipy's CSR product does, so every float is the
    same.  It holds the int32 CSR of ``_Rows``, not the caller's ``col``;
    ``chain`` widens it again for ``_hops``, since ``take`` converts int32
    indices to intp on every call.
    """

    def __init__(self, kept: np.ndarray, ptr: np.ndarray, col: np.ndarray, width: int):
        self.links = _Rows(ptr, col, len(ptr) - 1, width)

    @property
    def chain(self) -> tuple:
        return ((self.links.ptr, self.links.col.astype(np.intp)),)

    def blocks(self, m: int, width: int):
        """Per block lo..hi-1 of ``width`` sources among the m kept nodes,
        (lo, hi, levels, sigma): per hop distance l, the (source, node) pairs
        at l, keys (source - lo) * m + node in ascending order, with their
        links; and every pair's path count, flattened from a (source, node)
        array."""
        for lo in range(0, m, width):
            hi = min(lo + width, m)
            sigma = np.zeros((hi - lo) * m)
            keys = np.arange(hi - lo) * (m + 1) + lo  # source lo + j in row j
            sigma[keys] = 1.0
            levels = []
            while len(keys):
                levels.append((keys, self.links(keys)))
                reach = _push(levels[-1][1], sigma[keys], len(sigma))
                keys = np.flatnonzero((reach > 0) & (sigma == 0))
                sigma[keys] = reach[keys]
            yield lo, hi, levels, sigma

    def product(self, into: tuple, level: tuple, x: np.ndarray) -> np.ndarray:
        """``A @ x`` on the pairs of ``into``, for x 0 outside those of ``level``."""
        keys, links = into
        return _pull(links, x, len(keys))


class _Incidence:
    """The BFS of the betweenness sweep and the hop count over the kept nodes
    of the side's projection, read through the graph's incidence (Kepner &
    Gilbert, "Graph Algorithms in the Language of Linear Algebra", 2011).

    With B_K the kept nodes' rows of the biadjacency, (B_K B_Kᵀ)[u, v] is c,
    the number of neighbors u and v share, so the projection's adjacency is
    B_K B_Kᵀ - E - D, where E holds c - 1 for each pair sharing 2 or more and
    D the degrees.  A level's product is B_K (B_Kᵀ x) - E x: it reads the
    level's links to the other side, the next level's links back and its
    multi-shared pairs, not each of its projected edges.  D x is left in: it
    is 0 on every pair the sweep reads, since x is 0 there.  Other-side
    nodes with fewer than 2 kept neighbors add only to D and are left out.

    A hop of ``chain`` goes down B_Kᵀ to those other-side nodes and back up
    B_K, which is all that ``_hops`` reads.  ``blocks`` finds the levels
    first, from ``_levels``, and then their path counts with ``product``.
    """

    def __init__(self, graph: BipartiteGraph, side: Side, kept: np.ndarray, ptr: np.ndarray,
                 col: np.ndarray, width: int):
        lo, hi = _side_range(graph, side)
        olo, ohi = _side_range(graph, side.other)
        ids = self.ids = np.cumsum(kept) - 1
        m = self.m = len(ptr) - 1
        deg, indptr, indices = graph._degree, graph._indptr, graph._indices
        other = indices[indptr[olo] : indptr[ohi]] - lo
        rows = np.repeat(np.arange(ohi - olo), deg[olo:ohi])
        on = kept[other]
        shared = np.bincount(rows[on], minlength=ohi - olo) >= 2  # those with 2 kept neighbors
        on &= shared[rows]
        wid = np.cumsum(shared) - 1
        self.n_other = np.count_nonzero(shared)
        mine = indices[indptr[lo] : indptr[hi]] - olo
        own = np.repeat(kept, deg[lo:hi]) & shared[mine]
        self.chain = (_csr(wid[rows[on]], ids[other[on]], self.n_other),
                      _csr(ids[np.repeat(np.arange(hi - lo), deg[lo:hi])[own]], wid[mine[own]], m))
        self.graph, self.side, self.kept = graph, side, kept

    def _extra(self, m: int, width: int) -> _Rows:
        """The rows of E, from the side's co-occurrence counts."""
        pairs = [np.zeros((3, 0), dtype=np.int64)]
        for a, _, u, v, c in _co_occurrences(self.graph, self.side):
            u = u + a
            multi = (c >= 2) & self.kept[u] & self.kept[v]
            pairs.append(np.stack((self.ids[u[multi]], self.ids[v[multi]], c[multi] - 1)))
        u, v, c = np.concatenate(pairs, axis=1)
        # c - 1 < n_other, which the rows of B_K already fit in int32
        return _Rows(*_csr(u, v, m), m, width, weight=c.astype(np.int32))

    def blocks(self, m: int, width: int):
        """As ``_Adjacency.blocks``.  Only the products read E, so it is built
        here, and only its rows are held.  The hop distances come first, for
        as many whole blocks as fill 64 bits, then each level's path counts
        from ``product``."""
        up, extra = _Rows(*self.chain[1], self.n_other, width), self._extra(m, width)
        group = width * max(1, 64 // width)
        for start in range(0, m, group):
            source = np.arange(min(group, m - start))  # bit j is source start + j
            frontier = np.zeros((m, -(-len(source) // 64)), dtype=np.uint64)
            frontier[start + source, source // 64] = np.uint64(1) << (source % 64).astype(np.uint64)
            hops = np.full((len(source), m), -1, dtype=np.int32)
            for level, reached in enumerate(_levels(self.chain, frontier)):
                bits = np.unpackbits(reached.astype("<u8", copy=False).view(np.uint8), axis=1,
                                     count=len(source), bitorder="little")  # (node, source)
                np.copyto(hops, level, where=bits.view(bool).T)
            for lo in range(start, start + len(source), width):
                hi = min(lo + width, m)
                mine = hops[lo - start : hi - start].ravel()
                levels = [np.flatnonzero(mine == level) for level in range(mine.max() + 1)]
                levels = [(keys, (up(keys), extra(keys))) for keys in levels]
                sigma, x = np.zeros((2, len(mine)))
                sigma[levels[0][0]] = 1.0
                for l in range(1, len(levels)):  # no name holds a level past its block
                    keys = levels[l - 1][0]
                    x[keys] = sigma[keys]
                    sigma[levels[l][0]] = self.product(levels[l], levels[l - 1], x)
                    x[keys] = 0.0
                yield lo, hi, levels, sigma

    def product(self, into: tuple, level: tuple, x: np.ndarray) -> np.ndarray:
        """As ``_Adjacency.product``."""
        keys, (up, _) = level
        y = _push(up, x[keys], self.n_other * (len(x) // self.m))
        keys, (up, extra) = into
        return _pull(up, y, len(keys)) - _pull(extra, x, len(keys))


def _hops(indptr: np.ndarray, indices: np.ndarray, through=_Adjacency) -> tuple[np.ndarray, np.ndarray]:
    """Per node of the symmetric CSR ``indptr``, ``indices``: the number of
    other nodes it reaches and the sum of its hop distances to them.

    The levels of ``_levels`` over the reduced graph of ``_fold``, read
    ``through`` as in ``_sweep``, carry 64 kept sources per ``uint64`` word,
    one bit each.  The graph is undirected, so a kept source s that reaches
    a kept node t at hop l is counted at t: it stands for 1 + k_s nodes, s at
    hop l and its k_s leaves at hop l + 1.  A word holds sources of one k, so
    each of its bits weighs the same.  At hop 0 a kept node finds itself, so
    it counts its own k leaves at hop 1 and itself, which its reach then
    leaves out.  A leaf of p reaches what p reaches (R_p nodes, itself out
    and p in) one hop further, so its distance sum is total_p + R_p - 1, and
    a dropped node with k leaves reaches them at hop 1.  These are integer
    counts, so no blocking changes a bit.
    """
    leaf, parent, k, kept, ptr, col = _fold(indptr, indices)
    chain = through(kept, ptr, col, 1).chain
    del col  # chain holds what the hop count reads of it
    # the kept sources in order of k, 64 to a word and one k per word
    source = np.argsort(k[kept], kind="stable")
    k_source = k[kept][source]
    place = np.arange(len(source)) - np.searchsorted(k_source, k_source)  # among sources of its k
    word = np.cumsum(place % 64 == 0) - 1
    weights = np.stack([1 + k_source, k_source])[:, place % 64 == 0]  # per word: nodes, leaves
    m, words = len(source), weights.shape[1]
    found = np.stack([k[kept], k[kept]])  # per kept node: reached, distance sum; own leaves at hop 1
    step = max(1, graph_module._BLOCK_ELEMENTS // max(1, *(len(c) for _, c in chain)))  # words per block
    for lo in range(0, words, step):
        hi = min(lo + step, words)
        mine = (word >= lo) & (word < hi)
        frontier = np.zeros((m, hi - lo), dtype=np.uint64)
        frontier[source[mine], word[mine] - lo] = np.uint64(1) << (place[mine] % 64).astype(np.uint64)
        levels = _levels(chain, frontier)
        next(levels)  # hop 0, the sources themselves: found holds their own leaves
        for level, reached in enumerate(levels, 1):
            bits = np.unpackbits(reached.view(np.uint8), axis=1).reshape(m, hi - lo, 64)
            nodes, leaves = weights[:, lo:hi] @ bits.sum(axis=2, dtype=np.uint8).T
            found += [nodes, level * nodes + leaves]  # a leaf is one hop past its source
    reached, total = np.stack([k, k])  # a dropped node reaches its k leaves at hop 1
    reached[kept], total[kept] = found
    reached[leaf] = reached[parent]
    total[leaf] = total[parent] + reached[parent] - 1
    return reached, total


def _sweep(indptr: np.ndarray, indices: np.ndarray, through=_Adjacency) -> np.ndarray:
    """Per node of the symmetric CSR ``indptr``, ``indices``: its unweighted
    betweenness (endpoints excluded, each pair counted once).

    The BFS runs over the reduced graph of ``_fold``, one block of kept
    sources at a time.  It sums Brandes (2001) dependencies, accumulated
    level by level from the deepest: a kept node at level l-1 collects
    sigma_v / sigma_t * (1 + k_t + delta_t) from each neighbor t at level l,
    since t's leaves are targets reached only through t.  A leaf has its
    parent's dependencies, so each source's column is added 1 + k_s times.
    That counts every pair of ends outside v's own leaves.  The pairs with
    an end among them are added in closed form after halving: v lies on
    every shortest path from one of its leaves to the R_v - k_v other nodes
    it reaches, k_v (R_v - k_v) pairs, and between two of its leaves,
    k_v (k_v - 1) / 2 pairs.  A kept source reaches R_v nodes: the kept
    nodes its BFS finds and their leaves, itself out.  A dropped node
    reaches only its k_v leaves, so its first term is 0.  A leaf lies inside
    no shortest path.  The result is the unfolded sweep's up to the order in
    which floats are added.

    ``through(kept, ptr, col, width)`` runs the BFS of each block and its
    products with the reduced graph, by default through its own CSR.  Its
    ``chain`` is the CSRs (ptr, col) whose ORs make one hop of ``_levels``:
    the reduced graph's own, or the incidence's two.  A level touches only
    its own pairs and their links, not every node.  Each source's
    dependencies are added in source order, one source at a time, so no bit
    of the result depends on how the sources were blocked.

    One block is held at a time: its levels, each a keys array and int32
    links from ``_Rows``, and a few arrays of one value per pair (path
    counts, dependencies and their shares, the targets' weights).  They are
    dropped before ``blocks`` builds the next block.
    """
    _, _, k, kept, ptr, col = _fold(indptr, indices)
    m = len(ptr) - 1
    width = max(1, min(m, graph_module._BLOCK_ELEMENTS // max(m, 1)))  # the budget _co_occurrences reads
    step = through(kept, ptr, col, width)
    del col  # step holds what the sweep reads of it, as int32
    times = 1 + k[kept]  # the nodes a kept node stands for
    weight = np.tile(times.astype(float), width)  # per (source, node) pair of a block
    bc = np.zeros(m)
    reached = np.zeros(m, dtype=np.int64)
    for lo, hi, levels, sigma in step.blocks(m, width):
        reached[lo:hi] = (sigma.reshape(hi - lo, m) > 0) @ times - 1
        delta, share = np.zeros(len(sigma)), np.zeros(len(sigma))
        for l in range(len(levels) - 1, 1, -1):
            keys, into = levels[l][0], levels[l - 1][0]
            share[keys] = (weight[keys] + delta[keys]) / sigma[keys]
            delta[into] = sigma[into] * step.product(levels[l - 1], levels[l], share)  # its only term
            share[keys] = 0.0
        for row, count in zip(delta.reshape(hi - lo, m), times[lo:hi]):
            for _ in range(count):
                bc += row
        del levels, sigma, delta, share, row  # blocks() builds the next block without this one
    halved = np.zeros(len(k))
    halved[kept] = bc / 2.0
    pairs = k * (k - 1) // 2
    pairs[kept] += k[kept] * (reached - k[kept])
    return halved + pairs


def _closeness_values(csr, numerators: np.ndarray, warn_label: str, through=_Adjacency) -> np.ndarray:
    """normalizer / distance-sum per node of the CSR of ``csr`` (the graph or
    a projection, read ``through`` as in ``_sweep``), with reachable-fraction
    scaling when it is disconnected."""
    reached, total = _hops(csr._indptr, csr._indices, through)
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
    return _on_side(graph, graph._degree / other, side, "degree2")


def bipartite_closeness(graph: BipartiteGraph, side: Side) -> CentralityScores:
    """Geodesic closeness with the two-mode normalizer n_other + 2(n_own - 1)."""
    n1, n2 = graph.n1, graph.n2
    numerators = np.repeat([float(n2 + 2 * (n1 - 1)), float(n1 + 2 * (n2 - 1))], [n1, n2])
    values = _closeness_values(graph, numerators, "bipartite_closeness")
    return _on_side(graph, values, side, "closeness2")


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
    lo, hi = _side_range(graph, side)
    raw = _sweep(graph._indptr, graph._indices)[lo:hi]
    n1, n2 = graph.n1, graph.n2
    bmax = betweenness_ceiling(n1, n2) if side is Side.LEFT else betweenness_ceiling(n2, n1)
    values = raw / bmax if bmax > 0 else np.zeros(len(raw))
    for i in np.flatnonzero(values > 1.0 + 1e-9 / max(bmax, 1.0)).tolist():
        warnings.warn(f"betweenness of {graph.nodes(side)[i]!r} exceeds its ceiling; clamping")
    return CentralityScores(side, "betweenness2", ScoreArray(graph.nodes(side), np.minimum(values, 1.0)))


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
    product = _product(graph)
    n = graph.n1 + graph.n2
    v = np.ones(n) / math.sqrt(n)
    residual = math.inf
    for _ in range(max_iterations):
        w = product(v) + v
        # not np.linalg.norm: BLAS sums in an order set by its thread count
        norm = math.sqrt(np.add.reduce(w * w))
        if norm == 0:
            break
        w /= norm
        residual = float(np.abs(w - v).max())
        v = w
        if residual < tolerance:
            break
    else:
        raise ConvergenceError("eigenvector power iteration did not converge", residual)
    lo, hi = _side_range(graph, side)
    sub = np.abs(v[lo:hi])
    top = sub.max(initial=0.0) or 1.0
    return CentralityScores(side, "eigenvector", ScoreArray(graph.nodes(side), sub / top))


def pagerank(
    graph: BipartiteGraph,
    config: PageRankConfig = PageRankConfig(),
    side: Side | None = None,
) -> CentralityScores | dict[Side, CentralityScores]:
    """Damped random-walk scores over all n1 + n2 nodes (they sum to 1).

    Each undirected link acts as two directed links; degree-0 nodes
    redistribute their mass uniformly.
    """
    n = graph.n1 + graph.n2
    if n == 0:
        raise ValueError("empty graph")
    product = _product(graph)
    deg = graph._degree
    dangling = deg == 0
    inv = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg))
    d = config.damping
    r = np.ones(n) / n
    for _ in range(config.max_iterations):
        walked = product(r * inv) + r[dangling].sum() / n
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
        return _on_side(graph, r, s, "pagerank")

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
    Del Vecchio 2008).  Nodes with no 2-hop neighbors score 0.
    """
    lo, hi = _side_range(graph, side)
    size = hi - lo
    deg = graph._degree
    total = np.zeros(size)
    count = np.zeros(size, dtype=np.int64)
    for a, b, u, v, c in _co_occurrences(graph, side):
        jaccard = c / (deg[lo + a + u] + deg[lo + v] - c)
        total[a:b] = np.bincount(u, weights=jaccard, minlength=b - a)
        count[a:b] = np.bincount(u, minlength=b - a)
    mean = np.divide(total, count, out=np.zeros(size), where=count > 0)
    return CentralityScores(side, "latapy", ScoreArray(graph.nodes(side), mean))


def opsahl_path_counts(graph: BipartiteGraph) -> tuple[int, int]:
    """(number of 4-paths, number of closed 4-paths).

    A 4-path is a simple path on 5 nodes; it is closed when its end nodes
    share a neighbor outside the path.
    """
    indptr, indices = graph._indptr.tolist(), graph._indices.tolist()
    rows = [indices[a:b] for a, b in zip(indptr, indptr[1:])]
    neighbor_sets = list(map(set, rows))
    paths = 0
    closed = 0
    # enumerate paths v0 - w0 - center - w1 - v2 ordered once via w0 < w1
    for center, mids in enumerate(rows):
        for a in range(len(mids)):
            for b in range(a + 1, len(mids)):
                w0, w1 = mids[a], mids[b]
                ends0 = neighbor_sets[w0] - {center}
                ends1 = neighbor_sets[w1] - {center}
                for v0 in ends0:
                    n0 = neighbor_sets[v0]
                    for v2 in ends1:
                        if v0 == v2:
                            continue
                        paths += 1
                        shared = n0 & neighbor_sets[v2]
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
    through = partial(_Incidence, graph, side)
    nodes = proj.nodes
    n = len(nodes)
    if metric == "degree":
        values = np.diff(proj._indptr) / max(n - 1, 1)
    elif metric == "closeness":
        values = _closeness_values(proj, np.full(n, float(n - 1)), "projected closeness", through)
    elif metric == "betweenness":
        denom = (n - 1) * (n - 2) / 2.0
        raw = _sweep(proj._indptr, proj._indices, through)
        values = raw / denom if denom > 0 else np.zeros(n)
    else:
        raise ValueError(f"unknown projected metric {metric!r}")
    return CentralityScores(side, f"{metric}1", ScoreArray(nodes, values))
