"""Hellinger distances between same-side nodes and the derived node score.

Two distance conventions are supported:

* ``DistanceMode.RAW``: d(x, y) = sqrt(2) * D_H(L_x || L_y) computed on the
  unnormalized neighbor-degree vectors.  The degree-based lower/upper bounds
  (``distance_bounds``) hold in this mode only.
* ``DistanceMode.NORMALIZED`` (default): d(x, y) = D_H on the vectors rescaled
  to unit mass, so every distance lies in [0, 1].

An isolated node has the all-zero vector in either mode; in normalized mode it
sits at distance 1/sqrt(2) from every non-isolated node.
"""

from __future__ import annotations

import enum
import math
import numbers
import warnings
from functools import cached_property
from typing import Iterator, Mapping, TextIO

import numpy as np

from . import graph as graph_module
from .graph import (
    BipartiteGraph,
    Side,
    UnipartiteGraph,
    _fixed6_rows,
    csv_field,
    neighbor_degree_vector,
)
from .scores import CentralityScores, ScoreArray, normalize_scores

__all__ = [
    "DistanceMode",
    "DistanceMatrix",
    "hellinger_distance",
    "node_distance",
    "weighted_node_distance",
    "distance_matrix",
    "hellrank",
    "normalize_scores",
    "distance_bounds",
    "threshold_graph",
]

DEFAULT_MATRIX_CAP = 20_000


class DistanceMode(enum.Enum):
    RAW = "raw"
    NORMALIZED = "normalized"


class DegenerateDistancesWarning(UserWarning):
    pass


def hellinger_distance(p, q) -> float:
    """D_H = (1/sqrt(2)) * ||sqrt(p) - sqrt(q)||_2 for nonnegative vectors.

    Accepts equal-length sequences, or sparse mappings which are aligned on
    the union of their keys.
    """
    if isinstance(p, Mapping) or isinstance(q, Mapping):
        if not (isinstance(p, Mapping) and isinstance(q, Mapping)):
            raise TypeError("p and q must both be mappings or both sequences")
        keys = set(p) | set(q)
        pv = np.array([p.get(k, 0.0) for k in keys], dtype=float)
        qv = np.array([q.get(k, 0.0) for k in keys], dtype=float)
    else:
        pv = np.asarray(p, dtype=float)
        qv = np.asarray(q, dtype=float)
        if pv.shape != qv.shape:
            raise ValueError(f"length mismatch: {pv.shape} vs {qv.shape}")
    if (pv < 0).any() or (qv < 0).any():
        raise ValueError("vector entries must be >= 0")
    diff = np.sqrt(pv) - np.sqrt(qv)
    # np.add.reduce, not np.linalg.norm: BLAS sums long vectors in an order
    # that depends on its thread count
    return math.sqrt(np.add.reduce(diff * diff, axis=None)) / math.sqrt(2)


def _same_side(graph: BipartiteGraph, x: str, y: str, side: Side | None) -> Side:
    sx = graph._span(x, side)[0]
    sy = graph._span(y, side)[0]
    if sx is not sy:
        raise ValueError(f"{x!r} and {y!r} are on different sides")
    return sx


def node_distance(
    graph: BipartiteGraph,
    x: str,
    y: str,
    mode: DistanceMode = DistanceMode.NORMALIZED,
    side: Side | None = None,
    weighted: bool = False,
) -> float:
    """Hellinger distance between two nodes of the same side.

    The pair is scored by the all-pairs kernel's direct-subtraction step, so
    it stays exact for near-duplicate vectors.
    """
    side = _same_side(graph, x, y, side)
    S, _, coef = _sqrt_mass_matrix(_node_counts(graph, [x, y], side, weighted), mode)
    return math.sqrt(_sq_diff(S, [0], [1], coef)[0])


def weighted_node_distance(
    graph: BipartiteGraph,
    x: str,
    y: str,
    mode: DistanceMode = DistanceMode.NORMALIZED,
    side: Side | None = None,
) -> float:
    """node_distance on the weight-summed neighbor-degree vectors."""
    return node_distance(graph, x, y, mode, side, weighted=True)


def distance_bounds(k1: int, k2: int) -> tuple[float, float]:
    """Degree-based (lower, upper) bounds on the RAW-mode distance."""
    if k1 < 1 or k2 < 1:
        raise ValueError(f"degrees must be >= 1, got ({k1}, {k2})")
    hi, lo = (k1, k2) if k1 >= k2 else (k2, k1)
    return math.sqrt(hi) - math.sqrt(lo), math.sqrt(hi + lo)


# -- the distance kernel, for single pairs and all pairs --------------------


def _node_counts(
    graph: BipartiteGraph, labels: list[str], side: Side, weighted: bool
) -> np.ndarray:
    """Neighbor-degree counts (or weight sums), one row per label and one
    column per distinct neighbor degree, from one neighbor_degree_vector call
    per node."""
    entries = [neighbor_degree_vector(graph, x, side, weighted=weighted).entries for x in labels]
    rows = np.repeat(np.arange(len(labels)), [len(e) for e in entries])
    degrees = np.array([d for e in entries for d in e], dtype=np.int64)
    weights = np.array([w for e in entries for w in e.values()], dtype=float)
    return _count_matrix(rows, degrees, weights, len(labels))


def _count_matrix(
    rows: np.ndarray, degrees: np.ndarray, weights: np.ndarray, n: int
) -> np.ndarray:
    """Dense n-row matrix summing ``weights`` at (row, column of degree), with
    one column per distinct degree in ascending order.

    Dense is small here: a side's neighbors have at most sqrt(2m) + 1
    distinct degrees between them.
    """
    values, cols = np.unique(degrees, return_inverse=True)
    c = max(len(values), 1)
    counts = np.bincount(rows * c + cols, weights=weights, minlength=n * c)
    # bincount of no entries is an integer array
    return counts.astype(float, copy=False).reshape(n, c)


def _row_sums(A: np.ndarray) -> np.ndarray:
    """Sum of each row's nonzeros in ascending column order, grouped as
    ``np.add.reduceat`` groups them: the rounding of a CSR row sum."""
    nz = A != 0
    sizes = nz.sum(axis=1)
    out = np.zeros(A.shape[0])
    some = sizes > 0
    if some.any():
        starts = np.cumsum(sizes) - sizes
        out[some] = np.add.reduceat(A[nz], starts[some])
    return out


def _sqrt_mass_matrix(C: np.ndarray, mode: DistanceMode) -> tuple[np.ndarray, np.ndarray, float]:
    """Rows of sqrt(mass) per row of the count matrix C.

    Returns (S, m, coef) with m[i] = ||S_i||^2 (total vector mass: the
    degree in raw mode, 1 or 0 in normalized mode) and coef * ||S_x - S_y||^2
    the squared distance.  Consumes C: S is computed in C's own array.
    """
    totals = _row_sums(C)
    if mode is DistanceMode.RAW:
        return np.sqrt(C, out=C), totals, 1.0
    np.divide(C, totals[:, None], out=C, where=C != 0)
    return np.sqrt(C, out=C), (totals > 0).astype(float), 0.5


def _unique_rows(
    S: np.ndarray, masses: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse S to its exactly-equal rows (with equal mass).

    Returns (U, mu, inverse, counts): S[i] == U[inverse[i]], masses[i] ==
    mu[inverse[i]], and counts[k] rows of S equal U[k].  U keeps first-seen
    order.  Nodes with equal rows are at distance exactly 0 from each other
    and at equal distances from every other node, so the kernel only needs
    the unique rows.
    """
    n, c = S.shape
    # stable sorts by row bytes, then by mass, put equal (row, mass) pairs
    # next to each other in node order; S itself is never copied
    order = np.argsort(S.view(np.dtype((np.void, S.itemsize * c))).ravel(), kind="stable")
    order = order[np.argsort(masses[order], kind="stable")]
    m = masses[order]
    new = np.concatenate(([True], m[1:] != m[:-1]))  # a group starts here
    # neighbouring rows' bits are compared a few thousand elements at a time
    bits = S.view(np.uint64)
    step = max(1, graph_module._BLOCK_ELEMENTS // c)
    for a in range(1, n, step):
        b = min(a + step, n)
        new[a:b] |= (bits[order[a:b]] != bits[order[a - 1 : b - 1]]).any(axis=1)
    first = order[new]  # each group's first node
    keep = np.sort(first)
    inverse = np.empty_like(order)
    inverse[order] = np.searchsorted(keep, first)[np.cumsum(new) - 1]
    return S[keep], masses[keep], inverse, np.bincount(inverse)


def _sq_diff(S: np.ndarray, a, b, coef: float) -> np.ndarray:
    """coef * ||S_a - S_b||^2 for each pair of row indices in a and b, by
    direct subtraction: exact where the gram form cancels."""
    diff = S[a] - S[b]
    return coef * _row_sums(diff * diff)


def _columns(S: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S's column index (ptr, rows, values): column k's nonzero rows, in
    ascending order, are rows[ptr[k]:ptr[k + 1]], and values holds S at
    them.  Built once per kernel call, it spares each block a search of
    every column."""
    cols, rows = np.nonzero(S.T)
    return np.searchsorted(cols, np.arange(S.shape[1] + 1)), rows, S[rows, cols]


def _gram(S: np.ndarray, lo: int, hi: int, columns=None) -> np.ndarray:
    """S[lo:hi] @ S.T, accumulated one column at a time in ascending order
    over that column's nonzero rows, read from ``columns``, S's
    ``_columns`` (built here when not given).

    That is the summation order of a CSR product, so every entry is the same
    double on any block height.  A BLAS product is not: it rounds
    differently with the height of the block.  A column's products are
    scattered a run of rows at a time, each run about graph._BLOCK_ELEMENTS
    products.
    """
    u = S.shape[0]
    ptr, rows, values = _columns(S) if columns is None else columns
    g = np.zeros((hi - lo, u))
    flat = g.reshape(-1)
    for k in range(len(ptr) - 1):
        J, w = rows[ptr[k] : ptr[k + 1]], values[ptr[k] : ptr[k + 1]]
        a, b = np.searchsorted(J, (lo, hi))
        step = max(1, graph_module._BLOCK_ELEMENTS // max(len(J), 1))
        for r in range(a, b, step):
            R = slice(r, min(r + step, b))
            flat[((J[R] - lo) * u)[:, None] + J] += np.multiply.outer(w[R], w)
    return g


def _block_distances(S: np.ndarray, masses: np.ndarray, lo: int, hi: int, coef: float, columns) -> np.ndarray:
    """Dense distance rows lo:hi against all rows of S, in the array of
    their gram (``_gram`` with ``columns``).

    Row i is at distance 0 from itself; rows equal to it elsewhere in S come
    out 0 through the direct-subtraction step.
    """
    # d2 = coef * (m_i + m_j - 2 g_ij), computed in place in the gram's array;
    # the mass sums are formed a run of about graph._BLOCK_ELEMENTS cells at
    # a time, so the block holds no second block-sized array
    d2 = _gram(S, lo, hi, columns)
    d2 *= 2.0
    step = max(1, graph_module._BLOCK_ELEMENTS // max(len(masses), 1))
    for a in range(0, hi - lo, step):
        run = d2[a : a + step]
        diag = (np.arange(len(run)), lo + a + np.arange(len(run)))  # row i's own column
        mass_sum = np.add.outer(masses[lo + a : lo + a + len(run)], masses)
        np.subtract(mass_sum, run, out=run)
        run *= coef
        # the gram form cancels catastrophically when two vectors nearly
        # coincide; recompute those few entries by direct subtraction
        mass_sum += 1.0
        mass_sum *= 1e-9
        near = run < mass_sum
        near[diag] = False
        if near.any():
            r, j = np.nonzero(near)
            run[r, j] = _sq_diff(S, lo + a + r, j, coef)
        run[diag] = 0.0
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2, out=d2)


def _blocks(n: int, block: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + block, n)) for lo in range(0, n, block)]


def _run_blocks(fn, spans, threads: int | None):
    if threads is not None and threads > 1 and len(spans) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda s: fn(*s), spans))
    return [fn(*s) for s in spans]


def _node_runs(n: int) -> list[tuple[int, int]]:
    """Runs of whole rows of an n x n matrix, about graph._FORMAT_BLOCK_CELLS
    cells each: the block that the CSV writer formats."""
    return _blocks(n, max(1, graph_module._FORMAT_BLOCK_CELLS // n))


def _distance_rows(
    U: np.ndarray,
    mu: np.ndarray,
    inverse: np.ndarray,
    coef: float,
    block: int,
    columns,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """(a, b, rows) for each of ``_node_runs(n)``, in node order: ``rows`` is
    the (b - a) x n slice a:b of the distance matrix, node i having the
    distinct vector U[inverse[i]].  Every run is written to one buffer, so a
    consumer copies what it keeps before it asks for the next.

    The distinct vectors' rows are computed ``block`` at a time and in order
    by ``_block_distances`` (with U's ``_columns``), as ``hellrank`` computes
    them, one block when a run first needs it.  A kernel block's rows are
    read in place; a row that runs still read once the next block is needed
    is copied out of it, so each block is freed before the next one is read.
    Working memory holds one kernel block, one run of node rows, and the
    distinct rows that later nodes still share.
    """
    n = len(inverse)
    u = U.shape[0]  # not len(U): the tests' sparse reference kernel has none
    runs = _node_runs(n)
    run = np.arange(n) // runs[0][1]
    last = np.zeros(u, dtype=np.int64)  # the last run that reads each distinct row
    np.maximum.at(last, inverse, run)
    # the first run that reads each distinct row, which is the run that needs
    # its kernel block, as U is in order of first sight; no run reads row u
    first = np.full(u + 1, len(runs))
    np.minimum.at(first, inverse, run)

    def kernel_rows(lo: int, hi: int) -> list[tuple[int, np.ndarray]]:
        rows = _block_distances(U, mu, lo, hi, coef, columns)
        # first[hi] is the run that needs the next block
        return [(k, row.copy() if last[k] >= first[hi] else row) for k, row in enumerate(rows, start=lo)]

    computed = (kernel_rows(lo, hi) for lo, hi in _blocks(u, block))
    kept: dict[int, np.ndarray] = {}
    out = np.empty((runs[0][1], n))
    for j, (a, b) in enumerate(runs):
        mine = inverse[a:b]
        # a row not kept yet is not computed yet
        while int(mine.max()) not in kept:
            kept.update(next(computed))
        rows = out[: b - a]
        for r, k in enumerate(mine.tolist()):
            np.take(kept[k], inverse, out=rows[r])
        yield a, b, rows
        for k in set(mine[last[mine] == j].tolist()):
            del kept[k]


def _check_blocking(block, threads=None) -> None:
    """ValueError unless ``block`` is an integer >= 1 and ``threads`` is
    None or one."""

    def count(value) -> bool:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1

    if not count(block):
        raise ValueError(f"block must be an integer >= 1, got {block!r}")
    if threads is not None and not count(threads):
        raise ValueError(f"threads must be None or an integer >= 1, got {threads!r}")


def _distinct_vectors(
    graph: BipartiteGraph, labels: list[str], side: Side, mode: DistanceMode, weighted: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """``_unique_rows`` of the nodes' sqrt-mass rows, and the mode's coef.

    The count matrix, which becomes S in place, is freed on return: no
    n x c array is alive while the kernel's blocks run.
    """
    S, masses, coef = _sqrt_mass_matrix(_node_counts(graph, labels, side, weighted), mode)
    return (*_unique_rows(S, masses), coef)


def distance_matrix(
    graph: BipartiteGraph,
    side: Side,
    mode: DistanceMode = DistanceMode.NORMALIZED,
    weighted: bool = False,
    max_side: int = DEFAULT_MATRIX_CAP,
    force: bool = False,
    block: int = 64,
) -> "DistanceMatrix":
    """Symmetric pairwise distance matrix for one side.

    The matrix holds the side's u distinct vectors and their column index,
    and computes its rows when they are read: ``to_csv`` and
    ``threshold_graph`` never hold all of it.  The kernel computes ``block``
    distinct vectors' rows at a time, in one block x u array, on the calling
    thread; the node rows are read out of them a run of about
    graph._FORMAT_BLOCK_CELLS cells at a time, the CSV writer's block.  So
    working memory grows with block x u, plus one run and the distinct rows
    that later nodes still read.  Its ``values`` array is quadratic; sides
    larger than ``max_side`` are refused unless ``force`` is set.  ``block``
    changes no output bit.
    """
    _check_blocking(block)
    labels = list(graph.nodes(side))
    n = len(labels)
    if n == 0:
        raise ValueError(f"side {side.value} is empty")
    if n > max_side and not force:
        raise MemoryError(
            f"side has {n} nodes (> cap {max_side}); pass force=True to override"
        )
    U, mu, inverse, _, coef = _distinct_vectors(graph, labels, side, mode, weighted)
    matrix = DistanceMatrix(side=side, labels=labels, values=None, mode=mode)
    matrix._kernel = (U, mu, inverse, coef, block, _columns(U))
    return matrix


def hellrank(
    graph: BipartiteGraph,
    side: Side,
    mode: DistanceMode = DistanceMode.NORMALIZED,
    weighted: bool = False,
    threads: int | None = None,
    block: int = 64,
) -> CentralityScores:
    """Per-node score n / (sum of distances to every node of the side).

    Row sums are streamed block by block over the distinct neighbor-degree
    vectors, each weighted by how many nodes share it, so the quadratic matrix
    is never materialized: each of up to ``threads`` threads scores ``block``
    distinct vectors at a time in one block x u array (u distinct vectors),
    from a column index of the vectors built once per call.  ``block`` and
    ``threads`` change no output bit.  If every pairwise distance is zero
    (structurally identical nodes) all scores are 1.0 and a
    DegenerateDistancesWarning is emitted.
    """
    _check_blocking(block, threads)
    labels = graph.nodes(side)
    n = len(labels)
    if n < 2:
        raise ValueError(f"side {side.value} needs >= 2 nodes, has {n}")
    U, mu, inverse, counts, coef = _distinct_vectors(graph, labels, side, mode, weighted)
    columns = _columns(U)

    def row_sums(lo: int, hi: int) -> np.ndarray:
        d = _block_distances(U, mu, lo, hi, coef, columns)
        d *= counts
        return d.sum(axis=1)

    sums = np.concatenate(_run_blocks(row_sums, _blocks(len(counts), block), threads))[inverse]
    if not sums.any():
        warnings.warn(
            "all pairwise distances are zero; returning uniform scores",
            DegenerateDistancesWarning,
        )
        values = np.ones(n)
    else:
        values = n / sums
    metric = "hellrank-raw" if mode is DistanceMode.RAW else "hellrank"
    return CentralityScores(side, metric, ScoreArray(labels, values))


class DistanceMatrix:
    """Symmetric pairwise node distances for one side.

    Built from the n x n ``values``, or by ``distance_matrix`` from the
    side's distinct vectors: then ``to_csv`` and ``threshold_graph`` compute
    the rows a block at a time, and ``values`` is filled on first read and
    kept.
    """

    def __init__(self, side: Side, labels: list[str], values: np.ndarray | None, mode: DistanceMode):
        self.side, self.labels, self.mode = side, labels, mode
        self._values = values
        self._kernel: tuple | None = None  # distance_matrix's arguments to _distance_rows

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            values = np.empty((len(self.labels),) * 2)
            for a, b, rows in self._row_blocks():
                values[a:b] = rows
            self._values = values
        return self._values

    def _row_blocks(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """(a, b, rows a:b of the matrix) in row order."""
        if self._values is None:
            return _distance_rows(*self._kernel)
        return ((a, b, self._values[a:b]) for a, b in _node_runs(len(self.labels)))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def __getitem__(self, pair: tuple[str, str]) -> float:
        try:
            i, j = self._index[pair[0]], self._index[pair[1]]
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]!r} is not a label of this matrix") from None
        return float(self.values[i, j])

    def to_csv(self, stream: TextIO) -> None:
        stream.write("," + ",".join(map(csv_field, self.labels)) + "\n")
        for a, b, rows in self._row_blocks():
            for label, row in zip(self.labels[a:b], _fixed6_rows(rows)):
                stream.write(csv_field(label) + "," + row + "\n")


def threshold_graph(matrix: DistanceMatrix, threshold: float) -> UnipartiteGraph:
    """Graph on the matrix labels with an edge wherever d(u, v) < threshold."""
    if not threshold >= 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    # per block of rows, its pairs above the diagonal: row a + r, column c > a + r
    near = [(a, *np.nonzero(np.triu(rows < threshold, a + 1))) for a, _, rows in matrix._row_blocks()]
    none = [np.zeros(0, dtype=np.int64)]
    i = np.concatenate(none + [a + r for a, r, _ in near])
    j = np.concatenate(none + [c for _, _, c in near])
    return UnipartiteGraph._from_pairs(matrix.labels, i, j)
