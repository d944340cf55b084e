"""Bipartite graph container, edge-list ingestion and one-mode projection.

Node labels are arbitrary strings, scoped per side: the same string may
appear on both sides and then denotes two distinct nodes.  Graphs are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, TextIO

import numpy as np


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"

    @property
    def other(self) -> "Side":
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class UnknownNodeError(KeyError):
    pass


@dataclass(frozen=True)
class NeighborDegreeVector:
    """Sparse histogram of a node's neighbors keyed by their degree.

    ``entries[i]`` is the number (or summed link weight) of neighbors whose
    degree equals ``i``.  The total mass equals the (weighted) degree of the
    node the vector was built from.
    """

    entries: dict[int, float]

    def __post_init__(self):
        for k, v in self.entries.items():
            if k < 1:
                raise ValueError(f"degree keys must be >= 1, got {k}")
            if v < 0:
                raise ValueError(f"masses must be >= 0, got {v}")

    @property
    def total_mass(self) -> float:
        return sum(self.entries.values())

    def dense(self, length: int | None = None) -> list[float]:
        """Dense view (index i-1 holds the mass for degree i)."""
        n = length if length is not None else (max(self.entries) if self.entries else 0)
        out = [0.0] * n
        for k, v in self.entries.items():
            out[k - 1] = v
        return out


class BipartiteGraph:
    """Immutable two-mode graph.  Links connect a left node to a right node.

    Labels are numbered per side, first seen first and isolated nodes last,
    and held once per side, as the tuples ``_left`` and ``_right``; the
    ``{label: index}`` dicts are built on the first lookup by label.  The
    links are one read-only symmetric CSR, left rows then right rows
    (``_indptr``, ``_indices``, ``_degree``, ``_weights`` or None), each row
    in ascending label order, which fixes the order of every sum over a row.
    """

    def __init__(
        self,
        edges: Iterable[tuple[str, str]],
        weights: Iterable[float] | None = None,
        isolated_left: Iterable[str] = (),
        isolated_right: Iterable[str] = (),
    ):
        left: dict[str, int] = {}
        right: dict[str, int] = {}
        iu: list[int] = []
        iv: list[int] = []
        for u, v in edges:
            iu.append(left.setdefault(u, len(left)))
            iv.append(right.setdefault(v, len(right)))
        if weights is not None:
            weights = list(weights)
            if len(weights) != len(iu):
                raise ValueError("weights must match edges one-to-one")
            for w in weights:
                if not 0 < w < math.inf:
                    raise ValueError(f"link weights must be finite and > 0, got {w}")
        self._build(left, right, iu, iv, weights, isolated_left, isolated_right)

    def _build(self, left: dict[str, int], right: dict[str, int], iu: list[int], iv: list[int],
               weights: list[float] | None, isolated_left: Iterable[str], isolated_right: Iterable[str]):
        """The graph of the links left id iu[k] -- right id iv[k], numbered by
        ``left`` and ``right`` with the isolated nodes added last; each weight
        is already known to be finite and > 0."""
        for u in isolated_left:
            left.setdefault(u, len(left))
        for v in isolated_right:
            right.setdefault(v, len(right))
        self._left, self._right = tuple(left), tuple(right)  # not the reader's dicts
        n1 = len(left)
        row_u = np.array(iu, dtype=np.int64)  # the CSR row of each link's ends
        row_v = np.array(iv, dtype=np.int64) + n1

        self._indptr, self._indices, entry = _symmetric_csr(
            row_u, row_v, self._left + self._right, inverse=weights is not None
        )
        self._degree = _frozen(np.diff(self._indptr))
        self._weights = None
        if weights is not None:
            # a duplicate's weights add up in line order from 0.0, and 0.0 + w == w
            both = np.concatenate((weights, weights))
            self._weights = _frozen(np.bincount(entry, weights=both, minlength=len(self._indices)))
            overflow = np.flatnonzero(self._weights == math.inf)
            if len(overflow):
                k = overflow[0]  # a left row's entry: those come first
                u = self._left[np.searchsorted(self._indptr, k, side="right") - 1]
                v = self._right[self._indices[k] - n1]
                raise ValueError(
                    f"link weights must be finite: the repeats of {u!r} -- {v!r} sum to inf"
                )
            # a node's mass, and in the raw kernel the sum of two nodes' masses,
            # stay finite; minlength gives argmax an entry when there is no link
            mass = np.bincount(np.concatenate((row_u, row_v)), weights=both, minlength=1)
            i = int(np.argmax(mass))  # the heaviest node
            if mass[i] > np.finfo(np.float64).max / 2:
                node = f"left node {self._left[i]!r}" if i < n1 else f"right node {self._right[i - n1]!r}"
                raise ValueError(f"the link weights of {node} sum to {mass[i]:g}, above float max / 2")

    @cached_property
    def _left_index(self) -> dict[str, int]:
        return dict(zip(self._left, range(len(self._left))))

    @cached_property
    def _right_index(self) -> dict[str, int]:
        return dict(zip(self._right, range(len(self._right))))

    # -- basic accessors ---------------------------------------------------

    @property
    def left_nodes(self) -> tuple[str, ...]:
        return self._left

    @property
    def right_nodes(self) -> tuple[str, ...]:
        return self._right

    def nodes(self, side: Side) -> tuple[str, ...]:
        return self._left if side is Side.LEFT else self._right

    @property
    def n1(self) -> int:
        return len(self._left)

    @property
    def n2(self) -> int:
        return len(self._right)

    @property
    def num_links(self) -> int:
        return len(self._indices) // 2

    @property
    def is_weighted(self) -> bool:
        return self._weights is not None

    def neighbors(self, node: str, side: Side | None = None) -> tuple[str, ...]:
        side, a, b = self._span(node, side)
        first = self.n1 if side is Side.LEFT else 0  # row of the other side's first node
        return tuple(map(self.nodes(side.other).__getitem__, (self._indices[a:b] - first).tolist()))

    def degree(self, node: str, side: Side | None = None) -> int:
        """|N(node)|."""
        _, a, b = self._span(node, side)
        return b - a

    def link_weight(self, u: str, v: str) -> float:
        """Weight of the link between left node u and right node v."""
        if self._weights is None:
            raise ValueError("graph has no link weights")
        if u in self._left_index and v in self._right_index:
            _, a, b = self._span(u, Side.LEFT)
            hit = np.flatnonzero(self._indices[a:b] == self.n1 + self._right_index[v])
            if len(hit):
                return float(self._weights[a + hit[0]])
        raise UnknownNodeError(f"no link {u!r} -- {v!r}")

    def side_of(self, node: str) -> Side:
        return self._span(node, None)[0]

    def _span(self, node: str, side: Side | None) -> tuple[Side, int, int]:
        """(side, a, b): the node's side, resolved if None, and neighbors ``_indices[a:b]``."""
        on_left, on_right = node in self._left_index, node in self._right_index
        if side is None:
            if on_left and on_right:
                raise ValueError(f"label {node!r} exists on both sides; pass side= explicitly")
            if not (on_left or on_right):
                raise UnknownNodeError(f"unknown node {node!r}")
            side = Side.LEFT if on_left else Side.RIGHT
        elif not (on_left if side is Side.LEFT else on_right):
            raise UnknownNodeError(f"unknown {side.value} node {node!r}")
        row = self._left_index[node] if side is Side.LEFT else self.n1 + self._right_index[node]
        a, b = self._indptr[row : row + 2].tolist()
        return side, a, b

    def _key(self) -> tuple:
        """What ``==`` compares: right labels, weightedness, left rows and weights."""
        ends, w = self._indptr.tolist(), self._weights
        rows = {
            u: (self.neighbors(u, Side.LEFT), w if w is None else w[a:b].tolist())
            for u, a, b in zip(self._left, ends, ends[1:])
        }
        return sorted(self._right), w is not None, rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(n1={self.n1}, n2={self.n2}, links={self.num_links}"
            f"{', weighted' if self.is_weighted else ''})"
        )


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # shared by every reader of the graph
    return a


def _label_order(labels: tuple[str, ...]) -> np.ndarray:
    """The positions of ``labels`` in ascending label order, as ``sorted`` orders them."""
    column = np.empty(len(labels), dtype=object)  # not 'U': its strings drop trailing NULs
    column[:] = labels
    return np.argsort(column, kind="stable")


def _symmetric_csr(u: np.ndarray, v: np.ndarray, labels: tuple[str, ...], inverse: bool = False):
    """(indptr, indices, entry) of the symmetric CSR, one row per label, of
    the links u[k] -- v[k] != u[k], each row in ascending Python label order.
    A repeated link is one entry per direction.  With ``inverse``,
    ``entry[k]`` is that of u[k] -> v[k] and ``entry[len(u) + k]`` that of
    v[k] -> u[k]; otherwise ``entry`` is None."""
    n, m = len(labels), len(u)
    by_label = _label_order(labels)
    rank = np.empty(n, dtype=np.int64)
    rank[by_label] = np.arange(n)
    # one key row * n + rank[col] per direction, written in place
    keys = np.empty(2 * m, dtype=np.int64)
    for out, rows, cols in ((keys[:m], u, v), (keys[m:], v, u)):
        np.multiply(rows, n, out=out)
        out += rank[cols]
    entry = None
    if inverse:
        keys, entry = np.unique(keys, return_inverse=True)
    else:
        keys.sort()
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        if not first.all():  # a link repeats
            keys = keys[first]
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)  # row i's keys start at i * n
    np.remainder(keys, max(n, 1), out=keys)  # each key's rank[col]
    return _frozen(indptr), _frozen(by_label[keys]), entry


def _side_range(graph: BipartiteGraph, side: Side) -> tuple[int, int]:
    """The side's rows of the CSR: lo..hi-1."""
    return (0, graph.n1) if side is Side.LEFT else (graph.n1, graph.n1 + graph.n2)


# Work per vectorized block: the elements of one (nodes x sources) BFS array
# in the baselines' betweenness sweep, the words of one gathered (links x
# words) frontier in their hop count, the 2-hop walks of one run of
# _co_occurrences, and in the Hellinger kernel the products of one scatter of
# a gram column and the entries of one run of rows that the distinct-vector
# search compares with their sorted neighbours.
# Kept small: on a 1,329-node graph, 8x the budget raised the peak RSS of
# `scores --metric all` from 33.4 to 45.0 MB, 10.7 MB of it in the betweenness
# sweeps, whose blocks of levels it widens, and ran no faster.
_BLOCK_ELEMENTS = 8192


def _co_occurrences(graph: BipartiteGraph, side: Side) -> Iterator[tuple]:
    """(a, b, u - a, v, c) per run a..b-1 of the side's nodes u: each v != u that
    shares a neighbor with u, sorted by (u, v), counted from the side's first node,
    and c = (B Bᵀ)[u, v], its 2-hop walk count.  A run lists ~_BLOCK_ELEMENTS walks."""
    indptr, indices, deg = graph._indptr, graph._indices, graph._degree
    lo, hi = _side_range(graph, side)
    size = hi - lo
    # walks before each node u of the side, then all of them
    walked = np.cumsum(np.concatenate(([0], deg[indices[indptr[lo] : indptr[hi]]])))
    walked = walked[indptr[lo : hi + 1] - indptr[lo]]
    cut = np.flatnonzero(np.diff(walked[:-1] // _BLOCK_ELEMENTS, prepend=-1))
    cut = np.append(cut, size)
    for a, b in zip(cut[:-1].tolist(), cut[1:].tolist()):
        mid = indices[indptr[lo + a] : indptr[lo + b]]  # w of each link u - w
        span = deg[mid]
        u = np.repeat(np.repeat(np.arange(b - a), deg[lo + a : lo + b]), span)
        offset = np.repeat(indptr[mid] - (np.cumsum(span) - span), span)
        v = indices[offset + np.arange(len(u))] - lo
        key, c = np.unique(u * size + v, return_counts=True)
        u, v = np.divmod(key, size)
        pair = u + a != v
        yield a, b, u[pair], v[pair], c[pair]


def csv_field(text: str, delimiter: str = ",") -> str:
    """``text`` as one CSV field, quoted as csv.QUOTE_MINIMAL would quote it.

    Quotes (doubling inner quotes) only when the text holds the delimiter, a
    quote or a line break, so ordinary labels are written unchanged.
    """
    if delimiter in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# Cells per block of _fixed6_rows: a block's temporaries stay near 1 MB.
_FORMAT_BLOCK_CELLS = 16384


def _fixed6_rows(values) -> Iterator[str]:
    """Each row of the 2-D float array ``values`` as CSV cells, without a line
    end, byte-identical to ``",".join(f"{v:.6f}" for v in row)``.

    The digits come from ``np.rint(v * 1e6)``, a block of rows at a time.
    Multiplying by 1e6 is one correctly rounded, monotonic step, and every
    half-integer below 2**52 is a double, so the product rounds to the same
    integer as the exact ``v * 10**6`` unless it sits on a half-integer,
    where the f-string breaks the tie to even. Cells whose product lies
    within 1e-6 of a half-integer, negative values, -0.0, non-finite values
    and values of 1e9 and more are written by the f-string instead.
    """
    values = np.asarray(values, dtype=np.float64)
    step = max(1, _FORMAT_BLOCK_CELLS // max(values.shape[-1], 1))  # [] is no rows
    for lo in range(0, len(values), step):
        yield from _fixed6_block(values[lo : lo + step])


def _fixed6_block(v: np.ndarray) -> list[str]:
    with np.errstate(over="ignore"):  # an overflow to inf takes the f-string
        x = v * 1e6
    fast = (x < 1e15) & ~np.signbit(v)  # also False for nan
    x[~fast] = 0.0  # a placeholder: these cells are rewritten at the end
    fast &= np.abs(x - np.floor(x) - 0.5) >= 1e-6
    r = np.rint(x).astype(np.int64).ravel()
    width = len(str(r.max() // 1_000_000))  # digits before the point
    # numpy divides by a constant with a multiply and shift, faster in 32 bits
    r = r.astype(np.uint32 if r.max() < 2**32 else np.int64, copy=False)
    # one text row per cell: integer digits, ".", six fraction digits, ","
    text = np.empty((r.size, width + 8), np.uint8)
    q = r
    for k in range(width + 5, -1, -1):
        next_q = q // 10
        text[:, k + (k >= width)] = q - next_q * 10
        q = next_q
    text += 48  # digit values to ASCII digits
    text[:, width] = ord(".")
    text[:, -1] = ord(",")
    text.reshape(len(v), -1)[:, -1] = ord("\n")  # the last cell of each row
    if width > 1:
        keep = np.ones(text.shape, bool)
        for k in range(width - 1):  # leading zeros of the integer part
            keep[:, k] = r >= 10 ** (width + 5 - k)
        text = text[keep]
    lines = text.tobytes().decode("ascii").split("\n")[:-1]
    for i in np.flatnonzero(~fast.all(axis=1)):
        cells = lines[i].split(",")
        for j in np.flatnonzero(~fast[i]):
            cells[j] = f"{v[i, j]:.6f}"
        lines[i] = ",".join(cells)
    return lines


def dot_id(text: str) -> str:
    """``text`` as a quoted DOT ID: backslashes and quotes are escaped, so a
    quote or a trailing backslash cannot end the string early."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


class UnipartiteGraph:
    """Simple undirected graph (projection target and threshold graph), stored
    as BipartiteGraph stores its links: ``_indptr`` and ``_indices``."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]]):
        nodes = tuple(dict.fromkeys(nodes))
        index = {x: i for i, x in enumerate(nodes)}
        pairs = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if u not in index or v not in index:
                raise UnknownNodeError(f"edge ({u!r}, {v!r}) references unknown node")
            pairs.append((index[u], index[v]))
        a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        self._store(nodes, a, b)
        self._index = index

    @classmethod
    def _from_pairs(cls, nodes: Iterable[str], a: np.ndarray, b: np.ndarray) -> "UnipartiteGraph":
        """The graph on the distinct ``nodes`` with the edges nodes[a[k]] -- nodes[b[k]] != nodes[a[k]]."""
        graph = cls.__new__(cls)
        graph._store(tuple(nodes), a, b)
        return graph

    def _store(self, nodes: tuple[str, ...], a: np.ndarray, b: np.ndarray):
        self._nodes = nodes
        self._indptr, self._indices, _ = _symmetric_csr(a, b, nodes)

    @cached_property
    def _index(self) -> dict[str, int]:
        """{label: index}, built on the first lookup by label."""
        return dict(zip(self._nodes, range(len(self._nodes))))

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    def neighbors(self, node: str) -> tuple[str, ...]:
        try:
            i = self._index[node]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node!r}") from None
        a, b = self._indptr[i : i + 2].tolist()
        return tuple(map(self._nodes.__getitem__, self._indices[a:b].tolist()))

    def degree(self, node: str) -> int:
        return len(self.neighbors(node))

    def edges(self) -> list[tuple[str, str]]:
        return list(self._edge_pairs())

    def _edge_pairs(self) -> Iterator[tuple[str, str]]:
        """Each edge once as (u, v) with u < v, row by row of the CSR."""
        ends = self._indptr.tolist()
        for u, a, b in zip(self._nodes, ends, ends[1:]):
            for v in map(self._nodes.__getitem__, self._indices[a:b].tolist()):
                if u < v:
                    yield u, v

    @property
    def num_edges(self) -> int:
        return len(self._indices) // 2

    def to_edge_list(self, stream: TextIO, delimiter: str = "\t") -> None:
        for u, v in self._edge_pairs():
            stream.write(f"{csv_field(u, delimiter)}{delimiter}{csv_field(v, delimiter)}\n")

    def to_dot(self, stream: TextIO, name: str = "G") -> None:
        stream.write(f"graph {name} {{\n")
        for n in self._nodes:
            stream.write(f"  {dot_id(n)};\n")
        for u, v in self._edge_pairs():
            stream.write(f"  {dot_id(u)} -- {dot_id(v)};\n")
        stream.write("}\n")

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnipartiteGraph):
            return NotImplemented
        return (sorted(self.nodes), set(self.edges())) == (sorted(other.nodes), set(other.edges()))


def load_edge_list(
    lines: Iterable[str],
    delimiter: str | None = None,
    has_weights: bool = False,
    comment_prefixes: tuple[str, ...] = ("%", "#"),
    isolated_left: Iterable[str] = (),
    isolated_right: Iterable[str] = (),
) -> BipartiteGraph:
    """Parse a two- or three-column edge list into a BipartiteGraph.

    First column = left node, second = right node, optional third = weight.
    ``delimiter=None`` splits on any run of whitespace (KONECT-style files).
    Duplicate lines collapse; with weights their weights are summed.
    """
    left: dict[str, int] = {}
    right: dict[str, int] = {}
    iu: list[int] = []
    iv: list[int] = []
    weights: list[float] = []
    want = 3 if has_weights else 2
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(comment_prefixes):
            continue
        fields = line.split(delimiter)
        if len(fields) != want:
            raise EdgeListParseError(
                lineno, f"expected {want} fields, got {len(fields)}: {line!r}"
            )
        iu.append(left.setdefault(fields[0], len(left)))
        iv.append(right.setdefault(fields[1], len(right)))
        if has_weights:
            try:
                w = float(fields[2])
            except ValueError:
                raise EdgeListParseError(
                    lineno, f"non-numeric weight {fields[2]!r}"
                ) from None
            if not 0 < w < math.inf:
                raise EdgeListParseError(
                    lineno, f"weight must be finite and > 0, got {fields[2]!r}"
                )
            weights.append(w)
    graph = BipartiteGraph.__new__(BipartiteGraph)
    graph._build(left, right, iu, iv, weights if has_weights else None, isolated_left, isolated_right)
    return graph


def load_node_list(
    lines: Iterable[str], delimiter: str | None = "\n"
) -> tuple[list[str], list[str]]:
    """Parse a sidecar node list declaring (possibly isolated) nodes.

    Each data line is ``left <label>`` or ``right <label>``; comment lines
    start with ``%`` or ``#``.  ``delimiter`` is that of the edge list the
    labels are to match: a label containing it (any whitespace for None, as in
    ``load_edge_list``) could never match and is rejected with its line number.
    The default accepts the rest of the line as the label.
    """
    left: list[str] = []
    right: list[str] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(("%", "#")):
            continue
        fields = line.split(None, 1)
        if len(fields) != 2 or fields[0] not in ("left", "right"):
            raise EdgeListParseError(
                lineno, f"expected 'left <label>' or 'right <label>', got {line!r}"
            )
        label = fields[1]
        if label.split(delimiter) != [label]:
            raise EdgeListParseError(
                lineno,
                f"node label {label!r} contains "
                f"{'whitespace' if delimiter is None else repr(delimiter)} "
                "and can never match an edge-list label",
            )
        (left if fields[0] == "left" else right).append(label)
    return left, right


def neighbor_degree_vector(
    graph: BipartiteGraph, node: str, side: Side | None = None, weighted: bool = False
) -> NeighborDegreeVector:
    """Count the node's neighbors by their degree (sparse histogram).

    With ``weighted`` each neighbor contributes its link weight instead of 1.
    """
    if weighted and not graph.is_weighted:
        raise ValueError("graph has no link weights")
    _, a, b = graph._span(node, side)
    degrees = graph._degree[graph._indices[a:b]].tolist()
    masses = graph._weights[a:b].tolist() if weighted else [1.0] * len(degrees)
    entries: dict[int, float] = {}
    for d, w in zip(degrees, masses):
        entries[d] = entries.get(d, 0.0) + w
    return NeighborDegreeVector(entries)


def project(graph: BipartiteGraph, side: Side) -> UnipartiteGraph:
    """One-mode projection: u -- v iff u and v share at least one neighbor,
    read off the co-occurrence counts of ``B Bᵀ``."""
    pairs = [np.stack((a + u, v))[:, a + u < v] for a, _, u, v, _ in _co_occurrences(graph, side)]
    u, v = np.concatenate([np.zeros((2, 0), dtype=np.int64), *pairs], axis=1)
    return UnipartiteGraph._from_pairs(graph.nodes(side), u, v)
