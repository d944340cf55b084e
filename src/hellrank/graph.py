"""Bipartite graph container, edge-list ingestion and one-mode projection.

Node labels are arbitrary strings, scoped per side: the same string may
appear on both sides and then denotes two distinct nodes.  Graphs are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
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
    """Immutable two-mode graph.  Links connect a left node to a right node."""

    def __init__(
        self,
        edges: Iterable[tuple[str, str]],
        weights: Iterable[float] | None = None,
        isolated_left: Iterable[str] = (),
        isolated_right: Iterable[str] = (),
    ):
        edges = list(edges)
        if weights is not None:
            weights = list(weights)
            if len(weights) != len(edges):
                raise ValueError("weights must match edges one-to-one")
            for w in weights:
                if not w > 0:
                    raise ValueError(f"link weights must be > 0, got {w}")

        adj_left: dict[str, list[str]] = {}
        adj_right: dict[str, list[str]] = {}
        wmap: dict[tuple[str, str], float] = {}
        for i, (u, v) in enumerate(edges):
            if (u, v) in wmap:
                # duplicate link: collapse, summing weights when present
                if weights is not None:
                    wmap[(u, v)] += weights[i]
                continue
            wmap[(u, v)] = weights[i] if weights is not None else 1.0
            adj_left.setdefault(u, []).append(v)
            adj_right.setdefault(v, []).append(u)
        for u in isolated_left:
            adj_left.setdefault(u, [])
        for v in isolated_right:
            adj_right.setdefault(v, [])

        self._left = tuple(adj_left)
        self._right = tuple(adj_right)
        self._adj = {
            Side.LEFT: {u: tuple(sorted(ns)) for u, ns in adj_left.items()},
            Side.RIGHT: {v: tuple(sorted(ns)) for v, ns in adj_right.items()},
        }
        self._weights = wmap if weights is not None else None
        # Structures derived from the links and built on first use (the
        # baselines' adjacency and BFS sweeps). The links never change, so
        # an entry never goes stale; it lives as long as the graph.
        self._memo: dict = {}

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
        return sum(len(ns) for ns in self._adj[Side.LEFT].values())

    @property
    def is_weighted(self) -> bool:
        return self._weights is not None

    def neighbors(self, node: str, side: Side | None = None) -> tuple[str, ...]:
        side = self._resolve_side(node, side)
        return self._adj[side][node]

    def degree(self, node: str, side: Side | None = None) -> int:
        """|N(node)|."""
        return len(self.neighbors(node, side))

    def link_weight(self, u: str, v: str) -> float:
        """Weight of the link between left node u and right node v."""
        if self._weights is None:
            raise ValueError("graph has no link weights")
        try:
            return self._weights[(u, v)]
        except KeyError:
            raise UnknownNodeError(f"no link {u!r} -- {v!r}") from None

    def side_of(self, node: str) -> Side:
        return self._resolve_side(node, None)

    def _resolve_side(self, node: str, side: Side | None) -> Side:
        if side is not None:
            if node not in self._adj[side]:
                raise UnknownNodeError(f"unknown {side.value} node {node!r}")
            return side
        on_left = node in self._adj[Side.LEFT]
        on_right = node in self._adj[Side.RIGHT]
        if on_left and on_right:
            raise ValueError(
                f"label {node!r} exists on both sides; pass side= explicitly"
            )
        if on_left:
            return Side.LEFT
        if on_right:
            return Side.RIGHT
        raise UnknownNodeError(f"unknown node {node!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            sorted(self._left) == sorted(other._left)
            and sorted(self._right) == sorted(other._right)
            and {u: ns for u, ns in self._adj[Side.LEFT].items()}
            == {u: ns for u, ns in other._adj[Side.LEFT].items()}
            and self._weights == other._weights
        )

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(n1={self.n1}, n2={self.n2}, links={self.num_links}"
            f"{', weighted' if self.is_weighted else ''})"
        )


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
    # one text row per cell: integer digits, ".", six fraction digits, ","
    text = np.empty((r.size, width + 8), np.uint8)
    q = r
    for k in range(width + 5, -1, -1):
        q, digit = np.divmod(q, 10)
        text[:, k + (k >= width)] = digit + 48
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
    """Simple undirected graph (projection target and threshold graph)."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]]):
        self._nodes = tuple(dict.fromkeys(nodes))
        known = set(self._nodes)
        adj: dict[str, set[str]] = {n: set() for n in self._nodes}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if u not in known or v not in known:
                raise UnknownNodeError(f"edge ({u!r}, {v!r}) references unknown node")
            adj[u].add(v)
            adj[v].add(u)
        self._adj = {n: tuple(sorted(ns)) for n, ns in adj.items()}

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    def neighbors(self, node: str) -> tuple[str, ...]:
        try:
            return self._adj[node]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node!r}") from None

    def degree(self, node: str) -> int:
        return len(self.neighbors(node))

    def edges(self) -> list[tuple[str, str]]:
        return [(u, v) for u in self._nodes for v in self._adj[u] if u < v]

    @property
    def num_edges(self) -> int:
        return sum(len(ns) for ns in self._adj.values()) // 2

    def to_edge_list(self, stream: TextIO, delimiter: str = "\t") -> None:
        for u, v in self.edges():
            stream.write(f"{csv_field(u, delimiter)}{delimiter}{csv_field(v, delimiter)}\n")

    def to_dot(self, stream: TextIO, name: str = "G") -> None:
        stream.write(f"graph {name} {{\n")
        for n in self._nodes:
            stream.write(f"  {dot_id(n)};\n")
        for u, v in self.edges():
            stream.write(f"  {dot_id(u)} -- {dot_id(v)};\n")
        stream.write("}\n")

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnipartiteGraph):
            return NotImplemented
        return sorted(self._nodes) == sorted(other._nodes) and self._adj == other._adj


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
    edges: list[tuple[str, str]] = []
    weights: list[float] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(comment_prefixes):
            continue
        fields = line.split(delimiter)
        want = 3 if has_weights else 2
        if len(fields) != want:
            raise EdgeListParseError(
                lineno, f"expected {want} fields, got {len(fields)}: {line!r}"
            )
        edges.append((fields[0], fields[1]))
        if has_weights:
            try:
                w = float(fields[2])
            except ValueError:
                raise EdgeListParseError(
                    lineno, f"non-numeric weight {fields[2]!r}"
                ) from None
            if not w > 0:
                raise EdgeListParseError(lineno, f"weight must be > 0, got {w}")
            weights.append(w)
    return BipartiteGraph(
        edges,
        weights if has_weights else None,
        isolated_left=isolated_left,
        isolated_right=isolated_right,
    )


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
    side = graph._resolve_side(node, side)
    entries: dict[int, float] = {}
    for nb in graph.neighbors(node, side):
        d = graph.degree(nb, side.other)
        w = 1.0
        if weighted:
            w = graph.link_weight(node, nb) if side is Side.LEFT else graph.link_weight(nb, node)
        entries[d] = entries.get(d, 0.0) + w
    return NeighborDegreeVector(entries)


def weighted_neighbor_degree_vector(
    graph: BipartiteGraph, node: str, side: Side | None = None
) -> NeighborDegreeVector:
    """neighbor_degree_vector with each neighbor contributing its link weight."""
    return neighbor_degree_vector(graph, node, side, weighted=True)


def project(graph: BipartiteGraph, side: Side) -> UnipartiteGraph:
    """One-mode projection: u -- v iff u and v share at least one neighbor."""
    nodes = graph.nodes(side)
    edges: set[tuple[str, str]] = set()
    for mid in graph.nodes(side.other):
        ns = graph.neighbors(mid, side.other)
        for i in range(len(ns)):
            for j in range(i + 1, len(ns)):
                u, v = ns[i], ns[j]
                edges.add((u, v) if u <= v else (v, u))
    return UnipartiteGraph(nodes, edges)
