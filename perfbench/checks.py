"""Output checks, independent of the code under test.

Each check recomputes what the CLI should have printed from the generated
input alone, with numpy, scipy or networkx, and raises ``CheckError`` on the
first mismatch.  Nothing here imports hellrank.  Printed values carry six
decimals, so a printed value may differ from the exact one by 5e-7.
"""

from __future__ import annotations

import json
import math

import networkx as nx
import numpy as np
from networkx.algorithms import bipartite as nxb
from scipy import stats

PRINT_TOL = 5e-7
WIDE_METRICS = ["hellrank", "degree2", "closeness2", "betweenness2", "pagerank",
                "eigenvector", "latapy", "degree1", "closeness1", "betweenness1"]


class CheckError(Exception):
    pass


# -- reference computations -----------------------------------------------------


def neighbor_degree_matrix(edges: list[tuple[str, str]]) -> tuple[list[str], np.ndarray]:
    """Left labels in first-appearance order and H[i, d], the number of
    neighbors of left node i whose degree is d."""
    left = {u: i for i, u in enumerate(dict.fromkeys(u for u, _ in edges))}
    right = {v: j for j, v in enumerate(dict.fromkeys(v for _, v in edges))}
    li = np.array([left[u] for u, _ in edges])
    rdeg = np.bincount(np.array([right[v] for _, v in edges]), minlength=len(right))
    nbdeg = rdeg[[right[v] for _, v in edges]]
    width = int(nbdeg.max()) + 1
    H = np.bincount(li * width + nbdeg, minlength=len(left) * width).reshape(len(left), width)
    return list(left), H.astype(float)


def normalized_distances(H: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized Hellinger distances between the distinct rows of H.

    Returns (inverse, counts, D): row i of H is distinct row inverse[i], which
    occurs counts[u] times, and D[u, v] is the distance between distinct rows u
    and v, computed by explicit subtraction of the square-root vectors.
    """
    S = np.sqrt(H / H.sum(axis=1, keepdims=True))
    unique, inverse, counts = np.unique(S, axis=0, return_inverse=True, return_counts=True)
    u = len(unique)
    D = np.empty((u, u))
    block = max(1, 4_000_000 // (u * unique.shape[1]))
    for lo in range(0, u, block):
        diff = unique[lo : lo + block, None, :] - unique[None, :, :]
        D[lo : lo + block] = np.sqrt(0.5 * np.einsum("ijk,ijk->ij", diff, diff))
    return inverse.ravel(), counts, D


def hellrank_scores(edges) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(left labels, normalized-mode scores n / sum of distances, vector group)."""
    labels, H = neighbor_degree_matrix(edges)
    inverse, counts, D = normalized_distances(H)
    return labels, len(labels) / (D @ counts)[inverse], inverse


def to_networkx(edges) -> tuple[nx.Graph, list]:
    """The graph with left nodes ("L", label) and right nodes ("R", label)."""
    G = nx.Graph()
    left = [("L", u) for u in dict.fromkeys(u for u, _ in edges)]
    G.add_nodes_from(left, bipartite=0)
    G.add_nodes_from((("R", v) for v in dict.fromkeys(v for _, v in edges)), bipartite=1)
    G.add_edges_from((("L", u), ("R", v)) for u, v in edges)
    return G, left


def eigenvector_scores(G: nx.Graph) -> dict:
    """Principal eigenvector of the adjacency matrix, by absolute value.

    On a disconnected graph it lives on the component with the largest
    leading eigenvalue and is 0 elsewhere; networkx refuses such graphs, so
    it is taken on that component.
    """
    best, best_value = None, -1.0
    for nodes in nx.connected_components(G):
        if len(nodes) > 1:
            A = nx.to_numpy_array(G.subgraph(nodes))
            value = np.linalg.eigvalsh(A)[-1]
            if value > best_value:
                best, best_value = nodes, value
    scores = dict.fromkeys(G, 0.0)
    scores.update(nx.eigenvector_centrality_numpy(G.subgraph(best)))
    return {x: abs(v) for x, v in scores.items()}


def wide_table_reference(edges) -> tuple[list[str], dict[str, np.ndarray]]:
    """Left labels, sorted, and every ``scores --metric all`` column for them."""
    G, left = to_networkx(edges)
    P = nxb.projected_graph(G, left)
    eigen = eigenvector_scores(G)
    top = max(eigen[x] for x in left)
    labels, scores, _ = hellrank_scores(edges)
    hell = dict(zip(labels, scores))
    columns = {
        "degree2": nxb.degree_centrality(G, left),
        "closeness2": nxb.closeness_centrality(G, left, normalized=True),
        "betweenness2": nxb.betweenness_centrality(G, left),
        "pagerank": nx.pagerank(G, alpha=0.85, tol=1e-12, max_iter=1000),
        "eigenvector": {x: eigen[x] / top for x in left},
        "latapy": nxb.latapy_clustering(G, left, mode="dot"),
        "degree1": nx.degree_centrality(P),
        # hellrank scales projected closeness by the reachable fraction with
        # numerator n - 1, which is networkx's closeness without the
        # Wasserman-Faust factor
        "closeness1": nx.closeness_centrality(P, wf_improved=False),
        "betweenness1": nx.betweenness_centrality(P),
    }
    order = sorted(x for _, x in left)
    table = {"hellrank": np.array([hell[x] for x in order])}
    for name, values in columns.items():
        table[name] = np.array([values[("L", x)] for x in order])
    return order, table


def right_side_vectors(edges) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Right labels, sorted, with their bipartite degree and PageRank."""
    G, left = to_networkx(edges)
    rank = nx.pagerank(G, alpha=0.85, tol=1e-12, max_iter=1000)
    labels = sorted({v for _, v in edges})
    degree = np.array([G.degree[("R", v)] / len(left) for v in labels])
    return labels, degree, np.array([rank[("R", v)] for v in labels])


def tau_a(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall tau-a from scipy's tau-b and the tie counts.

    tau_b = (C - D) / sqrt((P - Tx)(P - Ty)) with P = n(n-1)/2 pairs and Tx, Ty
    the pairs tied in x and in y, so C - D, and with it tau-a = (C - D) / P,
    follows from tau-b.
    """
    n = len(x)
    pairs = n * (n - 1) / 2

    def tied(v):
        counts = np.unique(v, return_counts=True)[1].astype(float)
        return float((counts * (counts - 1) / 2).sum())

    tau_b = stats.kendalltau(x, y).statistic
    return float(tau_b * math.sqrt((pairs - tied(x)) * (pairs - tied(y))) / pairs)


def top_k_indicator(labels: list[str], values: np.ndarray, k: int) -> np.ndarray:
    """1 for the k best values, ties at the cut broken by ascending label."""
    order = sorted(range(len(labels)), key=lambda i: (-values[i], labels[i]))
    out = np.zeros(len(labels))
    out[order[:k]] = 1.0
    return out


def null_model_moments(n2: int, p: float, k: int) -> tuple[float, float]:
    """(mean, second moment) of sqrt(k + i - 2 sqrt(k i)), i ~ Poisson(n2 p),
    over i = 1..n2."""
    i = np.arange(1, n2 + 1, dtype=float)
    pmf = stats.poisson.pmf(i, n2 * p)
    d2 = np.maximum(k + i - 2.0 * np.sqrt(k * i), 0.0)
    return float(pmf @ np.sqrt(d2)), float(pmf @ d2)


def simulate_raw_distances(n1: int, n2: int, p: float, k: int, graphs: int,
                           seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-graph means of d and d^2 over the raw Hellinger distances from a
    degree-k reference node to the other n1 - 1 left nodes of G(n1, n2, p).

    Conditioning the reference row on degree k makes it a uniform k-subset of
    the right side; the other rows stay unconditioned.
    """
    rng = np.random.default_rng([seed, 2])
    m1, m2 = np.empty(graphs), np.empty(graphs)
    batch = 64
    for lo in range(0, graphs, batch):
        b = min(batch, graphs - lo)
        adj = rng.random((b, n1, n2)) < p
        adj[:, 0, :] = False
        ref = np.argsort(rng.random((b, n2)), axis=1)[:, :k]
        adj[np.arange(b)[:, None], 0, ref] = True
        rdeg = adj.sum(axis=1)
        g, r, c = np.nonzero(adj)
        H = np.bincount((g * n1 + r) * (n1 + 1) + rdeg[g, c], minlength=b * n1 * (n1 + 1))
        R = np.sqrt(H.reshape(b, n1, n1 + 1).astype(float))
        d2 = ((R[:, 1:, :] - R[:, :1, :]) ** 2).sum(axis=2)
        m1[lo : lo + b] = np.sqrt(d2).mean(axis=1)
        m2[lo : lo + b] = d2.mean(axis=1)
    return m1, m2


# -- checks of printed outputs ---------------------------------------------------


def _parse_rows(text: str, width: int) -> list[list[str]]:
    rows = [line.split(",") for line in text.split("\n")[1:-1]]
    for r in rows:
        if len(r) != width:
            raise CheckError(f"row {r[0]!r} has {len(r)} fields, want {width}")
    return rows


def _compare(name: str, labels, got: np.ndarray, want: np.ndarray, tol: float) -> None:
    err = np.abs(got - want)
    worst = int(np.argmax(err))
    if err[worst] > tol:
        raise CheckError(f"{name} of {labels[worst]!r}: printed {got[worst]:.6f}, "
                         f"expected {want[worst]:.9f}")


def check_scores(output: bytes, edges) -> None:
    """``scores`` (normalized hellrank, left side): every node's score and the
    ranking by descending score, equal scores by ascending label."""
    text = output.decode("utf-8")
    if not text.startswith("label,score\n"):
        raise CheckError("missing label,score header")
    rows = _parse_rows(text, 2)
    labels, scores, group = hellrank_scores(edges)
    printed = [r[0] for r in rows]
    if sorted(printed) != sorted(labels):
        raise CheckError("printed labels are not the left side")
    index = {x: i for i, x in enumerate(labels)}
    at = np.array([index[x] for x in printed])
    want = scores[at]
    _compare("score", printed, np.array([float(r[1]) for r in rows]), want,
             PRINT_TOL + 1e-9 * want.max())
    for i in np.flatnonzero(want[:-1] < want[1:] * (1 - 1e-9)):
        raise CheckError(f"{printed[i + 1]!r} ranked below {printed[i]!r}")
    for i in np.flatnonzero(group[at[:-1]] == group[at[1:]]):
        if printed[i] > printed[i + 1]:
            raise CheckError(f"equal scores of {printed[i]!r}, {printed[i + 1]!r} not in label order")


def check_distances(output: bytes, edges) -> None:
    """``distances`` (normalized, left side): labels, shape and every entry."""
    text = output.decode("utf-8")
    header = text[: text.find("\n")].split(",")
    labels = header[1:]
    want_labels, H = neighbor_degree_matrix(edges)
    if header[0] != "" or sorted(labels) != sorted(want_labels):
        raise CheckError("header is not an empty cell and the left labels")
    rows = _parse_rows(text, len(labels) + 1)
    if [r[0] for r in rows] != labels:
        raise CheckError(f"{len(rows)} rows whose labels differ from the {len(labels)} columns")
    inverse, _, D = normalized_distances(H)
    index = {x: i for i, x in enumerate(want_labels)}
    at = inverse[[index[x] for x in labels]]
    got = np.array([r[1:] for r in rows], dtype=float)
    want = D[np.ix_(at, at)]
    err = np.abs(got - want)
    i, j = np.unravel_index(int(np.argmax(err)), err.shape)
    if err[i, j] > PRINT_TOL + 1e-12:
        raise CheckError(f"d({labels[i]!r}, {labels[j]!r}): printed {got[i, j]:.6f}, "
                         f"expected {want[i, j]:.9f}")


def check_wide_table(output: bytes, edges) -> None:
    """``scores --metric all`` (left side) against networkx, column by column."""
    text = output.decode("utf-8")
    if not text.startswith("label," + ",".join(WIDE_METRICS) + "\n"):
        raise CheckError("wrong header")
    rows = _parse_rows(text, len(WIDE_METRICS) + 1)
    labels, table = wide_table_reference(edges)
    if [r[0] for r in rows] != labels:
        raise CheckError("rows are not the left labels in sorted order")
    for c, name in enumerate(WIDE_METRICS, start=1):
        got = np.array([float(r[c]) for r in rows])
        _compare(name, labels, got, table[name], PRINT_TOL + 1e-9)


def _expect(name: str, got, want: float, tol: float) -> None:
    if not isinstance(got, float) or abs(got - want) > tol:
        raise CheckError(f"{name} {got!r}, expected {want!r} +- {tol:.2g}")


def check_correlate(output: bytes, edges, topk: int) -> None:
    """``correlate --side right --metric-a degree2 --metric-b pagerank``."""
    payload = json.loads(output)
    echo = {key: payload.get(key) for key in ("metric_a", "metric_b", "k")}
    if echo != {"metric_a": "degree2", "metric_b": "pagerank", "k": topk}:
        raise CheckError(f"arguments echoed as {echo}")
    labels, degree, rank = right_side_vectors(edges)
    _expect("kendall_tau", payload.get("kendall_tau"), tau_a(degree, rank), 1e-9)
    rho = np.corrcoef(top_k_indicator(labels, degree, topk), top_k_indicator(labels, rank, topk))
    _expect("spearman_top_k", payload.get("spearman_top_k"), float(rho[0, 1]), 1e-9)


def check_null_model(output: bytes, n1: int, n2: int, p: float, k: int, samples: int,
                     seed: int, sigmas: float = 1.0, z: float = 5.0) -> None:
    """``null-model --method empirical``: the closed-form fields to 1e-9, and
    the Monte Carlo moments against an independent simulation.

    The simulation draws its own graphs, so the check holds whatever order the
    program draws its random numbers in.  The Monte Carlo moments may differ
    from the simulation's by ``z`` standard errors, estimated from the spread
    of per-graph means (graphs are independent; distances within one are not).
    """
    payload = json.loads(output)
    mean, m2 = null_model_moments(n2, p, k)
    var = max(m2 - mean * mean, 0.0)
    closed = {"mean": mean, "second_moment": m2, "variance": var, "sigmas": sigmas,
              "threshold": max(0.0, mean - sigmas * math.sqrt(var))}
    for key, want in closed.items():
        _expect(key, payload.get(key), want, 1e-9 * max(1.0, abs(want)))
    mc = payload.get("monte_carlo") or {}
    echo = {key: mc.get(key) for key in ("method", "samples", "seed")}
    if echo != {"method": "empirical", "samples": samples, "seed": seed}:
        raise CheckError(f"monte_carlo parameters echoed as {echo}")
    graphs = math.ceil(samples / (n1 - 1))
    sim1, sim2 = simulate_raw_distances(n1, n2, p, k, 2 * graphs, seed)
    for key, sim in (("mean", sim1), ("second_moment", sim2)):
        se = math.sqrt(sim.var(ddof=1) * (1 / graphs + 1 / len(sim)))
        _expect("monte_carlo " + key, mc.get(key), float(sim.mean()), z * se)
    _expect("monte_carlo variance", mc.get("variance"),
            max(mc["second_moment"] - mc["mean"] ** 2, 0.0), 1e-9)
