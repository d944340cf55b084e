"""Span tracing around calls into hellrank's layers, and the per-layer
metrics derived from the spans.

The child process installs the wrappers only in a traced run.  Each wrapper
replaces a module or class attribute that a caller looks up at call time, so
no file of the program changes.  Spans and counters stay in memory until the
child writes them out once, at exit.  The program runs its default single
worker thread, so one stack of open spans gives every span its parent.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


class Tracer:
    """Wraps functions so that each call records a span and counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def wrap(self, fn, name, count=None):
        """``fn`` recording one span per call.

        ``name`` is a span name, or a function of the call's arguments that
        returns one.  ``count(counters, args, result)`` records counters after
        the span has closed.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(*args, **kwargs) if callable(name) else name, 0.0, 0.0,
                    self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self._open.pop()
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, count=None) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))


def _count_graph(counters, args, graph):
    counters["graph.n_left"] = graph.n1
    counters["graph.n_right"] = graph.n2
    counters["graph.links"] = graph.num_links


def _count_kernel_nodes(counters, args, result):
    counters["hellinger.nodes"] = len(result.labels)


def _count_projected_edges(counters, args, projection):
    counters["baselines.projected_edges"] = projection.num_edges


def _count_bfs_sources(counters, args, result):
    graph = args[0]
    counters["baselines.bfs_sources"] = graph.n1 + graph.n2


def _count_label_pairs(counters, args, result):
    n = len(args[0].labels)
    counters["rankeval.label_pairs"] = n * (n - 1) // 2


def instrument(tracer: Tracer) -> None:
    """Wrap the attributes through which the CLI reaches each layer."""
    from hellrank import baselines, cli, hellinger, nullmodel, rankeval
    from hellrank.hellinger import DistanceMatrix
    from hellrank.scores import CentralityScores

    tracer.patch(cli, "load_edge_list", "graph.load_edge_list", _count_graph)
    tracer.patch(cli, "hellrank", "hellinger.hellrank", _count_kernel_nodes)
    tracer.patch(cli, "distance_matrix", "hellinger.distance_matrix", _count_kernel_nodes)
    tracer.patch(cli, "monte_carlo_distance", "nullmodel.monte_carlo_distance")
    tracer.patch(cli, "expected_distance_moments", "nullmodel.expected_distance_moments")
    tracer.patch(hellinger, "neighbor_degree_vector", "graph.neighbor_degree_vector")
    tracer.patch(nullmodel, "node_distance", "hellinger.node_distance")
    tracer.patch(baselines, "project", "graph.project", _count_projected_edges)
    for fn in ("bipartite_degree", "pagerank", "eigenvector_centrality", "latapy_cc"):
        tracer.patch(baselines, fn, f"baselines.{fn}")
    for fn in ("bipartite_closeness", "bipartite_betweenness"):
        tracer.patch(baselines, fn, f"baselines.{fn}", _count_bfs_sources)
    tracer.patch(baselines, "projected_centrality",
                 lambda graph, side, metric: f"baselines.projected_{metric}")
    tracer.patch(rankeval, "kendall_tau", "rankeval.kendall_tau", _count_label_pairs)
    for fn in ("spearman_rho", "top_k_vector"):
        tracer.patch(rankeval, fn, f"rankeval.{fn}")
    tracer.patch(DistanceMatrix, "to_csv", "hellinger.to_csv")
    tracer.patch(CentralityScores, "to_csv", "scores.to_csv")


# Every span name above, with the root span the child opens around cli.run.
SPAN_NAMES = (
    "cli.run",
    "graph.load_edge_list",
    "graph.neighbor_degree_vector",
    "graph.project",
    "hellinger.hellrank",
    "hellinger.distance_matrix",
    "hellinger.to_csv",
    "hellinger.node_distance",
    "scores.to_csv",
    "baselines.bipartite_degree",
    "baselines.bipartite_closeness",
    "baselines.bipartite_betweenness",
    "baselines.pagerank",
    "baselines.eigenvector_centrality",
    "baselines.latapy_cc",
    "baselines.projected_degree",
    "baselines.projected_closeness",
    "baselines.projected_betweenness",
    "rankeval.kendall_tau",
    "rankeval.top_k_vector",
    "rankeval.spearman_rho",
    "nullmodel.monte_carlo_distance",
    "nullmodel.expected_distance_moments",
)


def span_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float], Counter]:
    """(total, self, calls) per span name.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    total: dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
    self_: dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
    calls: Counter = Counter()
    for (name, start, end, _), s in zip(spans, own):
        total[name] = total.get(name, 0.0) + end - start
        self_[name] = self_.get(name, 0.0) + s
        calls[name] += 1
    return total, self_, calls


def layer_metrics(spans: list[list], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced child.  A layer it never called reads 0."""
    total, self_, calls = span_times(spans)
    m = {"cli.run_s": total["cli.run"], "cli.self_s": self_["cli.run"]}
    for name in SPAN_NAMES[1:]:
        m[name + "_s"] = total[name]
    m["hellinger.hellrank_self_s"] = self_["hellinger.hellrank"]
    m["hellinger.distance_matrix_self_s"] = self_["hellinger.distance_matrix"]
    m["graph.neighbor_degree_vector_calls"] = calls["graph.neighbor_degree_vector"]
    m["hellinger.node_distance_calls"] = calls["hellinger.node_distance"]
    for key in ("graph.n_left", "graph.n_right", "graph.links", "hellinger.nodes",
                "baselines.bfs_sources", "baselines.projected_edges", "rankeval.label_pairs"):
        m[key] = counters.get(key, 0)
    m["hellinger.pairs"] = m["hellinger.nodes"] ** 2
    kernel_s = m["hellinger.hellrank_self_s"] + m["hellinger.distance_matrix_self_s"]
    m["hellinger.pairs_per_s"] = m["hellinger.pairs"] / kernel_s if kernel_s > 0 else 0.0
    tau_s = m["rankeval.kendall_tau_s"]
    m["rankeval.pairs_per_s"] = m["rankeval.label_pairs"] / tau_s if tau_s > 0 else 0.0
    return m
