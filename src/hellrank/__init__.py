"""Bipartite-network centrality from Hellinger distances between
neighbor-degree distributions, with baseline centralities, a random-graph
null model, and rank-agreement statistics.

Submodules load on first use (PEP 562): ``import hellrank`` alone loads no
numpy, so the CLI can set up the process before numpy starts.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "graph": (
        "BipartiteGraph",
        "EdgeListParseError",
        "NeighborDegreeVector",
        "Side",
        "UnipartiteGraph",
        "UnknownNodeError",
        "load_edge_list",
        "load_node_list",
        "neighbor_degree_vector",
        "project",
        "weighted_neighbor_degree_vector",
    ),
    "hellinger": (
        "DistanceMatrix",
        "DistanceMode",
        "distance_bounds",
        "distance_matrix",
        "hellinger_distance",
        "hellrank",
        "node_distance",
        "threshold_graph",
        "weighted_node_distance",
    ),
    "scores": ("CentralityScores", "ScoreArray", "normalize_scores"),
    "baselines": (
        "PageRankConfig",
        "bipartite_betweenness",
        "bipartite_closeness",
        "bipartite_degree",
        "eigenvector_centrality",
        "latapy_cc",
        "latapy_pair_cc",
        "opsahl_cc",
        "opsahl_path_counts",
        "pagerank",
        "projected_centrality",
    ),
    "nullmodel": (
        "DistanceMoments",
        "NullModelParams",
        "expected_distance_moments",
        "monte_carlo_distance",
        "poisson_hellinger_sq",
        "similarity_threshold",
    ),
    "rankeval": ("RankVector", "kendall_tau", "spearman_rho", "sweep_k", "top_k_vector"),
    "datasets": ("builtin_names", "load_builtin"),
}
# public name -> the submodule that defines it
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _PUBLIC:  # a submodule, as ``hellrank.graph``
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
