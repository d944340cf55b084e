"""Batch command-line front end.

Subcommands: scores, distances, correlate, sweep-k, threshold-graph,
null-model, project.  All runs are deterministic for fixed inputs and seed;
``--threads`` changes wall time only, never output bytes.
"""

from __future__ import annotations

import os
import sys

# When numpy loads, OpenBLAS reads this variable once and starts one worker
# thread per extra core.  Nothing here uses that pool: the program's own
# parallelism is --threads, and it makes no BLAS call.  A value the user set
# wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
from typing import Callable, TextIO

from .datasets import builtin_names, load_builtin
from .graph import (
    BipartiteGraph,
    Side,
    UnipartiteGraph,
    _fixed6_rows,
    csv_field,
    load_edge_list,
    load_node_list,
    project,
)
from .hellinger import DistanceMode, distance_matrix, hellrank, threshold_graph
from .nullmodel import NullModelParams, expected_distance_moments, monte_carlo_distance, similarity_threshold
from .scores import CentralityScores, normalize_scores

PER_NODE_METRICS = [
    "hellrank",
    "degree2",
    "closeness2",
    "betweenness2",
    "pagerank",
    "eigenvector",
    "latapy",
    "degree1",
    "closeness1",
    "betweenness1",
]
METRICS = PER_NODE_METRICS + ["opsahl"]

# flags that only some metrics read: flag -> (default, the metrics that read it);
# scores checks them against its --metric, correlate and sweep-k against their two
METRIC_FLAGS = {
    "side": ("left", PER_NODE_METRICS + ["all"]),
    "mode": ("normalized", ["hellrank", "all"]),
    "threads": (None, ["hellrank", "all"]),
    "damping": (0.85, ["pagerank", "all"]),
}


def compute_metric(
    graph: BipartiteGraph,
    name: str,
    side: Side,
    mode: DistanceMode,
    damping: float,
    threads: int | None,
    weighted: bool,
) -> CentralityScores:
    if name == "hellrank":
        return hellrank(graph, side, mode, weighted=weighted, threads=threads)
    from . import baselines

    if name == "degree2":
        return baselines.bipartite_degree(graph, side)
    if name == "closeness2":
        return baselines.bipartite_closeness(graph, side)
    if name == "betweenness2":
        return baselines.bipartite_betweenness(graph, side)
    if name == "pagerank":
        return baselines.pagerank(graph, baselines.PageRankConfig(damping=damping), side)
    if name == "eigenvector":
        return baselines.eigenvector_centrality(graph, side)
    if name == "latapy":
        return baselines.latapy_cc(graph, side)
    if name in ("degree1", "closeness1", "betweenness1"):
        return baselines.projected_centrality(graph, side, name[:-1])
    raise ValueError(f"unknown metric {name!r}")


def _load_graph(args) -> BipartiteGraph:
    if args.dataset:
        return load_builtin(args.dataset)
    isolated_left: list[str] = []
    isolated_right: list[str] = []
    if getattr(args, "node_list", None):
        # utf-8-sig drops a leading byte-order mark, which would join the first label
        with open(args.node_list, encoding="utf-8-sig") as fh:
            # edge lines below split on any whitespace
            isolated_left, isolated_right = load_node_list(fh, delimiter=None)
    with open(args.input, encoding="utf-8-sig") as fh:
        return load_edge_list(
            fh,
            has_weights=args.weighted,
            isolated_left=isolated_left,
            isolated_right=isolated_right,
        )


def _number(kind, ok, requirement: str):
    """argparse type: a ``kind`` (int or float) for which ``ok`` holds (never
    nan, since every comparison with nan is False)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    return parse


_positive_int = _number(int, lambda v: v >= 1, ">= 1")
_non_negative_int = _number(int, lambda v: v >= 0, ">= 0")
_damping = _number(float, lambda v: 0 < v < 1, "strictly between 0 and 1")
_probability = _number(float, lambda v: 0 <= v <= 1, "between 0 and 1")
_sigmas = _number(float, lambda v: 0 <= v < float("inf"), "finite and >= 0")


def _add_common(
    p: argparse.ArgumentParser, needs_graph: bool = True, kernel: bool = False
) -> None:
    """Register the shared flags; ``kernel`` adds the two that only the
    Hellinger distance kernel reads, ``--mode`` and ``--threads``."""
    if needs_graph:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--input", help="edge-list file path")
        src.add_argument("--dataset", choices=builtin_names(), help="builtin dataset")
        p.add_argument(
            "--weighted",
            action="store_true",
            help="third column is a link weight; used by hellrank, distances and "
            "threshold-graph, ignored by the baseline metrics",
        )
        p.add_argument("--node-list", help="sidecar file declaring extra (isolated) nodes")
        p.add_argument("--side", choices=["left", "right"], default="left")
    p.add_argument("--output", help="output file (default: stdout)")
    if kernel:
        p.add_argument("--mode", choices=["raw", "normalized"], default="normalized")
        p.add_argument("--threads", type=_positive_int, default=None, help="worker threads")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hellrank", description="Bipartite-network centrality toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scores", help="centrality score tables")
    _add_common(p, kernel=True)
    p.add_argument("--metric", default="hellrank", choices=METRICS + ["all"])
    p.add_argument("--normalize", choices=["none", "max"], default="none")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--damping", type=_damping)
    # None until run() checks that --metric reads the flag
    p.set_defaults(side=None, mode=None)

    p = sub.add_parser("distances", help="pairwise distance matrix (CSV)")
    _add_common(p, kernel=True)
    p.add_argument("--force", action="store_true", help="override the size cap")

    p = sub.add_parser("correlate", help="rank agreement between two metrics")
    _add_common(p, kernel=True)
    p.add_argument("--metric-a", default="hellrank", choices=PER_NODE_METRICS)
    p.add_argument("--metric-b", required=True, choices=PER_NODE_METRICS)
    p.add_argument("--topk", type=_positive_int, default=5)
    p.add_argument("--damping", type=_damping)
    p.set_defaults(mode=None)

    p = sub.add_parser("sweep-k", help="top-k agreement series (CSV)")
    _add_common(p, kernel=True)
    p.add_argument("--metric-a", default="hellrank", choices=PER_NODE_METRICS)
    p.add_argument("--metric-b", required=True, choices=PER_NODE_METRICS)
    p.add_argument("--kmax", type=_positive_int, default=None)
    p.add_argument("--damping", type=_damping)
    p.set_defaults(mode=None)

    p = sub.add_parser("threshold-graph", help="graph of node pairs closer than a cutoff")
    _add_common(p, kernel=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--format", choices=["dot", "csv"], default="dot")

    p = sub.add_parser("null-model", help="random-graph distance statistics (JSON)")
    _add_common(p, needs_graph=False)
    p.add_argument("--seed", type=_non_negative_int, default=0, help="Monte-Carlo random seed")
    p.add_argument("--n1", type=_positive_int, required=True)
    p.add_argument("--n2", type=_positive_int, required=True)
    p.add_argument("--p", type=_probability, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--sigmas", type=_sigmas, default=1.0)
    p.add_argument(
        "--samples", type=_non_negative_int, default=0,
        help="Monte-Carlo cross-check sample count (0: none)",
    )
    p.add_argument("--method", choices=["empirical", "model"], default="empirical")

    p = sub.add_parser("project", help="one-mode projection edge list")
    _add_common(p)
    p.add_argument("--format", choices=["csv", "dot"], default="csv")

    return parser


Writer = Callable[[TextIO], None]


def _json(payload, indent: int | None = 2) -> Writer:
    def write(out: TextIO) -> None:
        json.dump(payload, out, indent=indent)
        out.write("\n")

    return write


def _graph_writer(graph: UnipartiteGraph, fmt: str) -> Writer:
    """The graph as DOT or as a ``source,target`` CSV edge list."""

    def write(out: TextIO) -> None:
        if fmt == "dot":
            graph.to_dot(out)
        else:
            out.write("source,target\n")
            graph.to_edge_list(out, delimiter=",")

    return write


def _scores(args) -> Writer:
    graph = _load_graph(args)
    if args.metric == "opsahl":
        from . import baselines

        value = baselines.opsahl_cc(graph)
        if args.format == "json":
            return _json({"opsahl": value}, indent=None)
        return lambda out: out.write(f"metric,value\nopsahl,{next(_fixed6_rows([[value]]))}\n")
    names = PER_NODE_METRICS if args.metric == "all" else [args.metric]
    tables = _tables(args, graph, names)
    if args.normalize == "max":
        tables = {n: normalize_scores(t) for n, t in tables.items()}
    if args.metric != "all":
        table = tables[args.metric]
        return table.to_csv if args.format == "csv" else table.to_json
    labels = sorted(graph.nodes(Side(args.side)))
    if args.format == "json":
        return _json({x: {name: tables[name][x] for name in names} for x in labels})

    def write(out: TextIO) -> None:
        out.write("label," + ",".join(names) + "\n")
        rows = _fixed6_rows([[tables[n][x] for n in names] for x in labels])
        for x, row in zip(labels, rows):
            out.write(csv_field(x) + "," + row + "\n")

    return write


def _tables(args, graph: BipartiteGraph, names: list[str]) -> dict[str, CentralityScores]:
    """{name: scores} of each metric in ``names``, computed in that order."""
    side = Side(args.side)
    mode = DistanceMode(args.mode)
    return {n: compute_metric(graph, n, side, mode, args.damping, args.threads, args.weighted)
            for n in dict.fromkeys(names)}


def _pair_tables(args, graph):
    tables = _tables(args, graph, [args.metric_a, args.metric_b])
    return tables[args.metric_a], tables[args.metric_b]


def _correlate(args) -> Writer:
    from . import rankeval

    graph = _load_graph(args)
    n = len(graph.nodes(Side(args.side)))
    if args.topk > n:
        raise ValueError(
            f"--topk must be at most {n}, the {args.side} node count; got {args.topk}"
        )
    a, b = _pair_tables(args, graph)
    tau = rankeval.kendall_tau(
        rankeval.RankVector.from_scores(a), rankeval.RankVector.from_scores(b)
    )
    top_a = rankeval.top_k_vector(a, args.topk)
    top_b = rankeval.top_k_vector(b, args.topk)
    try:
        rho = rankeval.spearman_rho(top_a, top_b)
    except ValueError:  # a constant indicator, e.g. k = n
        rho = None
    return _json(
        {
            "metric_a": args.metric_a,
            "metric_b": args.metric_b,
            "kendall_tau": tau,
            "spearman_top_k": rho,
            "k": args.topk,
        }
    )


def _sweep_k(args) -> Writer:
    from . import rankeval

    graph = _load_graph(args)
    n = len(graph.nodes(Side(args.side)))
    if args.kmax is not None and args.kmax > n - 1:
        raise ValueError(
            f"--kmax must be at most {n - 1}, one less than the {args.side} "
            f"node count; got {args.kmax}"
        )
    a, b = _pair_tables(args, graph)
    series = rankeval.sweep_k(a, b, args.kmax if args.kmax is not None else n - 1)
    return lambda out: rankeval.sweep_to_csv(series, out)


def _matrix(args, force: bool = False):
    return distance_matrix(_load_graph(args), Side(args.side), DistanceMode(args.mode),
                           weighted=args.weighted, force=force, threads=args.threads)


def _null_model(args) -> Writer:
    params = NullModelParams(n1=args.n1, n2=args.n2, p=args.p, k=args.k)
    moments = expected_distance_moments(params)
    payload = {
        "mean": moments.mean,
        "second_moment": moments.second_moment,
        "variance": moments.variance,
        "threshold": similarity_threshold(params, args.sigmas),
        "sigmas": args.sigmas,
    }
    if args.samples:
        mc = monte_carlo_distance(params, args.samples, args.seed, args.method)
        payload["monte_carlo"] = {
            "method": args.method,
            "samples": args.samples,
            "seed": args.seed,
            "mean": mc.mean,
            "second_moment": mc.second_moment,
            "variance": mc.variance,
        }
    return _json(payload)


# command -> handler: loads and computes the result, and returns what writes it
COMMANDS: dict[str, Callable[..., Writer]] = {
    "scores": _scores,
    "distances": lambda args: _matrix(args, force=args.force).to_csv,
    "correlate": _correlate,
    "sweep-k": _sweep_k,
    "threshold-graph": lambda args: _graph_writer(
        threshold_graph(_matrix(args), args.threshold), args.format
    ),
    "null-model": _null_model,
    "project": lambda args: _graph_writer(project(_load_graph(args), Side(args.side)), args.format),
}


def _check_metric_flags(parser, args, metrics: list[str], given: str) -> None:
    """Fill in the default of each ``METRIC_FLAGS`` flag left unset, and make
    a flag that none of ``metrics`` reads a usage error."""
    for flag, (default, readers) in METRIC_FLAGS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif not set(metrics) & set(readers):
            parser.error(f"--{flag} does not apply to {given}")


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "dataset", None):
        if args.weighted:
            parser.error("--weighted needs --input: --dataset graphs have no link weights")
        if args.node_list:
            parser.error("--node-list needs --input: --dataset graphs have a fixed node set")
    if args.command == "scores":
        if args.metric == "opsahl" and args.normalize != "none":
            parser.error("--normalize needs a per-node metric: opsahl is one value for the graph")
        _check_metric_flags(parser, args, [args.metric], f"--metric {args.metric}")
    elif args.command in ("correlate", "sweep-k"):
        _check_metric_flags(parser, args, [args.metric_a, args.metric_b],
                            f"--metric-a {args.metric_a} --metric-b {args.metric_b}")
    try:
        # --output is opened only once the result is computed, so a failed
        # run leaves an existing file as it was; `distances` computes its
        # matrix's rows while it writes them, after every input check
        write = COMMANDS[args.command](args)
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="\n") as out:
                write(out)
        else:
            write(sys.stdout)
    except (OSError, ValueError, KeyError, RuntimeError, MemoryError) as exc:
        print(f"hellrank: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())
