"""Batch command-line front end.

Subcommands: scores, distances, correlate, sweep-k, threshold-graph,
null-model, project.  All runs are deterministic for fixed inputs and seed;
``--threads`` changes wall time only, never output bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from . import baselines, rankeval
from .datasets import builtin_names, load_builtin
from .graph import (
    BipartiteGraph,
    Side,
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
        with open(args.node_list, encoding="utf-8") as fh:
            # edge lines below split on any whitespace
            isolated_left, isolated_right = load_node_list(fh, delimiter=None)
    with open(args.input, encoding="utf-8") as fh:
        return load_edge_list(
            fh,
            has_weights=args.weighted,
            isolated_left=isolated_left,
            isolated_right=isolated_right,
        )


@contextmanager
def _output(args):
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    else:
        yield sys.stdout


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _damping(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value < 1:  # also False for nan
        raise argparse.ArgumentTypeError(f"must be strictly between 0 and 1, got {text}")
    return value


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
    p.add_argument("--damping", type=_damping, default=0.85)

    p = sub.add_parser("distances", help="pairwise distance matrix (CSV)")
    _add_common(p, kernel=True)
    p.add_argument("--force", action="store_true", help="override the size cap")

    p = sub.add_parser("correlate", help="rank agreement between two metrics")
    _add_common(p, kernel=True)
    p.add_argument("--metric-a", default="hellrank", choices=PER_NODE_METRICS)
    p.add_argument("--metric-b", required=True, choices=PER_NODE_METRICS)
    p.add_argument("--topk", type=_positive_int, default=5)
    p.add_argument("--damping", type=_damping, default=0.85)

    p = sub.add_parser("sweep-k", help="top-k agreement series (CSV)")
    _add_common(p, kernel=True)
    p.add_argument("--metric-a", default="hellrank", choices=PER_NODE_METRICS)
    p.add_argument("--metric-b", required=True, choices=PER_NODE_METRICS)
    p.add_argument("--kmax", type=_positive_int, default=None)
    p.add_argument("--damping", type=_damping, default=0.85)

    p = sub.add_parser("threshold-graph", help="graph of node pairs closer than a cutoff")
    _add_common(p, kernel=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--format", choices=["dot", "csv"], default="dot")

    p = sub.add_parser("null-model", help="random-graph distance statistics (JSON)")
    _add_common(p, needs_graph=False)
    p.add_argument("--seed", type=int, default=0, help="Monte-Carlo random seed")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sigmas", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=0, help="Monte-Carlo cross-check sample count")
    p.add_argument("--method", choices=["empirical", "model"], default="empirical")

    p = sub.add_parser("project", help="one-mode projection edge list")
    _add_common(p)
    p.add_argument("--format", choices=["csv", "dot"], default="csv")

    return parser


def _scores_command(args, out) -> None:
    graph = _load_graph(args)
    side = Side(args.side)
    mode = DistanceMode(args.mode)
    if args.metric == "opsahl":
        value = baselines.opsahl_cc(graph)
        if args.format == "json":
            json.dump({"opsahl": value}, out)
            out.write("\n")
        else:
            out.write(f"metric,value\nopsahl,{next(_fixed6_rows([[value]]))}\n")
        return
    names = PER_NODE_METRICS if args.metric == "all" else [args.metric]
    tables = {}
    for name in names:
        # Betweenness runs before the closeness of the same graph: the sweep
        # it leaves on the graph holds closeness's hop counts too.
        for n in (name.replace("closeness", "betweenness"), name):
            if n in names and n not in tables:
                t = compute_metric(graph, n, side, mode, args.damping, args.threads, args.weighted)
                tables[n] = normalize_scores(t) if args.normalize == "max" else t
    if args.metric != "all":
        table = tables[names[0]]
        table.to_csv(out) if args.format == "csv" else table.to_json(out)
        return
    labels = sorted(graph.nodes(side))
    if args.format == "json":
        json.dump(
            {x: {name: tables[name][x] for name in names} for x in labels}, out, indent=2
        )
        out.write("\n")
    else:
        out.write("label," + ",".join(names) + "\n")
        rows = _fixed6_rows([[tables[n][x] for n in names] for x in labels])
        for x, row in zip(labels, rows):
            out.write(csv_field(x) + "," + row + "\n")


def _pair_tables(args, graph):
    side = Side(args.side)
    mode = DistanceMode(args.mode)
    a = compute_metric(graph, args.metric_a, side, mode, args.damping, args.threads, args.weighted)
    b = compute_metric(graph, args.metric_b, side, mode, args.damping, args.threads, args.weighted)
    return a, b


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "dataset", None):
        if args.weighted:
            parser.error("--weighted needs --input: --dataset graphs have no link weights")
        if args.node_list:
            parser.error("--node-list needs --input: --dataset graphs have a fixed node set")
    try:
        with _output(args) as out:
            if args.command == "scores":
                _scores_command(args, out)
            elif args.command == "distances":
                graph = _load_graph(args)
                m = distance_matrix(
                    graph,
                    Side(args.side),
                    DistanceMode(args.mode),
                    weighted=args.weighted,
                    force=args.force,
                    threads=args.threads,
                )
                m.to_csv(out)
            elif args.command == "correlate":
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
                json.dump(
                    {
                        "metric_a": args.metric_a,
                        "metric_b": args.metric_b,
                        "kendall_tau": tau,
                        "spearman_top_k": rho,
                        "k": args.topk,
                    },
                    out,
                    indent=2,
                )
                out.write("\n")
            elif args.command == "sweep-k":
                graph = _load_graph(args)
                n = len(graph.nodes(Side(args.side)))
                if args.kmax is not None and args.kmax > n - 1:
                    raise ValueError(
                        f"--kmax must be at most {n - 1}, one less than the {args.side} "
                        f"node count; got {args.kmax}"
                    )
                a, b = _pair_tables(args, graph)
                k_max = args.kmax if args.kmax is not None else n - 1
                rankeval.sweep_to_csv(rankeval.sweep_k(a, b, k_max), out)
            elif args.command == "threshold-graph":
                graph = _load_graph(args)
                m = distance_matrix(
                    graph,
                    Side(args.side),
                    DistanceMode(args.mode),
                    weighted=args.weighted,
                    threads=args.threads,
                )
                tg = threshold_graph(m, args.threshold)
                if args.format == "dot":
                    tg.to_dot(out)
                else:
                    out.write("source,target\n")
                    tg.to_edge_list(out, delimiter=",")
            elif args.command == "null-model":
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
                json.dump(payload, out, indent=2)
                out.write("\n")
            elif args.command == "project":
                graph = _load_graph(args)
                proj = project(graph, Side(args.side))
                if args.format == "dot":
                    proj.to_dot(out)
                else:
                    out.write("source,target\n")
                    proj.to_edge_list(out, delimiter=",")
    except OSError as exc:
        print(f"hellrank: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, RuntimeError, MemoryError) as exc:
        print(f"hellrank: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())
