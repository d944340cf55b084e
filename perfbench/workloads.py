"""The benchmark's workloads: how each makes its input from the seed, the CLI
arguments it runs, and the check its output must pass.

Sizes are chosen so that one CLI run takes a few seconds on a 2-core machine,
which leaves room for several runs inside one benchmark run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from generators import powerlaw_author_paper, uniform_bipartite, write_edge_list


@dataclass
class Prepared:
    argv: list[str]  # CLI arguments, after the program name
    check: Callable[[bytes], None]  # raises checks.CheckError
    properties: dict  # input properties, recorded with the results
    edges: list | None = None  # the edge list, when the CLI reads one
    kernel_side: str | None = None  # side the Hellinger kernel scores, if it runs
    thread_scaling: bool = False  # also time the kernel at 1 and 2 threads


def edge_properties(edges) -> dict:
    left, right = (np.unique([e[i] for e in edges], return_counts=True)[1] for i in (0, 1))
    return {"n_left": len(left), "n_right": len(right), "links": len(edges),
            "max_degree_left": int(left.max()), "max_degree_right": int(right.max())}


def _graph_input(edges, workdir: str, argv: list[str], check, **extra) -> Prepared:
    """Write the edge list and run ``hellrank argv[0] --input FILE argv[1:]``."""
    path = os.path.join(workdir, "input.tsv")
    write_edge_list(edges, path)
    return Prepared([argv[0], "--input", path, *argv[1:]], lambda out: check(out, edges),
                    edge_properties(edges), edges, **extra)


POWERLAW_SCORES_SCALE = 0.2
UNIFORM_N1, UNIFORM_N2, UNIFORM_P = 1500, 1000, 0.008
BASELINES_SCALE = 0.035
CORRELATE_SCALE = 0.5
CORRELATE_TOPK = 5
NULL_MODEL = {"n1": 50, "n2": 2000, "p": 0.005, "k": 10, "samples": 20_000}


def _powerlaw_scores(seed: int, workdir: str) -> Prepared:
    return _graph_input(powerlaw_author_paper(seed, POWERLAW_SCORES_SCALE), workdir,
                        ["scores", "--side", "left", "--mode", "normalized"],
                        checks.check_scores, kernel_side="left", thread_scaling=True)


def _uniform_distances(seed: int, workdir: str) -> Prepared:
    return _graph_input(uniform_bipartite(seed, UNIFORM_N1, UNIFORM_N2, UNIFORM_P), workdir,
                        ["distances"], checks.check_distances, kernel_side="left")


def _baselines_all(seed: int, workdir: str) -> Prepared:
    return _graph_input(powerlaw_author_paper(seed, BASELINES_SCALE), workdir,
                        ["scores", "--metric", "all"], checks.check_wide_table,
                        kernel_side="left")


def _powerlaw_correlate(seed: int, workdir: str) -> Prepared:
    return _graph_input(
        powerlaw_author_paper(seed, CORRELATE_SCALE), workdir,
        ["correlate", "--side", "right", "--metric-a", "degree2", "--metric-b", "pagerank"],
        lambda out, edges: checks.check_correlate(out, edges, CORRELATE_TOPK),
    )


def _nullmodel_mc(seed: int, workdir: str) -> Prepared:
    q = NULL_MODEL
    argv = ["null-model", "--n1", str(q["n1"]), "--n2", str(q["n2"]), "--p", str(q["p"]),
            "--k", str(q["k"]), "--samples", str(q["samples"]), "--method", "empirical",
            "--seed", str(seed)]
    return Prepared(argv, lambda out: checks.check_null_model(out, seed=seed, **q), dict(q))


# Why each workload is there is recorded in BENCHMARK.json.
WORKLOADS: dict[str, Callable[[int, str], Prepared]] = {
    "powerlaw-scores": _powerlaw_scores,
    "uniform-distances": _uniform_distances,
    "baselines-all": _baselines_all,
    "powerlaw-correlate": _powerlaw_correlate,
    "nullmodel-mc": _nullmodel_mc,
}
