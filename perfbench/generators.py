"""Fixed-seed synthetic bipartite inputs for the benchmark.

Both generators return a list of (left, right) label pairs with no duplicate
link, and ``write_edge_list`` writes them as the tab-separated two-column
format that ``hellrank --input`` reads.  The same seed gives byte-identical
files.
"""

from __future__ import annotations

import numpy as np

# Shape of the condensed-matter author x paper network the paper ranks.
CONDMAT_AUTHORS = 16_726
CONDMAT_PAPERS = 22_015

# Author productivity: P(k) ~ k^-1.95 on 1..150 papers.
AUTHOR_EXPONENT = 1.95
AUTHOR_MAX_PAPERS = 150
# Paper size: P(s) ~ s^-2.0 on 1..40 authors.
PAPER_EXPONENT = 2.0
PAPER_MAX_AUTHORS = 40


def _zipf_cdf(exponent: float, top: int) -> np.ndarray:
    pmf = np.arange(1, top + 1, dtype=float) ** -exponent
    cdf = np.cumsum(pmf)
    return cdf / cdf[-1]


def _stratified_zipf(rng: np.random.Generator, n: int, exponent: float, top: int) -> np.ndarray:
    """n Zipf draws on 1..top, one from each of n equal quantile strata.

    Stratifying keeps the heavy tail but makes the total and the largest
    values nearly the same for every seed, so run cost does not swing with it.
    """
    u = (np.arange(n) + rng.random(n)) / n
    k = np.searchsorted(_zipf_cdf(exponent, top), u, side="right") + 1
    return rng.permutation(np.minimum(k, top))


def powerlaw_author_paper(seed: int, scale: float) -> list[tuple[str, str]]:
    """Author x paper graph with Zipf productivity and heavy-tailed paper sizes.

    ``scale=1`` has the condensed-matter network's slot counts (16.7k author
    slots, 22k papers).  Author stubs are matched to paper stubs uniformly at
    random (a configuration model); the longer stub list is truncated, repeated
    (author, paper) pairs collapse, and a slot left without a link is absent
    from the file.
    """
    rng = np.random.default_rng([seed, 1])
    n_authors = max(2, round(CONDMAT_AUTHORS * scale))
    n_papers = max(2, round(CONDMAT_PAPERS * scale))
    productivity = _stratified_zipf(rng, n_authors, AUTHOR_EXPONENT, AUTHOR_MAX_PAPERS)
    sizes = _stratified_zipf(rng, n_papers, PAPER_EXPONENT, PAPER_MAX_AUTHORS)
    author_stubs = rng.permutation(np.repeat(np.arange(n_authors), productivity))
    paper_stubs = rng.permutation(np.repeat(np.arange(n_papers), sizes))
    links = min(len(author_stubs), len(paper_stubs))
    pairs = np.unique(np.stack([author_stubs[:links], paper_stubs[:links]], axis=1), axis=0)
    return [(f"a{a}", f"p{p}") for a, p in pairs.tolist()]


def uniform_bipartite(seed: int, n1: int, n2: int, p: float) -> list[tuple[str, str]]:
    """G(n1, n2, p): every left x right link present independently with prob p.

    Draws the same matrix as the test suite's ``oracles.random_bipartite`` for
    a generator seeded alike.  Isolated nodes have no line in an edge list, so
    they are absent from the file.
    """
    adj = np.random.default_rng(seed).random((n1, n2)) < p
    return [(f"L{i}", f"R{j}") for i, j in zip(*np.nonzero(adj))]


def write_edge_list(edges: list[tuple[str, str]], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{u}\t{v}\n" for u, v in edges)
