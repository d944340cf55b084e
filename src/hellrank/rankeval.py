"""Rank-agreement statistics between centrality score tables."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .graph import _fixed6_rows
from .scores import CentralityScores

__all__ = [
    "RankVector",
    "kendall_tau",
    "spearman_rho",
    "top_k_vector",
    "sweep_k",
]


@dataclass(frozen=True)
class RankVector:
    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        if len(self.labels) != len(self.values):
            raise ValueError("labels and values must have the same length")

    @classmethod
    def from_scores(cls, scores: CentralityScores) -> "RankVector":
        table = scores.scores
        by_label = table.by_label
        return cls(tuple(map(table.labels.__getitem__, by_label.tolist())), table.array[by_label])


def _aligned(a: RankVector, b: RankVector) -> tuple[np.ndarray, np.ndarray]:
    if a.labels == b.labels:
        return a.values, b.values
    if set(a.labels) != set(b.labels):
        raise ValueError("rank vectors cover different label sets")
    order = {x: i for i, x in enumerate(a.labels)}
    perm = np.array([order[x] for x in b.labels])
    bv = np.empty_like(b.values)
    bv[perm] = b.values
    return a.values, bv


def _strict_inversions(v: np.ndarray, m: int) -> int:
    """Pairs i < j with v[i] > v[j], for integer codes 0 <= v < m.

    Bottom-up merge sort.  At width w every block of 2w positions holds two
    sorted halves.  Offsetting each value by block * m makes all left halves
    together one sorted array, so one searchsorted counts, for each element of
    a right half, the elements of its block's left half that exceed it.
    """
    n = len(v)
    pos = np.arange(n)
    total = 0
    w = 1
    while w < n:
        block = pos // (2 * w)
        keys = block * m + v
        right = pos % (2 * w) >= w
        # a block with a right half has a full left half, which ends at index
        # (block + 1) * w of the concatenated left halves
        ends = (block[right] + 1) * w
        total += int((ends - np.searchsorted(keys[~right], keys[right], side="right")).sum())
        v = np.sort(keys, kind="stable") - block * m
        w *= 2
    return total


def _pair_counts(x: np.ndarray, y: np.ndarray) -> tuple[int, int, int, int, int]:
    """Exact pair counts (P, T_x, T_y, T_xy, n_d) of two equal-length vectors.

    P is the number of pairs; T_x, T_y and T_xy count the pairs tied in x, in
    y and in both; n_d counts the discordant pairs.  Sorted by (x, y), the
    discordant pairs are exactly the strict inversions of y (Knight 1966,
    JASA 61:436).
    """
    _, xi, cx = np.unique(x, return_inverse=True, return_counts=True)
    uy, yi, cy = np.unique(y, return_inverse=True, return_counts=True)
    joint = xi * len(uy) + yi
    cxy = np.unique(joint, return_counts=True)[1]
    tied = [int((c * (c - 1) // 2).sum()) for c in (cx, cy, cxy)]
    n = len(x)
    return (n * (n - 1) // 2, *tied, _strict_inversions(np.sort(joint) % len(uy), len(uy)))


def kendall_tau(a: RankVector, b: RankVector, variant: str = "a") -> float:
    """Pair-agreement correlation.

    variant "a": (concordant - discordant) / (n(n-1)/2); tied pairs count as
    neither.  variant "b" rescales by the tie-corrected pair counts.  Both
    come from exact integer pair counts in O(n log^2 n) time and O(n) memory.
    """
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    x, y = _aligned(a, b)
    if len(x) < 2:
        raise ValueError("need at least 2 labels")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("rank vectors must be finite")
    pairs, ties_x, ties_y, ties_xy, discordant = _pair_counts(x, y)
    # concordant - discordant: the pairs untied in both, minus twice the discordant
    diff = pairs - ties_x - ties_y + ties_xy - 2 * discordant
    if variant == "a":
        return diff / pairs
    denom = math.sqrt((pairs - ties_x) * (pairs - ties_y))
    if denom == 0:
        raise ValueError("tau-b undefined: one vector is constant")
    return diff / denom


def spearman_rho(a: RankVector, b: RankVector) -> float:
    """Pearson correlation applied to the supplied value vectors as-is."""
    x, y = _aligned(a, b)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("rank vectors must be finite")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0:
        raise ValueError("correlation undefined: zero variance")
    return float((xc * yc).sum() / denom)


def _ranking(scores: CentralityScores) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted labels and their positions from best score to worst, ties in
    label order (the order of ``CentralityScores.ranked``)."""
    vector = RankVector.from_scores(scores)
    return vector.labels, np.argsort(-vector.values, kind="stable")


def top_k_vector(scores: CentralityScores, k: int) -> RankVector:
    """Binary indicator of the k best-scoring labels (cutoff ties -> label order)."""
    if not 1 <= k <= len(scores):
        raise ValueError(f"k must be in 1..{len(scores)}, got {k}")
    labels, order = _ranking(scores)
    top = np.zeros(len(labels))
    top[order[:k]] = 1.0
    return RankVector(labels, top)


def sweep_k(
    a: CentralityScores, b: CentralityScores, k_max: int
) -> list[tuple[int, float]]:
    """spearman_rho of the top-k indicator vectors for k = 1..k_max.

    Every point is defined: for k < n both vectors hold k ones and n - k
    zeros, so neither is constant.
    """
    n = len(a.scores)
    # rank each table once and grow both indicators one position per k
    labels, order_a = _ranking(a)
    labels_b, order_b = _ranking(b)
    if labels != labels_b:
        raise ValueError("score tables cover different label sets")
    if not 1 <= k_max <= n - 1:
        raise ValueError(f"k_max must be in 1..{n - 1}, got {k_max}")
    top_a, top_b = np.zeros(n), np.zeros(n)
    out: list[tuple[int, float]] = []
    for k in range(1, k_max + 1):
        top_a[order_a[k - 1]] = 1.0
        top_b[order_b[k - 1]] = 1.0
        out.append((k, spearman_rho(RankVector(labels, top_a), RankVector(labels, top_b))))
    return out


def sweep_to_csv(series: list[tuple[int, float]], stream: TextIO) -> None:
    stream.write("k,rho\n")
    cells = _fixed6_rows([[rho] for _, rho in series])
    for (k, _), cell in zip(series, cells):
        stream.write(f"{k},{cell}\n")
