"""Closed-form distance statistics under a random bipartite null model.

A left node of G(n1, n2, p) has Binomial(n2, p) degree, and for large n2 its
neighbor-degree vector approaches k times a Poisson(lambda) probability vector.
The closed forms below live in that limit; ``monte_carlo_distance`` provides a
simulation cross-check with two estimands:

* ``method="model"`` samples node degrees from real G(n1, n2, p) draws and
  applies the limit distance sqrt(k + i - 2*sqrt(k*i)) -- the oracle for
  ``expected_distance_moments``.
* ``method="empirical"`` measures true raw-mode Hellinger distances on the
  sampled graphs.  At moderate densities these exceed the closed form
  systematically: two sparse integer histograms share far less support than
  their common smooth limit, so the limit formulas underestimate distances.

The empirical graphs are drawn edge by edge, a batch of graphs at a time, as
Batagelj and Brandes (Phys. Rev. E 71, 036113, 2005) draw G(n, p), and never
as a dense random matrix: the reference node's k neighbors are a uniform
k-subset of the right side, the other edges a Binomial count of distinct cells.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hellinger import DistanceMode, _count_matrix, _sq_diff, _sqrt_mass_matrix
from .hellinger import node_distance  # noqa: F401  (perfbench/spans.py wraps this name)

__all__ = [
    "NullModelParams",
    "DistanceMoments",
    "poisson_hellinger_sq",
    "expected_distance_moments",
    "monte_carlo_distance",
    "similarity_threshold",
]


@dataclass(frozen=True)
class NullModelParams:
    n1: int
    n2: int
    p: float
    k: int

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("side sizes must be >= 1")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0,1], got {self.p}")
        if not 1 <= self.k <= self.n2:
            raise ValueError(f"k must be in 1..n2, got {self.k}")


@dataclass(frozen=True)
class DistanceMoments:
    mean: float
    second_moment: float
    variance: float

    def __post_init__(self):
        if self.variance < -1e-9:
            raise ValueError(f"variance must be >= 0, got {self.variance}")


def poisson_hellinger_sq(k1: float, lambda1: float, k2: float, lambda2: float) -> float:
    """Squared Hellinger distance between k1*Poisson(l1) and k2*Poisson(l2) vectors.

    Closed form (k1+k2)/2 - sqrt(k1*k2) * BC, where the Bhattacharyya
    coefficient of two Poisson pmfs is exp(-(sqrt(l1)-sqrt(l2))^2 / 2).
    With equal rates this reduces to the arithmetic-geometric mean gap
    (k1+k2)/2 - sqrt(k1*k2); with k1 = k2 = 1 it is 1 - BC.
    """
    for name, v in (("k1", k1), ("lambda1", lambda1), ("k2", k2), ("lambda2", lambda2)):
        if not v > 0:
            raise ValueError(f"{name} must be > 0, got {v}")
    bc = math.exp(-0.5 * (math.sqrt(lambda1) - math.sqrt(lambda2)) ** 2)
    return (k1 + k2) / 2.0 - math.sqrt(k1 * k2) * bc


# cephes lgam's Stirling series below 1000 and from 1000 on, and log(sqrt(2 pi))
_LGAM_SERIES = (
    (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
     -2.77777777730099687205e-3, 8.33333333333331927722e-2),
    (7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333),
)
_LS2PI = 0.91893853320467274178


def _lgam(n: np.ndarray) -> np.ndarray:
    """log Gamma(n) at integers n >= 2, computed as cephes lgam (scipy's
    gammaln) computes it, so that both give the same double: math.lgamma
    differs, by up to 6.6e-16 relative, at 103k of the first 200k integers.
    The logs are math.log's; np.log differs from it at a few integers."""
    x = n.astype(float)
    q = (x - 0.5) * np.fromiter(map(math.log, x.tolist()), float, len(x)) - x + _LS2PI
    p = 1.0 / (x * x)
    below, above = (functools.reduce(lambda s, a: s * p + a, c, 0.0) for c in _LGAM_SERIES)
    q = np.where(x > 1e8, q, q + np.where(x < 1000.0, below, above) / x)
    q[n < 13] = [math.log(math.factorial(m - 1)) for m in n[n < 13].tolist()]
    return q


def expected_distance_moments(
    params: NullModelParams, cutoff: int | None = None
) -> DistanceMoments:
    """Limit-model moments of the raw distance from a degree-k node.

    The reference node has degree k; the other node's degree i follows
    Poisson(n2*p), and the limit distance is sqrt(k + i - 2*sqrt(k*i)).
    The series is truncated at i = n2 (pass ``cutoff`` to extend it).
    """
    k = float(params.k)
    lam = params.n2 * params.p
    if lam == 0.0:
        warnings.warn("p = 0: every other node is isolated, all distances sqrt(k)")
        return DistanceMoments(mean=0.0, second_moment=0.0, variance=0.0)
    top = cutoff if cutoff is not None else params.n2
    i = np.arange(1, top + 1, dtype=float)
    pmf = np.exp(-lam + i * math.log(lam) - _lgam(np.arange(2, top + 2)))
    d2 = np.maximum(k + i - 2.0 * np.sqrt(k * i), 0.0)
    m2 = float(np.sum(pmf * d2))
    m1 = float(np.sum(pmf * np.sqrt(d2)))
    return DistanceMoments(mean=m1, second_moment=m2, variance=max(m2 - m1 * m1, 0.0))


class SamplingError(RuntimeError):
    pass


# the most adjacency cells, or count-matrix cells, of the graphs that the
# empirical Monte Carlo draws and scores at a time
_BATCH_CELLS = 1 << 20


def _sample_edges(
    rng: np.random.Generator, n1: int, n2: int, p: float, k: int, graphs: int
) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) node ids of the edges of ``graphs`` G(n1, n2, p) draws
    whose left node 0 has degree k; graph g owns left nodes g*n1 + [0, n1)
    and right nodes g*n2 + [0, n2).  Node 0's neighbors are a uniform k-subset
    (a Bernoulli(p) row given its sum k), the other cells a Binomial(cells, p)
    count of distinct cells: geometric skips would saturate at tiny p."""
    ref = np.array([rng.choice(n2, k, replace=False, shuffle=False) for _ in range(graphs)])
    cells = (n1 - 1) * n2
    total = graphs * cells
    g, c = np.divmod(rng.choice(total, rng.binomial(total, p), replace=False, shuffle=False), cells)
    left = np.concatenate([np.repeat(np.arange(graphs) * n1, k), g * n1 + 1 + c // n2])
    right = np.concatenate([(ref + np.arange(graphs)[:, None] * n2).ravel(), g * n2 + c % n2])
    return left, right


def monte_carlo_distance(
    params: NullModelParams,
    samples: int,
    seed: int,
    method: str = "empirical",
    max_rejects: int = 100_000,
) -> DistanceMoments:
    """Simulated distance moments from a degree-k reference node.

    Graphs are drawn from G(n1, n2, p); a designated reference node is
    rejection-sampled until its degree equals k (rejecting on one fixed node
    keeps the remaining nodes unconditioned).  Each accepted draw contributes
    the distances from the reference node to every other left node, until at
    least ``samples`` distances are collected.  Deterministic for a fixed seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if method not in ("empirical", "model"):
        raise ValueError(f"method must be 'empirical' or 'model', got {method!r}")
    if params.n1 < 2:
        raise ValueError("n1 must be >= 2 to have distances to measure")
    rng = np.random.default_rng(seed)
    k = params.k
    collected: list[np.ndarray] = []
    rejects = 0

    def reference() -> None:
        """Redraw the reference degree until it is k; rejects count over all calls."""
        nonlocal rejects
        while rng.binomial(params.n2, params.p) != k:
            rejects += 1
            if rejects > max_rejects:
                raise SamplingError(
                    f"no degree-{k} reference after {max_rejects} draws; "
                    "pick k closer to n2*p"
                )

    n1, n2 = params.n1, params.n2
    graphs = -(-samples // (n1 - 1))
    if method == "model":
        for _ in range(graphs):
            # only degrees matter: left degrees are independent Binomial(n2, p)
            reference()
            others = rng.binomial(n2, params.p, size=n1 - 1).astype(float)
            collected.append(np.sqrt(np.maximum(k + others - 2.0 * np.sqrt(k * others), 0.0)))
    else:
        batch = max(1, _BATCH_CELLS // (n1 * max(n2, n1 + 1)))
        for lo in range(0, graphs, batch):
            b = min(batch, graphs - lo)
            for _ in range(b):
                reference()
            left, right = _sample_edges(rng, n1, n2, params.p, k, b)
            # a left node counts its neighbors by degree
            C = _count_matrix(left, np.bincount(right)[right], np.ones(len(left)), b * n1)
            S, _, coef = _sqrt_mass_matrix(C, DistanceMode.RAW)
            others = np.flatnonzero(np.arange(b * n1) % n1)
            collected.append(np.sqrt(_sq_diff(S, others - others % n1, others, coef)))
    d = np.concatenate(collected)[:samples]
    m1 = float(d.mean())
    m2 = float((d * d).mean())
    return DistanceMoments(mean=m1, second_moment=m2, variance=max(m2 - m1 * m1, 0.0))


def similarity_threshold(params: NullModelParams, sigmas: float = 1.0) -> float:
    """Distance cutoff mean - sigmas * stddev under the null model, floored at 0."""
    if not 0 <= sigmas < math.inf:
        raise ValueError(f"sigmas must be finite and >= 0, got {sigmas}")
    m = expected_distance_moments(params)
    return max(0.0, m.mean - sigmas * math.sqrt(m.variance))
