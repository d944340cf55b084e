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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hellinger import DistanceMode, _block_distances, _count_matrix, _sqrt_mass_matrix
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


def _log_poisson_pmf(i: np.ndarray, lam: float) -> np.ndarray:
    # imported here, so that importing the package loads no scipy module;
    # math.lgamma is no substitute: it differs from gammaln, by up to 6.6e-16
    # relative, at 103k of the first 200k integers
    from scipy.special import gammaln

    return -lam + i * math.log(lam) - gammaln(i + 1.0)


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
    pmf = np.exp(_log_poisson_pmf(i, lam))
    d2 = np.maximum(k + i - 2.0 * np.sqrt(k * i), 0.0)
    m2 = float(np.sum(pmf * d2))
    m1 = float(np.sum(pmf * np.sqrt(d2)))
    return DistanceMoments(mean=m1, second_moment=m2, variance=max(m2 - m1 * m1, 0.0))


class SamplingError(RuntimeError):
    pass


def _sample_graph(rng: np.random.Generator, n1: int, n2: int, p: float) -> np.ndarray:
    return rng.random((n1, n2)) < p


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
    count = 0
    rejects = 0

    def reference(draw):
        """The first ``draw()`` of degree k (its sum); rejects count over all calls."""
        nonlocal rejects
        while int(np.sum(x := draw())) != k:
            rejects += 1
            if rejects > max_rejects:
                raise SamplingError(
                    f"no degree-{k} reference after {max_rejects} draws; "
                    "pick k closer to n2*p"
                )
        return x

    while count < samples:
        if method == "model":
            # only degrees matter: left degrees are independent Binomial(n2, p)
            reference(lambda: rng.binomial(params.n2, params.p))
            others = rng.binomial(params.n2, params.p, size=params.n1 - 1).astype(float)
            d = np.sqrt(np.maximum(k + others - 2.0 * np.sqrt(k * others), 0.0))
        else:
            row = reference(lambda: _sample_graph(rng, 1, params.n2, params.p)[0])
            adj = np.vstack([row, _sample_graph(rng, params.n1 - 1, params.n2, params.p)])
            # left node i counts its neighbors by degree; a right node's degree is its column sum
            i, j = np.nonzero(adj)
            C = _count_matrix(i, adj.sum(axis=0)[j], np.ones(len(i)), params.n1)
            S, masses, coef = _sqrt_mass_matrix(C, DistanceMode.RAW)
            d = _block_distances(S, masses, 0, 1, coef)[0, 1:]
        collected.append(d)
        count += len(d)
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
