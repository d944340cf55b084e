import math

import numpy as np
import pytest

from hellrank import (
    DistanceMoments,
    NullModelParams,
    expected_distance_moments,
    monte_carlo_distance,
    poisson_hellinger_sq,
    similarity_threshold,
)
from hellrank import nullmodel
from hellrank.nullmodel import SamplingError, _lgam, _sample_edges

from oracles import (
    empirical_mc_distances,
    gammaln_moments,
    poisson_hellinger_sq_series,
    sample_model_distances,
)


class TestPoissonHellingerSq:
    def test_matches_series(self):
        grid = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
        for k1 in grid:
            for lam1 in grid:
                for k2 in grid:
                    for lam2 in grid:
                        closed = poisson_hellinger_sq(k1, lam1, k2, lam2)
                        series = poisson_hellinger_sq_series(k1, lam1, k2, lam2)
                        assert closed == pytest.approx(series, abs=1e-10)

    def test_equal_rates_reduce_to_mean_gap(self):
        assert poisson_hellinger_sq(4.0, 3.0, 9.0, 3.0) == pytest.approx(6.5 - 6.0)

    def test_unit_masses_reduce_to_one_minus_bc(self):
        lam1, lam2 = 2.0, 5.0
        bc = math.exp(-0.5 * (math.sqrt(lam1) - math.sqrt(lam2)) ** 2)
        assert poisson_hellinger_sq(1.0, lam1, 1.0, lam2) == pytest.approx(1.0 - bc)

    def test_identical_inputs_zero(self):
        assert poisson_hellinger_sq(3.0, 4.0, 3.0, 4.0) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_hellinger_sq(0.0, 1.0, 1.0, 1.0)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            NullModelParams(n1=0, n2=10, p=0.1, k=1)
        with pytest.raises(ValueError):
            NullModelParams(n1=5, n2=10, p=1.5, k=1)
        with pytest.raises(ValueError):
            NullModelParams(n1=5, n2=10, p=0.1, k=11)

    def test_moments_validation(self):
        with pytest.raises(ValueError):
            DistanceMoments(mean=1.0, second_moment=0.5, variance=-1.0)


class TestExpectedMoments:
    def test_against_direct_sum(self):
        params = NullModelParams(n1=50, n2=2000, p=0.005, k=10)
        lam = params.n2 * params.p
        from scipy.stats import poisson

        i = np.arange(1, params.n2 + 1, dtype=float)
        pmf = poisson.pmf(i, lam)
        d = np.sqrt(np.maximum(params.k + i - 2.0 * np.sqrt(params.k * i), 0.0))
        m = expected_distance_moments(params)
        assert m.mean == pytest.approx(float(np.sum(pmf * d)), abs=1e-12)
        assert m.second_moment == pytest.approx(float(np.sum(pmf * d * d)), abs=1e-12)
        assert m.variance == pytest.approx(m.second_moment - m.mean**2, abs=1e-12)

    def test_cutoff_extension_converged(self):
        params = NullModelParams(n1=10, n2=100, p=0.1, k=10)
        base = expected_distance_moments(params)
        extended = expected_distance_moments(params, cutoff=10_000)
        assert base.mean == pytest.approx(extended.mean, abs=1e-9)

    @pytest.mark.parametrize("n2", [10, 100, 2000])
    @pytest.mark.parametrize("p", [0.005, 0.1, 0.5])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_bit_identical_to_gammaln_sum(self, n2, p, k):
        m = expected_distance_moments(NullModelParams(n1=5, n2=n2, p=p, k=k))
        assert (m.mean, m.second_moment, m.variance) == gammaln_moments(n2, p, k)

    @pytest.mark.parametrize("n2, p, k", [(100, 0.1, 10), (2000, 0.005, 10), (50, 0.9, 40)])
    def test_bit_identical_to_gammaln_sum_with_cutoff(self, n2, p, k):
        m = expected_distance_moments(NullModelParams(n1=5, n2=n2, p=p, k=k), cutoff=10_000)
        assert (m.mean, m.second_moment, m.variance) == gammaln_moments(n2, p, k, 10_000)

    def test_p_zero_warns(self):
        with pytest.warns(UserWarning, match="p = 0"):
            m = expected_distance_moments(NullModelParams(n1=5, n2=10, p=0.0, k=1))
        assert m.mean == 0.0


class TestLogGamma:
    def test_equals_gammaln_at_every_integer_to_200k(self):
        from scipy.special import gammaln

        n = np.arange(2, 200_002)
        assert np.array_equal(_lgam(n), gammaln(n.astype(float)))

    def test_equals_gammaln_at_branch_edges(self):
        from scipy.special import gammaln

        n = np.array([12, 13, 999, 1000, 1001, 10**8, 10**8 + 1])
        assert np.array_equal(_lgam(n), gammaln(n.astype(float)))
        assert np.array_equal(_lgam(n[::-1]), gammaln(n[::-1].astype(float)))


class TestEmpiricalSampler:
    @pytest.mark.parametrize("p", [0.005, 0.3])
    def test_edge_law(self, p):
        n1, n2, k, graphs = 20, 300, 7, 150
        left, right = _sample_edges(np.random.default_rng(5), n1, n2, p, k, graphs)
        g = left // n1
        assert np.array_equal(g, right // n2)
        cell = left * n2 + right % n2
        assert len(np.unique(cell)) == len(cell)
        ref = left % n1 == 0
        # k distinct neighbors of every reference node, a uniform k-subset
        assert np.array_equal(np.bincount(g[ref], minlength=graphs), np.full(graphs, k))
        hits = np.bincount(right[ref] % n2, minlength=n2)
        assert hits.var() < 2 * graphs * (k / n2) * (1 - k / n2)
        # every other cell is an edge with probability p
        cells = graphs * (n1 - 1) * n2
        assert abs((~ref).sum() / cells - p) < 5 * math.sqrt(p * (1 - p) / cells)

    def test_edge_law_per_row_and_column(self):
        # the other cells are spread evenly over the rows and the columns
        n1, n2, p, graphs = 10, 50, 0.3, 400
        left, right = _sample_edges(np.random.default_rng(6), n1, n2, p, 3, graphs)
        other = left % n1 != 0
        rows = np.bincount(left[other] % n1, minlength=n1)[1:]
        columns = np.bincount(right[other] % n2, minlength=n2)
        for counts in (rows, columns):
            trials = graphs * (n1 - 1) * n2 / len(counts)
            assert np.all(np.abs(counts / trials - p) < 5 * math.sqrt(p * (1 - p) / trials))

    def test_spans_batches_deterministically(self, monkeypatch):
        batches = []
        count_matrix = nullmodel._count_matrix
        monkeypatch.setattr(
            nullmodel, "_count_matrix", lambda *a: batches.append(a[3]) or count_matrix(*a)
        )
        params = NullModelParams(n1=50, n2=2000, p=0.005, k=10)
        a = monte_carlo_distance(params, 49 * 25, seed=3)
        assert len(batches) >= 2
        assert sum(batches) == 50 * 25
        assert monte_carlo_distance(params, 49 * 25, seed=3) == a
        assert monte_carlo_distance(params, 49 * 25, seed=4) != a


class TestMonteCarlo:
    def test_deterministic_per_seed(self):
        params = NullModelParams(n1=10, n2=200, p=0.05, k=10)
        a = monte_carlo_distance(params, 500, seed=7, method="model")
        b = monte_carlo_distance(params, 500, seed=7, method="model")
        c = monte_carlo_distance(params, 500, seed=8, method="model")
        assert a == b
        assert a != c

    def test_model_mode_agrees_with_closed_form(self):
        params = NullModelParams(n1=50, n2=2000, p=0.005, k=10)
        closed = expected_distance_moments(params)
        mc = monte_carlo_distance(params, 40_000, seed=3, method="model")
        se = math.sqrt(closed.variance / 40_000)
        assert abs(mc.mean - closed.mean) < 4 * se

    def test_model_mode_matches_independent_sampler_estimand(self):
        # same estimand as the reference sampler in oracles.py: means agree
        # within combined Monte-Carlo error
        params = NullModelParams(n1=20, n2=500, p=0.02, k=10)
        mc = monte_carlo_distance(params, 20_000, seed=5, method="model")
        ref = sample_model_distances(20, 500, 0.02, 10, 20_000, seed=99)
        se = math.sqrt(mc.variance / 20_000 + ref.var() / 20_000)
        assert abs(mc.mean - ref.mean()) < 4 * se

    def test_empirical_mode_runs(self):
        params = NullModelParams(n1=6, n2=40, p=0.15, k=6)
        mc = monte_carlo_distance(params, 100, seed=1, method="empirical")
        assert mc.mean > 0.0 and mc.variance >= 0.0

    @pytest.mark.parametrize(
        "n1, n2, p, k, samples, seed", [(6, 40, 0.15, 6, 103, 1), (12, 60, 0.1, 5, 150, 4)]
    )
    def test_empirical_matches_brute_force_replay(self, n1, n2, p, k, samples, seed):
        mc = monte_carlo_distance(NullModelParams(n1, n2, p, k), samples, seed)
        d = empirical_mc_distances(n1, n2, p, k, samples, seed)
        assert len(d) == samples
        assert mc.mean == pytest.approx(d.mean(), abs=1e-12)
        assert mc.second_moment == pytest.approx((d * d).mean(), abs=1e-12)

    @pytest.mark.parametrize(
        "n1, n2, p, k, samples, seed", [(6, 40, 0.15, 6, 103, 1), (12, 60, 0.1, 5, 150, 4)]
    )
    def test_empirical_matches_brute_force_replay_over_batches(
        self, monkeypatch, n1, n2, p, k, samples, seed
    ):
        monkeypatch.setattr(nullmodel, "_BATCH_CELLS", 1000)
        mc = monte_carlo_distance(NullModelParams(n1, n2, p, k), samples, seed)
        d = empirical_mc_distances(n1, n2, p, k, samples, seed)
        assert mc.mean == pytest.approx(d.mean(), abs=1e-12)
        assert mc.second_moment == pytest.approx((d * d).mean(), abs=1e-12)

    def test_empirical_exceeds_limit_model(self):
        # finite graphs have sparse integer histograms, so their distances sit
        # above the smooth-limit closed form; see the module docstring
        params = NullModelParams(n1=10, n2=100, p=0.1, k=10)
        closed = expected_distance_moments(params)
        mc = monte_carlo_distance(params, 2_000, seed=2, method="empirical")
        assert mc.mean > closed.mean

    def test_sampling_error_when_k_unreachable(self):
        params = NullModelParams(n1=5, n2=100, p=0.01, k=50)
        with pytest.raises(SamplingError):
            monte_carlo_distance(params, 10, seed=0, method="model", max_rejects=100)

    def test_empirical_sampling_error_when_k_unreachable(self):
        params = NullModelParams(n1=5, n2=100, p=0.01, k=50)
        with pytest.raises(SamplingError, match="after 100 draws"):
            monte_carlo_distance(params, 10, seed=0, method="empirical", max_rejects=100)

    @pytest.mark.parametrize("method", ["empirical", "model"])
    def test_rejects_count_over_all_references(self, method):
        # P(degree 5) ~ 0.18 at n2 * p = 5: one reference needs a few rejects,
        # ten of them need more than 15 between them
        params = NullModelParams(n1=2, n2=100, p=0.05, k=5)
        monte_carlo_distance(params, 1, seed=0, method=method, max_rejects=15)
        monte_carlo_distance(params, 10, seed=0, method=method, max_rejects=200)
        with pytest.raises(SamplingError):
            monte_carlo_distance(params, 10, seed=0, method=method, max_rejects=15)

    def test_validation(self):
        params = NullModelParams(n1=5, n2=10, p=0.5, k=5)
        with pytest.raises(ValueError, match="samples"):
            monte_carlo_distance(params, 0, seed=0)
        with pytest.raises(ValueError, match="method"):
            monte_carlo_distance(params, 10, seed=0, method="exact")
        with pytest.raises(ValueError, match="n1"):
            monte_carlo_distance(NullModelParams(n1=1, n2=10, p=0.5, k=5), 10, seed=0)


class TestSimilarityThreshold:
    def test_mean_minus_sigma(self):
        params = NullModelParams(n1=50, n2=2000, p=0.005, k=10)
        m = expected_distance_moments(params)
        assert similarity_threshold(params, 1.0) == pytest.approx(
            m.mean - math.sqrt(m.variance)
        )

    def test_floored_at_zero(self):
        params = NullModelParams(n1=50, n2=2000, p=0.005, k=10)
        assert similarity_threshold(params, 100.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            similarity_threshold(NullModelParams(n1=5, n2=10, p=0.5, k=5), -1.0)

    @pytest.mark.parametrize("sigmas", [math.nan, math.inf])
    def test_non_finite_rejected(self, sigmas):
        with pytest.raises(ValueError, match="finite"):
            similarity_threshold(NullModelParams(n1=5, n2=10, p=0.5, k=5), sigmas)
