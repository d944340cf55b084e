import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import hellrank

from hellrank import (
    RankVector,
    Side,
    kendall_tau,
    spearman_rho,
    sweep_k,
    top_k_vector,
)
from hellrank.rankeval import _pair_counts
from hellrank.scores import CentralityScores, ScoreArray

from oracles import blocked_kendall_counts, brute_kendall_tau_a


def rv(values, labels=None):
    labels = labels or tuple(f"n{i}" for i in range(len(values)))
    return RankVector(tuple(labels), np.array(values, dtype=float))


def scores(values, metric="m"):
    return CentralityScores(
        side=Side.LEFT,
        metric=metric,
        scores={f"n{i}": float(v) for i, v in enumerate(values)},
    )


class TestKendallTau:
    def test_identical_and_reversed(self):
        a = rv([1, 2, 3, 4])
        assert kendall_tau(a, a) == 1.0
        assert kendall_tau(a, rv([4, 3, 2, 1])) == -1.0

    def test_single_swap(self):
        assert kendall_tau(rv([1, 2, 3, 4]), rv([1, 3, 2, 4])) == pytest.approx(4 / 6)

    def test_matches_brute_force(self, rng):
        for n in (5, 20, 100, 200):
            for _ in range(8):
                x = rng.integers(0, 6, size=n).astype(float)  # heavy ties
                y = rng.integers(0, 6, size=n).astype(float)
                got = kendall_tau(rv(x), rv(y))
                assert got == pytest.approx(brute_kendall_tau_a(x, y), abs=1e-12)

    @pytest.mark.parametrize("levels", [(7, 4), (3000, 50)])
    def test_matches_blocked_counter(self, rng, levels):
        n = 3001
        x = rng.integers(0, levels[0], size=n).astype(float)
        y = rng.integers(0, levels[1], size=n).astype(float)
        c, d, tx, ty = blocked_kendall_counts(x, y)
        pairs, ties_x, ties_y, ties_xy, discordant = _pair_counts(x, y)
        assert (pairs, ties_x, ties_y, discordant) == (n * (n - 1) // 2, tx, ty, d)
        assert pairs - ties_x - ties_y + ties_xy == c + d
        assert kendall_tau(rv(x), rv(y)) == (c - d) / pairs
        tau_b = (c - d) / math.sqrt((pairs - tx) * (pairs - ty))
        assert kendall_tau(rv(x), rv(y), variant="b") == tau_b

    def test_constant_vector(self):
        flat, ramp = rv([2, 2, 2, 2]), rv([1, 3, 2, 4])
        assert kendall_tau(flat, ramp) == 0.0
        assert kendall_tau(ramp, flat) == 0.0
        with pytest.raises(ValueError, match="constant"):
            kendall_tau(flat, ramp, variant="b")

    def test_ints_floats_and_signed_zeros_count_alike(self, rng):
        x = rng.integers(-3, 4, size=300)
        y = rng.integers(-3, 4, size=300)
        want = _pair_counts(x.astype(float), y.astype(float))
        assert _pair_counts(x, y) == want
        assert _pair_counts(x, y.astype(float)) == want
        signed = x.astype(float)
        signed[np.flatnonzero(signed == 0)[::2]] = -0.0
        assert _pair_counts(signed, y) == want
        labels = tuple(f"n{i}" for i in range(300))
        assert kendall_tau(RankVector(labels, x), RankVector(labels, y)) == kendall_tau(
            rv(signed), rv(y)
        )

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            kendall_tau(rv([1, np.nan, 3]), rv([1, 2, 3]))
        with pytest.raises(ValueError, match="finite"):
            kendall_tau(rv([1, 2, 3]), rv([1, np.inf, 3]), variant="b")
        # a score table, from a dict or from an array, names its first bad label
        for bad, text in [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")]:
            with pytest.raises(ValueError, match=f"^non-finite score for 'y': {text}$"):
                CentralityScores(Side.LEFT, "m", {"x": 1.0, "y": bad, "z": np.nan})
            with pytest.raises(ValueError, match=f"^non-finite score for 'y': {text}$"):
                CentralityScores(Side.LEFT, "m", ScoreArray(("x", "y", "z"), [1.0, bad, np.nan]))

    def test_tau_b_matches_scipy(self, rng):
        for _ in range(10):
            x = rng.integers(0, 4, size=50).astype(float)
            y = rng.integers(0, 4, size=50).astype(float)
            got = kendall_tau(rv(x), rv(y), variant="b")
            ref = scipy.stats.kendalltau(x, y).statistic
            assert got == pytest.approx(ref, abs=1e-12)

    def test_tau_b_large_n(self, rng):
        # (P - T_x)(P - T_y) exceeds 2**64 here, beyond any numpy integer
        n = 100_000
        x = rng.integers(0, 1000, size=n).astype(float)
        y = x + rng.integers(0, 50, size=n)
        got = kendall_tau(rv(x), rv(y), variant="b")
        assert got == pytest.approx(scipy.stats.kendalltau(x, y).statistic, abs=1e-12)

    def test_invariant_under_monotone_transform(self, rng):
        x = rng.random(40)
        y = rng.random(40)
        assert kendall_tau(rv(x), rv(y)) == kendall_tau(rv(np.exp(3 * x)), rv(y**3))

    def test_label_alignment(self):
        a = RankVector(("x", "y", "z"), np.array([1.0, 2.0, 3.0]))
        b = RankVector(("z", "x", "y"), np.array([3.0, 1.0, 2.0]))
        assert kendall_tau(a, b) == 1.0

    def test_errors(self):
        with pytest.raises(ValueError, match="different label sets"):
            kendall_tau(rv([1, 2]), rv([1, 2], labels=("a", "b")))
        with pytest.raises(ValueError, match="variant"):
            kendall_tau(rv([1, 2]), rv([2, 1]), variant="c")
        with pytest.raises(ValueError, match="constant"):
            kendall_tau(rv([1, 1]), rv([1, 2]), variant="b")
        with pytest.raises(ValueError, match="at least 2"):
            kendall_tau(rv([1]), rv([1]))


class TestSpearmanRho:
    def test_binary_examples(self):
        assert spearman_rho(rv([1, 1, 0, 0]), rv([1, 1, 0, 0])) == pytest.approx(1.0)
        assert spearman_rho(rv([1, 1, 0, 0]), rv([0, 0, 1, 1])) == pytest.approx(-1.0)
        assert spearman_rho(rv([1, 1, 0, 0]), rv([1, 0, 1, 0])) == pytest.approx(0.0)

    def test_matches_numpy(self, rng):
        x = rng.random(30)
        y = rng.random(30)
        assert spearman_rho(rv(x), rv(y)) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(ValueError, match="zero variance"):
            spearman_rho(rv([1, 1, 1]), rv([1, 2, 3]))


class TestTopK:
    def test_sums_to_k(self):
        s = scores([0.9, 0.5, 0.7, 0.1])
        for k in range(1, 5):
            assert top_k_vector(s, k).values.sum() == k

    def test_fig1_example(self):
        s = CentralityScores(
            side=Side.LEFT, metric="m", scores={"A": 0.71, "B": 1.0, "C": 0.94, "D": 0.52}
        )
        v = top_k_vector(s, 2)
        picked = {x for x, f in zip(v.labels, v.values) if f == 1.0}
        assert picked == {"B", "C"}

    def test_tie_break_by_label(self):
        s = scores([1.0, 1.0, 1.0])
        v = top_k_vector(s, 1)
        assert dict(zip(v.labels, v.values)) == {"n0": 1.0, "n1": 0.0, "n2": 0.0}
        # a table built from an array ranks and compares as one built from a dict
        a = CentralityScores(Side.LEFT, "m", ScoreArray(("c", "b\x00", "b", "a"), [2.0, 1.0, 1.0, -0.0]))
        assert a.ranked() == [("c", 2.0), ("b", 1.0), ("b\x00", 1.0), ("a", 0.0)]
        assert a.top_k(2) == ["c", "b"] and a.labels == ["c", "b\x00", "b", "a"]
        assert a.scores == {"a": 0.0, "b": 1.0, "b\x00": 1.0, "c": 2.0} == a.scores
        assert a.scores != {"a": 0.0, "b": 1.0, "c": 2.0}
        assert a == CentralityScores(Side.LEFT, "m", {"a": 0.0, "b": 1.0, "c": 2.0, "b\x00": 1.0})
        assert a["b\x00"] == 1.0 and "b" in a.scores and "d" not in a.scores

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            top_k_vector(scores([1, 2]), 3)

    def test_matches_ranked_with_ties(self, rng):
        # few distinct scores, so most cutoffs fall inside a tie; -0.0 ties 0.0
        s = scores(rng.integers(-1, 2, size=60) * np.where(rng.random(60) < 0.5, -1.0, 1.0))
        for k in range(1, 61):
            v = top_k_vector(s, k)
            assert {x for x, f in zip(v.labels, v.values) if f == 1.0} == set(s.top_k(k))


class TestSweepK:
    def test_self_agreement(self):
        s = scores([4, 3, 2, 1])
        assert sweep_k(s, s, 3) == [(1, 1.0), (2, 1.0), (3, 1.0)]

    def test_disjoint_halves(self):
        a = scores([4, 3, 1, 2])
        b = scores([1, 2, 4, 3])
        assert sweep_k(a, b, 3)[1] == (2, -1.0)

    def test_validation(self):
        a = scores([1, 2, 3])
        with pytest.raises(ValueError, match="k_max"):
            sweep_k(a, a, 3)
        b = CentralityScores(side=Side.LEFT, metric="m", scores={"q": 1.0})
        with pytest.raises(ValueError, match="different label sets"):
            sweep_k(a, b, 1)

    def test_matches_per_k_construction_with_ties(self, rng):
        # few distinct scores, so most cutoffs fall inside a tie; -0.0 ties 0.0
        a = scores(rng.integers(-1, 2, size=80) * np.where(rng.random(80) < 0.5, -1.0, 1.0))
        b = scores(rng.integers(0, 4, size=80))

        def per_k(k):
            return spearman_rho(top_k_vector(a, k), top_k_vector(b, k))

        series = sweep_k(a, b, 79)
        assert series == [(k, per_k(k)) for k in range(1, 80)]
        assert all(type(rho) is float for _, rho in series)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a second to import, paid by every CLI run
    src = Path(hellrank.__file__).resolve().parents[1]
    code = "import sys, hellrank.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_cli_baselines_leave_csgraph_and_linalg_unloaded():
    # scipy.sparse.csgraph pulls in scipy.linalg: about 0.1 s and 8 MB of RSS
    src = Path(hellrank.__file__).resolve().parents[1]
    code = (
        "import contextlib, io, sys, hellrank.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = hellrank.cli.run(['scores', '--dataset', 'davis', '--metric', 'all'])\n"
        "print(code, 'scipy.linalg' in sys.modules, 'scipy.sparse.csgraph' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 False False"


@pytest.mark.parametrize("command", ["correlate", "sweep-k"])
@pytest.mark.parametrize("metrics", [("degree2", "pagerank"), ("eigenvector", "closeness2"),
                                     ("latapy", "betweenness1")])
def test_cli_rank_statistics_build_no_label_index(tmp_path, monkeypatch, capsys, command, metrics):
    # the rank statistics read the score arrays: neither the graph nor a table
    # builds a {label: index} dict when no metric looks a node up by label
    import hellrank.cli

    path = tmp_path / "g.tsv"
    path.write_text("".join(f"a{i % 7}\tp{(i * 5) % 11}\n" for i in range(40)))
    made = []

    def keep(fn):
        return lambda *args, **kwargs: made.append(fn(*args, **kwargs)) or made[-1]

    monkeypatch.setattr(hellrank.cli, "load_edge_list", keep(hellrank.cli.load_edge_list))
    monkeypatch.setattr(hellrank.cli, "compute_metric", keep(hellrank.cli.compute_metric))
    argv = [command, "--input", str(path), "--metric-a", metrics[0], "--metric-b", metrics[1]]
    assert hellrank.cli.run(argv) == 0
    assert capsys.readouterr().out
    graph, *tables = made
    assert len(tables) == 2
    assert not {"_left_index", "_right_index"} & vars(graph).keys()
    assert not any("_index" in vars(t.scores) for t in tables)
