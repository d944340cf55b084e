import csv
import io
import json

import numpy as np
import pytest

from hellrank import DistanceMode, Side, distance_matrix, load_builtin, load_edge_list
from hellrank.cli import PER_NODE_METRICS, run
from hellrank.datasets import builtin_names


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.tsv"
    path.write_text(
        "A\t1\nB\t1\nB\t2\nB\t3\nC\t2\nC\t3\nD\t3\nD\t4\nD\t5\nD\t6\nD\t7\n"
    )
    return str(path)


@pytest.fixture
def weighted_file(tmp_path):
    path = tmp_path / "weighted.txt"
    path.write_text("a x 5\na y 1\nb x 1\nb z 1\nc x 1\n")
    return str(path)


def run_ok(capsys, argv):
    assert run(argv) == 0
    return capsys.readouterr().out


class TestScores:
    def test_davis_default(self, capsys):
        out = run_ok(capsys, ["scores", "--dataset", "davis"])
        lines = out.splitlines()
        assert lines[0] == "label,score"
        assert len(lines) == 19
        assert lines[1].startswith("Theresa,")

    def test_json_format(self, capsys):
        out = run_ok(capsys, ["scores", "--dataset", "davis", "--format", "json"])
        data = json.loads(out)
        assert len(data) == 18 and "Nora" in data

    def test_normalize_max(self, capsys):
        out = run_ok(capsys, ["scores", "--dataset", "davis", "--normalize", "max"])
        scores = dict(line.split(",") for line in out.splitlines()[1:])
        assert max(float(v) for v in scores.values()) == pytest.approx(1.0)

    def test_all_metrics_wide_csv(self, capsys, fig1_file):
        out = run_ok(capsys, ["scores", "--input", fig1_file, "--metric", "all"])
        lines = out.splitlines()
        assert lines[0] == "label," + ",".join(PER_NODE_METRICS)
        assert [line.split(",")[0] for line in lines[1:]] == ["A", "B", "C", "D"]

    def test_opsahl_scalar(self, capsys, fig1_file):
        out = run_ok(capsys, ["scores", "--input", fig1_file, "--metric", "opsahl"])
        assert out == "metric,value\nopsahl,0.000000\n"

    def test_right_side(self, capsys):
        out = run_ok(
            capsys, ["scores", "--dataset", "davis", "--side", "right", "--metric", "degree2"]
        )
        assert len(out.splitlines()) == 15

    def test_output_file(self, tmp_path, fig1_file):
        dest = tmp_path / "scores.csv"
        assert run(["scores", "--input", fig1_file, "--output", str(dest)]) == 0
        assert dest.read_text().startswith("label,score\n")

    def test_csv_quotes_labels(self, capsys, tmp_path):
        path = tmp_path / "odd.tsv"
        path.write_text('x,1 p\nsay"hi" p\nb q\nb p\n')
        for extra in ([], ["--metric", "all"]):
            out = run_ok(capsys, ["scores", "--input", str(path)] + extra)
            rows = list(csv.reader(io.StringIO(out)))
            assert sorted(r[0] for r in rows[1:]) == ["b", 'say"hi"', "x,1"]
            assert {len(r) for r in rows} == {len(rows[0])}

    def test_weighted_and_node_list(self, capsys, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("a 1 2.0\na 2 1.0\nb 2 1.0\n")
        nodes = tmp_path / "nodes.txt"
        nodes.write_text("left z\n")
        out = run_ok(
            capsys,
            [
                "scores",
                "--input",
                str(edges),
                "--weighted",
                "--node-list",
                str(nodes),
                "--metric",
                "degree2",
            ],
        )
        assert "z,0.000000" in out

    def test_weighted_reaches_hellrank(self, capsys, weighted_file):
        out = run_ok(capsys, ["scores", "--input", weighted_file, "--weighted"])
        assert out == "label,score\na,5.437291\nb,3.760506\nc,3.586919\n"


class TestDistances:
    def test_fig1_matrix(self, capsys, fig1_file):
        out = run_ok(capsys, ["distances", "--input", fig1_file])
        lines = out.splitlines()
        assert lines[0] == ",A,B,C,D"
        row_a = lines[1].split(",")
        assert float(row_a[2]) == pytest.approx(0.428373, abs=1e-6)
        assert float(row_a[4]) == pytest.approx(1.0)

    def test_raw_mode(self, capsys, fig1_file):
        out = run_ok(capsys, ["distances", "--input", fig1_file, "--mode", "raw"])
        assert float(out.splitlines()[1].split(",")[2]) == pytest.approx(1.082392, abs=1e-6)

    def test_weighted(self, capsys, weighted_file):
        out = run_ok(capsys, ["distances", "--input", weighted_file, "--weighted"])
        # unweighted, a and b share the vector {1: 1, 3: 1} and sit at distance 0
        assert out.splitlines()[1] == "a,0.000000,0.256569,0.295176"

    def test_raw_mode_mixed_widths_bytes(self, capsys, tmp_path):
        # every left degree is >= 100; the P nodes' private leaves put raw
        # distances above 10 into rows that also hold distances below 10
        rng = np.random.default_rng(7)
        adj = rng.random((200, 250)) < 0.5
        lines = [f"L{i}\tR{j}\n" for i, j in zip(*np.nonzero(adj))]
        lines += [f"P{i}\tleaf{i}_{j}\n" for i in range(5) for j in range(120)]
        path = tmp_path / "dense.tsv"
        path.write_text("".join(lines))
        out = run_ok(capsys, ["distances", "--input", str(path), "--mode", "raw"])
        with open(path, encoding="utf-8") as fh:
            m = distance_matrix(load_edge_list(fh), Side.LEFT, DistanceMode.RAW)
        assert ((m.values >= 10).any(axis=1) & (m.values < 10).any(axis=1)).all()
        expected = "," + ",".join(m.labels) + "\n" + "".join(
            label + "," + ",".join(f"{v:.6f}" for v in row) + "\n"
            for label, row in zip(m.labels, m.values)
        )
        assert out == expected


class TestCorrelate:
    def test_davis_vs_degree(self, capsys):
        out = run_ok(capsys, ["correlate", "--dataset", "davis", "--metric-b", "degree2"])
        data = json.loads(out)
        assert data["kendall_tau"] == pytest.approx(0.647059, abs=1e-5)
        assert data["spearman_top_k"] == pytest.approx(0.723077, abs=1e-5)
        assert data["k"] == 5

    @pytest.mark.parametrize("topk", ["0", "-3"])
    def test_topk_below_one_usage_error(self, capsys, topk):
        with pytest.raises(SystemExit) as err:
            run(["correlate", "--dataset", "davis", "--metric-b", "degree2", "--topk", topk])
        assert err.value.code == 2
        assert "--topk" in capsys.readouterr().err

    @pytest.mark.parametrize("topk", ["19", "1000"])
    def test_topk_above_node_count_exit_1(self, capsys, topk):
        # davis has 18 women on the left
        assert run(["correlate", "--dataset", "davis", "--metric-b", "degree2", "--topk", topk]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--topk" in captured.err

    def test_topk_all_nodes_is_undefined(self, capsys):
        # k = n makes both indicators constant, so the correlation is undefined
        argv = ["correlate", "--dataset", "davis", "--metric-b", "degree2", "--topk", "18"]
        assert json.loads(run_ok(capsys, argv))["spearman_top_k"] is None


class TestSweepK:
    def test_series_shape(self, capsys):
        out = run_ok(
            capsys, ["sweep-k", "--dataset", "davis", "--metric-b", "degree2", "--kmax", "10"]
        )
        lines = out.splitlines()
        assert lines[0] == "k,rho"
        assert len(lines) == 11
        assert lines[1].startswith("1,")

    @pytest.mark.parametrize("kmax", ["0", "-1"])
    def test_kmax_below_one_usage_error(self, capsys, kmax):
        with pytest.raises(SystemExit) as err:
            run(["sweep-k", "--dataset", "davis", "--metric-b", "degree2", "--kmax", kmax])
        assert err.value.code == 2
        assert "--kmax" in capsys.readouterr().err

    @pytest.mark.parametrize("kmax", ["18", "100"])
    def test_kmax_above_node_count_exit_1(self, capsys, kmax):
        # davis has 18 women on the left, so k runs up to 17
        assert run(["sweep-k", "--dataset", "davis", "--metric-b", "degree2", "--kmax", kmax]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--kmax" in captured.err

    def test_kmax_at_most_n_minus_one(self, capsys):
        argv = ["sweep-k", "--dataset", "davis", "--metric-b", "degree2", "--kmax", "17"]
        assert len(run_ok(capsys, argv).splitlines()) == 18


class TestThresholdGraph:
    def test_dot_isolates_flora_and_olivia(self, capsys):
        out = run_ok(capsys, ["threshold-graph", "--dataset", "davis", "--threshold", "0.5"])
        assert out.startswith("graph G {")
        # Flora and Olivia form their own two-node component: they connect to
        # each other and to nobody else
        edges = [line for line in out.splitlines() if " -- " in line]
        touching = [e for e in edges if "Flora" in e or "Olivia" in e]
        assert touching == ['  "Flora" -- "Olivia";']

    def test_csv_format(self, capsys, fig1_file):
        out = run_ok(
            capsys,
            ["threshold-graph", "--input", fig1_file, "--threshold", "0.43", "--format", "csv"],
        )
        assert out == "source,target\nA,B\nB,C\n"

    def test_nan_threshold_exit_1(self, capsys, fig1_file):
        argv = ["threshold-graph", "--input", fig1_file, "--format", "csv"]
        assert run(argv + ["--threshold", "nan"]) == 1
        assert "threshold" in capsys.readouterr().err
        # every pair is closer than infinity
        assert run_ok(capsys, argv + ["--threshold", "inf"]).count("\n") == 1 + 6

    def test_weighted(self, capsys, weighted_file):
        argv = ["threshold-graph", "--input", weighted_file, "--weighted", "--format", "csv"]
        # unweighted, d(a, b) = 0 would put a -- b below any positive threshold
        assert run_ok(capsys, argv + ["--threshold", "0.25"]) == "source,target\n"
        assert run_ok(capsys, argv + ["--threshold", "0.26"]) == "source,target\na,b\n"


class TestNullModel:
    def test_closed_form_payload(self, capsys):
        out = run_ok(
            capsys,
            ["null-model", "--n1", "50", "--n2", "2000", "--p", "0.005", "--k", "10"],
        )
        data = json.loads(out)
        assert set(data) == {"mean", "second_moment", "variance", "threshold", "sigmas"}
        assert data["threshold"] == pytest.approx(data["mean"] - data["variance"] ** 0.5)

    def test_with_monte_carlo(self, capsys):
        argv = [
            "null-model", "--n1", "50", "--n2", "2000", "--p", "0.005", "--k", "10",
            "--samples", "2000", "--method", "model", "--seed", "3",
        ]
        data = json.loads(run_ok(capsys, argv))
        assert data["monte_carlo"]["mean"] == pytest.approx(data["mean"], abs=0.05)
        assert json.loads(run_ok(capsys, argv)) == data  # deterministic

    def test_invalid_params_exit_1(self, capsys):
        assert run(["null-model", "--n1", "5", "--n2", "10", "--p", "0.5", "--k", "11"]) == 1
        assert "hellrank:" in capsys.readouterr().err

    @pytest.mark.parametrize("sigmas", ["nan", "inf"])
    def test_non_finite_sigmas_exit_1(self, capsys, sigmas):
        # json.dump would print NaN or Infinity, which strict parsers reject
        argv = ["null-model", "--n1", "5", "--n2", "10", "--p", "0.5", "--k", "5"]
        assert run(argv + ["--sigmas", sigmas]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "sigmas" in captured.err


class TestProject:
    def test_csv(self, capsys, fig1_file):
        out = run_ok(capsys, ["project", "--input", fig1_file])
        assert out == "source,target\nA,B\nB,C\nB,D\nC,D\n"

    def test_dot(self, capsys, fig1_file):
        out = run_ok(capsys, ["project", "--input", fig1_file, "--format", "dot"])
        assert '"B" -- "D";' in out


class TestErrorsAndDeterminism:
    def test_missing_file_exit_1(self, capsys):
        assert run(["scores", "--input", "/nonexistent/file.tsv"]) == 1
        assert "hellrank:" in capsys.readouterr().err

    def test_unknown_metric_usage_error(self, fig1_file):
        with pytest.raises(SystemExit) as err:
            run(["scores", "--input", fig1_file, "--metric", "nope"])
        assert err.value.code == 2

    def test_dataset_rejects_input_only_flags(self, capsys, tmp_path):
        nodes = tmp_path / "nodes.txt"
        nodes.write_text("left z\n")
        for flag, extra in (("--weighted", []), ("--node-list", [str(nodes)])):
            with pytest.raises(SystemExit) as err:
                run(["scores", "--dataset", "davis", flag] + extra)
            assert err.value.code == 2
            message = capsys.readouterr().err
            assert flag in message and "--dataset" in message

    def test_node_list_label_with_whitespace(self, capsys, tmp_path, fig1_file):
        nodes = tmp_path / "nodes.txt"
        nodes.write_text("left z\nright item 7\n")
        assert run(["scores", "--input", fig1_file, "--node-list", str(nodes)]) == 1
        message = capsys.readouterr().err
        assert "line 2" in message and "'item 7'" in message

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["frobnicate"])
        assert err.value.code == 2

    def test_threads_do_not_change_bytes(self, capsys):
        argv = ["scores", "--dataset", "davis"]
        single = run_ok(capsys, argv + ["--threads", "1"])
        multi = run_ok(capsys, argv + ["--threads", "4"])
        assert single == multi

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one_usage_error(self, capsys, threads):
        with pytest.raises(SystemExit) as err:
            run(["scores", "--dataset", "davis", "--threads", threads])
        assert err.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("damping", ["5", "0", "1", "-0.1", "nan", "inf", "high"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["scores", "--dataset", "davis", "--metric", "degree2"],
            ["scores", "--dataset", "davis", "--metric", "pagerank"],
            ["correlate", "--dataset", "davis", "--metric-b", "pagerank"],
            ["sweep-k", "--dataset", "davis", "--metric-b", "pagerank"],
        ],
    )
    def test_damping_outside_unit_interval_usage_error(self, capsys, argv, damping):
        with pytest.raises(SystemExit) as err:
            run(argv + ["--damping", damping])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--damping" in captured.err

    def test_damping_reaches_pagerank(self, capsys):
        argv = ["scores", "--dataset", "davis", "--metric", "pagerank"]
        assert run_ok(capsys, argv + ["--damping", "0.5"]) != run_ok(capsys, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["scores", "--dataset", "davis", "--seed", "3"],
            ["project", "--dataset", "davis", "--threads", "2"],
            ["null-model", "--n1", "5", "--n2", "10", "--p", "0.5", "--k", "5", "--threads", "2"],
            ["project", "--dataset", "davis", "--mode", "raw"],
        ],
    )
    def test_unread_flags_are_usage_errors(self, capsys, argv):
        # --seed only reaches the null-model Monte Carlo, --threads and --mode only the kernel
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    def test_builtin_registry(self):
        assert builtin_names() == ["davis"]
        assert load_builtin("davis") == load_builtin("davis")
        with pytest.raises(ValueError, match="unknown dataset"):
            load_builtin("imaginary")
