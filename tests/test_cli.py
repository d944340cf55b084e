import csv
import io
import json
import os
import threading

import numpy as np
import pytest

from hellrank import DistanceMode, Side, distance_matrix, hellinger, load_builtin, load_edge_list
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

    @pytest.mark.parametrize("normalize", ["none", "max"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_all_metrics_wide_json(self, capsys, side, normalize):
        argv = ["scores", "--dataset", "davis", "--side", side, "--normalize", normalize,
                "--format", "json"]
        out = run_ok(capsys, argv + ["--metric", "all"])
        data = json.loads(out)
        # json.dump's indent=2 layout, labels sorted, each metric's own table
        assert out == json.dumps(data, indent=2) + "\n"
        assert list(data) == sorted(load_builtin("davis").nodes(Side(side)))
        for name in PER_NODE_METRICS:
            table = json.loads(run_ok(capsys, argv + ["--metric", name]))
            assert {x: row[name] for x, row in data.items()} == table

    def test_opsahl_scalar(self, capsys, fig1_file):
        out = run_ok(capsys, ["scores", "--input", fig1_file, "--metric", "opsahl"])
        assert out == "metric,value\nopsahl,0.000000\n"
        out = run_ok(capsys, ["scores", "--dataset", "davis", "--metric", "opsahl",
                              "--format", "json"])
        assert out == '{"opsahl": 0.7904111423597161}\n'

    def test_right_side(self, capsys):
        out = run_ok(
            capsys, ["scores", "--dataset", "davis", "--side", "right", "--metric", "degree2"]
        )
        assert len(out.splitlines()) == 15

    def test_output_file(self, capsys, tmp_path, fig1_file):
        # a new file, an existing one (whose permission bits stay) and one
        # reached through a symlink (which stays a link) get stdout's bytes,
        # and no other file is left in the directory
        argv = ["scores", "--input", fig1_file]
        expected = run_ok(capsys, argv)
        assert expected.startswith("label,score\n")
        old = tmp_path / "old.csv"
        old.write_text("an earlier result\n")
        old.chmod(0o640)
        link = tmp_path / "link.csv"
        link.symlink_to(old)
        for dest in (tmp_path / "scores.csv", old, link):
            assert run(argv + ["--output", str(dest)]) == 0
            assert dest.read_text() == expected
        assert old.stat().st_mode & 0o777 == 0o640 and link.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fig1.tsv", "link.csv", "old.csv", "scores.csv"]

    def test_output_to_a_fifo(self, tmp_path):
        # a target that is not a regular file is written, not replaced
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        assert run(["scores", "--dataset", "davis", "--output", str(fifo)]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive() and got[0].startswith("label,score\n")
        assert fifo.is_fifo()

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

    @pytest.mark.parametrize("marked", [("edges",), ("nodes",), ("edges", "nodes")])
    def test_byte_order_mark_is_not_part_of_a_label(self, capsys, tmp_path, marked):
        files = {"edges": "a\t1\nb\t1\nb\t2\n", "nodes": "left a\nleft z\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(("\ufeff" if name in marked else "") + text, "utf-8")
        argv = ["scores", "--input", str(tmp_path / "edges"), "--node-list", str(tmp_path / "nodes")]
        out = run_ok(capsys, argv + ["--metric", "degree2"])
        assert out == "label,score\nb,1.000000\na,0.500000\nz,0.000000\n"

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


@pytest.mark.parametrize("command", ["scores", "distances", "threshold-graph"])
def test_non_finite_weight_exit_1(capsys, tmp_path, command):
    path = tmp_path / "weighted.txt"
    path.write_text("a x 1\nb x 2\na y 1e309\n")
    assert run([command, "--input", str(path), "--weighted"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "hellrank: line 3: weight must be finite and > 0, got '1e309'\n"


@pytest.mark.parametrize("mode", ["normalized", "raw"])
def test_node_weight_sum_past_half_the_largest_double_exit_1(capsys, tmp_path, mode):
    # a and b have proportional vectors; the parent printed d(a, b) = 1 in
    # normalized mode and inf cells in raw mode
    path = tmp_path / "weighted.txt"
    path.write_text("a x 1e308\na y 1e308\nb x 1\nb z 1\nc x 1\n")
    assert run(["distances", "--input", str(path), "--weighted", "--mode", mode]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "hellrank: the link weights of left node 'a' sum to inf, above float max / 2\n"
    path.write_text("a x 4e307\na y 4e307\nb x 1\nb z 1\nc x 1\n")
    out = run_ok(capsys, ["distances", "--input", str(path), "--weighted", "--mode", mode])
    assert "inf" not in out
    if mode == "normalized":
        assert out.splitlines()[1] == "a,0.000000,0.000000,0.541196"


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
        argv = ["null-model", "--n1", "50", "--n2", "2000", "--p", "0.005", "--k", "10"]
        data = json.loads(run_ok(capsys, argv))
        assert set(data) == {"mean", "second_moment", "variance", "threshold", "sigmas"}
        assert data["threshold"] == pytest.approx(data["mean"] - data["variance"] ** 0.5)
        # zero samples skip the Monte Carlo
        assert json.loads(run_ok(capsys, argv + ["--samples", "0", "--seed", "0"])) == data

    def test_with_monte_carlo(self, capsys):
        argv = [
            "null-model", "--n1", "50", "--n2", "2000", "--p", "0.005", "--k", "10",
            "--samples", "2000", "--method", "model", "--seed", "3",
        ]
        data = json.loads(run_ok(capsys, argv))
        assert data["monte_carlo"]["mean"] == pytest.approx(data["mean"], abs=0.05)
        assert json.loads(run_ok(capsys, argv)) == data  # deterministic

    @pytest.mark.parametrize(
        "flag, value", [("--n1", "0"), ("--n2", "0"), ("--k", "0"), ("--n1", "-3"), ("--k", "x")]
    )
    def test_size_flags_below_one_usage_error(self, capsys, flag, value):
        argv = ["null-model", "--n1", "5", "--n2", "10", "--p", "0.5", "--k", "5"]
        argv[argv.index(flag) + 1] = value
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument {flag}:" in captured.err

    def test_invalid_params_exit_1(self, capsys):
        assert run(["null-model", "--n1", "5", "--n2", "10", "--p", "0.5", "--k", "11"]) == 1
        assert "hellrank:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--p", "1.5"), ("--p", "-0.1"), ("--p", "nan"), ("--p", "x"),
         ("--sigmas", "-1"), ("--sigmas", "nan"), ("--sigmas", "inf")],
    )
    def test_p_and_sigmas_out_of_range_usage_error(self, capsys, flag, value):
        # a nan or infinite sigmas would reach json.dump as NaN or Infinity,
        # which strict parsers reject
        argv = ["null-model", "--n1", "5", "--n2", "10", "--p", "0.5", "--k", "5"]
        with pytest.raises(SystemExit) as err:
            run(argv + [flag, value])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument {flag}:" in captured.err

    def test_p_and_sigmas_at_their_limits(self, capsys):
        argv = ["null-model", "--n1", "5", "--n2", "10", "--k", "5"]
        for extra in (["--p", "1", "--sigmas", "0"], ["--p", "0.2", "--sigmas", "1e300"]):
            json.loads(run_ok(capsys, argv + extra))

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--samples", "-5")])
    def test_negative_seed_or_samples_usage_error(self, capsys, flag, value):
        argv = ["null-model", "--n1", "5", "--n2", "10", "--p", "0.5", "--k", "5", "--samples", "3"]
        with pytest.raises(SystemExit) as err:
            run(argv + [flag, value])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument {flag}: must be >= 0" in captured.err


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["scores", "--input", "{missing}"],
            ["project", "--input", "{missing}"],
            ["distances", "--input", "{malformed}"],
            # davis has 18 women on the left
            ["correlate", "--dataset", "davis", "--metric-b", "degree2", "--topk", "100"],
            ["sweep-k", "--dataset", "davis", "--metric-b", "degree2", "--kmax", "18"],
            ["threshold-graph", "--dataset", "davis", "--threshold", "nan"],
            ["null-model", "--n1", "5", "--n2", "10", "--p", "0.5", "--k", "11"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_failed_run_leaves_output_file_as_it_was(self, capsys, tmp_path, argv):
        malformed = tmp_path / "malformed.tsv"
        malformed.write_text("A\t1\nB\t2\textra\n")
        dest = tmp_path / "out.csv"
        dest.write_bytes(b"an earlier result\n")
        paths = {"missing": tmp_path / "missing.tsv", "malformed": malformed}
        argv = [a.format(**paths) for a in argv]
        assert run(argv + ["--output", str(dest)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("hellrank: ")
        assert dest.read_bytes() == b"an earlier result\n"

    def test_failed_write_leaves_output_file_as_it_was(self, capsys, tmp_path, monkeypatch):
        # distances writes the rows of each block as the kernel computes it;
        # a failure in the second block leaves the earlier file whole and no
        # other file beside it
        rng = np.random.default_rng(5)
        links = zip(*np.nonzero(rng.random((400, 40)) < 0.15))
        edges = tmp_path / "edges.tsv"
        edges.write_text("".join(f"a{i}\tp{j}\n" for i, j in links))
        dest = tmp_path / "out.csv"
        dest.write_bytes(b"an earlier result\n")
        block, calls = hellinger._block_distances, []

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise MemoryError
            return block(*args)

        monkeypatch.setattr(hellinger, "_block_distances", failing)
        assert run(["distances", "--input", str(edges), "--output", str(dest)]) == 1
        assert len(calls) == 2 and capsys.readouterr().err.startswith("hellrank: ")
        assert dest.read_bytes() == b"an earlier result\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["edges.tsv", "out.csv"]

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
        "metric, flags",
        [
            ("degree2", ["--damping", "0.5"]),
            ("degree2", ["--mode", "raw"]),
            ("degree2", ["--threads", "3"]),
            ("hellrank", ["--damping", "0.5"]),
            ("pagerank", ["--mode", "normalized"]),
            ("pagerank", ["--threads", "1"]),
            ("opsahl", ["--side", "left"]),
            ("opsahl", ["--damping", "0.85"]),
            ("opsahl", ["--mode", "raw"]),
            ("opsahl", ["--threads", "2"]),
        ],
    )
    def test_scores_flags_the_metric_does_not_read_are_usage_errors(self, capsys, metric, flags):
        with pytest.raises(SystemExit) as err:
            run(["scores", "--dataset", "davis", "--metric", metric] + flags)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flags[0]} does not apply to --metric {metric}" in captured.err

    @pytest.mark.parametrize(
        "metric, flags",
        [
            ("hellrank", ["--mode", "raw", "--threads", "2", "--side", "right"]),
            ("pagerank", ["--damping", "0.5", "--side", "right"]),
            ("degree2", ["--side", "right"]),
            ("all", ["--damping", "0.5", "--mode", "raw", "--threads", "2", "--side", "right"]),
        ],
    )
    def test_scores_flags_the_metric_reads_are_accepted(self, capsys, metric, flags):
        run_ok(capsys, ["scores", "--dataset", "davis", "--metric", metric] + flags)

    @pytest.mark.parametrize("command", ["correlate", "sweep-k"])
    @pytest.mark.parametrize(
        "metrics, flags",
        [
            (["degree2", "closeness2"], ["--damping", "0.5"]),
            (["hellrank", "degree2"], ["--damping", "0.85"]),
            (["degree2", "pagerank"], ["--mode", "raw"]),
            (["pagerank", "closeness1"], ["--threads", "2"]),
        ],
    )
    def test_pair_flags_neither_metric_reads_are_usage_errors(self, capsys, command, metrics,
                                                              flags):
        argv = [command, "--dataset", "davis", "--metric-a", metrics[0], "--metric-b", metrics[1]]
        with pytest.raises(SystemExit) as err:
            run(argv + flags)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        given = f"--metric-a {metrics[0]} --metric-b {metrics[1]}"
        assert f"{flags[0]} does not apply to {given}" in captured.err

    @pytest.mark.parametrize("command", ["correlate", "sweep-k"])
    def test_pair_flags_either_metric_reads_are_accepted(self, capsys, command):
        # --metric-a defaults to hellrank, which reads --mode and --threads
        argv = [command, "--dataset", "davis", "--metric-b", "pagerank"]
        explicit = ["--mode", "normalized", "--threads", "2", "--damping", "0.85"]
        assert run_ok(capsys, argv) == run_ok(capsys, argv + explicit)
        swapped = [command, "--dataset", "davis", "--metric-a", "pagerank", "--metric-b",
                   "hellrank", "--mode", "raw", "--damping", "0.5"]
        run_ok(capsys, swapped)

    def test_scores_defaults_equal_explicit_flags(self, capsys):
        argv = ["scores", "--dataset", "davis", "--metric", "all"]
        explicit = ["--side", "left", "--mode", "normalized", "--damping", "0.85"]
        assert run_ok(capsys, argv) == run_ok(capsys, argv + explicit)

    @pytest.mark.parametrize(
        "argv",
        [
            ["scores", "--dataset", "davis", "--seed", "3"],
            ["project", "--dataset", "davis", "--threads", "2"],
            ["distances", "--dataset", "davis", "--threads", "2"],
            ["threshold-graph", "--dataset", "davis", "--threads", "2"],
            ["null-model", "--n1", "5", "--n2", "10", "--p", "0.5", "--k", "5", "--threads", "2"],
            ["project", "--dataset", "davis", "--mode", "raw"],
            ["scores", "--dataset", "davis", "--metric", "opsahl", "--normalize", "max"],
        ],
    )
    def test_unread_flags_are_usage_errors(self, capsys, argv):
        # --seed only reaches the null-model Monte Carlo, --mode only the kernel,
        # --threads only HellRank scores, --normalize only per-node scores
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    def test_builtin_registry(self):
        assert builtin_names() == ["davis"]
        assert load_builtin("davis") == load_builtin("davis")
        with pytest.raises(ValueError, match="unknown dataset"):
            load_builtin("imaginary")
