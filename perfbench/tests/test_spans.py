import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from generators import powerlaw_author_paper, write_edge_list
from spans import SPAN_NAMES, Tracer, layer_metrics, span_times

PERFBENCH = Path(__file__).resolve().parents[1]


def test_tracer_records_nesting():
    t = Tracer()
    inner = t.wrap(lambda x: x + 1, "inner", lambda c, a, r: c.__setitem__("seen", r))
    outer = t.wrap(lambda x: inner(x) * 2, lambda x: f"outer{x}")
    assert outer(1) == 4
    assert [(s[0], s[3]) for s in t.spans] == [("outer1", -1), ("inner", 0)]
    assert t.spans[0][1] <= t.spans[1][1] <= t.spans[1][2] <= t.spans[0][2]
    assert t.counters == {"seen": 2}


def test_self_times_and_metrics():
    spans = [
        ["cli.run", 0.0, 10.0, -1],
        ["hellinger.hellrank", 1.0, 7.0, 0],
        ["graph.neighbor_degree_vector", 2.0, 3.0, 1],
        ["graph.neighbor_degree_vector", 3.0, 5.0, 1],
        ["scores.to_csv", 8.0, 9.0, 0],
    ]
    total, self_, calls = span_times(spans)
    assert self_["cli.run"] == 3.0
    assert self_["hellinger.hellrank"] == 3.0
    assert total["graph.neighbor_degree_vector"] == 3.0
    assert calls["graph.neighbor_degree_vector"] == 2
    assert sum(self_.values()) == total["cli.run"]
    m = layer_metrics(spans, {"hellinger.nodes": 4})
    assert m["cli.self_s"] == 3.0
    assert m["hellinger.pairs"] == 16
    assert m["hellinger.pairs_per_s"] == 16 / 3.0
    assert m["graph.neighbor_degree_vector_calls"] == 2
    assert m["rankeval.kendall_tau_s"] == 0.0


@pytest.mark.parametrize("argv", [["scores", "--metric", "all"], ["distances"]])
def test_traced_child_spans_cover_the_run(tmp_path, argv):
    edges = powerlaw_author_paper(4, 0.01)
    write_edge_list(edges, str(tmp_path / "in.tsv"))
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src"))
    subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(report), "trace", argv[0],
         "--input", str(tmp_path / "in.tsv"), *argv[1:], "--output", str(tmp_path / "out")],
        env=env, check=True, capture_output=True, timeout=120,
    )
    data = json.loads(report.read_text())
    total, self_, calls = span_times(data["spans"])
    assert set(total) == set(SPAN_NAMES)
    assert calls["cli.run"] == 1
    assert sum(self_.values()) == pytest.approx(total["cli.run"], abs=1e-9)
    assert min(self_.values()) >= 0
    n_left = len({u for u, _ in edges})
    assert data["counters"]["graph.n_left"] == n_left
    assert calls["graph.neighbor_degree_vector"] == n_left
    if argv[0] == "scores":
        assert all(calls[name] == 1 for name in SPAN_NAMES if name.startswith("baselines."))
        assert calls["graph.project"] == 3
    else:
        assert calls["hellinger.distance_matrix"] == calls["hellinger.to_csv"] == 1
