"""Which scipy modules each command loads.

Importing scipy.sparse or scipy.special costs about 0.3-0.4 s, most of a
small `scores` run, so the distance kernel's commands must load none of
scipy, nor must PageRank, eigenvector or `null-model`; only the BFS sweep of
closeness and betweenness imports it, on use.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hellrank
from hellrank.cli import run

SRC = Path(hellrank.__file__).resolve().parents[1]

CORRELATE = ["correlate", "--dataset", "davis", "--metric-a", "degree2", "--metric-b", "pagerank"]
NULL_MODEL = ["null-model", "--n1", "6", "--n2", "40", "--p", "0.15", "--k", "6", "--samples", "100"]


def fresh_run(argv: list[str] | None) -> dict:
    """Exit code, stdout and loaded scipy modules of ``argv`` run in a new
    interpreter (``None``: only import the package)."""
    code = (
        "import contextlib, io, json, sys, hellrank\n"
        "argv = json.loads(sys.argv[1])\n"
        "out = io.StringIO()\n"
        "if argv is None:\n"
        "    status = 0\n"
        "else:\n"
        "    import hellrank.cli\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        status = hellrank.cli.run(argv)\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps({'status': status, 'out': out.getvalue(), 'scipy': scipy}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["scores", "--dataset", "davis"],
        ["distances", "--dataset", "davis"],
        ["threshold-graph", "--dataset", "davis"],
    ],
)
def test_kernel_commands_load_no_scipy(argv):
    result = fresh_run(argv)
    assert result["status"] == 0
    assert result["scipy"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["scores", "--dataset", "davis", "--metric", "pagerank"],
        ["scores", "--dataset", "davis", "--metric", "eigenvector"],
        CORRELATE,
    ],
)
def test_pagerank_and_eigenvector_load_no_scipy(argv):
    result = fresh_run(argv)
    assert result["status"] == 0
    assert result["scipy"] == []


def test_all_metrics_load_sparse_but_not_linalg():
    result = fresh_run(["scores", "--dataset", "davis", "--metric", "all"])
    assert result["status"] == 0
    assert "scipy.sparse" in result["scipy"]
    assert not [m for m in result["scipy"] if m.startswith("scipy.linalg")]


@pytest.mark.parametrize("method", ["empirical", "model"])
def test_null_model_loads_no_scipy(method):
    result = fresh_run(NULL_MODEL + ["--method", method])
    assert result["status"] == 0
    assert result["scipy"] == []


@pytest.mark.parametrize(
    "argv", [["scores", "--dataset", "davis", "--metric", "all"], CORRELATE, NULL_MODEL]
)
def test_lazy_imports_resolve(argv):
    # a fresh interpreter imports scipy on use and prints what this one,
    # which has loaded scipy already, prints
    result = fresh_run(argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    assert result["status"] == 0
    assert result["out"] == out.getvalue()
