"""Which modules each command loads, and how the CLI sets up the process.

The package needs numpy alone: no command loads any scipy module, and one
runs in an interpreter where scipy cannot be imported at all.  Importing
scipy.sparse would add about 0.2 s and 22 MB to a small run.  `import
hellrank` alone loads no submodule and no numpy, and the CLI sets
`OPENBLAS_NUM_THREADS` before numpy loads unless the user has set it.
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


def fresh_run(argv: list[str] | None, openblas: str | None = None, numpy_first: bool = False,
              no_scipy: bool = False) -> dict:
    """Exit code, stdout, loaded scipy and hellrank modules, whether numpy
    loaded, and the final ``OPENBLAS_NUM_THREADS`` of ``argv`` run in a new
    interpreter (``None``: only import the package; ``[]``: import the CLI
    too).  ``openblas`` is the variable's value at start (``None``: unset);
    ``numpy_first`` imports numpy before the package; with ``no_scipy`` any
    import of scipy raises ImportError."""
    code = (
        "import contextlib, io, json, os, sys\n"
        "argv = json.loads(sys.argv[1])\n"
        "if sys.argv[3] == 'no-scipy':\n"
        "    sys.modules['scipy'] = None\n"
        "if sys.argv[2] == 'numpy':\n"
        "    import numpy\n"
        "import hellrank\n"
        "out = io.StringIO()\n"
        "status = 0\n"
        "if argv is not None:\n"
        "    import hellrank.cli\n"
        "    if argv:\n"
        "        with contextlib.redirect_stdout(out):\n"
        "            status = hellrank.cli.run(argv)\n"
        "def loaded(top):\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == top)\n"
        "print(json.dumps({'status': status, 'out': out.getvalue(), 'scipy': loaded('scipy'),\n"
        "                  'hellrank': loaded('hellrank'), 'numpy': 'numpy' in sys.modules,\n"
        "                  'openblas': os.environ.get('OPENBLAS_NUM_THREADS')}))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argv), "numpy" if numpy_first else "-",
         "no-scipy" if no_scipy else "-"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_alone_loads_nothing():
    result = fresh_run(None)
    assert result["hellrank"] == ["hellrank"]
    assert not result["numpy"]
    assert result["openblas"] is None


def test_public_names_resolve():
    listed = dir(hellrank)
    for name in hellrank.__all__:
        assert getattr(hellrank, name) is not None
        assert name in listed
    assert hellrank.__version__ == "0.1.0"
    assert hellrank.graph.BipartiteGraph is hellrank.BipartiteGraph
    with pytest.raises(AttributeError, match="no_such_name"):
        hellrank.no_such_name
    namespace = {}
    exec("from hellrank import *", namespace)
    assert set(hellrank.__all__) <= set(namespace)


@pytest.mark.parametrize(("given", "final"), [(None, "1"), ("3", "3")])
def test_cli_makes_openblas_single_threaded_unless_set(given, final):
    assert fresh_run([], openblas=given)["openblas"] == final


def test_cli_leaves_the_environment_alone_after_numpy():
    # the variable only acts when numpy loads, so setting it later would
    # only mislead the processes this one starts
    assert fresh_run([], numpy_first=True)["openblas"] is None


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
    assert "hellrank.baselines" not in result["hellrank"]
    assert "hellrank.rankeval" not in result["hellrank"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["scores", "--dataset", "davis", "--metric", "closeness2"],
        ["scores", "--dataset", "davis", "--metric", "closeness1"],
        ["correlate", "--dataset", "davis", "--metric-a", "closeness1", "--metric-b", "degree2"],
    ],
)
def test_closeness_loads_no_scipy(argv):
    result = fresh_run(argv)
    assert result["status"] == 0
    assert result["scipy"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["scores", "--dataset", "davis", "--metric", "all"],
        ["scores", "--dataset", "davis", "--metric", "betweenness1"],
        ["scores", "--dataset", "davis", "--metric", "betweenness2"],
        ["correlate", "--dataset", "davis", "--metric-a", "betweenness1", "--metric-b",
         "betweenness2"],
    ],
)
def test_betweenness_loads_no_scipy(argv):
    result = fresh_run(argv)
    assert result["status"] == 0
    assert result["scipy"] == []


def test_all_metrics_run_where_scipy_cannot_be_imported():
    argv = ["scores", "--dataset", "davis", "--metric", "all"]
    blocked, plain = fresh_run(argv, no_scipy=True), fresh_run(argv)
    assert blocked["status"] == plain["status"] == 0
    assert blocked["out"] == plain["out"]
    assert len(blocked["out"].splitlines()) == 19


@pytest.mark.parametrize("method", ["empirical", "model"])
def test_null_model_loads_no_scipy(method):
    result = fresh_run(NULL_MODEL + ["--method", method])
    assert result["status"] == 0
    assert result["scipy"] == []


@pytest.mark.parametrize(
    "argv", [["scores", "--dataset", "davis", "--metric", "all"], CORRELATE, NULL_MODEL]
)
def test_lazy_imports_resolve(argv):
    # a fresh interpreter loads each submodule on first use and prints what
    # this one, which has loaded them already, prints
    result = fresh_run(argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    assert result["status"] == 0
    assert result["out"] == out.getvalue()
