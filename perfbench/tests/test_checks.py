"""Each output check passes the real CLI's output and rejects it perturbed."""

import json

import pytest

import checks
from checks import CheckError
from generators import powerlaw_author_paper, uniform_bipartite, write_edge_list
from hellrank import cli

pytestmark = pytest.mark.filterwarnings("ignore")


def run_cli(tmp_path, edges, command, *argv) -> bytes:
    source, out = tmp_path / "in.tsv", tmp_path / "out.txt"
    if edges is not None:
        write_edge_list(edges, str(source))
        argv = ("--input", str(source), *argv)
    assert cli.run([command, *argv, "--output", str(out)]) == 0
    return out.read_bytes()


def shift_field(output: bytes, row: int, col: int, delta: float) -> bytes:
    lines = output.decode().split("\n")
    fields = lines[row].split(",")
    fields[col] = f"{float(fields[col]) + delta:.6f}"
    lines[row] = ",".join(fields)
    return "\n".join(lines).encode()


def shift_key(output: bytes, delta: float, *path: str) -> bytes:
    payload = json.loads(output)
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += delta
    return json.dumps(payload).encode()


def test_scores(tmp_path):
    edges = powerlaw_author_paper(1, 0.02)
    out = run_cli(tmp_path, edges, "scores", "--side", "left")
    checks.check_scores(out, edges)
    for row in (1, 5, len(out.split(b"\n")) - 2):
        with pytest.raises(CheckError, match="score of|ranked below"):
            checks.check_scores(shift_field(out, row, 1, 1e-3), edges)
    lines = out.split(b"\n")
    lines[1], lines[2] = lines[2], lines[1]
    with pytest.raises(CheckError):
        checks.check_scores(b"\n".join(lines), edges)
    with pytest.raises(CheckError, match="labels"):
        checks.check_scores(b"\n".join(lines[:3] + lines[4:]), edges)


def test_distances(tmp_path):
    edges = uniform_bipartite(1, 80, 60, 0.08)
    out = run_cli(tmp_path, edges, "distances")
    checks.check_distances(out, edges)
    with pytest.raises(CheckError, match="printed"):
        checks.check_distances(shift_field(out, 3, 7, 1e-3), edges)
    with pytest.raises(CheckError, match="rows"):
        checks.check_distances(out.replace(b"\nL1,", b"\nL1x,", 1), edges)
    lines = out.split(b"\n")
    lines[3] = lines[3].replace(b",", b";", 3)
    with pytest.raises(CheckError, match="fields"):
        checks.check_distances(b"\n".join(lines), edges)


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    edges = powerlaw_author_paper(2, 0.012)
    return edges, run_cli(tmp_path_factory.mktemp("wide"), edges, "scores", "--metric", "all")


def test_wide_table_passes(wide):
    edges, out = wide
    checks.check_wide_table(out, edges)


@pytest.mark.parametrize("col", range(1, len(checks.WIDE_METRICS) + 1))
def test_wide_table_rejects_each_column(wide, col):
    edges, out = wide
    with pytest.raises(CheckError, match=checks.WIDE_METRICS[col - 1]):
        checks.check_wide_table(shift_field(out, 2, col, 1e-3), edges)


def test_correlate(tmp_path):
    edges = powerlaw_author_paper(3, 0.03)
    out = run_cli(tmp_path, edges, "correlate", "--side", "right", "--metric-a", "degree2",
                  "--metric-b", "pagerank")
    checks.check_correlate(out, edges, 5)
    for key in ("kendall_tau", "spearman_top_k"):
        with pytest.raises(CheckError, match=key):
            checks.check_correlate(shift_key(out, 1e-3, key), edges, 5)
    with pytest.raises(CheckError, match="echoed"):
        checks.check_correlate(out, edges, 4)


def test_null_model(tmp_path):
    q = {"n1": 20, "n2": 200, "p": 0.05, "k": 10, "samples": 2000, "seed": 3}
    out = run_cli(tmp_path, None, "null-model", "--n1", "20", "--n2", "200", "--p", "0.05",
                  "--k", "10", "--samples", "2000", "--method", "empirical", "--seed", "3")
    checks.check_null_model(out, **q)
    for key in ("mean", "variance", "threshold"):
        with pytest.raises(CheckError, match=key):
            checks.check_null_model(shift_key(out, 1e-3, key), **q)
    # the Monte Carlo fields carry sampling error, so only a shift of many
    # standard errors is a certain failure
    with pytest.raises(CheckError, match="monte_carlo mean"):
        checks.check_null_model(shift_key(out, 0.2, "monte_carlo", "mean"), **q)
    with pytest.raises(CheckError, match="monte_carlo variance"):
        checks.check_null_model(shift_key(out, 1e-3, "monte_carlo", "variance"), **q)
    with pytest.raises(CheckError, match="echoed"):
        checks.check_null_model(out, **dict(q, seed=4))
