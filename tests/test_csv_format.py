"""The vectorized %.6f cell writer against the f-string it replaces, and
score tables read back by csv.reader."""

import csv
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hellrank import CentralityScores, Side, load_edge_list
from hellrank.cli import PER_NODE_METRICS, DistanceMode, compute_metric, run
from hellrank.graph import _FORMAT_BLOCK_CELLS, _fixed6_rows


def fstring_rows(values) -> list[str]:
    return [",".join(f"{v:.6f}" for v in row) for row in values]


SPECIAL = [
    0.0, -0.0, 1 / 128, 5e-7, -1e-9, -1.5, 0.0000005, 123.4565,
    5e-324, 2.2250738585072014e-308,
    1e9, math.nextafter(1e9, 0), math.nextafter(1e9, math.inf), 999999999.9999999, 1e12,
    math.nan, -math.nan, math.inf, -math.inf,
]

VALUES = st.one_of(
    st.floats(),  # any double: nan, +-inf, -0.0, subnormals, huge
    st.floats(min_value=0, max_value=1e3),  # 1- to 3-digit integer parts in one row
    st.floats(min_value=-1e-6, max_value=0),  # tiny negatives print as -0.000000
    st.floats(min_value=0, max_value=2.2250738585072014e-308),  # subnormals
    st.integers(0, 10**9).map(lambda i: (i + 0.5) / 1e6),  # near-ties
    st.integers(0, 2**30).map(lambda i: i / 128),  # exact binary ties at the 7th decimal
    st.integers(0, 10**12).map(lambda i: i / 1e6),  # on the 1e-6 grid
    st.floats(min_value=1e9 - 1e-3, max_value=1e9 + 1e-3),  # around the fast-path cap
    st.sampled_from(SPECIAL),
)

MATRICES = st.integers(1, 12).flatmap(
    lambda cols: st.lists(st.lists(VALUES, min_size=cols, max_size=cols), min_size=1, max_size=12)
)


@settings(max_examples=200, deadline=None)
@given(MATRICES)
@example([])
@example([SPECIAL])
@example([[v] for v in SPECIAL])
@example([[0.5, 123.25, 7.0], [999.9999995, 0.0000004, 10.0]])
@example([[4294.967295, 0.5]])  # largest cell 2**32 - 1 millionths: 32-bit digits
@example([[4294.967296, 0.5]])  # 2**32 millionths: 64-bit digits
def test_matches_fstring(rows):
    assert list(_fixed6_rows(rows)) == fstring_rows(rows)


@pytest.mark.parametrize("shape", [(500, 100), (3, _FORMAT_BLOCK_CELLS + 5), (_FORMAT_BLOCK_CELLS + 700, 1)])
def test_matches_fstring_across_blocks(rng, shape):
    values = rng.random(shape) * 10.0 ** rng.integers(0, 4, shape)
    flat = values.reshape(-1)
    # fallback cells scattered over the blocks, and a near-tie in the last cell
    flat[rng.choice(flat.size, len(SPECIAL), replace=False)] = SPECIAL
    flat[-1] = 2.0000005
    assert list(_fixed6_rows(values)) == fstring_rows(values)


def read_back(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text, newline="")))


def near(cell: str, value: float) -> bool:
    """%.6f is within half a unit of the sixth decimal; reading it back adds
    at most one ulp."""
    return abs(float(cell) - value) <= 5e-7 + math.ulp(value)


EDGE_CHARS = ["a", "B", "é", ",", '"', "'", "1"]
LABEL_CHARS = st.sampled_from(EDGE_CHARS + [" "])


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.lists(st.one_of(LABEL_CHARS, st.sampled_from(["\n", "\r", "\r\n"])),
                                max_size=4).map("".join),
                       st.one_of(st.floats(allow_nan=False, allow_infinity=False), VALUES)
                       .filter(math.isfinite), max_size=12))
@example({'a,"b"\r\n': 0.5, "": -0.0, "\r": 1e9, "x\n": 2.0000005})
def test_scores_csv_reads_back(scores):
    out = io.StringIO()
    table = CentralityScores(Side.LEFT, "m", scores)
    table.to_csv(out)
    assert table.scores == scores
    json_out = io.StringIO()
    table.to_json(json_out)
    assert json_out.getvalue() == json.dumps(dict(table.ranked()), indent=2) + "\n"
    rows = read_back(out.getvalue())
    assert rows[0] == ["label", "score"] and len(rows) == 1 + len(scores)
    back = dict(rows[1:])
    assert back.keys() == scores.keys()
    assert all(near(back[label], value) for label, value in scores.items())


# Edge-list labels: no whitespace, and none starts a comment.
EDGE_LABELS = st.text(st.sampled_from(EDGE_CHARS), min_size=1, max_size=3)


# small random graphs are often disconnected, or give every node one vector
@pytest.mark.filterwarnings("ignore::hellrank.baselines.DisconnectedGraphWarning")
@pytest.mark.filterwarnings("ignore::hellrank.hellinger.DegenerateDistancesWarning")
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(EDGE_LABELS, EDGE_LABELS), min_size=1, max_size=12),
       st.sampled_from(["left", "right"]))
@example([('a,"', '"'), ("a", "é,1"), ("'B", '"')], "left")
def test_wide_table_reads_back(edges, side):
    with tempfile.TemporaryDirectory() as tmp:
        path, dest = os.path.join(tmp, "edges.tsv"), os.path.join(tmp, "all.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{u}\t{v}\n" for u, v in edges)
        graph = load_edge_list(f"{u}\t{v}" for u, v in edges)
        status = run(["scores", "--input", path, "--side", side, "--metric", "all",
                      "--output", dest])
        if len(graph.nodes(Side(side))) < 2:  # refused: the kernel needs two nodes
            assert status == 1 and not os.path.exists(dest)
            return
        assert status == 0
        with open(dest, encoding="utf-8", newline="") as fh:
            rows = read_back(fh.read())
    want = {name: compute_metric(graph, name, Side(side), DistanceMode.NORMALIZED, 0.85, None, False)
            for name in PER_NODE_METRICS}
    assert rows[0] == ["label"] + PER_NODE_METRICS
    assert [row[0] for row in rows[1:]] == sorted(graph.nodes(Side(side)))
    for label, *cells in rows[1:]:
        assert all(near(cell, want[name][label]) for name, cell in zip(PER_NODE_METRICS, cells))
