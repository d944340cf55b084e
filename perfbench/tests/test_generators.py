import numpy as np

from generators import powerlaw_author_paper, uniform_bipartite, write_edge_list


def _bytes(edges, path):
    write_edge_list(edges, str(path))
    return path.read_bytes()


def test_powerlaw_same_seed_same_bytes(tmp_path):
    a = _bytes(powerlaw_author_paper(7, 0.05), tmp_path / "a.tsv")
    b = _bytes(powerlaw_author_paper(7, 0.05), tmp_path / "b.tsv")
    c = _bytes(powerlaw_author_paper(8, 0.05), tmp_path / "c.tsv")
    assert a == b
    assert a != c


def test_uniform_same_seed_same_bytes(tmp_path):
    a = _bytes(uniform_bipartite(7, 60, 40, 0.1), tmp_path / "a.tsv")
    b = _bytes(uniform_bipartite(7, 60, 40, 0.1), tmp_path / "b.tsv")
    c = _bytes(uniform_bipartite(8, 60, 40, 0.1), tmp_path / "c.tsv")
    assert a == b
    assert a != c


def test_uniform_draws_the_test_suite_matrix():
    # tests/oracles.random_bipartite draws rng.random((n1, n2)) < p
    adj = np.random.default_rng(3).random((30, 20)) < 0.2
    want = [(f"L{i}", f"R{j}") for i, j in zip(*np.nonzero(adj))]
    assert uniform_bipartite(3, 30, 20, 0.2) == want


def test_powerlaw_shape():
    edges = powerlaw_author_paper(1, 0.1)
    assert len(set(edges)) == len(edges)
    authors = {u for u, _ in edges}
    papers = {v for _, v in edges}
    # about 1.6k author slots and 2.2k papers, ~3.5 links per author slot
    assert 1200 < len(authors) <= 1673
    assert 2000 < len(papers) <= 2202
    assert 5000 < len(edges) < 6200
    productivity = np.bincount(np.unique([u for u, _ in edges], return_inverse=True)[1])
    # heavy tail: most authors have one or two papers, a few have dozens
    assert np.median(productivity) <= 2
    assert productivity.max() >= 30
