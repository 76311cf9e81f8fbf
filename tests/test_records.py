import hashlib

import numpy as np

from conftest import instance_family
from twophase_im import records
from twophase_im.graph import RawEdgeList, apply_tv_transform, apply_wc_transform, build_graph
from twophase_im.instances import example1_graph, les_miserables_wc
from twophase_im.records import graph_fingerprint, write_record


def test_same_second_records_get_distinct_names(tmp_path, monkeypatch):
    monkeypatch.setattr(records.time, "strftime", lambda fmt: "20260101-000000")
    paths = [write_record(tmp_path, "oracle", {}, {"i": i}, 0.0) for i in range(40)]
    assert len(set(paths)) == 40
    assert paths[0].name == "oracle-20260101-000000.json"
    assert [p.name for p in paths[1:4]] == [f"oracle-20260101-000000-{i}.json" for i in (1, 2, 3)]
    # a gap left by a deleted record is never overwritten into an existing one
    (tmp_path / "oracle-20260101-000000-7.json").unlink()
    before = {p: p.read_text() for p in tmp_path.iterdir()}
    new = write_record(tmp_path, "oracle", {}, {"i": "new"}, 0.0)
    assert new not in before
    assert all(p.read_text() == text for p, text in before.items())


def _loop_fingerprint(graph) -> str:
    """The fingerprint as it was: one hash update per line, one line per edge."""
    h = hashlib.sha256()
    h.update(f"n={graph.n}\n".encode())
    for lab in graph.labels:
        h.update(f"{lab}\n".encode())
    for u, v, p in graph.edges():
        h.update(f"{u} {v} {p!r}\n".encode())
    return h.hexdigest()


def _fingerprint_graphs():
    rng = np.random.default_rng(81)
    # a random undirected edge list, unweighted, with labels out of order
    ends = {tuple(sorted(e)) for e in rng.integers(0, 40, (120, 2)).tolist() if e[0] != e[1]}
    pairs = [(f"v{a}", f"v{b}", None) for a, b in rng.permutation(sorted(ends)).tolist()]
    raw = RawEdgeList(directed=False, pairs=pairs)
    reversed_arcs = build_graph(RawEdgeList(directed=True, pairs=[
        ("c", "a", 0.25), ("b", "a", 1 / 3), ("a", "c", 0.1), ("a", "b", 0.25)]))
    return [example1_graph(), les_miserables_wc(), *instance_family(2, seed=82),
            apply_wc_transform(raw), apply_tv_transform(raw, 5), reversed_arcs]


def test_fingerprint_equals_the_line_by_line_hash():
    for graph in _fingerprint_graphs():
        assert graph_fingerprint(graph) == _loop_fingerprint(graph)


def test_fingerprint_tells_zero_from_negative_zero():
    # np.unique alone would merge the two, whose reprs differ
    a = build_graph(RawEdgeList(directed=True, pairs=[("a", "b", 0.0), ("b", "c", 0.5)]))
    b = build_graph(RawEdgeList(directed=True, pairs=[("a", "b", 0.0), ("b", "c", 0.5)]))
    b.p[0] = -0.0
    assert graph_fingerprint(a) == _loop_fingerprint(a)
    assert graph_fingerprint(b) == _loop_fingerprint(b) != graph_fingerprint(a)
