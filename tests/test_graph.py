import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import in_edges

from twophase_im.graph import (
    GraphError,
    RawEdgeList,
    apply_tv_transform,
    apply_wc_transform,
    build_graph,
    is_native_graph_file,
    load_edge_list,
    load_graph,
    residual_graph,
    save_graph,
    TV_PROBS,
)
from twophase_im.instances import random_small_graph


def write(tmp_path, text, name="g.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_edge_list_parses_probs_and_comments(tmp_path):
    p = write(tmp_path, "# header\n% more\na b 0.5\nb c 0.25\n\n")
    raw = load_edge_list(p)
    assert raw.pairs == [("a", "b", 0.5), ("b", "c", 0.25)]
    assert raw.has_probs


def test_load_edge_list_rejects_mixed_arity(tmp_path):
    p = write(tmp_path, "a b 0.5\nb c\n")
    with pytest.raises(GraphError, match="mixed"):
        load_edge_list(p)


def test_load_edge_list_rejects_bad_field_count(tmp_path):
    p = write(tmp_path, "a b c d\n")
    with pytest.raises(GraphError, match=":1:"):
        load_edge_list(p)


def test_build_graph_assigns_ids_in_first_appearance_order():
    raw = RawEdgeList(directed=True, pairs=[("x", "y", 0.1), ("z", "x", 0.2)])
    g = build_graph(raw)
    assert g.labels == ["x", "y", "z"]
    assert g.node_id("z") == 2
    assert g.out_edges[2] == [(0, 0.2)]


def test_build_graph_rejects_duplicate_directed_edge():
    raw = RawEdgeList(directed=True, pairs=[("a", "b", 0.1), ("a", "b", 0.2)])
    with pytest.raises(GraphError, match="duplicate"):
        build_graph(raw)


def test_build_graph_drops_self_loops_with_warning():
    raw = RawEdgeList(directed=True, pairs=[("a", "a", 0.5), ("a", "b", 0.5)])
    with pytest.warns(UserWarning, match="self-loop"):
        g = build_graph(raw)
    assert g.self_loops_dropped == 1
    assert g.m == 1


def test_build_graph_rejects_out_of_range_probability():
    raw = RawEdgeList(directed=True, pairs=[("a", "b", 1.5)])
    with pytest.raises(GraphError, match="probability"):
        build_graph(raw)


def test_undirected_build_adds_both_arcs():
    g = build_graph(RawEdgeList(directed=False, pairs=[("a", "b", 0.3)]))
    assert g.edges() == [(0, 1, 0.3), (1, 0, 0.3)]


def test_wc_transform_uses_reciprocal_degree():
    # path a - b - c: deg(a)=1, deg(b)=2, deg(c)=1
    raw = RawEdgeList(directed=False, pairs=[("a", "b", None), ("b", "c", None)])
    g = apply_wc_transform(raw)
    probs = {(u, v): p for u, v, p in g.edges()}
    assert probs[(0, 1)] == 0.5      # into b
    assert probs[(1, 0)] == 1.0      # into a
    assert probs[(1, 2)] == 1.0
    assert probs[(2, 1)] == 0.5


def test_wc_transform_rejects_weighted_input():
    raw = RawEdgeList(directed=False, pairs=[("a", "b", 0.5)])
    with pytest.raises(GraphError, match="unweighted"):
        apply_wc_transform(raw)


def test_wc_transform_collapses_duplicate_undirected_edges():
    raw = RawEdgeList(directed=False,
                      pairs=[("a", "b", None), ("b", "a", None), ("b", "c", None)])
    with pytest.warns(UserWarning, match="duplicate"):
        g = apply_wc_transform(raw)
    assert g.m == 4


def test_tv_transform_is_seed_deterministic():
    raw = RawEdgeList(directed=False, pairs=[("a", "b", None), ("b", "c", None),
                                             ("c", "a", None)])
    g1 = apply_tv_transform(raw, seed=7)
    g2 = apply_tv_transform(raw, seed=7)
    g3 = apply_tv_transform(raw, seed=8)
    assert g1.edges() == g2.edges()
    assert g1.edges() != g3.edges()
    assert all(p in TV_PROBS for _, _, p in g1.edges())


def test_residual_graph_removes_nodes_and_reindexes():
    raw = RawEdgeList(directed=True, pairs=[("a", "b", 0.1), ("b", "c", 0.2),
                                            ("c", "a", 0.3)])
    g = build_graph(raw)
    sub, kept = residual_graph(g, [1])
    assert list(kept) == [0, 2]
    assert sub.labels == ["a", "c"]
    assert sub.edges() == [(1, 0, 0.3)]


def test_residual_graph_empty_removal_is_identity():
    g = build_graph(RawEdgeList(directed=True, pairs=[("a", "b", 0.5)]))
    sub, kept = residual_graph(g, [])
    assert sub.edges() == g.edges()
    assert list(kept) == [0, 1]


def test_native_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = random_small_graph(rng)
        path = tmp_path / "g.tpim"
        save_graph(g, path)
        assert is_native_graph_file(path)
        back = load_graph(path)
        assert back.labels == g.labels
        assert back.edges() == g.edges()


def test_load_graph_rejects_repeated_arc(tmp_path, capsys):
    # build_graph refuses a duplicate edge; the native loader must as well,
    # or the arc would get two independent coins
    from twophase_im.cli import main
    p = write(tmp_path, "TPIM-GRAPH v1\n3 3\na\nb\nc\n0 1 0.5\n1 2 0.5\n0 1 0.3\n",
              name="g.tpim")
    with pytest.raises(GraphError, match=r"repeated arc \(0, 1\)"):
        load_graph(p)
    code = main(["select", "--graph", str(p), "--algorithm", "gdd", "--k", "1",
                 "--seed", "0", "--sims", "10", "--output-dir", str(tmp_path / "runs")])
    assert code == 2
    assert "repeated arc (0, 1)" in capsys.readouterr().err


def test_load_graph_rejects_foreign_file(tmp_path):
    p = write(tmp_path, "a b 0.5\n")
    assert not is_native_graph_file(p)
    with pytest.raises(GraphError, match="native"):
        load_graph(p)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.floats(0, 1, allow_nan=False)),
                min_size=1, max_size=10))
def test_build_graph_property_edges_preserved(records):
    seen = set()
    pairs = []
    for u, v, p in records:
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        pairs.append((str(u), str(v), p))
    if not pairs:
        return
    g = build_graph(RawEdgeList(directed=True, pairs=pairs))
    assert g.m == len(pairs)
    got = {(g.labels[u], g.labels[v]): p for u, v, p in g.edges()}
    assert got == {(a, b): p for a, b, p in pairs}


def test_residual_graph_matches_python_walk():
    rng = np.random.default_rng(3)
    for _ in range(30):
        g = random_small_graph(rng)
        removed = set(rng.choice(g.n, size=int(rng.integers(0, g.n)), replace=False).tolist())
        sub, kept = residual_graph(g, removed)
        want_kept = [v for v in range(g.n) if v not in removed]
        local = {old: new for new, old in enumerate(want_kept)}
        want_out = [[(local[v], p) for v, p in g.out_edges[u] if v not in removed]
                    for u in want_kept]
        assert list(kept) == want_kept
        assert sub.labels == [g.labels[v] for v in want_kept]
        assert sub.out_edges == want_out
        assert sorted((u, v, p) for v, adj in enumerate(in_edges(sub)) for u, p in adj) \
            == sub.edges()


def test_bundled_lesmis_matches_networkx():
    nx = pytest.importorskip("networkx")
    from importlib import resources
    g = nx.les_miserables_graph()
    want = [f"{a} {b} {g.edges[a, b]['weight']}"
            for a, b in sorted((min(u, v), max(u, v)) for u, v in g.edges())]
    text = resources.files("twophase_im").joinpath("data", "lesmis.txt").read_text()
    assert text.splitlines() == want
