"""The array-backed graph ingest against the per-pair loops it replaced.

``_loop_*`` below are the builders as they were before the arc arrays: one
Python pass per record with ``seen`` sets, and a CSR built from (u, v, p)
tuples. On every input they accept, the array path must give the same
labels, CSR arrays, probability bytes, self-loop count and warnings, and on
every input they reject, the same ``GraphError`` text. The one intended
difference is that the transforms now honour a directed edge list, so the
transforms are compared on undirected input only.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twophase_im
from twophase_im.cli import main
from twophase_im.graph import (
    FORMAT_MAGIC,
    FORMAT_VERSION,
    TV_PROBS,
    GraphError,
    InfluenceGraph,
    RawEdgeList,
    apply_tv_transform,
    apply_wc_transform,
    build_graph,
    load_edge_list,
    load_graph,
    save_graph,
)
from twophase_im.instances import example1_graph, les_miserables_wc
from twophase_im.records import graph_fingerprint, load_record

# -- the loop builders, kept as the reference -------------------------------


def _loop_assign_ids(pairs):
    labels = []
    ids = {}
    for rec in pairs:
        for lab in rec[:2]:
            if lab not in ids:
                ids[lab] = len(labels)
                labels.append(lab)
    return labels, ids


def _loop_finish(n, labels, directed_edges, self_loops):
    if self_loops:
        warnings.warn(f"dropped {self_loops} self-loop(s)", stacklevel=3)
    src, dst, p = zip(*directed_edges) if directed_edges else ((), (), ())
    src = np.array(src, dtype=np.int64)
    order = src.argsort(kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.bincount(src, minlength=n).cumsum(out=indptr[1:])
    return InfluenceGraph(n=n, labels=labels, indptr=indptr,
                          dst=np.array(dst, dtype=np.int64)[order],
                          p=np.array(p, dtype=np.float64)[order], self_loops_dropped=self_loops)


def _loop_build_graph(raw):
    if raw.pairs and not raw.has_probs:
        raise GraphError("edge list has no probabilities; use the wc or tv transform")
    labels, ids = _loop_assign_ids(raw.pairs)
    seen = set()
    edges = []
    self_loops = 0
    for a, b, p in raw.pairs:
        if p is None or not (0.0 <= p <= 1.0):
            raise GraphError(f"probability {p!r} outside [0, 1] on edge ({a!r}, {b!r})")
        u, v = ids[a], ids[b]
        arcs = [(u, v)] if raw.directed else [(u, v), (v, u)]
        for s, t in arcs:
            if s == t:
                self_loops += 1
                continue
            if (s, t) in seen:
                raise GraphError(f"duplicate directed edge ({labels[s]!r}, {labels[t]!r})")
            seen.add((s, t))
            edges.append((s, t, p))
    return _loop_finish(len(labels), labels, edges, self_loops)


def _loop_undirected_simple_edges(raw):
    labels, ids = _loop_assign_ids(raw.pairs)
    seen = set()
    und = []
    self_loops = 0
    dups = 0
    for a, b, _ in raw.pairs:
        u, v = ids[a], ids[b]
        if u == v:
            self_loops += 1
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            dups += 1
            continue
        seen.add(key)
        und.append((u, v))
    if dups:
        warnings.warn(f"collapsed {dups} duplicate undirected edge(s)", stacklevel=3)
    return labels, und, self_loops


def _loop_wc(raw):
    if raw.has_probs:
        raise GraphError("wc transform requires an unweighted edge list")
    labels, und, self_loops = _loop_undirected_simple_edges(raw)
    deg = [0] * len(labels)
    for u, v in und:
        deg[u] += 1
        deg[v] += 1
    edges = []
    for u, v in und:
        edges.append((u, v, 1.0 / deg[v]))
        edges.append((v, u, 1.0 / deg[u]))
    return _loop_finish(len(labels), labels, edges, self_loops)


def _loop_tv(raw, seed):
    if raw.has_probs:
        raise GraphError("tv transform requires an unweighted edge list")
    labels, und, self_loops = _loop_undirected_simple_edges(raw)
    rng = np.random.default_rng(seed)
    edges = []
    for u, v in und:
        edges.append((u, v, TV_PROBS[rng.integers(3)]))
        edges.append((v, u, TV_PROBS[rng.integers(3)]))
    return _loop_finish(len(labels), labels, edges, self_loops)


def _loop_load_graph(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if not header or header[0] != FORMAT_MAGIC:
            raise GraphError(f"{path}: not a native graph file")
        if header[1:] != [f"v{FORMAT_VERSION}"]:
            raise GraphError(f"{path}: unsupported format version {' '.join(header[1:])!r}")
        try:
            n, m = map(int, fh.readline().split())
            if n < 0 or m < 0:
                raise ValueError("negative size")
            labels = []
            for _ in range(n):
                line = fh.readline()
                if not line:
                    raise ValueError("fewer labels than nodes")
                labels.append(line.rstrip("\n"))
            edges = []
            seen = set()
            for _ in range(m):
                u, v, p = fh.readline().split()
                arc = int(u), int(v)
                if not (0 <= min(arc) and max(arc) < n and 0.0 <= float(p) <= 1.0):
                    raise ValueError(f"bad arc ({u}, {v}, {p})")
                if arc in seen:
                    raise ValueError(f"repeated arc ({u}, {v})")
                seen.add(arc)
                edges.append((*arc, float(p)))
        except ValueError as exc:
            raise GraphError(f"{path}: malformed native graph file: {exc}") from None
    return _loop_finish(n, labels, edges, 0)


def _loop_save_graph(graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{FORMAT_MAGIC} v{FORMAT_VERSION}\n")
        fh.write(f"{graph.n} {graph.m}\n")
        for lab in graph.labels:
            fh.write(f"{lab}\n")
        for u, v, p in graph.edges():
            fh.write(f"{u} {v} {p!r}\n")


# -- comparison helpers -----------------------------------------------------


def _outcome(build, *args):
    """Everything a builder shows: its graph's arrays and counts with the
    warnings it raised (text, category, reported file), or its error text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = build(*args)
        except GraphError as exc:
            return ("error", str(exc))
    shown = [(str(w.message), w.category, w.filename) for w in caught]
    return (g.n, g.labels, g.indptr.tolist(), g.indptr.dtype, g.dst.tolist(), g.dst.dtype,
            g.p.tobytes(), g.p.dtype, g.self_loops_dropped, shown)


LABELS = st.sampled_from(["a", "b", "c", "d", "é", "0", "10"])
PROBS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0, 1.5, -0.25, math.nan, None]))


def _records(probs):
    return st.lists(st.tuples(LABELS, LABELS, probs), max_size=14)


@settings(max_examples=300, deadline=None)
@given(_records(PROBS), st.booleans())
def test_build_graph_matches_loop(pairs, directed):
    raw = RawEdgeList(directed=directed, pairs=pairs)
    assert _outcome(build_graph, raw) == _outcome(_loop_build_graph, raw)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_records(st.none()), _records(PROBS)), st.integers(0, 2**32 - 1))
def test_undirected_transforms_match_loop(pairs, seed):
    raw = RawEdgeList(directed=False, pairs=pairs)
    assert _outcome(apply_wc_transform, raw) == _outcome(_loop_wc, raw)
    assert _outcome(apply_tv_transform, raw, seed) == _outcome(_loop_tv, raw, seed)


# mostly valid tokens, so that a repeated arc and a later bad line meet
_ID_TOKENS = st.one_of(st.sampled_from(["0", "1", "2", "3"]),
                       st.sampled_from(["-1", "7", "+1", "01", "x", "1_0"]))
_P_TOKENS = st.one_of(st.sampled_from(["0.5", "0.25", "1", "0"]),
                      st.sampled_from(["-0.0", "1e-3", "1.5", "nan", "-1", "p"]))
_ARC_LINES = st.one_of(
    st.tuples(_ID_TOKENS, _ID_TOKENS, _P_TOKENS).map(" ".join),
    st.sampled_from(["", "0 1", "0 1 0.5 9"]))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 4), m=st.integers(0, 9), lines=st.lists(_ARC_LINES, max_size=8),
       complete=st.booleans())
def test_load_graph_matches_loop(tmp_path_factory, n, m, lines, complete):
    labels = ["a", "b", "é", "d"][:n] if complete else ["a"][:n]
    text = "".join(f"{line}\n" for line in [f"{FORMAT_MAGIC} v{FORMAT_VERSION}", f"{n} {m}",
                                             *labels, *lines])
    path = tmp_path_factory.mktemp("native") / "g.tpim"
    path.write_text(text, encoding="utf-8")
    assert _outcome(load_graph, path) == _outcome(_loop_load_graph, path)


# -- pinned graphs ----------------------------------------------------------


def _unweighted_records(seed, n=60, records=240):
    """Random two-field records: repeated labels, self-loops and duplicate
    edges in both orientations."""
    rng = np.random.default_rng(seed)
    return [(f"v{a}", f"v{b}", None) for a, b in rng.integers(0, n, (records, 2)).tolist()]


def _weighted_records(seed, directed, n=60, records=240):
    """Random three-field records, each edge once (per orientation if directed);
    self-loops kept."""
    rng = np.random.default_rng(seed)
    seen, pairs = set(), []
    for (a, b), p in zip(rng.integers(0, n, (records, 2)).tolist(), rng.random(records).tolist()):
        key = (a, b) if directed else (min(a, b), max(a, b))
        if key not in seen:
            seen.add(key)
            pairs.append((f"v{a}", f"v{b}", p))
    return pairs


def _ba_like_records(seed, n=300, links=2):
    """A preferential-attachment edge list: each new node links to up to
    ``links`` earlier nodes drawn in proportion to their degree."""
    rng = np.random.default_rng(seed)
    ends, pairs = [0, 1], [("1", "0", None)]
    for v in range(2, n):
        for u in sorted({ends[i] for i in rng.integers(0, len(ends), links).tolist()}):
            pairs.append((str(v), str(u), None))
            ends += [v, u]
    return pairs


def _pinned_graphs():
    for seed in (1, 2):
        und = RawEdgeList(directed=False, pairs=_unweighted_records(seed))
        yield f"wc-{seed}", apply_wc_transform(und)
        yield f"tv-{seed}", apply_tv_transform(und, seed)
        yield f"none-undirected-{seed}", build_graph(
            RawEdgeList(directed=False, pairs=_weighted_records(seed, directed=False)))
        yield f"none-directed-{seed}", build_graph(
            RawEdgeList(directed=True, pairs=_weighted_records(seed, directed=True)))
    ba = RawEdgeList(directed=False, pairs=_ba_like_records(3))
    yield "ba-wc", apply_wc_transform(ba)
    yield "ba-tv", apply_tv_transform(ba, 3)


# (n, m, self_loops_dropped, fingerprint), computed by the loop builders
PINNED = {
    "wc-1": (60, 460, 3, "c35e794ca6bb01bf4b24e50bc78623ef1b5fc34d3f9511487c35fb079ed4a9ea"),
    "tv-1": (60, 460, 3, "1414da06dd596c08d7525080fadc2ac65833ba5cda9b63eb5cda7e7a53e3811e"),
    "none-undirected-1":
        (60, 460, 6, "c49944a7047dbfb4b88d7f4726e4e58b55411f7bc9df3341a7da84993890b858"),
    "none-directed-1":
        (60, 233, 3, "1e64feb1f4b533e7765fe143ce1abc26bd6a482d55a96dc31d4a4e0536869dd4"),
    "wc-2": (60, 450, 3, "e6cb2e0c2fa55e7852f0dcfe2a259b87f679f65b5b6ad656d8051b3d6740362e"),
    "tv-2": (60, 450, 3, "2a937277dcd54217584a35f8e492593a0181b55c56963377f794f243bd445c71"),
    "none-undirected-2":
        (60, 450, 6, "8f94525d3a7bcff6edab43f93173907faa5fc30d888086c2fe362a1c677f5661"),
    "none-directed-2":
        (60, 229, 3, "d6861fa3c4f9c22776d1f9b3d8057d146e4cbb2638c012806180d7b31fdd5410"),
    "ba-wc": (300, 1188, 0, "b027ef2fa605222774587118f9e18aca04fce016d842d53abc47cd6cbc02dadc"),
    "ba-tv": (300, 1188, 0, "d87d70555214530d41999db9a147a79bf9f7e859550a48939790652a381ba359"),
}


def test_pinned_fingerprints():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = {name: (g.n, g.m, g.self_loops_dropped, graph_fingerprint(g))
               for name, g in _pinned_graphs()}
    assert got == PINNED


def test_tv_vector_draws_equal_scalar_draws():
    # the tv transform draws all its arcs at once where it once drew one
    # value per arc; both must read the same values and leave the same state
    for seed in range(20):
        for size in (0, 1, 2, 7, 5001):
            vector, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            draws = vector.integers(3, size=size)
            assert draws.tolist() == [int(scalar.integers(3)) for _ in range(size)]
            assert vector.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("name", ["example1", "lesmis", "ba-wc", "ba-tv"])
def test_save_graph_writes_the_loop_writers_bytes(tmp_path, name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        graphs = {"example1": example1_graph(), "lesmis": les_miserables_wc(),
                  **dict(_pinned_graphs())}
    graph = graphs[name]
    save_graph(graph, tmp_path / "new.tpim")
    _loop_save_graph(graph, tmp_path / "old.tpim")
    assert (tmp_path / "new.tpim").read_bytes() == (tmp_path / "old.tpim").read_bytes()
    back = load_graph(tmp_path / "new.tpim")
    assert graph_fingerprint(back) == graph_fingerprint(graph)


# -- directed transforms ------------------------------------------------------

DIRECTED = RawEdgeList(directed=True, pairs=[
    ("a", "b", None), ("a", "c", None), ("b", "c", None), ("c", "a", None),
    ("a", "b", None), ("c", "c", None)])


def test_directed_wc_is_reciprocal_in_degree():
    with pytest.warns(UserWarning) as caught:
        g = apply_wc_transform(DIRECTED)
    assert [str(w.message) for w in caught] == [
        "collapsed 1 duplicate directed edge(s)", "dropped 1 self-loop(s)"]
    # distinct arcs a>b, a>c, b>c, c>a: in-degrees b 1, c 2, a 1; no reverse arcs
    assert g.labels == ["a", "b", "c"]
    assert g.edges() == [(0, 1, 1.0), (0, 2, 0.5), (1, 2, 0.5), (2, 0, 1.0)]
    assert g.self_loops_dropped == 1


def test_directed_tv_draws_once_per_arc():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = apply_tv_transform(DIRECTED, seed=9)
    draws = np.random.default_rng(9).integers(3, size=4)
    assert [(u, v) for u, v, _ in g.edges()] == [(0, 1), (0, 2), (1, 2), (2, 0)]
    assert g.p.tolist() == [TV_PROBS[i] for i in draws.tolist()]


def test_cli_transforms_follow_the_direction_flag(tmp_path, capsys):
    src = tmp_path / "a_b_c.txt"
    src.write_text("a b\nb c\n")
    for flags, m in (([], 2), (["--undirected"], 4)):
        out = tmp_path / f"wc{m}.tpim"
        assert main(["transform", str(src), str(out), "--model", "wc", "--seed", "0",
                     *flags, "--output-dir", str(tmp_path / "t")]) == 0
        assert load_graph(out).m == m
        runs = tmp_path / f"select{m}"
        assert main(["select", "--graph", str(src), "--transform", "wc", *flags,
                     "--algorithm", "gdd", "--k", "1", "--sims", "10", "--seed", "0",
                     "--output-dir", str(runs)]) == 0
        spec = load_record(next(runs.glob("select-*.json")))["params"]["graph"]
        assert spec["directed"] == (flags == [])
        assert spec["hash"] == graph_fingerprint(load_graph(out))
    capsys.readouterr()


def test_record_of_a_symmetrised_directed_wc_graph_no_longer_replays(tmp_path, capsys):
    # a record written before the transforms honoured the direction stores
    # the symmetrised graph's hash under "directed": true
    src = tmp_path / "a_b_c.txt"
    src.write_text("a b\nb c\n")
    runs = tmp_path / "runs"
    assert main(["select", "--graph", str(src), "--transform", "wc", "--algorithm", "gdd",
                 "--k", "1", "--sims", "10", "--seed", "0", "--output-dir", str(runs)]) == 0
    record = next(runs.glob("select-*.json"))
    symmetrised = apply_wc_transform(RawEdgeList(directed=False, pairs=load_edge_list(src).pairs))
    record.write_text(record.read_text().replace(
        load_record(record)["params"]["graph"]["hash"], graph_fingerprint(symmetrised)))
    capsys.readouterr()
    assert main(["rerun", str(record), "--output-dir", str(tmp_path / "again")]) == 2
    assert "input graph has changed" in capsys.readouterr().err


# -- file encoding ------------------------------------------------------------


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # every file the package opens names its encoding: with the locale's
    # default refused, transform, select (its record) and twophase (its CSV)
    # still run on non-ASCII labels, and rerun replays the select
    src = tmp_path / "edges.txt"
    src.write_text("é ü\nü ñ\nñ é\nñ x\n", encoding="utf-8")
    package_root = Path(twophase_im.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(package_root), *filter(None, [os.environ.get("PYTHONPATH")])])}

    def tpim(*args):
        return subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "twophase_im.cli", *args, "--output-dir", str(tmp_path / "runs")],
            env=env, cwd=tmp_path, capture_output=True, text=True, encoding="utf-8")

    graph = ["--graph", str(src), "--transform", "wc", "--undirected", "--seed", "0"]
    steps = [
        tpim("transform", str(src), str(tmp_path / "g.tpim"), "--model", "wc", "--undirected",
             "--seed", "0"),
        tpim("select", *graph, "--algorithm", "gdd", "--k", "1", "--sims", "10"),
        tpim("twophase", *graph, "--algorithm", "gdd", "--k", "2", "--k1", "1", "--k2", "1",
             "--d", "1", "--sims", "10", "--phase1-sims", "10", "--phase2-sims", "10"),
    ]
    for done in steps:
        assert done.returncode == 0, done.stderr
    assert list((tmp_path / "runs").glob("twophase-*-progression.csv"))
    record = next((tmp_path / "runs").glob("select-*.json"))
    done = tpim("rerun", str(record))
    assert done.returncode == 0, done.stderr
    assert load_graph(tmp_path / "g.tpim").labels == ["é", "ü", "ñ", "x"]
