"""Graph data model, edge-list ingestion, and WC/TV probability transforms."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

FORMAT_MAGIC = "TPIM-GRAPH"
FORMAT_VERSION = 1


class GraphError(ValueError):
    """Raised for malformed edge lists or invalid graph construction."""


@dataclass
class RawEdgeList:
    """Parsed edge-list records before graph construction.

    Labels are kept verbatim; probabilities are either present on every
    record or on none of them.
    """

    directed: bool
    pairs: list  # list of (source_label, target_label, prob_or_None)

    @property
    def has_probs(self) -> bool:
        return bool(self.pairs) and self.pairs[0][2] is not None


class InfluenceGraph:
    """Directed weighted graph with per-edge influence probabilities.

    Node ids are dense 0..n-1; ``labels[i]`` maps back to the original
    label. Edges live in flat CSR arrays: the out-edges of ``u`` sit at
    positions ``indptr[u]:indptr[u + 1]`` of ``dst`` (target ids) and ``p``
    (probabilities), in insertion order. The reverse index ``in_index`` and
    the Python adjacency list ``out_edges`` are derived on first use.
    Immutable after construction.
    """

    def __init__(self, n, labels, indptr, dst, p, self_loops_dropped=0):
        self.n = n
        self.labels = labels
        self.indptr = indptr
        self.dst = dst
        self.p = p
        self.self_loops_dropped = self_loops_dropped
        self._oracle = None

    @property
    def m(self) -> int:
        return len(self.dst)

    @cached_property
    def label_to_id(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def out_degrees(self) -> np.ndarray:
        return self.indptr[1:] - self.indptr[:-1]

    @cached_property
    def src(self) -> np.ndarray:
        """Source id of every edge, aligned with ``dst`` and ``p``."""
        return np.arange(self.n, dtype=np.int64).repeat(self.out_degrees)

    @cached_property
    def in_index(self):
        """(in_indptr, in_src, in_p): the in-edges of ``v`` sit at positions
        ``in_indptr[v]:in_indptr[v + 1]``, grouped by target, ordered by source."""
        order = self.dst.argsort(kind="stable")
        in_indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.bincount(self.dst, minlength=self.n).cumsum(out=in_indptr[1:])
        return in_indptr, self.src[order], self.p[order]

    @cached_property
    def out_edges(self) -> list:
        """out_edges[u] = [(v, p), ...] in insertion order."""
        ends, probs = self.dst.tolist(), self.p.tolist()
        bounds = self.indptr.tolist()
        return [list(zip(ends[a:b], probs[a:b])) for a, b in zip(bounds[:-1], bounds[1:])]

    def edges(self):
        """All (u, v, p) triples sorted by (u, v)."""
        return sorted(zip(self.src.tolist(), self.dst.tolist(), self.p.tolist()))

    def max_degree(self) -> int:
        if self.n == 0:
            return 0
        return int((self.out_degrees + np.diff(self.in_index[0])).max())

    def node_id(self, label) -> int:
        try:
            return self.label_to_id[label]
        except KeyError:
            raise GraphError(f"unknown node label: {label!r}") from None


def load_edge_list(path, directed: bool = True) -> RawEdgeList:
    """Parse a whitespace-separated edge list with '#'/'%' comment lines.

    Each record has 2 fields (source target) or 3 (source target prob);
    mixing arities is an error.
    """
    pairs = []
    arity = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("%"):
                continue
            fields = line.split()
            if len(fields) not in (2, 3):
                raise GraphError(f"{path}:{lineno}: expected 2 or 3 fields, got {len(fields)}")
            if arity is None:
                arity = len(fields)
            elif len(fields) != arity:
                raise GraphError(f"{path}:{lineno}: mixed 2/3-field records")
            if len(fields) == 3:
                try:
                    prob = float(fields[2])
                except ValueError:
                    raise GraphError(f"{path}:{lineno}: bad probability {fields[2]!r}") from None
                pairs.append((fields[0], fields[1], prob))
            else:
                pairs.append((fields[0], fields[1], None))
    return RawEdgeList(directed=directed, pairs=pairs)


def _assign_ids(pairs):
    """Dense node ids in first-appearance order."""
    labels = []
    ids = {}
    for rec in pairs:
        for lab in rec[:2]:
            if lab not in ids:
                ids[lab] = len(labels)
                labels.append(lab)
    return labels, ids


def _finish(n, labels, directed_edges, self_loops):
    """CSR graph from (u, v, p) triples; a node's out-edges keep their order."""
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


def build_graph(raw: RawEdgeList) -> InfluenceGraph:
    """Build an InfluenceGraph from records that carry probabilities.

    Self-loops are dropped (with a count); duplicate directed edges are a
    hard error since the cascade model has exactly one probability per edge.
    """
    if raw.pairs and not raw.has_probs:
        raise GraphError("edge list has no probabilities; use the wc or tv transform")
    labels, ids = _assign_ids(raw.pairs)
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
    return _finish(len(labels), labels, edges, self_loops)


def _undirected_simple_edges(raw: RawEdgeList):
    """Distinct undirected node-id pairs; duplicates collapsed, loops dropped."""
    labels, ids = _assign_ids(raw.pairs)
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


def apply_wc_transform(raw: RawEdgeList) -> InfluenceGraph:
    """Weighted-cascade transform: p_uv = 1 / undirected degree of v."""
    if raw.has_probs:
        raise GraphError("wc transform requires an unweighted edge list")
    labels, und, self_loops = _undirected_simple_edges(raw)
    deg = [0] * len(labels)
    for u, v in und:
        deg[u] += 1
        deg[v] += 1
    edges = []
    for u, v in und:
        edges.append((u, v, 1.0 / deg[v]))
        edges.append((v, u, 1.0 / deg[u]))
    return _finish(len(labels), labels, edges, self_loops)


TV_PROBS = (0.001, 0.01, 0.1)


def apply_tv_transform(raw: RawEdgeList, seed: int) -> InfluenceGraph:
    """Trivalency transform: each directed edge gets a probability drawn
    uniformly from {0.001, 0.01, 0.1}; deterministic for a fixed seed."""
    if raw.has_probs:
        raise GraphError("tv transform requires an unweighted edge list")
    labels, und, self_loops = _undirected_simple_edges(raw)
    rng = np.random.default_rng(seed)
    edges = []
    for u, v in und:
        edges.append((u, v, TV_PROBS[rng.integers(3)]))
        edges.append((v, u, TV_PROBS[rng.integers(3)]))
    return _finish(len(labels), labels, edges, self_loops)


def residual_graph(graph: InfluenceGraph, already):
    """Remove the given nodes and their incident edges; re-index densely.

    Returns (subgraph, kept) where kept[i] is the original id of new node i.
    The subgraph's arrays are sliced from the parent's with a keep-mask; with
    nothing to remove, the parent itself is returned.
    """
    keep = np.ones(graph.n, dtype=bool)
    keep[np.fromiter(already, dtype=np.int64)] = False
    kept = np.flatnonzero(keep)
    if len(kept) == graph.n:
        return graph, kept
    remap = keep.cumsum() - 1
    edge_keep = keep[graph.src] & keep[graph.dst]
    before = np.zeros(graph.m + 1, dtype=np.int64)
    edge_keep.cumsum(out=before[1:])
    indptr = before[graph.indptr[np.append(kept, graph.n)]]
    labels = graph.labels
    sub = InfluenceGraph(n=len(kept), labels=[labels[v] for v in kept.tolist()],
                         indptr=indptr, dst=remap[graph.dst[edge_keep]],
                         p=graph.p[edge_keep])
    return sub, kept


def save_graph(graph: InfluenceGraph, path) -> None:
    """Write the native serialized format (versioned header, exact floats)."""
    with open(path, "w") as fh:
        fh.write(f"{FORMAT_MAGIC} v{FORMAT_VERSION}\n")
        fh.write(f"{graph.n} {graph.m}\n")
        for lab in graph.labels:
            fh.write(f"{lab}\n")
        for u, v, p in graph.edges():
            fh.write(f"{u} {v} {p!r}\n")


def load_graph(path) -> InfluenceGraph:
    """Read the native serialized format back; exact round-trip. An arc may
    appear once, as in ``build_graph``; a malformed or truncated file is a
    ``GraphError``."""
    with open(path) as fh:
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
    return _finish(n, labels, edges, 0)


def is_native_graph_file(path) -> bool:
    try:
        with open(path) as fh:
            return fh.readline().startswith(FORMAT_MAGIC)
    except OSError:
        return False
