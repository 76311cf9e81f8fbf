"""Graph data model, edge-list ingestion, and WC/TV probability transforms.

Ingest is array-backed. ``load_edge_list`` parses an edge list line by line
into a ``RawEdgeList``; every graph is then built from one arc list held in
numpy arrays. Node ids come from a single dict pass in first-appearance
order; an undirected record (a, b) becomes the arcs (a, b) and (b, a), and
directed input is taken as given. Self-loops are dropped with a mask and
repeated arcs are found with one stable sort of the arc keys, first
occurrences keeping their input order: ``build_graph`` rejects repeats (one
probability per edge), the transforms collapse them. The weighted cascade gives arc (u, v) the
probability 1 / in-degree of v; the trivalency model draws one of three
values per arc, in arc order. One constructor, ``_finish``, lays the arcs
out as CSR with a stable sort by source, so a node's out-edges keep their
input order. The native ``.tpim`` format and the graph fingerprint share
their edge text (``edge_lines``).
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
from operator import itemgetter

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
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields or fields[0][0] in "#%":   # blank or comment line
                continue
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


def _arc_list(raw: RawEdgeList):
    """The arcs of ``raw`` as id arrays in record order, self-loops removed.

    Returns (labels, src, dst, rec, loops, repeat). Node ids follow first
    appearance; an undirected record (a, b) gives the arcs (a, b) and (b, a),
    in that order; ``rec[j]`` is the record arc j came from; ``loops`` counts
    the self-loop arcs removed; ``repeat[j]`` marks an arc an earlier arc
    already gave.
    """
    ids = defaultdict(count().__next__)   # a new label gets the next id
    ends = np.fromiter(map(ids.__getitem__, chain.from_iterable(map(itemgetter(0, 1), raw.pairs))),
                       dtype=np.int64, count=2 * len(raw.pairs)).reshape(-1, 2)
    rec = np.arange(len(ends))
    if not raw.directed:
        ends = np.hstack((ends, ends[:, ::-1])).reshape(-1, 2)
        rec = rec.repeat(2)
    keep = (ends[:, 0] != ends[:, 1]).nonzero()[0]
    src, dst = ends[keep].T
    return list(ids), src, dst, rec[keep], len(ends) - len(keep), _repeats(src, dst, len(ids))


def _repeats(src, dst, n):
    """Mask of the arcs that an earlier arc already gave: a stable sort puts
    each arc's first occurrence ahead of its repeats."""
    key = src * n + dst
    order = key.argsort(kind="stable")
    repeat = np.zeros(len(key), dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    return repeat


def _finish(n, labels, src, dst, p, self_loops):
    """CSR graph from aligned arc arrays; a node's out-edges keep their order."""
    if self_loops:
        warnings.warn(f"dropped {self_loops} self-loop(s)", stacklevel=3)
    order = src.argsort(kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.bincount(src, minlength=n).cumsum(out=indptr[1:])
    return InfluenceGraph(n=n, labels=labels, indptr=indptr, dst=dst[order], p=p[order],
                          self_loops_dropped=self_loops)


def build_graph(raw: RawEdgeList) -> InfluenceGraph:
    """Build an InfluenceGraph from records that carry probabilities.

    Self-loops are dropped (with a count of arcs); a repeated directed edge
    is a hard error since the cascade model has exactly one probability per
    edge. The error names the first offending record.
    """
    if raw.pairs and not raw.has_probs:
        raise GraphError("edge list has no probabilities; use the wc or tv transform")
    labels, src, dst, rec, loops, repeat = _arc_list(raw)
    p = np.array([r[2] for r in raw.pairs], dtype=np.float64)   # None reads as NaN
    bad = (~((p >= 0.0) & (p <= 1.0))).nonzero()[0]
    dup = repeat.nonzero()[0]
    if len(bad) and (not len(dup) or bad[0] <= rec[dup[0]]):
        a, b, q = raw.pairs[bad[0]]
        raise GraphError(f"probability {q!r} outside [0, 1] on edge ({a!r}, {b!r})")
    if len(dup):
        s, t = src[dup[0]], dst[dup[0]]
        raise GraphError(f"duplicate directed edge ({labels[s]!r}, {labels[t]!r})")
    return _finish(len(labels), labels, src, dst, p[rec], loops)


def _distinct_arcs(raw: RawEdgeList):
    """(labels, src, dst, self_loops) for a transform: repeated edges are
    collapsed into their first occurrence, with a warning, and self-loops
    dropped. Undirected counts are per record, not per arc."""
    labels, src, dst, _, loops, repeat = _arc_list(raw)
    per_record = 1 if raw.directed else 2
    dups = int(repeat.sum()) // per_record
    if dups:
        kind = "directed" if raw.directed else "undirected"
        warnings.warn(f"collapsed {dups} duplicate {kind} edge(s)", stacklevel=3)
    return labels, src[~repeat], dst[~repeat], loops // per_record


def apply_wc_transform(raw: RawEdgeList) -> InfluenceGraph:
    """Weighted-cascade transform: p_uv = 1 / in-degree of v over the
    distinct arcs; for undirected input, the undirected degree of v."""
    if raw.has_probs:
        raise GraphError("wc transform requires an unweighted edge list")
    labels, src, dst, self_loops = _distinct_arcs(raw)
    p = 1.0 / np.bincount(dst, minlength=len(labels))[dst]
    return _finish(len(labels), labels, src, dst, p, self_loops)


TV_PROBS = (0.001, 0.01, 0.1)


def apply_tv_transform(raw: RawEdgeList, seed: int) -> InfluenceGraph:
    """Trivalency transform: each distinct arc, in input order, gets a
    probability drawn uniformly from {0.001, 0.01, 0.1}; deterministic for a
    fixed seed."""
    if raw.has_probs:
        raise GraphError("tv transform requires an unweighted edge list")
    labels, src, dst, self_loops = _distinct_arcs(raw)
    draws = np.random.default_rng(seed).integers(3, size=len(src))
    return _finish(len(labels), labels, src, dst, np.array(TV_PROBS)[draws], self_loops)


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


def edge_lines(graph: InfluenceGraph) -> list:
    """``u v repr(p)`` for every arc in (u, v) order, the text both the native
    file and the graph fingerprint hold. ``repr`` is taken once per distinct
    probability (by bit pattern, so 0.0 and -0.0 stay apart)."""
    order = np.argsort(graph.src * graph.n + graph.dst, kind="stable")   # edges() order
    bits, which = np.unique(graph.p[order].view(np.int64), return_inverse=True)
    reprs = [repr(p) for p in bits.view(np.float64).tolist()]
    ids = list(map(str, range(graph.n)))
    return [f"{ids[u]} {ids[v]} {reprs[w]}" for u, v, w in zip(
        graph.src[order].tolist(), graph.dst[order].tolist(), which.tolist())]


def save_graph(graph: InfluenceGraph, path) -> None:
    """Write the native serialized format (versioned header, exact floats)."""
    lines = [f"{FORMAT_MAGIC} v{FORMAT_VERSION}", f"{graph.n} {graph.m}",
             *map(str, graph.labels), *edge_lines(graph), ""]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def load_graph(path) -> InfluenceGraph:
    """Read the native serialized format back; exact round-trip. A label may
    appear once, and an arc once, as in ``build_graph``; a malformed or
    truncated file is a ``GraphError`` naming its first repeated label or its
    first bad arc line."""
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
            labels, seen = [], set()
            for _ in range(n):
                line = fh.readline()
                if not line:
                    raise ValueError("fewer labels than nodes")
                label = line.rstrip("\n")
                if label in seen:
                    raise ValueError(f"repeated label {label!r}")
                seen.add(label)
                labels.append(label)
            rows, bad = [], None
            try:
                for _ in range(m):
                    u, v, p = row = fh.readline().split()
                    arc = int(u), int(v)
                    if not (0 <= min(arc) and max(arc) < n and 0.0 <= float(p) <= 1.0):
                        raise ValueError(f"bad arc ({u}, {v}, {p})")
                    rows.append(row)
            except ValueError as exc:
                bad = exc   # reported unless an earlier line repeats an arc
            src = np.fromiter((int(r[0]) for r in rows), dtype=np.int64, count=len(rows))
            dst = np.fromiter((int(r[1]) for r in rows), dtype=np.int64, count=len(rows))
            repeat = _repeats(src, dst, n)
            if repeat.any():
                u, v, _ = rows[np.argmax(repeat)]
                raise ValueError(f"repeated arc ({u}, {v})")
            if bad is not None:
                raise bad
        except ValueError as exc:
            raise GraphError(f"{path}: malformed native graph file: {exc}") from None
    probs = np.fromiter((float(r[2]) for r in rows), dtype=np.float64, count=len(rows))
    return _finish(n, labels, src, dst, probs, 0)


def is_native_graph_file(path) -> bool:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readline().startswith(FORMAT_MAGIC)
    except OSError:
        return False
