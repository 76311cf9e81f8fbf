"""Bundled graph instances and random small-instance generators."""

from __future__ import annotations

from importlib import resources

import numpy as np

from .graph import InfluenceGraph, RawEdgeList, build_graph


def example1_graph() -> InfluenceGraph:
    """Four-node instance used throughout the exact-value tests:
    A->B 0.5, B->C 0.8, B->D 0.9."""
    raw = RawEdgeList(directed=True, pairs=[
        ("A", "B", 0.5),
        ("B", "C", 0.8),
        ("B", "D", 0.9),
    ])
    return build_graph(raw)


def les_miserables_wc() -> InfluenceGraph:
    """Les Miserables co-appearance network (77 nodes, 254 undirected edges,
    508 directed) under the weighted cascade: each directed edge (u, v) gets
    p_uv proportional to the co-appearance count, w_uv / weighted-deg(v), so
    incoming probabilities at every node sum to 1.

    The edges ship as ``data/lesmis.txt``, one ``a b weight`` row per
    undirected edge with ``a < b``, sorted (exported from networkx's
    ``les_miserables_graph``)."""
    text = resources.files(__package__).joinpath("data", "lesmis.txt").read_text()
    edges = [(a, b, int(w)) for a, b, w in (line.split() for line in text.splitlines())]
    wdeg = {}
    for a, b, w in edges:
        wdeg[a] = wdeg.get(a, 0) + w
        wdeg[b] = wdeg.get(b, 0) + w
    pairs = []
    for a, b, w in edges:
        pairs.append((a, b, w / wdeg[b]))
        pairs.append((b, a, w / wdeg[a]))
    return build_graph(RawEdgeList(directed=True, pairs=pairs))


BUILTINS = {
    "example1": example1_graph,
    "lesmis": les_miserables_wc,
}


def random_small_graph(rng: np.random.Generator, max_nodes: int = 8,
                       max_edges: int = 12) -> InfluenceGraph:
    """Random directed graph with uniform edge probabilities, sized for the
    exhaustive oracle."""
    n = int(rng.integers(3, max_nodes + 1))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    m = int(rng.integers(2, min(max_edges, len(possible)) + 1))
    idx = rng.choice(len(possible), size=m, replace=False)
    pairs = [(str(possible[i][0]), str(possible[i][1]), float(rng.uniform(0, 1)))
             for i in sorted(idx)]
    return build_graph(RawEdgeList(directed=True, pairs=pairs))
