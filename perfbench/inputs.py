"""Deterministic input generators for the benchmark workloads.

Every generator takes the workload seed and writes plain edge-list files, so
the program reads its inputs through the same parser a user's files go
through. The benchmark logs the sha256 of every file it generates; equal
hashes across two commits show that the inputs did not change.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

BA_NODES = 5000
BA_LINKS = 2          # links per new node, so about 2 * BA_NODES undirected edges
FAMILY_NODES = 8
FAMILY_ARCS = 16      # the oracle enumerates 2**FAMILY_ARCS live graphs


def sha256_of(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def barabasi_albert_edges(n: int, links: int, seed: int) -> np.ndarray:
    """Undirected preferential-attachment edges as an (E, 2) array.

    Starts from a star on nodes 0..links; each later node links to ``links``
    distinct earlier nodes drawn with probability proportional to degree
    (uniform draws from the list of edge endpoints).
    """
    if not 1 <= links < n:
        raise ValueError("need 1 <= links < n")
    rng = np.random.default_rng(seed)
    edges = np.empty(((n - links - 1) * links + links, 2), dtype=np.int64)
    ends = np.empty(2 * len(edges), dtype=np.int64)
    for i in range(links):
        edges[i] = (i + 1, 0)
        ends[2 * i:2 * i + 2] = (i + 1, 0)
    count = links
    for v in range(links + 1, n):
        chosen = set()
        while len(chosen) < links:
            chosen.add(int(ends[rng.integers(2 * count)]))
        for u in sorted(chosen):
            edges[count] = (v, u)
            ends[2 * count:2 * count + 2] = (v, u)
            count += 1
    return edges


def write_ba_edge_list(path: Path, seed: int, n: int = BA_NODES,
                       links: int = BA_LINKS) -> Path:
    """Unweighted two-field edge list; the CLI reads it with --undirected
    --transform wc."""
    edges = barabasi_albert_edges(n, links, seed)
    Path(path).write_text("".join(f"{u} {v}\n" for u, v in edges))
    return Path(path)


def small_instance_topology(rng: np.random.Generator, nodes: int, arcs: int):
    """Random distinct directed arcs; every node has at least one incident
    arc, so the loaded graph has exactly ``nodes`` nodes."""
    possible = [(u, v) for u in range(nodes) for v in range(nodes) if u != v]
    while True:
        idx = np.sort(rng.choice(len(possible), size=arcs, replace=False))
        touched = {x for i in idx for x in possible[i]}
        if len(touched) == nodes:
            break
    return [possible[i] for i in idx]


def write_family(directory: Path, seed: int, count: int, nodes: int = FAMILY_NODES,
                 arcs: int = FAMILY_ARCS, prefix: str = "family") -> list:
    """``count`` weighted three-field edge lists (probabilities as exact
    float reprs); returns their paths in order.

    Instance i has a fixed topology and probabilities drawn from ``seed``.
    The oracle's work depends on the topology alone, so every seed costs the
    same, while the checked values change with the seed."""
    paths = []
    for i in range(count):
        topology = small_instance_topology(np.random.default_rng([i, nodes, arcs]), nodes, arcs)
        probs = np.random.default_rng([seed, i]).uniform(0.0, 1.0, size=arcs)
        path = Path(directory) / f"{prefix}-{i}.txt"
        path.write_text("".join(f"n{u} n{v} {float(p)!r}\n"
                                for (u, v), p in zip(topology, probs)))
        paths.append(path)
    return paths
