"""Brute-force ground truth on small graphs via live-graph enumeration.

Deliberately exhaustive: every quantity is a sum over all 2^m edge subsets.
Node sets are int bitmasks throughout for speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .diffusion import NO_DECAY, DecayFunction
from .graph import InfluenceGraph

DEFAULT_EDGE_CAP = 24
DEFAULT_SUBSET_CAP = 200_000
UNREACHED = 127  # int8 sentinel distance


class OracleCapError(ValueError):
    """Instance too large for exhaustive enumeration."""


@dataclass(frozen=True)
class LiveGraph:
    """One sampled edge subset of the parent graph and its probability."""

    edge_mask: int
    probability: float


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class ExactOracle:
    """Per-graph enumeration caches shared by all exact computations."""

    def __init__(self, graph: InfluenceGraph, edge_cap: int = DEFAULT_EDGE_CAP,
                 subset_cap: int = DEFAULT_SUBSET_CAP):
        self.graph = graph
        self.n = graph.n
        self.edges = graph.edges()
        self.m = len(self.edges)
        if self.m > edge_cap:
            raise OracleCapError(
                f"graph has {self.m} edges, above the enumeration cap of {edge_cap}")
        self.subset_cap = subset_cap
        self.full_nodes = (1 << self.n) - 1

        # p(X) for every mask; new edge contributes the high bit each doubling.
        probs = np.ones(1)
        for _, _, p in self.edges:
            probs = np.concatenate([probs * (1.0 - p), probs * p])
        self.mask_p = probs

        # adjacency bitmasks per live graph
        adjs = [[0] * self.n]
        for u, v, _ in self.edges:
            extended = []
            for a in adjs:
                b = list(a)
                b[u] |= 1 << v
                extended.append(b)
            adjs += extended
        self.adj = adjs

        self._dist = None          # (2^m, n, n) int8 single-source distances
        self._dist_from = {}       # seed bitmask -> (2^m, n) int8
        self._keep_edges = {}      # already-mask -> residual edge mask
        self._res_reach = {}       # (residual edge mask, source) -> reached mask
        self._tables = {}          # delta -> value per node subset

    # -- distances ---------------------------------------------------------

    def _layered_bfs(self, adj, start_mask):
        """Distance per node from a seed bitmask in one live graph."""
        dist = [UNREACHED] * self.n
        for v in _bits(start_mask):
            dist[v] = 0
        reached = start_mask
        frontier = start_mask
        t = 0
        while frontier:
            t += 1
            nxt = 0
            for u in _bits(frontier):
                nxt |= adj[u]
            nxt &= ~reached
            for v in _bits(nxt):
                dist[v] = t
            reached |= nxt
            frontier = nxt
        return dist

    @property
    def dist(self) -> np.ndarray:
        if self._dist is None:
            d = np.empty((1 << self.m, self.n, self.n), dtype=np.int8)
            for x, adj in enumerate(self.adj):
                for v in range(self.n):
                    d[x, v, :] = self._layered_bfs(adj, 1 << v)
            self._dist = d
        return self._dist

    def dist_from(self, seed_mask: int) -> np.ndarray:
        """Per-live-graph distances from a seed set (min over members)."""
        got = self._dist_from.get(seed_mask)
        if got is None:
            srcs = list(_bits(seed_mask))
            if not srcs:
                got = np.full((1 << self.m, self.n), UNREACHED, dtype=np.int8)
            else:
                got = self.dist[:, srcs, :].min(axis=1)
            self._dist_from[seed_mask] = got
        return got

    # -- sigma / nu --------------------------------------------------------

    def _gamma_table(self, decay: DecayFunction) -> np.ndarray:
        tab = np.zeros(UNREACHED + 1)
        ts = np.arange(UNREACHED)
        tab[:UNREACHED] = decay.delta ** ts
        return tab

    def exact_nu(self, seeds, decay: DecayFunction) -> float:
        seed_mask = _to_mask(seeds)
        dist = self.dist_from(seed_mask)
        per_x = self._gamma_table(decay)[dist].sum(axis=1)
        return float(math.fsum(self.mask_p * per_x))

    def exact_sigma(self, seeds) -> float:
        return self.exact_nu(seeds, NO_DECAY)

    def value_table(self, decay: DecayFunction = NO_DECAY) -> np.ndarray:
        """sigma (or nu) for every node subset, indexed by bitmask."""
        got = self._tables.get(decay.delta)
        if got is None:
            gtab = self._gamma_table(decay)
            dsub = np.full((1 << self.n, 1 << self.m, self.n), UNREACHED, dtype=np.int8)
            for s in range(1, 1 << self.n):
                low = s & -s
                dsub[s] = np.minimum(dsub[s ^ low], self.dist[:, low.bit_length() - 1, :])
            got = gtab[dsub].sum(axis=2) @ self.mask_p
            self._tables[decay.delta] = got
        return got

    # -- two-phase objective f --------------------------------------------

    def _residual_edge_mask(self, already_mask: int) -> int:
        got = self._keep_edges.get(already_mask)
        if got is None:
            got = 0
            for e, (u, v, _) in enumerate(self.edges):
                if not (already_mask >> u) & 1 and not (already_mask >> v) & 1:
                    got |= 1 << e
            self._keep_edges[already_mask] = got
        return got

    def _res_adj(self, res_mask: int):
        adj = [0] * self.n
        for e in _bits(res_mask):
            u, v, _ = self.edges[e]
            adj[u] |= 1 << v
        return adj

    def _reach_res(self, res_mask: int, src: int) -> int:
        """Reachable-node mask from one source in a residual live graph."""
        key = (res_mask, src)
        got = self._res_reach.get(key)
        if got is None:
            adj = self._res_adj(res_mask)
            reached = 1 << src
            frontier = reached
            while frontier:
                nxt = 0
                for u in _bits(frontier):
                    nxt |= adj[u]
                nxt &= ~reached
                reached |= nxt
                frontier = nxt
            got = reached
            self._res_reach[key] = got
        return got

    def exact_f(self, s1, d: int, k2: int, return_details: bool = False):
        """Exact two-phase objective: live graphs grouped by the observation
        at step d; for each observation the optimal k2-set is found by
        exhaustive search over inactive nodes."""
        if k2 < 0 or k2 > self.n:
            raise ValueError("k2 out of range")
        if d < 0:
            raise ValueError("d must be >= 0")
        s1_mask = _to_mask(s1)
        d_eff = min(d, UNREACHED - 1)
        dist = self.dist_from(s1_mask)

        weights = np.arange(self.n, dtype=np.int64)
        a_keys = ((dist < d_eff).astype(np.int64) << weights).sum(axis=1)
        r_keys = ((dist == d_eff).astype(np.int64) << weights).sum(axis=1)

        groups = {}
        for x in range(1 << self.m):
            p = self.mask_p[x]
            if p == 0.0:
                continue
            a, r = int(a_keys[x]), int(r_keys[x])
            res = int(x) & self._residual_edge_mask(a)
            by_res = groups.setdefault((a, r), {})
            by_res[res] = by_res.get(res, 0.0) + p

        terms = []
        details = []
        for (a_mask, r_mask), by_res in groups.items():
            group_p = math.fsum(by_res.values())
            avail = sorted(_bits(self.full_nodes & ~(a_mask | r_mask)))
            k2_eff = min(k2, len(avail))
            cands = list(combinations(avail, k2_eff))
            if len(cands) > self.subset_cap:
                raise OracleCapError(
                    f"{len(cands)} candidate sets exceed the subset cap of {self.subset_cap}")
            cand_vals = [0.0] * len(cands)
            r_bits = list(_bits(r_mask))
            for res, w in by_res.items():
                base = 0
                for v in r_bits:
                    base |= self._reach_res(res, v)
                for ci, cand in enumerate(cands):
                    reached = base
                    for v in cand:
                        reached |= self._reach_res(res, v)
                    cand_vals[ci] += w * reached.bit_count()
            # combinations() yields lexicographically; first strict max wins ties
            best_i = max(range(len(cands)), key=lambda i: (cand_vals[i], -i))
            terms.append(group_p * a_mask.bit_count() + cand_vals[best_i])
            if return_details:
                details.append({
                    "already": sorted(_bits(a_mask)),
                    "recent": sorted(_bits(r_mask)),
                    "probability": group_p,
                    "s2": list(cands[best_i]),
                })
        value = math.fsum(terms)
        if return_details:
            return value, details
        return value

    def max_f(self, k1: int, d: int, k2: int):
        """Best exact_f over all seed sets of size k1; (value, witness set)."""
        best = (-1.0, None)
        for cand in combinations(range(self.n), k1):
            v = self.exact_f(cand, d, k2)
            if v > best[0] + 1e-12:
                best = (v, cand)
        return best


def _to_mask(nodes) -> int:
    mask = 0
    for v in nodes:
        mask |= 1 << int(v)
    return mask


def get_oracle(graph: InfluenceGraph, edge_cap: int = DEFAULT_EDGE_CAP) -> ExactOracle:
    if graph._oracle is None or graph._oracle.m > edge_cap:
        graph._oracle = ExactOracle(graph, edge_cap=edge_cap)
    return graph._oracle


def enumerate_live_graphs(graph: InfluenceGraph, edge_cap: int = DEFAULT_EDGE_CAP):
    """All 2^m live graphs with their occurrence probabilities."""
    orc = get_oracle(graph, edge_cap)
    return [LiveGraph(edge_mask=x, probability=float(p))
            for x, p in enumerate(orc.mask_p)]


def exact_sigma(graph: InfluenceGraph, seeds, edge_cap: int = DEFAULT_EDGE_CAP) -> float:
    """Exact expected spread: sum over live graphs of p(X) * |reachable|."""
    return get_oracle(graph, edge_cap).exact_sigma(seeds)


def exact_nu(graph: InfluenceGraph, seeds, decay: DecayFunction,
             edge_cap: int = DEFAULT_EDGE_CAP) -> float:
    """Exact decay-weighted spread via per-live-graph BFS distances."""
    return get_oracle(graph, edge_cap).exact_nu(seeds, decay)


def exact_f(graph: InfluenceGraph, s1, d: int, k2: int,
            edge_cap: int = DEFAULT_EDGE_CAP):
    """Exact two-phase objective with exactly optimal second-phase sets."""
    return get_oracle(graph, edge_cap).exact_f(s1, d, k2)
