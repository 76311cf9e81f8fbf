"""Brute-force ground truth on small graphs via live-graph enumeration.

Deliberately exhaustive: every quantity is a sum over all 2^m live graphs.
Live graph x keeps edge e (in ``graph.edges()`` order) when bit e of x is
set, so a live graph is its own index. Node sets are bitmasks of up to 64
bits, which caps n at 64; edge and node masks are kept in the narrowest
unsigned dtype that holds them.

The distance table ``dist[x, v, w]`` and the reach masks ``reach[x, v]`` are
built by edge doubling: live graph x with top bit e is live graph x - 2^e
plus edge e, and a shortest path uses that edge at most once, so each live
graph's tables follow exactly from those of the graph with one edge fewer.
After an observation, the residual of a live graph is the edge subset that
avoids the already-active nodes, itself a live graph, so ``exact_f`` answers
every residual reach query with a lookup into ``reach``. The edges that touch
a node set come from per-byte incidence tables, ``touch[b][j]`` for byte b of
the node mask holding j: ceil(n/8) lookups per live graph. A candidate's
reach is OR-ed into one base mask per class, the reach of the recent nodes.
Every table is checked against ``ORACLE_BYTES`` before it is allocated.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .diffusion import NO_DECAY, ByteCache, DecayFunction, check_bytes
from .graph import InfluenceGraph

EDGE_CAP = 24                  # most edges: 2^m live graphs are enumerated
SUBSET_CAP = 200_000           # most candidate second-phase sets per observation
NODE_CAP = 64                  # node sets are uint64 bitmasks
ORACLE_BYTES = 512 << 20       # largest table (or temporary) the oracle allocates
BLOCK_CELLS = 1 << 16          # live graphs x sources x nodes per doubling block
DIST_FROM_BYTES = 8 << 20      # budget for the cached per-seed-set distance tables
UNREACHED = 127  # int8 sentinel distance

_NODE_BITS = np.uint64(1) << np.arange(NODE_CAP, dtype=np.uint64)


class OracleCapError(ValueError):
    """Instance too large for exhaustive enumeration."""


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class ExactOracle:
    """Per-graph enumeration caches shared by all exact computations."""

    def __init__(self, graph: InfluenceGraph):
        self.graph = graph
        self.n = graph.n
        self.edges = graph.edges()
        self.m = len(self.edges)
        if self.m > EDGE_CAP:
            raise OracleCapError(
                f"graph has {self.m} edges, above the enumeration cap of {EDGE_CAP}")
        if self.n > NODE_CAP:
            raise OracleCapError(
                f"graph has {self.n} nodes, above the node cap of {NODE_CAP}")
        # dist is int8 (2^m, n, n); reach is uint64 (2^m, n)
        check_bytes("the distance and reach tables", (1 << self.m) * self.n * (self.n + 8),
                    ORACLE_BYTES, OracleCapError)
        self.full_nodes = (1 << self.n) - 1
        self.node_bits = _NODE_BITS[:self.n]

        # p(X) for every mask; new edge contributes the high bit each doubling.
        probs = np.ones(1)
        for _, _, p in self.edges:
            probs = np.concatenate([probs * (1.0 - p), probs * p])
        self.mask_p = probs
        # the live graphs of nonzero probability, their masks and
        # probabilities; a basic slice copies nothing when every one is live
        nonzero = probs.nonzero()[0]
        self.live = slice(None) if len(nonzero) == len(probs) else nonzero
        self.live_x = nonzero.astype(np.min_scalar_type(probs.size - 1))
        self.live_p = probs[self.live]

        self._dist = None          # (2^m, n, n) int8 single-source distances
        self._reach = None         # (2^m, n) uint64 reached-node masks
        self._touch = None         # per mask byte, the edges touching each node subset
        self._dist_from = ByteCache(DIST_FROM_BYTES)   # seed bitmask -> (2^m, n) int8
        self._tables = {}          # delta -> value per node subset

    # -- distances ---------------------------------------------------------

    def _enumerate(self):
        """Distances and reach masks of every live graph, by edge doubling:
        (dist, reach).

        Live graph x with top bit e is live graph x - 2^e plus edge e = (u, v).
        A shortest path uses that edge at most once, its prefix and suffix
        lie in the smaller graph, so for all live graphs [2^e, 2^(e+1)) at once

            dist'[s, w] = min(dist[s, w], dist[s, u] + 1 + dist[v, w])
            reach'[s]   = reach[s] | (reach[v] if u in reach[s])

        which are exactly the values a BFS in the larger graph finds. The sums
        run in uint8: at most 127 + 1 + 127 = 255, and the min with a value of
        at most 127 keeps ``UNREACHED``. Each step writes the upper half of both
        tables from the lower half, at most ``BLOCK_CELLS`` cells at a time."""
        n, size = self.n, 1 << self.m
        dist = np.empty((size, n, n), dtype=np.int8)
        reach = np.empty((size, n), dtype=np.uint64)
        dist[0] = UNREACHED
        np.fill_diagonal(dist[0], 0)    # the edgeless graph: each source alone
        reach[0] = self.node_bits
        d8 = dist.view(np.uint8)
        block = max(1, BLOCK_CELLS // max(1, n * n))
        for e, (u, v, _) in enumerate(self.edges):
            half = 1 << e
            for lo in range(0, half, block):
                hi = min(lo + block, half)
                src, out = d8[lo:hi], d8[half + lo:half + hi]
                to_u = src[:, :, u]                 # (block, source)
                np.add((to_u + np.uint8(1))[:, :, None], src[:, None, v, :], out=out)
                np.minimum(out, src, out=out)
                r = reach[lo:hi]
                np.bitwise_or(r, np.where(to_u < UNREACHED, r[:, v, None], np.uint64(0)),
                              out=reach[half + lo:half + hi])
        return dist, reach

    @property
    def dist(self) -> np.ndarray:
        if self._dist is None:
            self._dist, self._reach = self._enumerate()
        return self._dist

    @property
    def reach(self) -> np.ndarray:
        """(2^m, n) uint64: the nodes each source reaches in each live graph."""
        self.dist   # one enumeration fills both tables
        return self._reach

    @property
    def touch(self) -> list[np.ndarray]:
        """One edge-mask table per byte of a node mask, of the dtype of
        ``live_x``: ``touch[b][j]`` masks the edges with an end among the nodes
        8b + i for the bits i of j. Byte b holds k <= 8 nodes, so its table
        has 2^k entries, each subset's mask being the one without its top node
        OR-ed with that node's edges."""
        if self._touch is None:
            node_edges = [0] * self.n
            for e, (u, v, _) in enumerate(self.edges):
                node_edges[u] |= 1 << e
                node_edges[v] |= 1 << e
            self._touch = []
            for b in range(0, self.n, 8):
                table = [0]
                for edges in node_edges[b:b + 8]:
                    table += [t | edges for t in table]
                self._touch.append(np.array(table, dtype=self.live_x.dtype))
        return self._touch

    def dist_from(self, seed_mask: int) -> np.ndarray:
        """Per-live-graph distances from a seed set (min over members)."""
        def make():
            srcs = list(_bits(seed_mask))
            if not srcs:
                return np.full((1 << self.m, self.n), UNREACHED, dtype=np.int8)
            return self.dist[:, srcs, :].min(axis=1)

        return self._dist_from.get(seed_mask, make)

    # -- sigma / nu --------------------------------------------------------

    def _gamma_table(self, decay: DecayFunction) -> np.ndarray:
        tab = np.zeros(UNREACHED + 1)
        ts = np.arange(UNREACHED)
        tab[:UNREACHED] = decay.delta ** ts
        return tab

    def exact_nu(self, seeds, decay: DecayFunction) -> float:
        """Exact decay-weighted spread: sum over live graphs of p(X) times
        the decay-weighted count of the nodes the seeds reach."""
        seed_mask = _to_mask(seeds)
        if decay.delta == 1.0:
            # every reached node counts 1: the same integers as the gamma sums
            srcs = list(_bits(seed_mask))
            per_x = np.bitwise_count(np.bitwise_or.reduce(self.reach[:, srcs], axis=1))
        else:
            per_x = self._gamma_table(decay)[self.dist_from(seed_mask)].sum(axis=1)
        return float(math.fsum(memoryview(self.mask_p * per_x)))

    def exact_sigma(self, seeds) -> float:
        """Exact expected spread: sum over live graphs of p(X) * |reachable|."""
        return self.exact_nu(seeds, NO_DECAY)

    def value_table(self, decay: DecayFunction = NO_DECAY) -> np.ndarray:
        """sigma (or nu) for every node subset, indexed by bitmask."""
        got = self._tables.get(decay.delta)
        if got is None:
            # int8 distances plus float64 values for every (subset, live graph)
            check_bytes("the value table", (1 << self.n) * (1 << self.m) * (self.n + 8),
                        ORACLE_BYTES, OracleCapError)
            gtab = self._gamma_table(decay)
            dsub = np.full((1 << self.n, 1 << self.m, self.n), UNREACHED, dtype=np.int8)
            vals = np.zeros((1 << self.n, 1 << self.m))
            for s in range(1, 1 << self.n):
                low = s & -s
                dsub[s] = np.minimum(dsub[s ^ low], self.dist[:, low.bit_length() - 1, :])
                vals[s] = gtab[dsub[s]].sum(axis=1)
            got = vals @ self.mask_p
            self._tables[decay.delta] = got
        return got

    # -- two-phase objective f --------------------------------------------

    def exact_f(self, s1, d: int, k2: int, return_details: bool = False):
        """Exact two-phase objective: live graphs grouped by the observation
        at step d; for each observation the optimal k2-set is found by
        exhaustive search over inactive nodes.

        Within an observation (already, recent), live graphs with the same
        residual edge mask form one class whose probability is summed in
        ascending x. A candidate's value sums, over the classes in order of
        first occurrence, class probability times the number of nodes the
        recent and candidate nodes reach in the residual."""
        if k2 < 0 or k2 > self.n:
            raise ValueError("k2 out of range")
        if d < 0:
            raise ValueError("d must be >= 0")
        d_eff = min(d, UNREACHED - 1)
        dist = self.dist_from(_to_mask(s1))[self.live]
        already, recent = _pack(dist < d_eff), _pack(dist == d_eff)
        # the residual drops every edge with an already-active end: one
        # touch-table lookup per byte of the already-active mask
        touched = np.zeros_like(self.live_x)
        parts = already.view(np.uint8).reshape(-1, already.itemsize).T
        for table, part in zip(self.touch, parts):
            touched |= table.take(part)
        res = self.live_x & ~touched

        # classes: runs of equal (already, recent, res) in sorted order, with
        # x ascending within each run; keys of 16 bits or fewer sort by radix
        order = np.lexsort((res, recent, already))
        already, recent, res = already[order], recent[order], res[order]
        new_obs = np.empty(len(order), dtype=bool)
        new_obs[0] = True
        new_obs[1:] = (already[1:] != already[:-1]) | (recent[1:] != recent[:-1])
        new_cls = new_obs.copy()
        new_cls[1:] |= res[1:] != res[:-1]
        starts = new_cls.nonzero()[0]
        cls_w = np.bincount(new_cls.cumsum(), weights=self.live_p[order])[1:]
        cls_reach = self.reach.take(res[starts], axis=0)   # (class, source)
        heads = new_obs[starts].nonzero()[0]       # each observation's first class
        bounds = heads.tolist() + [len(starts)]
        a_masks = already[starts[heads]].tolist()
        r_masks = recent[starts[heads]].tolist()

        # The observation is fixed by the edges out of already-active nodes,
        # and the residual drops exactly the edges touching those nodes. So an
        # observation's live graphs are every allowed dropped part times every
        # allowed residual part, and its classes in ascending residual mask are
        # also in order of first occurrence; its first class holds its first x.
        terms = []
        details = []
        for g in order[starts[heads]].argsort().tolist():
            lo, hi, a_mask, r_mask = bounds[g], bounds[g + 1], a_masks[g], r_masks[g]
            w = cls_w[lo:hi]
            group_p = math.fsum(memoryview(w))
            avail = list(_bits(self.full_nodes & ~(a_mask | r_mask)))
            cands = list(combinations(avail, min(k2, len(avail))))
            if len(cands) > SUBSET_CAP:
                raise OracleCapError(
                    f"{len(cands)} candidate sets exceed the subset cap of {SUBSET_CAP}")
            # the recent nodes spread in the residual along with each candidate
            spreaders = list(_bits(r_mask))
            best_val, best_i = _best_candidate(
                w, cls_reach[lo:hi], spreaders, np.array(cands, dtype=np.intp))
            terms.append(group_p * a_mask.bit_count() + best_val)
            if return_details:
                details.append({
                    "already": list(_bits(a_mask)),
                    "recent": spreaders,
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


def _best_candidate(w, reach, spreaders, cands):
    """(value, index) of the first candidate with the largest value
    sum_c w[c] * |union of reach[c, v] over v in the spreaders and the
    candidate|, summed over the classes c in order. The spreaders' reach is
    one base mask per class, which each candidate's columns are OR-ed into.
    Candidates are scored a chunk at a time, so the temporaries stay within
    the byte budget."""
    base = np.bitwise_or.reduce(reach[:, spreaders], axis=1)
    step = ORACLE_BYTES // (8 * len(w) * (cands.shape[1] + 3)) or 1
    best_val, best_i = -math.inf, 0
    for lo in range(0, len(cands), step):
        covered = np.bitwise_or.reduce(reach.take(cands[lo:lo + step], axis=1), axis=2)
        covered |= base[:, None]
        vals = (w[:, None] * np.bitwise_count(covered)).cumsum(axis=0)[-1]
        i = vals.argmax()   # the first maximum wins ties
        if vals[i] > best_val:
            best_val, best_i = vals[i], lo + int(i)
    return best_val, best_i


def _pack(bits: np.ndarray) -> np.ndarray:
    """(rows, k) bool with k <= 64 -> (rows,) masks, bit j set where column
    j is. Each row is padded to a whole little-endian uint of 8, 16, 32 or 64
    bits, so one flat ``packbits`` packs every row into its own uint."""
    rows, k = bits.shape
    width = max(8, 1 << (k - 1).bit_length())
    if width != k:
        padded = np.zeros((rows, width), dtype=bool)
        padded[:, :k] = bits
        bits = padded
    packed = np.packbits(bits.reshape(-1), bitorder="little")
    return packed.view(f"<u{width // 8}")


def _to_mask(nodes) -> int:
    mask = 0
    for v in nodes:
        mask |= 1 << int(v)
    return mask


def get_oracle(graph: InfluenceGraph) -> ExactOracle:
    """The graph's oracle, built on first use and kept on the graph."""
    if graph._oracle is None:
        graph._oracle = ExactOracle(graph)
    return graph._oracle
