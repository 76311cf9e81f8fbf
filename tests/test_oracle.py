import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from conftest import instance_family
from twophase_im import oracle
from twophase_im.cli import main
from twophase_im.diffusion import NO_DECAY, DecayFunction
from twophase_im.graph import InfluenceGraph, RawEdgeList, build_graph, load_graph
from twophase_im.instances import example1_graph, random_small_graph
from twophase_im.oracle import (
    DIST_FROM_BYTES,
    ORACLE_BYTES,
    UNREACHED,
    ExactOracle,
    OracleCapError,
    get_oracle,
)

# hand-enumerated over all live graphs of the bundled 4-node instance
EXAMPLE1_SIGMA = {frozenset(): 0.0, frozenset({0}): 2.35, frozenset({1}): 2.7,
                  frozenset({0, 1}): 3.7}
EXAMPLE1_F_D3_K1 = {(): 2.7, (2,): 2.95, (3,): 2.9, (2, 3): 3.5,
                    (0,): 3.84, (1,): 3.7, (0, 1): 3.98}


def test_live_graph_probabilities_sum_to_one(example1):
    mask_p = get_oracle(example1).mask_p
    assert len(mask_p) == 8
    assert math.fsum(mask_p) == pytest.approx(1.0, abs=1e-12)


def test_exact_sigma_example1_values(example1):
    for seeds, want in EXAMPLE1_SIGMA.items():
        assert get_oracle(example1).exact_sigma(seeds) == pytest.approx(want, abs=1e-12)


def test_exact_f_example1_headline_value(example1):
    assert get_oracle(example1).exact_f([0], 1, 1) == pytest.approx(3.8, abs=1e-9)


def test_exact_f_example1_witness_values(example1):
    for s1, want in EXAMPLE1_F_D3_K1.items():
        assert get_oracle(example1).exact_f(s1, 3, 1) == pytest.approx(want, abs=1e-9)


def test_exact_f_details_pick_optimal_second_phase(example1):
    value, details = get_oracle(example1).exact_f([0], 1, 1, return_details=True)
    assert value == pytest.approx(3.8, abs=1e-9)
    by_obs = {(tuple(d["already"]), tuple(d["recent"])): d for d in details}
    # A active, B recently activated: the best residual seed is C
    assert by_obs[((0,), (1,))]["s2"] == [2]
    # A active, the cascade died: the best fresh seed is B
    assert by_obs[((0,), ())]["s2"] == [1]
    assert math.fsum(d["probability"] for d in details) == pytest.approx(1.0)


def test_exact_nu_example1_half_decay(example1):
    got = get_oracle(example1).exact_nu([0], DecayFunction(0.5))
    # 1 + 0.5*0.5 + 0.5*(0.8+0.9)*0.25 hand-summed over live graphs
    assert got == pytest.approx(1.4625, abs=1e-12)


def test_exact_nu_trivial_decay_equals_sigma(example1):
    rng = np.random.default_rng(4)
    for _ in range(5):
        g = random_small_graph(rng)
        seeds = [0]
        orc = get_oracle(g)
        assert orc.exact_nu(seeds, DecayFunction(1.0)) == pytest.approx(
            orc.exact_sigma(seeds), abs=1e-12)


def test_value_table_matches_pointwise_sigma(example1):
    orc = get_oracle(example1)
    table = orc.value_table()
    for mask in range(1 << example1.n):
        seeds = [v for v in range(example1.n) if (mask >> v) & 1]
        assert table[mask] == pytest.approx(orc.exact_sigma(seeds), abs=1e-9)


def test_exact_f_zero_k2_zero_d_is_sigma(example1):
    for seeds in ([0], [1], [0, 1]):
        orc = get_oracle(example1)
        assert orc.exact_f(seeds, 0, 0) == pytest.approx(orc.exact_sigma(seeds), abs=1e-12)


def test_exact_f_monotone_in_d_on_example1(example1):
    vals = [get_oracle(example1).exact_f([0], d, 1) for d in range(5)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_max_f_finds_best_singleton(example1):
    value, witness = get_oracle(example1).max_f(1, 3, 1)
    assert witness == (0,)
    assert value == pytest.approx(3.84, abs=1e-9)


def test_oracle_rejects_oversized_graph():
    pairs = [(f"u{i}", f"v{i}", 0.5) for i in range(30)]
    g = build_graph(RawEdgeList(directed=True, pairs=pairs))
    with pytest.raises(OracleCapError, match="edges"):
        ExactOracle(g)


def test_oracle_cached_per_graph(example1):
    assert get_oracle(example1) is get_oracle(example1)


def _native_graph(path, n, edges):
    """Load a native-format graph of n nodes (isolated ones included)."""
    lines = ["TPIM-GRAPH v1", f"{n} {len(edges)}", *map(str, range(n)),
             *(f"{u} {v} {p!r}" for u, v, p in edges)]
    path.write_text("\n".join(lines) + "\n")
    return load_graph(path)


def test_oracle_rejects_more_than_64_nodes(tmp_path, capsys):
    # node ids >= 64 do not fit the uint64 node masks; a native graph may
    # hold isolated nodes, so n passes 64 with three edges
    h = 66
    path = tmp_path / "wide.tpim"
    wide = _native_graph(path, 70, [(0, h, 0.5), (h, h + 1, 0.5), (1, 2, 0.5)])
    with pytest.raises(OracleCapError, match="node cap"):
        ExactOracle(wide)
    code = main(["oracle", "--graph", str(path), "--query", "f", "--s1", "0",
                 "--d", "1", "--k2", "1", "--output-dir", str(tmp_path / "r")])
    assert code == 2
    assert "node cap of 64" in capsys.readouterr().err


def test_oracle_byte_budget_checked_before_allocating(tmp_path):
    # 2^24 live graphs on 64 nodes: the distance table alone would be 64 GiB
    arcs = [(u, v, 0.5) for u in range(7) for v in range(7) if u != v][:24]
    with pytest.raises(OracleCapError, match="distance and reach tables"):
        ExactOracle(_native_graph(tmp_path / "deep.tpim", 64, arcs))
    # 30 nodes and one edge: the distance table is tiny, but the value table
    # would hold 2^30 subsets x 2 live graphs x 38 bytes
    orc = ExactOracle(_native_graph(tmp_path / "wide.tpim", 30, [(0, 1, 0.5)]))
    assert orc.dist.nbytes == 2 * 30 * 30
    with pytest.raises(OracleCapError, match="value table"):
        orc.value_table()


# -- loop reference for the array enumeration ------------------------------


def _mask_bits(mask):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class _LoopOracle:
    """The enumeration as Python loops over live graphs: one layered BFS per
    (live graph, source), per-observation dicts of residual edge masks, and a
    BFS per residual reach query. The array oracle must equal it bit for bit."""

    def __init__(self, graph):
        self.n = graph.n
        self.edges = graph.edges()
        self.m = len(self.edges)
        self.full_nodes = (1 << self.n) - 1
        probs = np.ones(1)
        for _, _, p in self.edges:
            probs = np.concatenate([probs * (1.0 - p), probs * p])
        self.mask_p = probs
        adjs = [[0] * self.n]
        for u, v, _ in self.edges:
            extended = []
            for a in adjs:
                b = list(a)
                b[u] |= 1 << v
                extended.append(b)
            adjs += extended
        self.adj = adjs
        self._dist = None
        self._res_reach = {}

    def _layered_bfs(self, adj, start_mask):
        dist = [UNREACHED] * self.n
        for v in _mask_bits(start_mask):
            dist[v] = 0
        reached = frontier = start_mask
        t = 0
        while frontier:
            t += 1
            nxt = 0
            for u in _mask_bits(frontier):
                nxt |= adj[u]
            nxt &= ~reached
            for v in _mask_bits(nxt):
                dist[v] = t
            reached |= nxt
            frontier = nxt
        return dist

    @property
    def dist(self):
        if self._dist is None:
            d = np.empty((1 << self.m, self.n, self.n), dtype=np.int8)
            for x, adj in enumerate(self.adj):
                for v in range(self.n):
                    d[x, v, :] = self._layered_bfs(adj, 1 << v)
            self._dist = d
        return self._dist

    @property
    def reach(self):
        """Each (live graph, source)'s reached nodes as a bitmask."""
        bits = np.uint64(1) << np.arange(self.n, dtype=np.uint64)
        return ((self.dist < UNREACHED) * bits).sum(axis=2, dtype=np.uint64)

    def dist_from(self, seeds):
        if not seeds:
            return np.full((1 << self.m, self.n), UNREACHED, dtype=np.int8)
        return self.dist[:, sorted(seeds), :].min(axis=1)

    def exact_nu(self, seeds, decay):
        gtab = np.zeros(UNREACHED + 1)
        gtab[:UNREACHED] = decay.delta ** np.arange(UNREACHED)
        per_x = gtab[self.dist_from(seeds)].sum(axis=1)
        return float(math.fsum(self.mask_p * per_x))

    def value_table(self, decay):
        gtab = np.zeros(UNREACHED + 1)
        gtab[:UNREACHED] = decay.delta ** np.arange(UNREACHED)
        dsub = np.full((1 << self.n, 1 << self.m, self.n), UNREACHED, dtype=np.int8)
        for s in range(1, 1 << self.n):
            low = s & -s
            dsub[s] = np.minimum(dsub[s ^ low], self.dist[:, low.bit_length() - 1, :])
        return gtab[dsub].sum(axis=2) @ self.mask_p

    def _reach_res(self, res, src):
        key = (res, src)
        if key not in self._res_reach:
            adj = [0] * self.n
            for e in _mask_bits(res):
                u, v, _ = self.edges[e]
                adj[u] |= 1 << v
            reached = frontier = 1 << src
            while frontier:
                nxt = 0
                for u in _mask_bits(frontier):
                    nxt |= adj[u]
                frontier = nxt & ~reached
                reached |= frontier
            self._res_reach[key] = reached
        return self._res_reach[key]

    def exact_f(self, s1, d, k2):
        d_eff = min(d, UNREACHED - 1)
        dist = self.dist_from(s1)
        weights = np.arange(self.n, dtype=np.int64)
        a_keys = ((dist < d_eff).astype(np.int64) << weights).sum(axis=1)
        r_keys = ((dist == d_eff).astype(np.int64) << weights).sum(axis=1)
        keep_edges = {}
        groups = {}
        for x in range(1 << self.m):
            p = self.mask_p[x]
            if p == 0.0:
                continue
            a, r = int(a_keys[x]), int(r_keys[x])
            if a not in keep_edges:
                keep_edges[a] = sum(1 << e for e, (u, v, _) in enumerate(self.edges)
                                    if not (a >> u) & 1 and not (a >> v) & 1)
            res = x & keep_edges[a]
            by_res = groups.setdefault((a, r), {})
            by_res[res] = by_res.get(res, 0.0) + p
        terms, details = [], []
        for (a, r), by_res in groups.items():
            group_p = math.fsum(by_res.values())
            avail = sorted(_mask_bits(self.full_nodes & ~(a | r)))
            cands = list(combinations(avail, min(k2, len(avail))))
            vals = [0.0] * len(cands)
            for res, w in by_res.items():
                base = 0
                for v in _mask_bits(r):
                    base |= self._reach_res(res, v)
                for ci, cand in enumerate(cands):
                    reached = base
                    for v in cand:
                        reached |= self._reach_res(res, v)
                    vals[ci] += w * reached.bit_count()
            best = max(range(len(cands)), key=lambda i: (vals[i], -i))
            terms.append(group_p * a.bit_count() + vals[best])
            details.append({"already": sorted(_mask_bits(a)), "recent": sorted(_mask_bits(r)),
                            "probability": group_p, "s2": list(cands[best])})
        return math.fsum(terms), details

    def max_f(self, k1, d, k2):
        best = (-1.0, None)
        for cand in combinations(range(self.n), k1):
            v = self.exact_f(cand, d, k2)[0]
            if v > best[0] + 1e-12:
                best = (v, cand)
        return best


def _sixteen_arc_instance():
    """8 nodes, 16 distinct arcs, probabilities in (0.05, 0.95): 2^16 live graphs."""
    rng = np.random.default_rng(2024)
    possible = [(u, v) for u in range(8) for v in range(8) if u != v]
    idx = np.sort(rng.choice(len(possible), size=16, replace=False))
    pairs = [(str(possible[i][0]), str(possible[i][1]), float(rng.uniform(0.05, 0.95)))
             for i in idx]
    return build_graph(RawEdgeList(directed=True, pairs=pairs))


def _assert_matches_loop(g, queries):
    orc, ref = ExactOracle(g), _LoopOracle(g)
    assert np.array_equal(orc.dist, ref.dist)
    assert np.array_equal(orc.reach, ref.reach)
    for v in range(g.n):
        assert orc.exact_sigma([v]) == ref.exact_nu([v], NO_DECAY)
        assert orc.exact_nu([v], DecayFunction(0.5)) == ref.exact_nu([v], DecayFunction(0.5))
    for s1, d, k2 in queries:
        assert orc.exact_f(s1, d, k2, return_details=True) == ref.exact_f(s1, d, k2)
    return orc, ref


def test_array_oracle_matches_loop_reference_on_example1(example1):
    queries = [(s1, d, k2) for s1 in ([], [0], [1], [0, 1], [2, 3])
               for d in range(4) for k2 in range(3)]
    orc, ref = _assert_matches_loop(example1, queries)
    for decay in (NO_DECAY, DecayFunction(0.5)):
        assert np.array_equal(orc.value_table(decay), ref.value_table(decay))
    assert orc.max_f(1, 3, 1) == ref.max_f(1, 3, 1)
    assert orc.max_f(2, 1, 2) == ref.max_f(2, 1, 2)


def test_array_oracle_matches_loop_reference_on_family():
    rng = np.random.default_rng(31)
    for g in instance_family(20, seed=103):
        queries = []
        for _ in range(6):
            size = int(rng.integers(0, 3))
            s1 = sorted(rng.choice(g.n, size=size, replace=False).tolist())
            queries.append((s1, int(rng.integers(0, 4)), int(rng.integers(0, 3))))
        orc, ref = _assert_matches_loop(g, queries)
        assert np.array_equal(orc.value_table(), ref.value_table(NO_DECAY))
        assert orc.max_f(1, 1, 1) == ref.max_f(1, 1, 1)


def test_array_oracle_matches_loop_reference_with_sure_and_dead_edges():
    # p = 1 and p = 0 edges give live graphs of probability zero, which the
    # observation groups leave out
    pairs = [("0", "1", 1.0), ("1", "2", 0.0), ("1", "3", 0.5), ("3", "2", 0.7),
             ("2", "4", 1.0), ("0", "4", 0.25), ("4", "5", 0.6)]
    g = build_graph(RawEdgeList(directed=True, pairs=pairs))
    queries = [(s1, d, k2) for s1 in ([], [0], [1], [0, 3]) for d in range(4) for k2 in range(3)]
    _assert_matches_loop(g, queries)


def test_array_oracle_matches_loop_reference_with_parallel_edges():
    # a graph built from its arrays may repeat an arc: two independent coins
    # on one arc (the loaders reject repeated arcs)
    g = InfluenceGraph(n=4, labels=list("0123"), indptr=np.array([0, 2, 3, 5, 5]),
                       dst=np.array([1, 1, 2, 3, 3]), p=np.array([0.5, 0.3, 0.6, 0.5, 0.9]))
    queries = [(s1, d, k2) for s1 in ([0], [1]) for d in range(3) for k2 in range(2)]
    _assert_matches_loop(g, queries)


def test_array_oracle_matches_loop_reference_on_sixteen_arcs():
    g = _sixteen_arc_instance()
    assert (g.n, g.m) == (8, 16)
    orc, ref = _assert_matches_loop(g, [([0], 1, 1), ([3], 2, 1), ([1, 5], 1, 2)])
    assert orc.max_f(1, 2, 1) == ref.max_f(1, 2, 1)


def test_max_f_leaves_a_bounded_distance_cache():
    # max_f(3, ...) on 8 nodes visits 56 seed sets; their (2^16, 8) distance
    # tables are 512 KiB each, and the cache keeps only the first few it is
    # given (the loop-reference tests above check the values with the cache
    # in place)
    g = _sixteen_arc_instance()
    orc = ExactOracle(g)
    first = orc.exact_f([0, 1, 2], 2, 1)
    orc.max_f(3, 2, 1)
    table = (1 << g.m) * g.n
    assert len(orc._dist_from) == DIST_FROM_BYTES // table < 56
    assert orc._dist_from.nbytes <= DIST_FROM_BYTES
    # the first seed set's table stays cached, and gives the same values
    assert 0b111 in orc._dist_from._items
    assert orc.exact_f([0, 1, 2], 2, 1) == first


def test_steps_past_every_distance_observe_the_same():
    orc = ExactOracle(_sixteen_arc_instance())
    values = {orc.exact_f([0, 4], d, 1) for d in (UNREACHED - 1, UNREACHED, 1000)}
    assert len(values) == 1
    assert orc.exact_f([0, 4], 8, 1) == values.pop()   # no distance reaches 8 on 8 nodes


def _touch_brute(g, mask):
    """The edge mask of the edges with an end in the node mask, by a loop."""
    return sum(1 << e for e, (u, v, _) in enumerate(g.edges()) if (mask >> u | mask >> v) & 1)


def _touch_lookup(orc, mask):
    out = 0
    for b, table in enumerate(orc.touch):
        out |= int(table[(mask >> 8 * b) & 255])
    return out


def test_touch_tables_with_parallel_edges_and_past_one_mask_byte(tmp_path):
    parallel = InfluenceGraph(n=4, labels=list("0123"), indptr=np.array([0, 2, 3, 5, 5]),
                              dst=np.array([1, 1, 2, 3, 3]), p=np.array([0.5, 0.3, 0.6, 0.5, 0.9]))
    nine = _nine_node_graph(tmp_path / "nine.tpim")
    twenty = _sparse_graph(tmp_path / "twenty.tpim", 20,
                           [(0, 1), (1, 9), (6, 7), (7, 8), (8, 17), (12, 13), (13, 14),
                            (14, 15), (15, 16), (16, 19), (19, 0)])
    rng = np.random.default_rng(5)
    for g, n_bytes in ((parallel, 1), (nine, 2), (twenty, 3)):
        orc = ExactOracle(g)
        sizes = [len(table) for table in orc.touch]   # 2^k for the k nodes of a byte
        assert sizes == [256] * (n_bytes - 1) + [1 << (g.n - 8 * (n_bytes - 1))]
        masks = {0, orc.full_nodes, *(1 << v for v in range(g.n)),
                 *(int(x) for x in rng.integers(0, orc.full_nodes + 1, size=200))}
        for mask in masks:
            assert _touch_lookup(orc, mask) == _touch_brute(g, mask), (g.n, mask)
    # both coins of the repeated arc 0 -> 1 touch node 0 and node 1; arc 1 -> 2 touches 1
    orc = ExactOracle(parallel)
    assert (orc.touch[0][0b0001], orc.touch[0][0b0010]) == (0b011, 0b111)


def _sparse_graph(path, n, arcs):
    """n nodes and the given arcs; the probabilities cycle through a few values."""
    probs = (0.5, 0.3, 0.8, 0.65)
    return _native_graph(path, n, [(u, v, probs[i % 4]) for i, (u, v) in enumerate(arcs)])


def _nine_node_graph(path):
    return _sparse_graph(path, 9, [(0, 1), (1, 2), (2, 8), (3, 4), (4, 5), (5, 3),
                                   (6, 7), (7, 8), (8, 0)])


def test_array_oracle_matches_loop_reference_past_one_mask_byte(tmp_path):
    # 9 and 20 nodes: node masks span two and three bytes, and paths cross
    # from one byte into the next
    g9 = _nine_node_graph(tmp_path / "nine.tpim")
    queries = [(s1, d, k2) for s1 in ([0], [8], [3, 7]) for d in range(4) for k2 in range(3)]
    orc, ref = _assert_matches_loop(g9, queries)
    assert orc.max_f(1, 1, 1) == ref.max_f(1, 1, 1)
    g20 = _sparse_graph(tmp_path / "twenty.tpim", 20,
                        [(0, 1), (1, 9), (6, 7), (7, 8), (8, 17), (12, 13), (13, 14),
                         (14, 15), (15, 16), (16, 19), (19, 0)])
    queries = [([0], 2, 1), ([6], 3, 1), ([17], 1, 1), ([12, 19], 1, 2), ([16], 0, 1)]
    _assert_matches_loop(g20, queries)


def test_array_oracle_matches_loop_reference_on_wide_masks(tmp_path):
    # 34 nodes: node masks of 64 bits; 17 coins on three nodes: edge masks
    # of 32 bits (the masks sort in the narrowest dtype that holds them)
    g34 = _sparse_graph(tmp_path / "wide.tpim", 34,
                        [(0, 33), (33, 1), (30, 31), (31, 32), (32, 33), (7, 8)])
    queries = [([0], 2, 1), ([30], 1, 1), ([30], 3, 2), ([7, 31], 1, 1)]
    orc, _ = _assert_matches_loop(g34, queries)
    assert orc.live_x.dtype == np.uint8
    assert [len(table) for table in orc.touch] == [256] * 4 + [4]
    arcs = [(0, 1), (1, 2), (0, 2), (2, 0)] * 4 + [(1, 0)]
    src = np.array([u for u, _ in sorted(arcs)])
    coins = InfluenceGraph(n=3, labels=list("012"), indptr=np.searchsorted(src, [0, 1, 2, 3]),
                           dst=np.array([v for _, v in sorted(arcs)]),
                           p=np.linspace(0.1, 0.9, len(arcs)))
    orc, _ = _assert_matches_loop(coins, [([0], 1, 1), ([1], 0, 1), ([2], 1, 0)])
    assert orc.m == 17 and orc.live_x.dtype == np.uint32


def test_array_oracle_matches_loop_reference_without_edges(tmp_path):
    g = _native_graph(tmp_path / "edgeless.tpim", 3, [])
    assert g.m == 0
    queries = [(s1, d, k2) for s1 in ([], [0], [1, 2]) for d in range(3) for k2 in range(3)]
    orc, ref = _assert_matches_loop(g, queries)
    assert orc.max_f(1, 1, 1) == ref.max_f(1, 1, 1)


def test_array_oracle_matches_loop_reference_in_blocks(tmp_path, monkeypatch):
    # three live graphs per doubling block: from the third edge on, each
    # doubling step runs in several blocks, the last one ragged
    g = _nine_node_graph(tmp_path / "nine.tpim")
    monkeypatch.setattr(oracle, "BLOCK_CELLS", 3 * g.n * g.n)
    queries = [(s1, d, k2) for s1 in ([0], [6], [3, 7]) for d in range(3) for k2 in range(2)]
    orc, ref = _assert_matches_loop(g, queries)
    assert orc.max_f(1, 2, 1) == ref.max_f(1, 2, 1)


def test_distance_tables_are_built_in_bounded_memory():
    # the doubling writes into the two tables; beyond them it holds one
    # block's temporaries, a few uint64 per (live graph, source) of a block
    orc = ExactOracle(_sixteen_arc_instance())
    block = oracle.BLOCK_CELLS // orc.n ** 2
    tracemalloc.start()
    try:
        dist, reach = orc.dist, orc.reach
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist.nbytes + reach.nbytes == (1 << 16) * 8 * (8 + 8)
    assert peak <= dist.nbytes + reach.nbytes + 24 * block * orc.n + (16 << 10)
