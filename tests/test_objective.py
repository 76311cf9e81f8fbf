"""The world-sampled spread objective: live-edge worlds drawn once, per-node
activation-time tables composed by an elementwise minimum."""

from collections import deque
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import estimate_1d, instance_family
from twophase_im import diffusion, selectors
from twophase_im.cli import main
from twophase_im.diffusion import (
    NEVER,
    BudgetError,
    DecayFunction,
    MonteCarloConfig,
    estimate_spread,
)
from twophase_im.graph import RawEdgeList, build_graph
from twophase_im.instances import les_miserables_wc
from twophase_im.oracle import get_oracle
from twophase_im.selectors import SigmaObjective, select_greedy, select_spic

FAMILY = instance_family(12, seed=501)
DECAYS = (DecayFunction(1.0), DecayFunction(0.5))


def _bfs_times(graph, live, seeds):
    """Activation times from ``seeds`` in one world, by a plain queue BFS
    over the edges the world keeps."""
    times = np.full(graph.n, NEVER)
    queue = deque()
    for s in seeds:
        times[s] = 0
        queue.append(s)
    while queue:
        u = queue.popleft()
        for e in range(graph.indptr[u], graph.indptr[u + 1]):
            v = graph.dst[e]
            if live[e] and times[v] == NEVER:
                times[v] = times[u] + 1
                queue.append(v)
    return times


def _random_sets(rng, n, count):
    for _ in range(count):
        size = int(rng.integers(1, n + 1))
        yield sorted(int(v) for v in rng.choice(n, size=size, replace=False))


def _drawn(graph, sims, master_seed, decay=DecayFunction(1.0)):
    """An objective whose worlds are drawn."""
    obj = SigmaObjective(graph, MonteCarloConfig(master_seed=master_seed), sims=sims,
                         decay=decay)
    obj._draw()
    return obj


def _table(obj, activations):
    """A (sims, n) table like the objective's, NEVER as its dtype's largest
    value, with the activations (keys, steps) written in."""
    table = np.full_like(obj._table, np.iinfo(obj._table.dtype).max)
    keys, times = activations
    table.reshape(-1)[keys] = times
    return table


def _times(obj, seeds):
    """The (sims, n) signed times table of one BFS from ``seeds``."""
    return _table(obj, obj._activations(seeds)).view(obj._work.dtype)


def test_world_bfs_matches_a_queue_bfs_in_each_world(monkeypatch):
    monkeypatch.setattr(diffusion, "CHUNK", 16)   # 40 worlds in three chunks
    rng = np.random.default_rng(502)
    for g in FAMILY[:6]:
        worlds = _drawn(g, 40, master_seed=3)
        for seeds in _random_sets(rng, g.n, 3):
            got = _times(worlds, seeds)
            for w in range(worlds.sims):
                assert np.array_equal(got[w], _bfs_times(g, worlds.live[w], seeds))


@pytest.mark.parametrize("graph", [*FAMILY, les_miserables_wc()],
                         ids=[*(f"family-{i}" for i in range(len(FAMILY))), "lesmis"])
def test_table_composed_by_min_equals_direct_bfs_from_the_set(graph):
    # the objective's table, with each member pushed in turn, and the
    # elementwise minimum of the members' tables both equal one BFS from the set
    rng = np.random.default_rng(graph.n)
    worlds = _drawn(graph, 300, master_seed=4)
    empty = worlds._table.copy()
    for seeds in _random_sets(rng, graph.n, 8):
        direct = _table(worlds, worlds._activations(seeds))
        for v in seeds:
            worlds._push(v)
        assert np.array_equal(worlds._table, direct)
        for _ in seeds:
            worlds._pop()
        assert np.array_equal(worlds._table, empty)
        by_min = reduce(np.minimum, [_table(worlds, worlds._node(v)) for v in seeds])
        assert np.array_equal(by_min, direct)


def _path(n, p):
    """The directed path 0 -> 1 -> ... -> n-1, each arc of probability p."""
    return build_graph(RawEdgeList(directed=True, pairs=[(str(i), str(i + 1), p)
                                                          for i in range(n - 1)]))


@pytest.mark.parametrize("n, dtype", [(128, np.uint8), (129, np.uint16)])
def test_the_time_table_holds_every_step_at_its_dtype_boundary(n, dtype):
    # a path of n nodes reaches its last node at step n - 1: 127 is the
    # largest step a uint8 table holds, so one more node takes uint16
    g = _path(n, 1.0)
    assert list(g.labels) == [str(i) for i in range(n)]
    plain = _drawn(g, 20, master_seed=1)
    decayed = _drawn(g, 20, master_seed=1, decay=DecayFunction(0.99))
    assert plain._table.dtype == decayed._table.dtype == dtype
    assert plain({0}) == n
    assert decayed({0}) == pytest.approx(sum(0.99 ** t for t in range(n)), rel=1e-12)
    g = _path(n, 0.97)
    worlds = _drawn(g, 30, master_seed=2, decay=DecayFunction(0.99))
    for seeds in ([0], [0, n // 2], [3, n - 40, n - 1]):
        got = _times(worlds, seeds)
        for w in range(worlds.sims):
            assert np.array_equal(got[w], _bfs_times(g, worlds.live[w], seeds))
        assert worlds(seeds) == pytest.approx(worlds.decay.values(got).mean(), rel=1e-12)


def test_objective_values_do_not_depend_on_the_call_order(monkeypatch):
    # greedy, SPIC and random sets reach a set through different stacks of
    # members; every value must equal the one of a direct BFS from the set
    monkeypatch.setattr(selectors, "SPIC_PERMUTATIONS", 3)
    g = les_miserables_wc()
    cfg = MonteCarloConfig(master_seed=5)
    for decay in DECAYS:
        obj = SigmaObjective(g, cfg, sims=200, decay=decay)
        select_greedy(g, 3, obj)
        select_spic(g, 2, obj, master_seed=5)
        for seeds in _random_sets(np.random.default_rng(6), g.n, 5):
            obj(seeds)
        for key, value in obj._cache.items():
            if key:
                direct = decay.values(_times(obj, sorted(key))).mean()
                assert value == pytest.approx(direct, rel=1e-12)
                if decay.delta == 1.0:
                    assert value == direct


@pytest.mark.parametrize("delta", [1.0, 0.8, 0.5])
@pytest.mark.parametrize("graph", [*FAMILY[:4], les_miserables_wc()],
                         ids=[*(f"family-{i}" for i in range(4)), "lesmis"])
def test_objective_value_does_not_depend_on_the_sets_scored_before(monkeypatch, graph, delta):
    # greedy, SPIC and random sets reach a set through different stacks of
    # members; each value is == to a fresh objective's value of the set alone
    monkeypatch.setattr(selectors, "SPIC_PERMUTATIONS", 3)
    cfg, decay = MonteCarloConfig(master_seed=3), DecayFunction(delta)
    obj = SigmaObjective(graph, cfg, sims=150, decay=decay)
    select_greedy(graph, min(3, graph.n), obj)
    select_spic(graph, 2, obj, master_seed=3)
    for seeds in _random_sets(np.random.default_rng(graph.n), graph.n, 10):
        obj(seeds)
    keys = sorted(obj._cache, key=sorted)
    for key in keys[::max(1, len(keys) // 40)]:
        assert obj(key) == SigmaObjective(graph, cfg, sims=150, decay=decay)(key), sorted(key)


def test_objective_is_deterministic_and_starts_from_the_empty_set():
    g = FAMILY[0]
    cfg = MonteCarloConfig(master_seed=7)
    a = SigmaObjective(g, cfg, sims=100)
    b = SigmaObjective(g, cfg, sims=100)
    assert a(frozenset()) == 0.0
    assert a({0, 1}) == b({1, 0}) == a(frozenset({0, 1}))
    other = SigmaObjective(g, cfg, sims=100, tag=9)
    other({0})
    assert not np.array_equal(a.live, other.live)


@pytest.fixture(scope="module")
def family_objectives():
    """One objective per (instance, decay), shared by the examples: a value
    does not depend on the calls made before it."""
    return {(i, decay): SigmaObjective(g, MonteCarloConfig(master_seed=i), sims=64, decay=decay)
            for i, g in enumerate(FAMILY) for decay in DECAYS}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_objective_on_fixed_worlds_is_monotone_and_submodular(family_objectives, data):
    index = data.draw(st.integers(0, len(FAMILY) - 1))
    decay = data.draw(st.sampled_from(DECAYS))
    obj, n = family_objectives[index, decay], FAMILY[index].n
    big = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    small = data.draw(st.sets(st.sampled_from(sorted(big)), max_size=len(big))
                      if big else st.just(set()))
    u = data.draw(st.sampled_from(sorted(set(range(n)) - big)))
    assert obj(big) >= obj(small) - 1e-9
    assert obj(small | {u}) - obj(small) >= obj(big | {u}) - obj(big) - 1e-9


def test_objective_agrees_with_the_oracle_within_the_criterion_3_rule():
    rng = np.random.default_rng(503)
    for i, g in enumerate(FAMILY):
        orc = get_oracle(g)
        for decay in DECAYS:
            obj = SigmaObjective(g, MonteCarloConfig(master_seed=i), sims=20_000, decay=decay)
            for seeds in _random_sets(rng, g.n, 4):
                value = obj(seeds)
                est = estimate_1d(decay.values(_times(obj, seeds)).astype(float))
                assert value == pytest.approx(est.mean, rel=1e-12)
                gap = abs(value - orc.exact_nu(seeds, decay))
                assert gap <= max(3 * est.stderr, 0.01 * g.n), (i, decay, seeds, gap)


def _forward(graph, cfg, sims, decay=DecayFunction(1.0)):
    """The objective as a fresh forward simulation per set."""
    return lambda s: estimate_spread(graph, s, cfg, sims=sims, decay=decay).mean


@pytest.mark.parametrize("budget", ["WORLD_BYTES", "TABLE_BYTES"])
def test_past_a_budget_the_objective_simulates_forward(tmp_path, monkeypatch, budget):
    # lesmis: 508 arcs and 77 nodes, so 10 worlds take 5080 mask bytes and
    # a uint8 table 770 bytes; each budget is set just below its need
    g = les_miserables_wc()
    drawn = []
    real_stream = diffusion.stream
    monkeypatch.setattr(diffusion, "stream", lambda *a: drawn.append(a) or real_stream(*a))
    monkeypatch.setattr(diffusion, budget, {"WORLD_BYTES": 5079, "TABLE_BYTES": 769}[budget])
    with pytest.raises(BudgetError, match="live-edge worlds" if budget == "WORLD_BYTES"
                       else "activation-time table"):
        SigmaObjective(g, MonteCarloConfig(), sims=10)._draw()
    assert not drawn
    cfg = MonteCarloConfig(master_seed=9)
    decay = DecayFunction(0.8)
    obj = SigmaObjective(g, cfg, sims=10, decay=decay)
    forward = _forward(g, cfg, 10, decay)
    assert select_greedy(g, 2, obj).nodes == select_greedy(g, 2, forward).nodes
    assert obj.live is False and not drawn
    assert all(value == forward(key) for key, value in obj._cache.items())
    if budget == "WORLD_BYTES":
        # the command's objective takes 1000 worlds, 508 000 mask bytes; a
        # forward estimate's 1000 float64 values, checked against the same
        # budget, take 8000
        monkeypatch.setattr(diffusion, budget, 8 * 1000)
    code = main(["select", "--graph", "lesmis", "--algorithm", "greedy", "--k", "1",
                 "--seed", "0", "--sims", "10", "--output-dir", str(tmp_path)])
    assert code == 0


def test_the_node_cache_evicts_and_recomputes(monkeypatch):
    g = les_miserables_wc()
    monkeypatch.setattr(diffusion, "CACHE_BYTES", 1)   # keeps the first node only
    small = SigmaObjective(g, MonteCarloConfig(master_seed=8), sims=100)
    got = select_greedy(g, 3, small)
    monkeypatch.undo()
    full = SigmaObjective(g, MonteCarloConfig(master_seed=8), sims=100)
    assert select_greedy(g, 3, full).nodes == got.nodes
    assert small._cache == full._cache
    assert len(small._nodes) == 1 < len(full._nodes) == g.n
