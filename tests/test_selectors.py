import numpy as np
import pytest

from conftest import in_edges, instance_family
from twophase_im import selectors
from twophase_im.diffusion import MonteCarloConfig
from twophase_im.graph import RawEdgeList, build_graph
from twophase_im.oracle import get_oracle
from twophase_im.selectors import (
    SeedSet,
    SigmaObjective,
    discount_state,
    select_discount,
    select_gdd,
    select_greedy,
    select_rmax,
    select_sd,
    select_spic,
    select_wd,
    shapley_values,
)


class ExactSigmaObjective:
    """Oracle-backed spread: the exact objective for the selector tests."""

    def __init__(self, graph):
        self.orc = get_oracle(graph)

    def __call__(self, seeds) -> float:
        return self.orc.exact_sigma(seeds)


def _as_set(seed_set) -> frozenset:
    return frozenset(seed_set.nodes)


def test_seed_set_validation():
    with pytest.raises(ValueError, match="duplicate"):
        SeedSet(nodes=[1, 1], budget=3)
    with pytest.raises(ValueError, match="budget"):
        SeedSet(nodes=[1, 2], budget=1)
    assert _as_set(SeedSet(nodes=[2, 1], budget=2)) == {1, 2}


def test_sd_and_wd_on_example1(example1):
    assert select_sd(example1, 1).nodes == [1]  # B has out-degree 2
    assert select_wd(example1, 1).nodes == [1]  # B has out-prob mass 1.7
    assert select_wd(example1, 2).nodes == [1, 0]


def test_budget_validation(example1):
    for select in (select_sd, select_wd, select_gdd):
        with pytest.raises(ValueError):
            select(example1, 0)
        with pytest.raises(ValueError):
            select(example1, example1.n + 1)


def test_gdd_weights_on_example1(example1):
    [w] = discount_state(example1, "gdd").w
    assert w[0] == pytest.approx(1.5)   # A: 1 * (1 + 0.5)
    assert w[1] == pytest.approx(2.7)   # B: 1 * (1 + 1.7)
    picked = select_gdd(example1, 1)
    assert picked.nodes == [1]
    [after] = discount_state(example1, "gdd", preselected=np.arange(4)[None] == 1).w
    assert after[2] == pytest.approx(0.2)   # C: (1 - 0.8) * (1 + 0)
    assert after[3] == pytest.approx(0.1)   # D: (1 - 0.9) * (1 + 0)


def test_gdd_preselected_does_not_consume_budget(example1):
    # with B preselected: w_A = 1*(1+0) = 1.0 beats w_C = 0.2 and w_D = 0.1
    state = discount_state(example1, "gdd", preselected=np.arange(4)[None] == 1)
    assert select_discount(example1, state, [1]).tolist() == [[0]]


def test_gdd_ops_bounded_by_edge_relaxations():
    for g in instance_family(10, seed=11):
        k = min(3, g.n - 1)
        state = discount_state(g, "gdd")
        select_discount(g, state, [k])
        assert state.ops <= k * g.n * max(1, g.max_degree())


def test_gdd_first_pick_matches_wd():
    for g in instance_family(30, seed=12):
        assert select_gdd(g, 1).nodes == select_wd(g, 1).nodes


def test_greedy_exact_on_example1(example1):
    got = select_greedy(example1, 2, ExactSigmaObjective(example1))
    assert got.nodes == [1, 0]


def test_greedy_ties_break_to_lowest_id():
    g = build_graph(RawEdgeList(directed=True, pairs=[("a", "b", 0.5),
                                                      ("c", "d", 0.5)]))
    got = select_greedy(g, 1, ExactSigmaObjective(g))
    assert got.nodes == [0]


def test_rmax_finds_optimum_on_tiny_graph(example1):
    orc = get_oracle(example1)
    got = select_rmax(example1, 2, lambda s: orc.exact_sigma(s), master_seed=0)
    assert sorted(got.nodes) == [0, 1]


def test_rmax_deterministic_per_seed(example1):
    obj = ExactSigmaObjective(example1)
    a = select_rmax(example1, 2, obj, master_seed=5)
    b = select_rmax(example1, 2, obj, master_seed=5)
    assert a.nodes == b.nodes


def test_shapley_efficiency_property(monkeypatch):
    # per-permutation marginals telescope, so values sum to the grand value
    monkeypatch.setattr(selectors, "SPIC_PERMUTATIONS", 50)
    g = build_graph(RawEdgeList(directed=True, pairs=[("a", "b", 1.0)]))
    orc = get_oracle(g)
    phi = shapley_values(g, lambda s: orc.exact_sigma(s), master_seed=0)
    assert phi.sum() == pytest.approx(orc.exact_sigma([0, 1]), abs=1e-9)
    assert phi[0] > phi[1]


def test_spic_selects_high_value_nodes(example1):
    # exact Shapley values: phi_A = 23/15 > phi_B = 35/24 since A captures
    # half of B's subtree; B survives the discount and comes second
    orc = get_oracle(example1)
    got = select_spic(example1, 2, lambda s: orc.exact_sigma(s), master_seed=0)
    assert got.nodes == [0, 1]


def test_selectors_respect_budget_and_uniqueness(monkeypatch):
    monkeypatch.setattr(selectors, "SPIC_PERMUTATIONS", 10)
    cfg = MonteCarloConfig(single_phase_sims=200, master_seed=0)
    for g in instance_family(5, seed=13):
        k = min(2, g.n - 1)
        obj = SigmaObjective(g, cfg, sims=200)
        for got in (select_sd(g, k), select_wd(g, k), select_gdd(g, k),
                    select_greedy(g, k, obj), select_rmax(g, k, obj),
                    select_spic(g, k, obj)):
            assert len(got.nodes) == k
            assert len(set(got.nodes)) == k
            assert all(0 <= v < g.n for v in got.nodes)


def test_sigma_objective_caches_and_uses_common_random_numbers(example1):
    cfg = MonteCarloConfig(single_phase_sims=500, master_seed=2)
    obj = SigmaObjective(example1, cfg, sims=500)
    assert obj(frozenset({1})) == obj({1})
    fresh = SigmaObjective(example1, cfg, sims=500)
    assert obj({0, 1}) == fresh({0, 1})


# -- loop references for the array-based degree heuristics -----------------


def _loop_discount(graph, k, weighted, preselected=()):
    ins = in_edges(graph)
    score = np.zeros(graph.n)
    for u, adj in enumerate(graph.out_edges):
        score[u] = sum(p for _, p in adj) if weighted else len(adj)
    removed = np.zeros(graph.n, dtype=bool)
    for u in preselected:
        removed[u] = True
        for z, p in ins[u]:
            score[z] -= p if weighted else 1
    picked = []
    for _ in range(k):
        best = -1
        for v in range(graph.n):
            if not removed[v] and (best < 0 or score[v] > score[best]):
                best = v
        picked.append(best)
        removed[best] = True
        for z, p in ins[best]:
            if not removed[z]:
                score[z] -= p if weighted else 1
    return picked


def _loop_gdd(graph, k, preselected=()):
    ins = in_edges(graph)
    survival = np.ones(graph.n)
    outsum = np.array([sum(p for _, p in adj) for adj in graph.out_edges])
    selected = set()

    def apply(u):
        selected.add(u)
        for v, p in graph.out_edges[u]:
            survival[v] *= 1.0 - p
        for z, p in ins[u]:
            outsum[z] -= p

    for u in sorted(preselected):
        apply(u)
    picked = []
    for _ in range(k):
        w = survival * (1.0 + outsum)
        best = -1
        for v in range(graph.n):
            if v not in selected and (best < 0 or w[v] > w[best]):
                best = v
        picked.append(best)
        apply(best)
    return picked


def _pick_after(graph, kind, k, preselected):
    """The k nodes one row picks with the nodes of ``preselected`` taken."""
    state = discount_state(graph, kind, preselected=preselected)
    return select_discount(graph, state, [k])[0].tolist()


def _heuristic_cases():
    from twophase_im.instances import les_miserables_wc
    # a uniform cycle and two identical stars: every pick is decided by ties
    cycle = build_graph(RawEdgeList(directed=False, pairs=[
        (str(i), str((i + 1) % 6), 0.5) for i in range(6)]))
    stars = build_graph(RawEdgeList(directed=True, pairs=[
        (hub, f"{hub}{i}", 0.3) for hub in "ab" for i in range(3)]))
    graphs = instance_family(40, seed=14) + [les_miserables_wc(), cycle, stars]
    rng = np.random.default_rng(15)
    for g in graphs:
        for size in (0, 1, 3):
            size = min(size, g.n - 1)
            pre = sorted(int(v) for v in rng.choice(g.n, size=size, replace=False))
            yield g, pre, min(6, g.n - size)


def test_degree_heuristics_match_loop_reference():
    cases = 0
    for g, pre, k in _heuristic_cases():
        mask = np.zeros((1, g.n), dtype=bool)
        mask[0, pre] = True
        assert _pick_after(g, "gdd", k, mask) == _loop_gdd(g, k, pre)
        for weighted in (False, True):
            got = _pick_after(g, "wd" if weighted else "sd", k, mask)
            assert got == _loop_discount(g, k, weighted, pre)
        cases += 1
    assert cases == 129
    for g in instance_family(10, seed=16):
        k = min(3, g.n)
        assert select_sd(g, k).nodes == _loop_discount(g, k, False)
        assert select_wd(g, k).nodes == _loop_discount(g, k, True)


def _loop_spic(graph, k, value):
    """SPIC's picks from Shapley values ``value``, discounting along the
    adjacency lists one edge at a time, as ``select_spic`` did."""
    value, ins = value.copy(), in_edges(graph)
    picked, selected = [], set()
    for _ in range(k):
        best = -1
        for v in range(graph.n):
            if v not in selected and (best < 0 or value[v] > value[best]):
                best = v
        phi_y = value[best]
        picked.append(best)
        selected.add(best)
        for x, p in graph.out_edges[best]:
            value[x] *= 1.0 - p
        for z, p in ins[best]:
            value[z] = max(0.0, value[z] - p * phi_y)
    return picked


def test_spic_discounts_match_loop_reference(monkeypatch):
    from twophase_im.instances import les_miserables_wc
    cfg = MonteCarloConfig(master_seed=3)
    for g, permutations in [(g, 10) for g in instance_family(20, seed=17)] + [
            (les_miserables_wc(), 2)]:
        monkeypatch.setattr(selectors, "SPIC_PERMUTATIONS", permutations)
        obj = SigmaObjective(g, cfg, sims=50)
        k = min(g.n, 12)
        phi = shapley_values(g, obj, master_seed=4)
        assert select_spic(g, k, obj, master_seed=4).nodes == _loop_spic(g, k, phi)
