import numpy as np
import pytest

from conftest import instance_family
from twophase_im.diffusion import DecayFunction, MonteCarloConfig, SpreadEstimate
from twophase_im.graph import RawEdgeList, build_graph
from twophase_im import schedule, selectors, two_phase
from twophase_im.instances import les_miserables_wc
from twophase_im.oracle import get_oracle
from twophase_im.schedule import (
    SearchConfig,
    estimate_D,
    exhaustive_grid,
    golden_section_k1,
    sequential_d_search,
)
from twophase_im.selectors import SigmaObjective
from twophase_im.two_phase import SELECTORS, TwoPhasePlan, run_two_phase


class CountingObjective:
    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, k1, d):
        self.calls.append((k1, d))
        return self.fn(k1, d)


def test_search_config_defaults_and_validation():
    cfg = SearchConfig(k_total=100, d_max=5)
    assert cfg.k1_grid_step == 5
    assert cfg.decay == DecayFunction()
    with pytest.raises(ValueError):
        SearchConfig(k_total=0, d_max=5)


def test_grid_forces_single_phase_cell(example1):
    cfg = SearchConfig(k_total=2, d_max=2, mc=MonteCarloConfig(master_seed=0))
    obj = CountingObjective(lambda k1, d: float(k1 + d))
    exhaustive_grid(example1, cfg, obj)
    assert (2, 0) in obj.calls
    assert all(d == 0 for k1, d in obj.calls if k1 == 2)


def test_grid_exact_oracle_matches_argmax(example1):
    orc = get_oracle(example1)

    def exact(k1, d):
        if k1 == 2:
            return orc.max_f(2, 0, 0)[0]
        return orc.max_f(k1, d, 2 - k1)[0]

    cfg = SearchConfig(k_total=2, d_max=3, mc=MonteCarloConfig(master_seed=0))
    grid = exhaustive_grid(example1, cfg, exact)
    best_val = max(est.mean for _, _, est in grid.entries)
    assert grid.best_estimate().mean == pytest.approx(best_val, abs=1e-12)
    # ties resolve toward the cheaper plan
    tied = [(k1, d) for k1, d, est in grid.entries
            if est.mean == pytest.approx(best_val, abs=1e-12)]
    assert grid.best == min(tied)


def test_grid_evaluation_budget_enforced(example1, monkeypatch):
    monkeypatch.setattr(schedule, "MAX_EVALUATIONS", 2)
    cfg = SearchConfig(k_total=2, d_max=3, mc=MonteCarloConfig(master_seed=0))
    with pytest.raises(ValueError, match="budget"):
        exhaustive_grid(example1, cfg, lambda k1, d: 0.0)


def test_grid_single_phase_cell_equals_pipeline(example1):
    mc = MonteCarloConfig(single_phase_sims=2_000, phase1_sims=50,
                          phase2_sims=50, master_seed=7)
    cfg = SearchConfig(k_total=2, d_max=1, mc=mc)
    grid = exhaustive_grid(example1, cfg, "gdd")
    cell = {(k1, d): est for k1, d, est in grid.entries}[(2, 0)]
    plan = TwoPhasePlan(k1=2, k2=0, d=0, selector="gdd")
    direct, _ = run_two_phase(example1, plan, mc)
    assert cell.mean == direct.spread.mean


def test_optimizers_select_each_first_phase_once(monkeypatch):
    # S1 is myopic, so it does not depend on d: one selection per k1 > 0,
    # however many delays the grid or the delay search scores at that k1
    # (GDD second phases run ``select_discount``, not counted)
    calls = []
    select = two_phase.select_gdd

    def counted(graph, k):
        calls.append(k)
        return select(graph, k)

    monkeypatch.setattr(two_phase, "select_gdd", counted)
    g = les_miserables_wc()
    mc = MonteCarloConfig(single_phase_sims=50, phase1_sims=8, phase2_sims=4, master_seed=3)
    grid = exhaustive_grid(g, SearchConfig(k_total=4, d_max=3, mc=mc), "gdd")
    assert len(grid.entries) == 4 * 4 + 1
    assert sorted(calls) == [1, 2, 3, 4]
    calls.clear()
    search = SearchConfig(k_total=4, d_max=3, decay=DecayFunction(0.5), mc=mc)
    golden_section_k1(g, search, "gdd")
    assert calls and sorted(calls) == sorted(set(calls))


@pytest.mark.parametrize("optimize", [exhaustive_grid, golden_section_k1],
                         ids=["grid", "golden"])
@pytest.mark.parametrize("delta", [1.0, 0.8])
@pytest.mark.parametrize("selector", ["greedy", "rmax", "spic", "face"])
def test_every_first_phase_comes_from_one_shared_objective(monkeypatch, optimize, delta,
                                                           selector):
    # one world sample serves every k1, and each k1's S1 is the one a fresh
    # objective picks (the cells' scores are stubbed: only S1 is compared)
    monkeypatch.setattr(selectors, "RMAX_SAMPLES", 30)
    monkeypatch.setattr(selectors, "SPIC_PERMUTATIONS", 3)
    built = []
    world_sample = selectors.WorldSample
    monkeypatch.setattr(selectors, "WorldSample",
                        lambda *args: built.append(args) or world_sample(*args))
    picked = {}

    def stub(graph, cells, k, config, decay, selector2):
        picked.update((k1, s1) for k1, _, s1 in cells)
        return [SpreadEstimate(mean=-abs(k1 - 2) - d / 8, stderr=0.0, samples=1)
                for k1, d, _ in cells]

    monkeypatch.setattr(schedule, "score_cells", stub)
    g = les_miserables_wc()
    mc = MonteCarloConfig(phase1_sims=40, master_seed=2)
    decay = DecayFunction(delta)
    optimize(g, SearchConfig(k_total=4, d_max=2, decay=decay, mc=mc), selector)
    assert len(built) == 1 and len(picked) > 2
    for k1, s1 in picked.items():
        fresh = SigmaObjective(g, mc, sims=mc.phase1_sims, decay=decay)
        want = SELECTORS[selector](g, k1, fresh, mc.master_seed).nodes if k1 else []
        assert s1 == want, k1


def test_sequential_d_short_circuits_without_decay(example1):
    cfg = SearchConfig(k_total=2, d_max=4, mc=MonteCarloConfig(master_seed=0))
    obj = CountingObjective(lambda k1, d: float(d))
    d, est = sequential_d_search(example1, 1, cfg, obj)
    assert d == 4 and est.mean == 4.0
    assert obj.calls == [(1, 4)]


def test_sequential_d_probes_until_patience(example1):
    peaked = {0: 1.0, 1: 5.0, 2: 4.0, 3: 3.0, 4: 2.0}
    cfg = SearchConfig(k_total=2, d_max=4,
                       decay=DecayFunction(0.9),
                       mc=MonteCarloConfig(master_seed=0))
    obj = CountingObjective(lambda k1, d: peaked[d])
    d, est = sequential_d_search(example1, 1, cfg, obj)
    assert (d, est.mean) == (1, 5.0)
    assert [c[1] for c in obj.calls] == [0, 1, 2, 3]


def test_golden_section_recovers_synthetic_unimodal(example1):
    cfg = SearchConfig(k_total=10, d_max=0, mc=MonteCarloConfig(master_seed=0))
    for peak in (0, 3, 7, 10):
        k1, d, est = golden_section_k1(example1, cfg, lambda k1, d, p=peak: -(k1 - p) ** 2)
        assert k1 == peak
        assert est.mean == 0.0


def test_golden_section_uses_fewer_probes_than_grid(example1):
    cfg = SearchConfig(k_total=10, d_max=0, mc=MonteCarloConfig(master_seed=0))
    obj = CountingObjective(lambda k1, d: -(k1 - 4) ** 2)
    golden_section_k1(example1, cfg, obj)
    assert len(set(obj.calls)) < 11


def test_golden_section_matches_grid_on_exact_instances():
    for g in instance_family(5, seed=31, max_nodes=6, max_edges=9):
        orc = get_oracle(g)
        k = 2

        def exact(k1, d):
            if k1 == k:
                return orc.max_f(k, 0, 0)[0]
            return orc.max_f(k1, d, k - k1)[0]

        cfg = SearchConfig(k_total=k, d_max=2, mc=MonteCarloConfig(master_seed=0))
        grid = exhaustive_grid(g, cfg, exact)
        _, _, est = golden_section_k1(g, cfg, exact)
        best = max(e.mean for _, _, e in grid.entries)
        assert est.mean >= best - 0.01 * abs(best) - 1e-12


def test_estimate_d_on_sure_chain():
    pairs = [(str(i), str(i + 1), 1.0) for i in range(5)]
    pairs += [("8", "9", 0.0)]  # padding so the cap at n does not bind
    g = build_graph(RawEdgeList(directed=True, pairs=pairs))
    got = estimate_D(g, 1, MonteCarloConfig(phase1_sims=50, master_seed=0))
    assert got == 5 + 2


def test_estimate_d_dead_graph_returns_margin():
    g = build_graph(RawEdgeList(directed=True, pairs=[("a", "b", 0.0)]))
    got = estimate_D(g, 1, MonteCarloConfig(phase1_sims=20, master_seed=0))
    assert got == 2
