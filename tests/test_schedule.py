import builtins

import numpy as np
import pytest

from conftest import cell_values, instance_family
from twophase_im.diffusion import NO_DECAY, DecayFunction, MonteCarloConfig, SpreadEstimate
from twophase_im.graph import RawEdgeList, build_graph
from twophase_im import schedule, selectors, two_phase
from twophase_im.instances import les_miserables_wc
from twophase_im.oracle import get_oracle
from twophase_im.schedule import (
    estimate_D,
    exhaustive_grid,
    golden_section_k1,
    sequential_d_search,
)
from twophase_im.selectors import SigmaObjective
from twophase_im.two_phase import SELECTORS, TwoPhasePlan, cell_scorer, run_two_phase

# each search as (k, d_max, evaluate, decay) -> its result; the grid reads no decay
SEARCHES = {
    "grid": lambda k, d_max, evaluate, decay: exhaustive_grid(k, d_max, evaluate),
    "golden": golden_section_k1,
    "delay": lambda k, d_max, evaluate, decay: sequential_d_search(0, d_max, evaluate, decay),
}


class CountingObjective:
    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, k1, d):
        self.calls.append((k1, d))
        return self.fn(k1, d)


def test_k1_grid_has_about_twenty_points_and_k():
    assert schedule._k1_points(100) == list(range(0, 101, 5))
    assert schedule._k1_points(43) == list(range(0, 43, 2)) + [43]
    assert schedule._k1_points(3) == [0, 1, 2, 3]


@pytest.mark.parametrize("search", list(SEARCHES))
def test_searches_refuse_negative_horizon_before_scoring(search):
    obj = CountingObjective(lambda k1, d: 0.0)
    with pytest.raises(ValueError, match="d_max"):
        SEARCHES[search](2, -1, cell_values(obj), DecayFunction(0.5))
    assert obj.calls == []


def test_cell_scorer_refuses_empty_budget_and_k1_outside_it(example1):
    with pytest.raises(ValueError, match="k must be"):
        cell_scorer(example1, 0, MonteCarloConfig(master_seed=0))
    evaluate = cell_scorer(example1, 2, MonteCarloConfig(master_seed=0))
    for k1 in (-1, 3):
        with pytest.raises(ValueError, match="outside"):
            evaluate([(k1, 0)])


def test_grid_forces_single_phase_cell():
    obj = CountingObjective(lambda k1, d: float(k1 + d))
    exhaustive_grid(2, 2, cell_values(obj))
    assert (2, 0) in obj.calls
    assert all(d == 0 for k1, d in obj.calls if k1 == 2)


def test_grid_exact_oracle_matches_argmax(example1):
    orc = get_oracle(example1)

    def exact(k1, d):
        if k1 == 2:
            return orc.max_f(2, 0, 0)[0]
        return orc.max_f(k1, d, 2 - k1)[0]

    grid = exhaustive_grid(2, 3, cell_values(exact))
    best_val = max(est.mean for _, _, est in grid.entries)
    assert grid.best[2].mean == pytest.approx(best_val, abs=1e-12)
    # ties resolve toward the cheaper plan
    tied = [(k1, d) for k1, d, est in grid.entries
            if est.mean == pytest.approx(best_val, abs=1e-12)]
    assert grid.best[:2] == min(tied)


def test_grid_evaluation_budget_enforced(monkeypatch):
    monkeypatch.setattr(schedule, "MAX_EVALUATIONS", 2)
    obj = CountingObjective(lambda k1, d: 0.0)
    with pytest.raises(ValueError, match="budget"):
        exhaustive_grid(2, 3, cell_values(obj))
    assert obj.calls == []


def test_grid_counts_its_cells_before_listing_them(monkeypatch):
    # a horizon of 4 * 10**6 steps is refused by counting its cells, before
    # a list of 8 * 10**6 (k1, d) cells is built: no range that long is made
    def short_range(*args):
        assert max(args) < 1000, "built the cell list"
        return builtins.range(*args)

    monkeypatch.setattr(schedule, "range", short_range, raising=False)
    with pytest.raises(ValueError, match="budget"):
        exhaustive_grid(2, 4_000_000, cell_values(lambda k1, d: 0.0))


def test_grid_single_phase_cell_equals_pipeline(example1):
    mc = MonteCarloConfig(single_phase_sims=2_000, phase1_sims=50,
                          phase2_sims=50, master_seed=7)
    grid = exhaustive_grid(2, 1, cell_scorer(example1, 2, mc))
    cell = {(k1, d): est for k1, d, est in grid.entries}[(2, 0)]
    plan = TwoPhasePlan(k1=2, k2=0, d=0, selector="gdd")
    direct, _ = run_two_phase(example1, plan, mc)
    assert cell.mean == direct.spread.mean


def test_optimizers_select_each_first_phase_once(monkeypatch):
    # S1 is myopic, so it does not depend on d: one selection per k1 > 0,
    # however many delays the grid or the delay search scores at that k1
    # (a GDD second phase is one ``select_discount`` over the outer
    # replicates' rows in ``two_phase._second_phase``, not a ``select_gdd``
    # call, so it is not counted)
    calls = []
    select = two_phase.select_gdd

    def counted(graph, k):
        calls.append(k)
        return select(graph, k)

    monkeypatch.setattr(two_phase, "select_gdd", counted)
    g = les_miserables_wc()
    mc = MonteCarloConfig(single_phase_sims=50, phase1_sims=8, phase2_sims=4, master_seed=3)
    grid = exhaustive_grid(4, 3, cell_scorer(g, 4, mc))
    assert len(grid.entries) == 4 * 4 + 1
    assert sorted(calls) == [1, 2, 3, 4]
    calls.clear()
    decay = DecayFunction(0.5)
    golden_section_k1(4, 3, cell_scorer(g, 4, mc, decay), decay)
    assert calls and sorted(calls) == sorted(set(calls))


@pytest.mark.parametrize("optimize", ["grid", "golden"])
@pytest.mark.parametrize("delta", [1.0, 0.8])
@pytest.mark.parametrize("selector", ["greedy", "rmax", "spic", "face"])
def test_every_first_phase_comes_from_one_shared_objective(monkeypatch, optimize, delta,
                                                           selector):
    # one world sample serves every k1, and each k1's S1 is the one a fresh
    # objective picks (the cells' scores are stubbed: only S1 is compared)
    monkeypatch.setattr(selectors, "RMAX_SAMPLES", 30)
    monkeypatch.setattr(selectors, "SPIC_PERMUTATIONS", 3)
    built = []
    draw = SigmaObjective._draw
    monkeypatch.setattr(SigmaObjective, "_draw", lambda self: built.append(self) or draw(self))
    picked = {}

    def stub(graph, cells, k, config, decay, selector2):
        picked.update((k1, s1) for k1, _, s1 in cells)
        return [SpreadEstimate(mean=-abs(k1 - 2) - d / 8, stderr=0.0, samples=1)
                for k1, d, _ in cells]

    monkeypatch.setattr(two_phase, "score_cells", stub)
    g = les_miserables_wc()
    mc = MonteCarloConfig(phase1_sims=40, master_seed=2)
    decay = DecayFunction(delta)
    SEARCHES[optimize](4, 2, cell_scorer(g, 4, mc, decay, selector), decay)
    assert len(built) == 1 and len(picked) > 2
    for k1, s1 in picked.items():
        fresh = SigmaObjective(g, mc, sims=mc.phase1_sims, decay=decay)
        want = SELECTORS[selector](g, k1, fresh, mc.master_seed).nodes if k1 else []
        assert s1 == want, k1


def test_sequential_d_short_circuits_without_decay():
    obj = CountingObjective(lambda k1, d: float(d))
    d, est = sequential_d_search(1, 4, cell_values(obj), NO_DECAY)
    assert d == 4 and est.mean == 4.0
    assert obj.calls == [(1, 4)]


def test_sequential_d_probes_until_patience():
    peaked = {0: 1.0, 1: 5.0, 2: 4.0, 3: 3.0, 4: 2.0}
    obj = CountingObjective(lambda k1, d: peaked[d])
    d, est = sequential_d_search(1, 4, cell_values(obj), DecayFunction(0.9))
    assert (d, est.mean) == (1, 5.0)
    assert [c[1] for c in obj.calls] == [0, 1, 2, 3]


def test_golden_section_recovers_synthetic_unimodal():
    for peak in (0, 3, 7, 10):
        k1, d, est = golden_section_k1(10, 0, cell_values(lambda k1, d, p=peak: -(k1 - p) ** 2),
                                       NO_DECAY)
        assert k1 == peak
        assert est.mean == 0.0


def test_golden_section_uses_fewer_probes_than_grid():
    obj = CountingObjective(lambda k1, d: -(k1 - 4) ** 2)
    golden_section_k1(10, 0, cell_values(obj), NO_DECAY)
    assert len(set(obj.calls)) < 11


def test_golden_section_matches_grid_on_exact_instances():
    for g in instance_family(5, seed=31, max_nodes=6, max_edges=9):
        orc = get_oracle(g)
        k = 2

        def exact(k1, d):
            if k1 == k:
                return orc.max_f(k, 0, 0)[0]
            return orc.max_f(k1, d, k - k1)[0]

        grid = exhaustive_grid(k, 2, cell_values(exact))
        _, _, est = golden_section_k1(k, 2, cell_values(exact), NO_DECAY)
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
