import numpy as np
import pytest

from conftest import instance_family
from twophase_im import diffusion, selectors, two_phase
from twophase_im.diffusion import DecayFunction, MonteCarloConfig, estimate_spread
from twophase_im.graph import RawEdgeList, build_graph
from twophase_im.instances import les_miserables_wc
from twophase_im.two_phase import (
    TwoPhasePlan,
    eval_h,
    run_two_phase,
    score_cells,
    select_phase1,
)


def test_plan_validation():
    with pytest.raises(ValueError):
        TwoPhasePlan(k1=1, k2=1, d=0, mode="psychic")
    with pytest.raises(ValueError):
        TwoPhasePlan(k1=1, k2=1, d=0, selector="unknown")
    with pytest.raises(ValueError):
        TwoPhasePlan(k1=-1, k2=1, d=0)
    plan = TwoPhasePlan(k1=2, k2=1, d=3, selector="greedy")
    assert plan.selector == "greedy" and plan.k == 3


def test_eval_h_matches_exact_objective_on_example1(example1):
    cfg = MonteCarloConfig(phase1_sims=3_000, phase2_sims=200, master_seed=3)
    est = eval_h(example1, [0], 1, 1, cfg)
    assert abs(est.mean - 3.8) <= 3 * est.stderr + 1e-6
    assert est.samples == 3_000 * 200


def test_greedy_second_phase_matches_exact_objective_on_example1(example1):
    cfg = MonteCarloConfig(phase1_sims=800, phase2_sims=200, master_seed=3)
    [est] = score_cells(example1, [(1, 1, [0])], 2, cfg, selector2="greedy")
    assert abs(est.mean - 3.8) <= 3 * est.stderr + 0.02


def test_eval_h_deterministic_per_seed(example1):
    cfg = MonteCarloConfig(phase1_sims=50, phase2_sims=50, master_seed=11)
    assert eval_h(example1, [0], 1, 1, cfg).mean == eval_h(example1, [0], 1, 1, cfg).mean


def test_eval_h_zero_decay_counts_only_first_step(example1):
    cfg = MonteCarloConfig(phase1_sims=100, phase2_sims=20, master_seed=0)
    est = eval_h(example1, [0], 1, 1, cfg, DecayFunction(0.0))
    assert est.mean == pytest.approx(1.0)


def test_single_phase_reduction_is_bit_exact(example1):
    cfg = MonteCarloConfig(single_phase_sims=5_000, master_seed=4)
    plan = TwoPhasePlan(k1=1, k2=0, d=0, selector="gdd")
    result, s1 = run_two_phase(example1, plan, cfg)
    direct = estimate_spread(example1, s1, cfg)
    assert result.spread.mean == direct.mean
    assert result.spread.stderr == direct.stderr
    assert s1 == [1]


def test_progression_sums_to_spread_mean(example1):
    cfg = MonteCarloConfig(phase1_sims=400, phase2_sims=100, master_seed=6)
    plan = TwoPhasePlan(k1=1, k2=1, d=1, selector="gdd")
    result, _ = run_two_phase(example1, plan, cfg)
    assert result.progression.sum() == pytest.approx(result.spread.mean, abs=1e-9)
    assert len(result.realized_s2_examples) == 5


def test_second_phase_budget_shortfall_is_handled():
    # with p = 1 everywhere the first phase saturates the graph by step 2
    pairs = [("a", "b", 1.0), ("b", "c", 1.0)]
    g = build_graph(RawEdgeList(directed=True, pairs=pairs))
    cfg = MonteCarloConfig(phase1_sims=20, phase2_sims=20, master_seed=0)
    est = eval_h(g, [0], 2, 2, cfg)
    assert est.mean == pytest.approx(3.0)


def test_myopic_and_farsighted_pipelines_run(example1):
    # a greedy first phase, then a GDD second phase (``_second_phase``)
    cfg = MonteCarloConfig(phase1_sims=60, phase2_sims=40, master_seed=1)
    for mode in ("myopic", "farsighted"):
        plan = TwoPhasePlan(k1=1, k2=1, d=1, mode=mode, selector="greedy")
        s1 = select_phase1(example1, plan, cfg)
        [spread] = score_cells(example1, [(1, 1, s1)], 2, cfg, selector2="gdd")
        assert len(s1) == 1
        assert spread.mean > 0


def test_objective_second_phase_selectors_run(example1):
    cfg = MonteCarloConfig(phase1_sims=20, phase2_sims=30, master_seed=2)
    s1 = select_phase1(example1, TwoPhasePlan(k1=1, k2=1, d=1, selector="gdd"), cfg)
    for sel2 in ("greedy", "rmax", "sd", "wd"):
        [spread] = score_cells(example1, [(1, 1, s1)], 2, cfg, selector2=sel2)
        assert spread.mean > 1.0


def test_select_phase1_heuristics(example1):
    cfg = MonteCarloConfig(master_seed=0)
    for sel in ("sd", "wd", "gdd"):
        plan = TwoPhasePlan(k1=1, k2=1, d=1, selector=sel)
        assert select_phase1(example1, plan, cfg) == [1]
    plan = TwoPhasePlan(k1=0, k2=2, d=1)
    assert select_phase1(example1, plan, cfg) == []


@pytest.mark.parametrize("mode", ["myopic", "farsighted"])
def test_discount_first_phase_never_scores_a_set(example1, monkeypatch, mode):
    # select_phase1 builds its objective for every selector; both objectives
    # are lazy, so SD, WD and GDD draw nothing
    def refuse(*args, **kwargs):
        raise AssertionError("SD, WD and GDD must not call the objective")

    monkeypatch.setattr(selectors.SigmaObjective, "__call__", refuse)
    monkeypatch.setattr(two_phase, "eval_h", refuse)
    for sel in ("sd", "wd", "gdd"):
        plan = TwoPhasePlan(k1=1, k2=1, d=1, mode=mode, selector=sel)
        assert select_phase1(example1, plan, MonteCarloConfig(master_seed=0)) == [1]


def test_eval_h_temporal_consistency_with_trivial_decay():
    for g in instance_family(3, seed=21, max_nodes=6, max_edges=8):
        cfg = MonteCarloConfig(phase1_sims=40, phase2_sims=30, master_seed=5)
        plain = eval_h(g, [0], 1, 1, cfg)
        trivial = eval_h(g, [0], 1, 1, cfg, DecayFunction(1.0))
        assert plain.mean == trivial.mean


@pytest.mark.parametrize("cells_per_group", [None, 100], ids=["default", "small-groups"])
@pytest.mark.parametrize("decay", [DecayFunction(1.0), DecayFunction(0.8)],
                         ids=["delta1", "delta0.8"])
@pytest.mark.parametrize("selector", ["sd", "gdd", "greedy", "rmax"])
def test_score_cells_equals_run_two_phase_per_cell(monkeypatch, example1, selector, decay,
                                                   cells_per_group):
    # every k1 from 0 (no first phase) to k (the single-phase arm), each
    # k1 < k at every delay; 100 cells a group splits every cascade into
    # one or two outer replicates
    if cells_per_group is not None:
        monkeypatch.setattr(diffusion, "GROUP_CELLS", cells_per_group)
    monkeypatch.setattr(selectors, "RMAX_SAMPLES", 20)
    for graph, k, d_max in ((example1, 3, 2), (les_miserables_wc(), 2, 2)):
        mc = MonteCarloConfig(single_phase_sims=300, phase1_sims=12, phase2_sims=6,
                              master_seed=k)
        cells, want = [], []
        for k1 in range(k + 1):
            for d in ([0] if k1 == k else range(d_max + 1)):
                plan = TwoPhasePlan(k1=k1, k2=k - k1, d=d, selector=selector)
                result, s1 = run_two_phase(graph, plan, mc, decay)
                cells.append((k1, d, s1))
                want.append(result.spread)
        cells.append((k, d_max, cells[-1][2]))   # k1 = k is single-phase at any d
        want.append(want[-1])
        assert score_cells(graph, cells, k, mc, decay, selector) == want
