from pathlib import Path

import numpy as np
import pytest

from conftest import instance_family
from twophase_im import diffusion, selectors, two_phase
from twophase_im.diffusion import (
    BATCH_BYTES,
    BudgetError,
    DecayFunction,
    MonteCarloConfig,
    estimate_spread,
    estimate_spreads,
)
from twophase_im.graph import RawEdgeList, build_graph, load_graph
from twophase_im.instances import les_miserables_wc
from twophase_im.selectors import discount_state, select_discount
from twophase_im.two_phase import (
    TwoPhasePlan,
    cell_scorer,
    eval_h,
    run_two_phase,
    score_cells,
    select_phase1,
)

DATA = Path(__file__).parent / "data"


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


# example1's cascades end by step 2, so d = 9 starts the second phase after
# every first phase has ended
@pytest.mark.parametrize("graph, k1, k2, d", [
    ("example1", 1, 1, 0), ("example1", 1, 1, 1), ("example1", 1, 1, 9),
    ("example1", 2, 0, 2), ("family8", 2, 1, 1)],
    ids=["example1-d0", "example1-d1", "example1-past-end", "example1-k2zero", "family8"])
def test_progression_sums_to_spread_mean(example1, graph, k1, k2, d):
    g = example1 if graph == "example1" else load_graph(DATA / "family8.tpim")
    cfg = MonteCarloConfig(single_phase_sims=2000, phase1_sims=400, phase2_sims=100,
                           master_seed=6)
    plan = TwoPhasePlan(k1=k1, k2=k2, d=d, selector="gdd")
    result, _ = run_two_phase(g, plan, cfg)
    assert result.progression.sum() == pytest.approx(result.spread.mean, abs=1e-9)
    assert result.progression[-1] != 0
    assert len(result.realized_s2_examples) == (5 if k2 else 0)


def test_a_plan_without_a_second_phase_is_single_phase_at_any_delay():
    # score_cells scores a k1 = k cell as single-phase whatever its d, and
    # run_two_phase must give the same estimate
    g = les_miserables_wc()
    cfg = MonteCarloConfig(single_phase_sims=400, phase1_sims=40, phase2_sims=10,
                           master_seed=2)
    late, s1 = run_two_phase(g, TwoPhasePlan(k1=3, k2=0, d=2), cfg)
    now, _ = run_two_phase(g, TwoPhasePlan(k1=3, k2=0, d=0), cfg)
    assert late.spread == now.spread == score_cells(g, [(3, 2, s1)], 3, cfg)[0]
    assert late.spread.samples == 400
    assert np.array_equal(late.progression, now.progression)
    assert late.realized_s2_examples == []


@pytest.mark.parametrize("graph", ["lesmis", "example1"])
def test_every_entry_point_values_a_plan_without_a_second_phase_alike(example1, graph):
    # eval_h at k2 = 0, the k1 = k cell of score_cells, a fixed plan with
    # k2 = 0 and the plain estimate all give the single-phase estimate, at
    # d = 0, at a delay inside the cascades and at d = n, past their end
    g = les_miserables_wc() if graph == "lesmis" else example1
    cfg = MonteCarloConfig(single_phase_sims=400, phase1_sims=40, phase2_sims=5,
                           master_seed=3)
    for d in (0, 2, g.n):
        result, s1 = run_two_phase(g, TwoPhasePlan(k1=2, k2=0, d=d), cfg)
        [(want, _)] = estimate_spreads(g, [s1], cfg)
        assert eval_h(g, s1, d, 0, cfg) == want
        assert score_cells(g, [(2, d, s1)], 2, cfg) == [want]
        assert result.spread == want
        assert want.samples == 400


def test_single_phase_cells_alone_make_no_nested_run(monkeypatch):
    # phase2_sims x n past BATCH_BYTES refuses any two-phase cell, but a
    # call of k1 = k cells alone never reaches the nested sampler
    g = les_miserables_wc()
    cfg = MonteCarloConfig(single_phase_sims=300, phase1_sims=10,
                           phase2_sims=BATCH_BYTES // (4 * g.n) + 1, master_seed=5)
    with pytest.raises(BudgetError):
        score_cells(g, [(2, 1, [11, 48])], 3, cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("nested run")

    monkeypatch.setattr(two_phase, "nested_spreads", refuse)
    sets = [[11, 48, 0], [26, 11, 3], [1, 2, 3]]
    cells = [(3, d, s1) for d, s1 in zip((0, 4, g.n), sets)]
    assert score_cells(g, cells, 3, cfg) == [est for est, _ in estimate_spreads(g, sets, cfg)]


@pytest.mark.parametrize("selector2", ["greedy", "rmax", "face"])
def test_objective_second_phase_picks_on_the_decay(selector2):
    # p = 1 everywhere: S1 = {s} reaches nothing, a heads a 4-node chain and b
    # a 3-leaf star. Both reach 4 nodes, but at delta = 0.1 and d = 0 the
    # star is worth 1.3 and the chain 1.111
    pairs = [("s", "s", 1.0), ("a", "x1", 1.0), ("x1", "x2", 1.0), ("x2", "x3", 1.0),
             ("b", "l1", 1.0), ("b", "l2", 1.0), ("b", "l3", 1.0)]
    with pytest.warns(UserWarning, match="self-loop"):   # the loop keeps s a node
        g = build_graph(RawEdgeList(directed=True, pairs=pairs))
    cfg = MonteCarloConfig(phase1_sims=4, phase2_sims=3, master_seed=0)
    [(est, _, examples)] = two_phase._nested_run(g, [[0]], [0], [1], cfg, DecayFunction(0.1),
                                                 selector2, collect_examples=2)
    assert examples == [[g.label_to_id["b"]]] * 2
    assert est.mean == pytest.approx(2.3)


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


def test_farsighted_plan_without_a_second_phase_picks_on_the_spread(monkeypatch):
    # with k2 = 0 there is no second phase to look ahead to; each candidate
    # was once scored by a nested eval_h whose second phase picked nothing
    g = les_miserables_wc()
    cfg = MonteCarloConfig(single_phase_sims=300, phase1_sims=200, phase2_sims=10,
                           master_seed=0)
    myopic = run_two_phase(g, TwoPhasePlan(k1=2, k2=0, d=2, selector="greedy"), cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("a plan with k2 = 0 must not score a nested run")

    monkeypatch.setattr(two_phase, "eval_h", refuse)
    far = run_two_phase(g, TwoPhasePlan(k1=2, k2=0, d=2, mode="farsighted",
                                        selector="greedy"), cfg)
    assert far[1] == myopic[1]
    assert far[0].spread == myopic[0].spread


def test_a_cell_outside_its_budget_is_refused(example1):
    # k1 = -1 was once scored as a plan with 3 second-phase seeds on a budget
    # of 2, and k1 = 3 (or k2 = -1) as one whose second phase picks nothing
    cfg = MonteCarloConfig(single_phase_sims=100, phase1_sims=50, phase2_sims=5, master_seed=1)
    for k1 in (-1, 3):
        with pytest.raises(ValueError, match=rf"k1 {k1} outside \[0, 2\]"):
            score_cells(example1, [(1, 1, [0]), (k1, 1, [0])], 2, cfg)
    with pytest.raises(ValueError, match="second-phase budget -1 is negative"):
        eval_h(example1, [0], 1, -1, cfg)


def _distances(n, live, sources, blocked):
    """BFS distances in the live graph from ``sources``, never entering a
    ``blocked`` node; -1 where unreached."""
    dist = np.full(n, -1)
    dist[sources] = 0
    frontier, t = list(sources), 0
    while frontier:
        t += 1
        nxt = [v for u in frontier for w, v in live if w == u]
        frontier = sorted({v for v in nxt if dist[v] < 0 and not blocked[v]})
        dist[frontier] = t
    return dist


def _exact_plan_values(graph, s1, ds, k2, kind, decays):
    """The exact value, per delay and decay, of the two-phase plan (S1, d,
    k2) with an SD, WD or GDD second phase, by enumerating the live graphs.
    In live graph x the nodes within distance d - 1 of S1 are already active
    and those at d recent; the second phase is the ``discount_state`` +
    ``select_discount`` pick on that observation, and a node the phase-2
    cascade reaches is worth delta ** (d + its distance from recent + S2
    avoiding the already-active nodes). Phase 2 tests only the edges out of
    nodes phase 1 did not, so one live graph serves both phases."""
    n, edges = graph.n, graph.edges()
    lives, probs = [], []
    for x in range(1 << len(edges)):
        on = [x >> j & 1 for j in range(len(edges))]
        lives.append([(u, v) for (u, v, _), b in zip(edges, on) if b])
        probs.append(np.prod([p if b else 1 - p for (_, _, p), b in zip(edges, on)]))
    first = [_distances(n, live, s1, np.zeros(n, bool)) for live in lives]
    values = {}
    for d in ds:
        already = np.array([(t >= 0) & (t < d) for t in first])
        recent = np.array([t == d for t in first])
        budgets = np.minimum(k2, n - already.sum(axis=1) - recent.sum(axis=1))
        state = discount_state(graph, kind, removed=already, preselected=recent)
        select_discount(graph, state, budgets)
        starts = state.taken & ~already | recent
        for decay in decays:
            total = 0.0
            for x, live in enumerate(lives):
                second = _distances(n, live, np.flatnonzero(starts[x]).tolist(), already[x])
                times = np.where(already[x], first[x], np.where(second >= 0, second + d, -1))
                total += probs[x] * float(decay.values(times))
            values[d, decay.delta] = total
    return values


def test_two_phase_estimates_agree_with_exact_plan_values():
    # the nested estimate of an SD/WD/GDD plan against its exact value, under
    # the MC-vs-exact rule of acceptance criterion 3, at delta 1 and 0.5
    decays, ds, z = [DecayFunction(1.0), DecayFunction(0.5)], (0, 1, 2), []
    for j, g in enumerate(instance_family(8, seed=77, max_edges=10)):
        s1 = selectors.select_gdd(g, 1).nodes
        cfg = MonteCarloConfig(phase1_sims=4000, phase2_sims=4, master_seed=j)
        for kind in ("sd", "wd", "gdd"):
            exact = _exact_plan_values(g, s1, ds, 1, kind, decays)
            for decay in decays:
                got = score_cells(g, [(1, d, s1) for d in ds], 2, cfg, decay, kind)
                for d, est in zip(ds, got):
                    gap = est.mean - exact[d, decay.delta]
                    assert abs(gap) <= max(3 * est.stderr, 0.01 * g.n), (j, kind, d, decay)
                    if est.stderr > 0:
                        z.append(gap / est.stderr)
    z = np.array(z)
    print(f"{len(z)} plans: z mean {z.mean():.2f}, sd {z.std():.2f}, "
          f"max |z| {abs(z).max():.2f}")


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
    # k1 < k at every delay, so one S1 at several delays; the cells are not
    # in order of delay, and d = n is past the end of every cascade. By
    # default a group's rows straddle delays; 100 cells a group splits
    # every cascade into one or two outer replicates
    if cells_per_group is not None:
        monkeypatch.setattr(diffusion, "GROUP_CELLS", cells_per_group)
    monkeypatch.setattr(selectors, "RMAX_SAMPLES", 20)
    for graph, k, d_max in ((example1, 3, 2), (les_miserables_wc(), 2, 2)):
        mc = MonteCarloConfig(single_phase_sims=300, phase1_sims=12, phase2_sims=6,
                              master_seed=k)
        cells, want = [], []
        for k1 in range(k + 1):
            for d in ([0] if k1 == k else (d_max, 0, graph.n, 1)):
                plan = TwoPhasePlan(k1=k1, k2=k - k1, d=d, selector=selector)
                result, s1 = run_two_phase(graph, plan, mc, decay)
                cells.append((k1, d, s1))
                want.append(result.spread)
        cells.append((k, d_max, cells[-1][2]))   # k1 = k is single-phase at any d
        want.append(want[-1])
        assert score_cells(graph, cells, k, mc, decay, selector) == want


@pytest.mark.parametrize("d", [-1, -3])
def test_a_negative_delay_is_refused(example1, d):
    # before the check, d = -1 read every never-active node as recent
    cfg = MonteCarloConfig(single_phase_sims=100, phase1_sims=50, phase2_sims=5, master_seed=1)
    with pytest.raises(ValueError, match=f"delay {d} is negative"):
        score_cells(example1, [(1, 2, [0]), (1, d, [0])], 2, cfg)
    with pytest.raises(ValueError, match=f"delay {d} is negative"):
        cell_scorer(example1, 2, cfg)([(1, d)])
    with pytest.raises(ValueError, match=f"delay {d} is negative"):
        eval_h(example1, [0], d, 1, cfg)
    # a cell with no second phase is single-phase whatever its d
    [est] = score_cells(example1, [(2, d, [0, 1])], 2, cfg)
    assert est == score_cells(example1, [(2, 0, [0, 1])], 2, cfg)[0]
