"""The batched two-phase continuation against the per-replicate loop it
replaced, and the batched SD/WD/GDD selectors against the one-graph
selectors they replaced. Both are kept here as references: the new code
must equal them bit for bit (``==``, not a tolerance), because it does the
same float operations in the same order."""

import math

import numpy as np
import pytest

from conftest import chunk_batches, instance_family
from twophase_im import diffusion, two_phase
from twophase_im.diffusion import (
    NEVER,
    NO_DECAY,
    TAG_PHASE1,
    TAG_PHASE2,
    TAG_PHASE2_SELECT,
    TAG_SINGLE,
    DecayFunction,
    MonteCarloConfig,
    SpreadEstimate,
    simulate_batch,
    stream,
)
from twophase_im.graph import RawEdgeList, build_graph, residual_graph
from twophase_im.instances import les_miserables_wc
from twophase_im.selectors import (
    SigmaObjective,
    discount_state,
    select_discount,
    select_gdd,
    select_greedy,
    select_sd,
    select_wd,
)

# -- the selectors as they were: one graph, no rows -------------------------


def _old_discount(graph, k, weighted, preselected=()):
    score = (np.bincount(graph.src, weights=graph.p, minlength=graph.n) if weighted
             else graph.out_degrees).astype(float)
    removed = np.zeros(graph.n, dtype=bool)
    in_indptr, in_src, in_p = graph.in_index

    def take(u):
        removed[u] = True
        a, b = in_indptr[u], in_indptr[u + 1]
        z = in_src[a:b]
        live = ~removed[z]
        score[z[live]] -= in_p[a:b][live] if weighted else 1.0

    for u in preselected:
        take(u)
    picked = []
    for _ in range(k):
        best = int(np.argmax(np.where(removed, -np.inf, score)))
        picked.append(best)
        take(best)
    return picked


def _old_gdd(graph, k, preselected=()):
    survival = np.ones(graph.n)
    outsum = np.bincount(graph.src, weights=graph.p, minlength=graph.n).astype(float)
    selected = np.zeros(graph.n, dtype=bool)
    in_indptr, in_src, in_p = graph.in_index

    def apply(u):
        selected[u] = True
        a, b = graph.indptr[u], graph.indptr[u + 1]
        survival[graph.dst[a:b]] *= 1.0 - graph.p[a:b]
        ia, ib = in_indptr[u], in_indptr[u + 1]
        outsum[in_src[ia:ib]] -= in_p[ia:ib]

    for u in sorted(set(int(u) for u in preselected)):
        apply(u)
    picked = []
    for _ in range(k):
        w = survival * (1.0 + outsum)
        w[selected] = -np.inf
        best = int(np.argmax(w))
        picked.append(best)
        apply(best)
    return picked


def _old_select(graph, kind, k, preselected=()):
    if kind == "gdd":
        return _old_gdd(graph, k, preselected)
    return _old_discount(graph, k, kind == "wd", preselected)


def _graphs():
    # a uniform cycle and two identical stars: every pick is decided by ties
    cycle = build_graph(RawEdgeList(directed=False, pairs=[
        (str(i), str((i + 1) % 6), 0.5) for i in range(6)]))
    stars = build_graph(RawEdgeList(directed=True, pairs=[
        (hub, f"{hub}{i}", 0.3) for hub in "ab" for i in range(3)]))
    return instance_family(30, seed=61) + [les_miserables_wc(), cycle, stars]


def test_one_row_selectors_pick_what_the_old_selectors_picked():
    rng = np.random.default_rng(62)
    cases = 0
    for g in _graphs():
        assert select_sd(g, g.n).nodes == _old_discount(g, g.n, False)
        assert select_wd(g, g.n).nodes == _old_discount(g, g.n, True)
        assert select_gdd(g, g.n).nodes == _old_gdd(g, g.n)
        for size in (1, 3):
            pre = sorted(int(v) for v in rng.choice(g.n, size=min(size, g.n - 1),
                                                    replace=False))
            k = g.n - len(pre)
            mask = np.zeros((1, g.n), dtype=bool)
            mask[0, pre] = True
            for kind in ("sd", "wd", "gdd"):
                state = discount_state(g, kind, preselected=mask)
                got = select_discount(g, state, [k])[0].tolist()
                assert got == _old_select(g, kind, k, pre)
                cases += 1
    assert cases == 198


def test_batched_rows_pick_what_the_old_selectors_picked_on_residual_graphs():
    rng = np.random.default_rng(63)
    for g in _graphs():
        rows = 7
        draw = rng.random((rows, g.n))
        removed, recent = draw < 0.3, (draw >= 0.3) & (draw < 0.45)
        budgets = np.minimum(rng.integers(0, 5, rows),
                             g.n - removed.sum(axis=1) - recent.sum(axis=1))
        for kind in ("sd", "wd", "gdd"):
            state = discount_state(g, kind, removed=removed, preselected=recent)
            got = select_discount(g, state, budgets)
            for r in range(rows):
                res, kept = residual_graph(g, np.flatnonzero(removed[r]))
                pre = np.searchsorted(kept, np.flatnonzero(recent[r])).tolist()
                want = kept[_old_select(res, kind, int(budgets[r]), pre)].tolist()
                assert got[r, :budgets[r]].tolist() == want, (kind, r)
                gained = state.taken[r] & ~removed[r] & ~recent[r]
                assert np.flatnonzero(gained).tolist() == sorted(want)


# -- the nested run as it was: one residual graph per outer replicate --------


def _histogram_add(hist, steps):
    """hist plus the count of each step value, grown to fit the largest."""
    counts = np.bincount(steps)
    if len(counts) > len(hist):
        hist = np.concatenate([hist, np.zeros(len(counts) - len(hist), dtype=hist.dtype)])
    hist[:len(counts)] += counts
    return hist


class _LoopNested:
    """The nested two-phase estimate as one Python pass per outer replicate:
    cut the already-active nodes out with ``residual_graph``, select on the
    copy with the one-graph selector, and simulate m2 fresh replicates of it
    with ``stream(master_seed, TAG_PHASE2, i)``. A greedy second phase
    selects on an objective of ``config.phase2_sims`` worlds."""

    def __init__(self, selector2):
        self.selector2 = selector2

    def select(self, res, recent_local, k2_eff, config):
        if self.selector2 != "greedy":
            return _old_select(res, self.selector2, k2_eff, recent_local)
        sigma = SigmaObjective(res, MonteCarloConfig(master_seed=config.master_seed),
                               sims=config.phase2_sims, tag=TAG_PHASE2_SELECT)
        base = frozenset(recent_local)
        return select_greedy(res, k2_eff, lambda s: sigma(base | s)).nodes

    def run(self, graph, s1, d, k2, config, decay=NO_DECAY, collect_examples=5):
        s1 = sorted(set(int(v) for v in s1))
        m1, m2 = config.phase1_sims, config.phase2_sims
        outer_means = np.empty(m1)
        phase1_hist = np.zeros(0, dtype=np.int64)
        phase2_hist = np.zeros(0, dtype=np.int64)
        s2_examples = []
        rows = (row for times1 in chunk_batches(graph, s1, m1, config.master_seed, TAG_PHASE1,
                                                stop_at=d) for row in times1)
        for i, at in enumerate(rows):
            already_mask = (at >= 0) & (at < d)
            res, kept = residual_graph(graph, np.flatnonzero(already_mask))
            recent_local = np.searchsorted(kept, np.flatnonzero(at == d)).tolist()
            k2_eff = min(k2, res.n - len(recent_local))
            s2_local = (self.select(res, recent_local, k2_eff, config)
                        if k2_eff > 0 else [])
            if len(s2_examples) < collect_examples:
                s2_examples.append(sorted(int(kept[v]) for v in s2_local))
            times = simulate_batch(res, recent_local + list(s2_local),
                                   stream(config.master_seed, TAG_PHASE2, i), m2)
            base = float(decay.values(np.where(already_mask, at, NEVER)))
            absolute = np.where(times >= 0, times + d, NEVER)   # steps on the parent's clock
            outer_means[i] = (base + decay.values(absolute)).mean()
            phase1_hist = _histogram_add(phase1_hist, at[already_mask])
            phase2_hist = _histogram_add(phase2_hist, times[times >= 0])
        mean = float(outer_means.mean())
        stderr = float(outer_means.std(ddof=1) / math.sqrt(m1)) if m1 > 1 else 0.0
        prog = np.zeros(max(len(phase1_hist), d + len(phase2_hist)))
        prog[:len(phase1_hist)] += phase1_hist / m1
        prog[d:d + len(phase2_hist)] += phase2_hist / (m1 * m2)
        est = SpreadEstimate(mean=mean, stderr=stderr, samples=m1 * m2)
        return est, diffusion._trim(prog), s2_examples


def _assert_same(graph, s1, d, k2, config, decay, selector2):
    [got] = two_phase._nested_run(graph, [s1], d, [k2], config, decay, selector2,
                                  collect_examples=5, progression=True)
    want = _LoopNested(selector2).run(graph, s1, d, k2, config, decay)
    assert got[0].mean == want[0].mean
    assert got[0].stderr == want[0].stderr
    assert got[0].samples == want[0].samples
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


DECAYS = [NO_DECAY, DecayFunction(0.8)]


@pytest.mark.parametrize("decay", DECAYS, ids=["delta1", "delta0.8"])
@pytest.mark.parametrize("selector2", ["sd", "wd", "gdd"])
def test_continuation_equals_residual_loop_on_the_family(selector2, decay):
    # d = 9 is past the end of every cascade on these graphs of at most 8
    # nodes, and k2 = 6 leaves some second phases short of nodes
    for j, g in enumerate(instance_family(6, seed=64)):
        for s1, d, k2 in (([0], 1, 1), ([0, 1], 2, 6), ([], 0, 2), ([1], 9, 2)):
            cfg = MonteCarloConfig(phase1_sims=13, phase2_sims=7, master_seed=j)
            _assert_same(g, s1, d, k2, cfg, decay, selector2)


@pytest.mark.parametrize("decay", DECAYS, ids=["delta1", "delta0.8"])
@pytest.mark.parametrize("selector2", ["sd", "wd", "gdd"])
def test_continuation_equals_residual_loop_on_lesmis(selector2, decay):
    g = les_miserables_wc()
    for s1, d, k2, m1, m2, seed in (([11, 48], 1, 3, 40, 20, 0), ([11], 2, 2, 9, 50, 3),
                                     ([0, 11, 48], 0, 2, 5, 3, 1), ([26], 30, 1, 6, 4, 2)):
        cfg = MonteCarloConfig(phase1_sims=m1, phase2_sims=m2, master_seed=seed)
        _assert_same(g, s1, d, k2, cfg, decay, selector2)


@pytest.mark.parametrize("decay", DECAYS, ids=["delta1", "delta0.8"])
def test_objective_second_phase_equals_residual_loop(decay):
    for j, g in enumerate(instance_family(3, seed=65)):
        cfg = MonteCarloConfig(phase1_sims=8, phase2_sims=5, master_seed=j)
        _assert_same(g, [0], 1, 2, cfg, decay, "greedy")
    cfg = MonteCarloConfig(phase1_sims=3, phase2_sims=6, master_seed=4)
    _assert_same(les_miserables_wc(), [11], 1, 1, cfg, decay, "greedy")


@pytest.mark.parametrize("decay", DECAYS, ids=["delta1", "delta0.8"])
def test_progression_is_counted_only_when_asked_for(decay):
    # the histograms change no estimate and no example second phase
    g = les_miserables_wc()
    sets, k2s = [[11], [0, 48], [26]], [2, 1, 3]
    for selector2, m1 in (("gdd", 40), ("greedy", 6)):
        cfg = MonteCarloConfig(phase1_sims=m1, phase2_sims=8, master_seed=2)
        counted = two_phase._nested_run(g, sets, 2, k2s, cfg, decay, selector2,
                                        collect_examples=5, progression=True)
        plain = two_phase._nested_run(g, sets, 2, k2s, cfg, decay, selector2,
                                      collect_examples=5)
        assert [est for est, _, _ in counted] == [est for est, _, _ in plain]
        assert [ex for _, _, ex in counted] == [ex for _, _, ex in plain]
        assert all(prog is not None for _, prog, _ in counted)
        assert all(prog is None for _, prog, _ in plain)


def test_second_phase_shortfall_equals_residual_loop():
    # with p = 1 the first phase saturates the chain by step 2
    g = build_graph(RawEdgeList(directed=True, pairs=[("a", "b", 1.0), ("b", "c", 1.0),
                                                      ("c", "d", 0.5)]))
    for d in (1, 2, 3):
        cfg = MonteCarloConfig(phase1_sims=20, phase2_sims=4, master_seed=d)
        for selector2 in ("sd", "gdd", "greedy"):
            _assert_same(g, [0], d, 3, cfg, DecayFunction(0.8), selector2)


@pytest.mark.parametrize("cells, chunk", [(3 * 7 * 8, 4096), (2 * 7 * 8, 5), (1, 4),
                                         (5 * 7 * 8, 2)])
def test_groups_that_do_not_divide_the_outer_replicates(monkeypatch, cells, chunk):
    # groups of 3, 2 and 1 outer replicates over m1 = 17, within phase-1
    # chunks of every size; the chunk size changes the phase-1 streams,
    # which both sides share. At 5 rows a group, two chunks of 2 share a
    # cascade, and the cascades end inside the set
    monkeypatch.setattr(diffusion, "GROUP_CELLS", cells)
    monkeypatch.setattr(diffusion, "CHUNK", chunk)
    for g in instance_family(3, seed=66):
        if g.n != 8:
            continue
        cfg = MonteCarloConfig(phase1_sims=17, phase2_sims=7, master_seed=5)
        for decay in DECAYS:
            _assert_same(g, [0, 2], 1, 2, cfg, decay, "gdd")


def test_heuristic_second_phase_simulates_only_phase_one(monkeypatch):
    calls = []
    original = diffusion.simulate_blocks

    def counted(graph, blocks, *args, **kwargs):
        calls.extend(rows for _, rows, _ in blocks)
        return original(graph, blocks, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("residual_graph called")

    monkeypatch.setattr(diffusion, "simulate_blocks", counted)
    monkeypatch.setattr(two_phase, "residual_graph", refuse)
    monkeypatch.setattr(diffusion, "CHUNK", 16)
    cfg = MonteCarloConfig(phase1_sims=40, phase2_sims=30, master_seed=1)
    for selector2 in ("sd", "wd", "gdd"):
        calls.clear()
        two_phase._nested_run(les_miserables_wc(), [[11]], 2, [2], cfg, NO_DECAY, selector2)
        assert calls == [16, 16, 8]   # the phase-1 chunks' rows, nothing per outer replicate


def test_a_multi_set_score_cells_call_hashes_each_stream_once(monkeypatch):
    # three two-phase sets at one d read phase-1 chunk 0 and the phase-2
    # streams of the same 20 outer replicates, and two single-phase sets
    # read chunk 0 of the single-phase tag: one seed hash each
    hashed = []
    real = np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence",
                        lambda *a, **kw: hashed.append(kw["spawn_key"]) or real(*a, **kw))
    cfg = MonteCarloConfig(single_phase_sims=30, phase1_sims=20, phase2_sims=10, master_seed=4)
    cells = [(2, 3, (0, 11)), (3, 3, (1, 5, 48)), (1, 3, (7,)),
             (6, 0, (0, 1, 2, 3, 4, 5)), (6, 0, (10, 11, 12, 13, 14, 15))]
    estimates = two_phase.score_cells(les_miserables_wc(), cells, 6, cfg)
    assert len(estimates) == len(cells)
    assert sorted(hashed) == sorted({(TAG_SINGLE, 0), (TAG_PHASE1, 0)}
                                    | {(TAG_PHASE2, i) for i in range(20)})
