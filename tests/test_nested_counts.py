"""The nested run's bookkeeping against the dense valuation it replaced.

``diffusion.nested_spreads`` observes and picks once per phase-1 group, in
slices of outer replicates, and counts each sample's value at delta = 1 and
every progression from its activations: the keys of each step of its
continuation and its outer replicate's already-active entries. The
reference below is the valuation it had before: one pick per group of
``GROUP_CELLS // (m2 * n)`` outer replicates, each group's (rows * m2, n)
continuation times valued by ``DecayFunction.values`` and counted by a pass
over every cell. Both must give the same estimates, progressions and
example second phases bit for bit (``==``)."""

import math

import numpy as np
import pytest

from conftest import instance_family
from twophase_im import diffusion, two_phase
from twophase_im.diffusion import (
    NEVER,
    NO_DECAY,
    TAG_PHASE1,
    TAG_PHASE2,
    DecayFunction,
    MonteCarloConfig,
)
from twophase_im.instances import example1_graph, les_miserables_wc
from twophase_im.two_phase import TwoPhasePlan, run_two_phase


def _dense_histogram_add(hist, times, owner):
    """hist, (sets, steps), plus the count of each activation step of the
    (rows, n) ``times``, those of row r counted in row ``owner[r]``; widened
    to fit the largest step."""
    for r, o in enumerate(owner.tolist()):
        counts = np.bincount(times[r][times[r] >= 0])
        if len(counts) > hist.shape[1]:
            hist = np.concatenate(
                (hist, np.zeros((len(hist), len(counts) - hist.shape[1]), dtype=hist.dtype)),
                axis=1)
        hist[o, :len(counts)] += counts
    return hist


def _dense_nested(graph, s1s, ds, k2s, config, decay, selector2, collect_examples):
    """The nested run valued over its dense continuation times: phase-1 rows
    in groups of ``GROUP_CELLS // (m2 * n)`` outer replicates (or one), one
    pick per group, then each group's continuation as one cascade, valued
    and counted over all of its (rows * m2, n) times."""
    n, m2, m1 = graph.n, config.phase2_sims, config.phase1_sims
    ds, k2s = np.asarray(ds, dtype=np.int32), np.asarray(k2s)
    phase2 = diffusion.stream_source(config.master_seed, TAG_PHASE2)
    vals = np.empty((len(s1s), m1))
    hist = np.zeros((len(s1s), 0), dtype=np.int64)
    examples = [[] for _ in s1s]
    for c, i, at in diffusion.replicate_rows(graph, s1s, m1, config.master_seed, TAG_PHASE1,
                                             m2 * n, ds):
        d = ds[c][:, None]
        already, recent = (at >= 0) & (at < d), at == d
        budgets = np.minimum(k2s[c], n - already.sum(axis=1) - recent.sum(axis=1))
        picked = two_phase._second_phase(graph, selector2, already, recent, budgets, config,
                                         decay)
        start = recent | picked
        times = np.where(start, d, np.where(already, at, NEVER)).repeat(m2, axis=0)
        coin = diffusion._block_coin(graph.p, n, range(0, len(at) * m2 + 1, m2),
                                     [phase2(j) for j in i.tolist()])
        diffusion._cascade(graph, times, np.flatnonzero(start.repeat(m2, axis=0)),
                           int(d.max()) + n, coin)
        for r in np.flatnonzero(i < collect_examples).tolist():
            examples[c[r]].append(np.flatnonzero(picked[r]).tolist())
        vals[c, i] = decay.values(times).reshape(len(at), m2).mean(axis=1)
        hist = _dense_histogram_add(hist, times, c.repeat(m2))
    estimates = diffusion._estimates(vals, m1 * m2)
    return [(est, diffusion._trim(h / (m1 * m2)), ex)
            for est, h, ex in zip(estimates, hist, examples)]


def _assert_same(graph, s1s, ds, k2s, config, decay, selector2="gdd"):
    got = two_phase._nested_run(graph, s1s, ds, k2s, config, decay, selector2,
                                collect_examples=3, progression=True)
    want = _dense_nested(graph, s1s, ds, k2s, config, decay, selector2, 3)
    assert len(got) == len(want)
    for (est, prog, ex), (want_est, want_prog, want_ex) in zip(got, want):
        assert est == want_est
        assert prog.tolist() == want_prog.tolist()
        assert ex == want_ex


DECAYS = [NO_DECAY, DecayFunction(0.7)]
CELLS = [pytest.param(100, id="cells100"),
         pytest.param(diffusion.GROUP_CELLS, id="default"),
         pytest.param(1 << 20, id="cells2^20")]


@pytest.mark.parametrize("cells", CELLS)
@pytest.mark.parametrize("decay", DECAYS, ids=["delta1", "delta0.7"])
def test_nested_lesmis_sets_at_mixed_delays_equal_the_dense_valuation(monkeypatch, cells,
                                                                      decay):
    # d = 0 observes the seeds alone, d = 80 is past the end of every
    # cascade on 77 nodes, and sets at delays 0, 1 and 3 share phase-1
    # cascades, so rows of the earlier delays ran past their own; the
    # empty set and k2 = 76 leave second phases short of nodes
    monkeypatch.setattr(diffusion, "GROUP_CELLS", cells)
    g = les_miserables_wc()
    sets = [[11], [0, 48], [26, 11], [], [11, 48, 55], [3]]
    ds = [3, 0, 1, 80, 1, 0]
    k2s = [2, 3, 1, 76, 2, 76]
    for m1, m2, seed in ((40, 6, 0), (9, 31, 1), (1, 3, 2)):
        cfg = MonteCarloConfig(phase1_sims=m1, phase2_sims=m2, master_seed=seed)
        _assert_same(g, sets, ds, k2s, cfg, decay)


@pytest.mark.parametrize("cells", CELLS)
@pytest.mark.parametrize("decay", DECAYS, ids=["delta1", "delta0.7"])
def test_nested_small_graphs_equal_the_dense_valuation(monkeypatch, cells, decay):
    # graphs of at most 8 nodes: d = 9 is past every cascade, and k2 = 6
    # runs short; SD and WD pick too
    monkeypatch.setattr(diffusion, "GROUP_CELLS", cells)
    for j, g in enumerate(instance_family(5, seed=28) + [example1_graph()]):
        cfg = MonteCarloConfig(phase1_sims=23, phase2_sims=5, master_seed=j)
        _assert_same(g, [[0], [0, 1], [], [1]], [1, 0, 2, 9], [1, 6, 2, 2], cfg, decay,
                     ("gdd", "sd", "wd")[j % 3])


def test_nested_greedy_second_phase_equals_the_dense_valuation(monkeypatch):
    # an objective second phase picks each row on its own residual graph
    monkeypatch.setattr(diffusion, "GROUP_CELLS", 100)
    for j, g in enumerate(instance_family(2, seed=29)):
        cfg = MonteCarloConfig(phase1_sims=6, phase2_sims=4, master_seed=j)
        _assert_same(g, [[0], [1]], [1, 0], [2, 1], cfg, DecayFunction(0.7), "greedy")


def _count_picks(monkeypatch):
    rows = []
    real = two_phase._second_phase

    def counted(graph, selector2, already, *args):
        rows.append(len(already))
        return real(graph, selector2, already, *args)

    monkeypatch.setattr(two_phase, "_second_phase", counted)
    return rows


def test_a_fixed_plan_picks_once_per_slice_of_outer_replicates(monkeypatch):
    # lesmis has m = 508 arcs, so a pick takes GROUP_CELLS // 508 = 129
    # outer replicates, where a continuation group takes 65536 // (50 * 77)
    # = 17: ceil(800 / 129) = 7 picks, not ceil(800 / 17) = 48
    rows = _count_picks(monkeypatch)
    g = les_miserables_wc()
    cfg = MonteCarloConfig(single_phase_sims=100, phase1_sims=800, phase2_sims=50,
                           master_seed=28)
    run_two_phase(g, TwoPhasePlan(k1=3, k2=3, d=2), cfg)
    assert g.m == 508
    assert rows == [129] * 6 + [800 - 6 * 129]
    assert len(rows) == math.ceil(800 / 129) == 7


def test_a_face_joint_sized_call_picks_no_more_often(monkeypatch):
    # a FACE-joint round scores many cells on a tenth of the replicates
    # (m1 = m2 = 2); the pick count must not pass the number of groups of
    # GROUP_CELLS // (m2 * n) outer replicates that one pick each took
    rows = _count_picks(monkeypatch)
    g = les_miserables_wc()
    cfg = MonteCarloConfig(phase1_sims=2, phase2_sims=2, master_seed=3)
    rng = np.random.default_rng(28)
    sets = [sorted(rng.choice(g.n, size=3, replace=False).tolist()) for _ in range(500)]
    ds = sorted(rng.integers(0, 7, size=len(sets)).tolist())
    two_phase._nested_run(g, sets, ds, [3] * len(sets), cfg, NO_DECAY, "gdd")
    groups = diffusion.replicate_rows(g, sets, 2, 3, TAG_PHASE1, 2 * g.n, np.array(ds))
    assert sum(rows) == 2 * len(sets)
    assert len(rows) <= sum(1 for _ in groups)
