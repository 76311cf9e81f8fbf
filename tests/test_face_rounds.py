"""FACE-joint rounds scored in one batch against the per-candidate loop they
replaced. ``_LoopFace`` is the cross-entropy loop as it was, scoring each
draw as it is drawn with one objective call per new candidate, and the
per-candidate objective is ``estimate_spread`` (d = 0) or ``eval_h``. The
batched search and its joint scorer, ``score_cells`` on
``farsighted_config(config)``, must equal them bit for bit (``==``, not a
tolerance): every candidate reads the same streams either way."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import chunk_batches, estimate_1d, instance_family
from twophase_im import diffusion
from twophase_im.diffusion import (
    NO_DECAY,
    TAG_FACE,
    TAG_PHASE1,
    TAG_PROBE,
    TAG_SINGLE,
    DecayFunction,
    MonteCarloConfig,
    estimate_spread,
    estimate_spreads,
    replicate_rows,
    stream,
)
from twophase_im.face import (
    ALPHA,
    EXPLORATION_FLOOR,
    MAX_ITERATIONS,
    CeIterationLog,
    CeSample,
    _better,
    _clamp_redistribute,
    _normalized,
    _reliable,
    _sample_set,
    _weighted_refit,
    face_joint_optimize,
    face_select,
)
from twophase_im.instances import les_miserables_wc
from twophase_im.schedule import D_MARGIN, estimate_D
from twophase_im.selectors import SigmaObjective, select_wd
from twophase_im.two_phase import eval_h, farsighted_config, score_cells

DECAYS = [NO_DECAY, DecayFunction(0.8)]


def _ce_sizes(n):
    """The CE round sizes on n nodes: n first draws, at most 20n, and the
    ceil(n / 4) best as elites."""
    return SimpleNamespace(n_min=n, n_max=20 * n, n_elite=math.ceil(n / 4))


class _LoopFace:
    """The CE loop as it was: ``draw(q)`` draws and scores one sample."""

    @staticmethod
    def cross_entropy(q, config, draw, refit=None):
        best, prev_threshold, log = None, None, []
        for it in range(MAX_ITERATIONS):
            draws, samples = config.n_min, []
            while True:
                while len(samples) < draws:
                    samples.append(draw(q))
                samples.sort(key=lambda s: (-s.value, s.d, s.set))
                threshold = samples[config.n_elite - 1].value
                if prev_threshold is None or threshold > prev_threshold or draws >= config.n_max:
                    break
                draws = min(2 * draws, config.n_max)
            elites = samples[:config.n_elite]
            for s in samples:
                if _better(s, best):
                    best = s
            q_new = _weighted_refit(elites, len(q), lambda s: s.set)
            q = np.clip(ALPHA * q_new + (1.0 - ALPHA) * q, EXPLORATION_FLOOR, 1.0)
            if refit is not None:
                refit(elites)
            log.append(CeIterationLog(iteration=it, draws=len(samples),
                                      elite_threshold=threshold, best=best.value))
            if _reliable(threshold, prev_threshold, q):
                break
            prev_threshold = threshold
        return best, log

    @classmethod
    def select(cls, graph, budget, objective, master_seed=0):
        rng, cache = stream(master_seed, TAG_FACE), {}

        def draw(q):
            nodes = _sample_set(q, budget, rng)
            key = frozenset(nodes)
            if key not in cache:
                cache[key] = float(objective(key))
            return CeSample(set=nodes, value=cache[key], k1=budget, d=0)

        q = np.full(graph.n, budget / graph.n, dtype=float)
        best, log = cls.cross_entropy(q, _ce_sizes(graph.n), draw)
        return sorted(best.set), log

    @classmethod
    def joint(cls, graph, k, D, objective, master_seed=0):
        n = graph.n
        config = _ce_sizes(n)
        probs = {"k1": np.full(k, 1.0 / k), "d": np.full(D + 1, 1.0 / (D + 1))}
        rng, cache = stream(master_seed, TAG_FACE), {}

        def draw(q):
            d = int(rng.choice(D + 1, p=probs["d"]))
            k1 = k if d == 0 else int(rng.choice(np.arange(1, k + 1), p=probs["k1"]))
            if k1 == k:
                d = 0
            scale = _clamp_redistribute(q * (k1 / max(q.sum(), 1e-12)), k1)
            nodes = _sample_set(scale, k1, rng)
            key = (k1, d, frozenset(nodes))
            if key not in cache:
                cache[key] = float(objective(k1, d, nodes))
            return CeSample(set=nodes, value=cache[key], k1=k1, d=d)

        def refit(elites):
            k1_new = _weighted_refit(elites, k, lambda s: (s.k1 - 1,))
            d_new = _weighted_refit(elites, D + 1, lambda s: (s.d,))
            probs["k1"] = _normalized(ALPHA * k1_new + (1 - ALPHA) * probs["k1"])
            probs["d"] = _normalized(ALPHA * d_new + (1 - ALPHA) * probs["d"])

        best, log = cls.cross_entropy(np.full(n, k / n, dtype=float), config, draw, refit)
        return (best.k1, best.d, sorted(best.set)), log


def _one_call(graph, k, config, decay):
    """The per-candidate objective of ``tpim twophase --optimize face-joint``
    as it was."""
    far = MonteCarloConfig(phase1_sims=max(1, config.phase1_sims // 10),
                           phase2_sims=max(1, config.phase2_sims // 10),
                           master_seed=config.master_seed)

    def objective(k1, d, nodes):
        if d == 0:
            return estimate_spread(graph, nodes, config, sims=far.phase1_sims,
                                   decay=decay).mean
        return eval_h(graph, nodes, d, k - k1, far, decay).mean

    return objective


def _candidates(graph, k, d_max, count, seed):
    """Random (k1, d, sorted seed tuple) candidates, as FACE-joint draws
    them: d = 0 exactly when k1 = k; every third one repeats an earlier one."""
    rng = np.random.default_rng(seed)
    out = []
    for j in range(count):
        if j % 3 == 2:
            out.append(out[int(rng.integers(len(out)))])
            continue
        d = int(rng.integers(d_max + 1))
        k1 = k if d == 0 else int(rng.integers(1, k + 1))
        d = 0 if k1 == k else d
        out.append((k1, d, tuple(sorted(rng.choice(graph.n, k1, replace=False).tolist()))))
    return out


def _score_joint(graph, cands, k, config, decay):
    """The FACE-joint value of each candidate, as ``tpim`` scores a round."""
    return [est.mean for est in score_cells(graph, cands, k, farsighted_config(config), decay)]


def _assert_scores(graph, cands, k, config, decay):
    got = _score_joint(graph, cands, k, config, decay)
    objective = _one_call(graph, k, config, decay)
    assert got == [objective(*c) for c in cands]


@pytest.mark.parametrize("decay", DECAYS, ids=["delta1", "delta0.8"])
def test_score_joint_equals_one_call_per_candidate_on_lesmis(decay):
    g = les_miserables_wc()
    for m1, m2, seed in ((20, 20, 0), (50, 30, 3), (10, 100, 11)):
        cfg = MonteCarloConfig(phase1_sims=m1, phase2_sims=m2, master_seed=seed)
        _assert_scores(g, _candidates(g, 6, 6, 40, seed), 6, cfg, decay)


@pytest.mark.parametrize("decay", DECAYS, ids=["delta1", "delta0.8"])
def test_score_joint_equals_one_call_per_candidate_on_the_family(decay):
    # k = 6 on at most 8 nodes leaves many second phases short of nodes
    # (k2_eff < k2), and d = 9 is past the end of every cascade there
    for j, g in enumerate(instance_family(6, seed=71)):
        cfg = MonteCarloConfig(phase1_sims=30, phase2_sims=20, master_seed=j)
        k = min(6, g.n)
        _assert_scores(g, _candidates(g, k, 9, 30, j), k, cfg, decay)


@pytest.mark.parametrize("cells", [3 * 2 * 3 * 77, 2 * 3 * 77, 77])
def test_score_joint_across_groups(monkeypatch, cells):
    # at m1 = 20, m2 = 30 (2 x 3 after the tenth) a group holds three
    # candidates, one, or a single outer replicate of one
    monkeypatch.setattr(diffusion, "GROUP_CELLS", cells)
    g = les_miserables_wc()
    cfg = MonteCarloConfig(phase1_sims=20, phase2_sims=30, master_seed=5)
    for decay in DECAYS:
        _assert_scores(g, _candidates(g, 6, 4, 25, 5), 6, cfg, decay)


def test_score_joint_with_phase_one_past_a_chunk(monkeypatch):
    # chunks of 3 rows: each candidate's 7 phase-1 (and d = 0) replicates
    # read streams 0, 1 and 2, in a cascade with other candidates' chunks;
    # at 6 rows a cascade, one may also end between two chunks of a set
    g = les_miserables_wc()
    monkeypatch.setattr(diffusion, "BATCH_BYTES", 4 * g.n * 3)
    assert diffusion.chunk_size(g.n) == 3
    cfg = MonteCarloConfig(phase1_sims=70, phase2_sims=30, master_seed=2)
    for cells in (diffusion.GROUP_CELLS, 7 * 3 * 77 - 1):
        monkeypatch.setattr(diffusion, "GROUP_CELLS", cells)
        for decay in DECAYS:
            _assert_scores(g, _candidates(g, 4, 3, 20, 2), 4, cfg, decay)


def test_score_joint_single_phase_arm_larger_than_a_group(monkeypatch):
    monkeypatch.setattr(diffusion, "GROUP_CELLS", 10)
    g = les_miserables_wc()
    cfg = MonteCarloConfig(phase1_sims=40, phase2_sims=10, master_seed=1)
    _assert_scores(g, [(3, 0, (0, 11, 48)), (3, 0, (2, 5, 7))], 3, cfg, NO_DECAY)


def _assert_same_search(graph, k, d_max, config, decay):
    got = face_joint_optimize(graph, k, d_max,
                              lambda cands: _score_joint(graph, cands, k, config, decay),
                              master_seed=config.master_seed, return_log=True)
    (k1, d, s1), log = got
    want = _LoopFace.joint(graph, k, d_max, _one_call(graph, k, config, decay),
                           master_seed=config.master_seed)
    assert ((k1, d, s1.nodes), log) == want


@pytest.mark.parametrize("decay", DECAYS, ids=["delta1", "delta0.8"])
def test_face_joint_search_equals_the_per_candidate_loop(decay):
    seed = 0 if decay.delta == 1.0 else 3
    _assert_same_search(les_miserables_wc(), 4, 3,
                        MonteCarloConfig(phase1_sims=20, phase2_sims=20, master_seed=seed),
                        decay)
    # at k = 1 the k1 draw has one option, yet ``rng.choice`` reads a uniform
    _assert_same_search(les_miserables_wc(), 1, 2,
                        MonteCarloConfig(phase1_sims=10, phase2_sims=10, master_seed=9),
                        decay)
    for j, g in enumerate(instance_family(4, seed=72)):
        _assert_same_search(g, min(3, g.n), 3,
                            MonteCarloConfig(phase1_sims=40, phase2_sims=30, master_seed=j),
                            decay)


def test_face_select_objective_sees_the_calls_of_the_loop():
    g = les_miserables_wc()
    calls = {"batched": [], "loop": []}

    def recording(name):
        sigma = SigmaObjective(g, MonteCarloConfig(master_seed=4), sims=50)

        def objective(s):
            calls[name].append(s)
            return sigma(s)
        return objective

    got, log = face_select(g, 3, recording("batched"), master_seed=4, return_log=True)
    want, want_log = _LoopFace.select(g, 3, recording("loop"), master_seed=4)
    assert (got.nodes, log) == (want, want_log)
    assert calls["batched"] == calls["loop"]


def test_each_round_is_scored_in_one_call():
    rounds = []

    def objective(cands):
        rounds.append(list(cands))
        return [float(len(nodes)) + k1 / 10 for k1, _, nodes in cands]

    g = les_miserables_wc()
    _, log = face_joint_optimize(g, 4, 3, objective, master_seed=0, return_log=True)
    seen = [c for r in rounds for c in r]
    assert len(seen) == len(set(seen))          # each candidate scored once
    assert sum(len(r) for r in rounds) <= sum(e.draws for e in log)
    # an iteration's rounds: its n_min draws, then one per doubling up to
    # its logged draws (capped at n_max); a round with no new key is no call
    config = _ce_sizes(g.n)
    draw_rounds = 0
    for entry in log:
        draws = config.n_min
        draw_rounds += 1
        while draws < entry.draws:
            draws = min(2 * draws, config.n_max)
            draw_rounds += 1
        assert draws == entry.draws
    assert len(rounds) <= draw_rounds
    assert 10 * len(rounds) < len(seen)


def _old_single_phase_result(graph, seeds, config, decay, sims):
    """The single-phase spread and progression of one set as they were."""
    vals, hist = [], np.zeros(0, dtype=np.int64)
    for times in chunk_batches(graph, seeds, sims, config.master_seed, TAG_SINGLE):
        vals.append(decay.values(times))
        counts = np.bincount(times[times >= 0])
        if len(counts) > len(hist):
            hist = np.concatenate([hist, np.zeros(len(counts) - len(hist), dtype=np.int64)])
        hist[:len(counts)] += counts
    return estimate_1d(np.concatenate(vals, dtype=np.float64)), diffusion._trim(hist / sims)


@pytest.mark.parametrize("cells, chunk", [
    pytest.param(diffusion.GROUP_CELLS, 4096, id=str(diffusion.GROUP_CELLS)),
    pytest.param(3 * 30 * 77, 4096, id=str(3 * 30 * 77)),
    pytest.param(10, 4096, id="10"),
    pytest.param(10 * 77, 4, id="770-4"),
])
def test_single_phase_equals_the_batches_of_each_set(monkeypatch, cells, chunk):
    # whole sets per cascade (many, or three at a time) or one chunk at a
    # time; with chunks of 4, a cascade of at most 10 rows holds two chunks
    # and ends inside a set (or starts in one set and ends in the next)
    monkeypatch.setattr(diffusion, "GROUP_CELLS", cells)
    monkeypatch.setattr(diffusion, "CHUNK", chunk)
    g = les_miserables_wc()
    sets = [[11], [0, 11, 48], [], [26, 27], [11], [5]]
    for decay in DECAYS:
        cfg = MonteCarloConfig(master_seed=9)
        got = estimate_spreads(g, sets, cfg, 30, decay=decay, progression=True)
        alone = estimate_spreads(g, sets, cfg, 30, decay=decay)
        for s, (est, prog), (est_alone, no_prog) in zip(sets, got, alone):
            want_est, want_prog = _old_single_phase_result(g, s, cfg, decay, 30)
            assert est == want_est == est_alone
            assert np.array_equal(prog, want_prog) and no_prog is None
            assert estimate_spread(g, s, cfg, sims=30, decay=decay) == want_est
    probe = MonteCarloConfig(phase1_sims=30, master_seed=9)
    latest = max(int(t.max()) for t in chunk_batches(g, select_wd(g, 3).nodes, 30, 9, TAG_PROBE))
    assert estimate_D(g, 3, probe) == max(1, min(latest + D_MARGIN, g.n))


def test_replicate_rows_stack_the_batches_of_each_set(monkeypatch):
    g = les_miserables_wc()
    sets = [[11], [], [0, 11, 48], [11], [26, 27]]
    for chunk in (4096, 4):
        monkeypatch.setattr(diffusion, "CHUNK", chunk)
        # every set in one cascade; cascades of at most 6 rows (two chunks
        # of 4 do not fit, so one ends inside a set); one row a group
        for cells in (diffusion.GROUP_CELLS // 50, diffusion.GROUP_CELLS // 6, 10 ** 6):
            fit = max(1, diffusion.GROUP_CELLS // cells)
            for stop_at in (None, 2):
                want = np.concatenate([t for s in sets
                                       for t in chunk_batches(g, s, 10, 7, TAG_PHASE1, stop_at)])
                got = list(replicate_rows(g, sets, 10, 7, TAG_PHASE1, cells, stop_at=stop_at))
                assert all(len(times) <= fit for _, _, times in got)
                owner, index, times = (np.concatenate(part) for part in zip(*got))
                assert np.array_equal(times, want)
                assert np.array_equal(owner, np.arange(len(sets)).repeat(10))
                assert np.array_equal(index, np.tile(np.arange(10), len(sets)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 300), st.integers(0, 300))
def test_stream_uniforms_do_not_depend_on_how_they_are_drawn(seed, a, b):
    # what a block reading its stream over many cascade steps relies on: a
    # stream's uniforms are one sequence, however it is cut into draws
    g, h = stream(seed, 2, 1), stream(seed, 2, 1)
    assert np.array_equal(np.concatenate([g.random(a), g.random(b)]), h.random(a + b))
