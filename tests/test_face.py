import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from twophase_im import face
from twophase_im.face import (
    CeSample,
    _categorical,
    _cdf,
    _clamp_redistribute,
    _normalized,
    _sample_set,
    _weighted_refit,
    face_joint_optimize,
    face_select,
)
from twophase_im.graph import RawEdgeList, build_graph
from twophase_im.oracle import get_oracle


def test_ce_round_sizes_follow_n(monkeypatch):
    # on n nodes an iteration first draws n sets, its elite threshold is the
    # value of the ceil(n / 4)-th best of them, and while the threshold does
    # not improve the draws double, up to 20n
    drawn = []
    sample = face._sample_set
    monkeypatch.setattr(face, "_sample_set", lambda *a: drawn.append(sample(*a)) or drawn[-1])

    def value(s):
        return float(sum(2.0 ** v for v in s))   # a different value for every set

    for n in (10, 13):
        g = build_graph(RawEdgeList(directed=True,
                                    pairs=[(str(v), str(v + 1), 0.5) for v in range(n - 1)]))
        drawn.clear()
        _, log = face_select(g, 3, value, master_seed=0, return_log=True)
        assert log[0].draws == n
        first = sorted((value(s) for s in drawn[:n]), reverse=True)
        assert log[0].elite_threshold == first[math.ceil(n / 4) - 1]
        _, log = face_select(g, 3, lambda s: 1.0, master_seed=0, return_log=True)
        assert [entry.draws for entry in log] == [n, 20 * n]


def test_clamp_redistribute_hand_example():
    q = _clamp_redistribute(np.array([10.0, 1, 1, 1, 1]) * 2 / 14, 2)
    assert q == pytest.approx([1.0, 0.25, 0.25, 0.25, 0.25])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 100, allow_nan=False), min_size=2, max_size=10),
       st.integers(1, 10))
def test_clamp_redistribute_properties(w, k1):
    w = np.array(w)
    k1 = min(k1, len(w))
    q = _clamp_redistribute(k1 * w / w.sum(), k1)
    assert (q >= 0).all() and (q <= 1).all()
    assert q.sum() == pytest.approx(k1, abs=1e-9)


def _loop_sample_set(q, budget, rng):
    """``_sample_set`` as it was: the repair walks the order node by node."""
    n = len(q)
    included = rng.random(n) < q
    count = int(included.sum())
    if count != budget:
        jitter = rng.random(n)
        order = np.lexsort((jitter, q))
        if count < budget:
            for v in order[::-1]:
                if not included[v]:
                    included[v] = True
                    count += 1
                    if count == budget:
                        break
        else:
            for v in order:
                if included[v]:
                    included[v] = False
                    count -= 1
                    if count == budget:
                        break
    return tuple(int(v) for v in np.flatnonzero(included))


# probabilities from a short list tie often, so the jitter decides the order
PROBS = st.one_of(st.sampled_from([0.0, 0.2, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(PROBS, min_size=1, max_size=40), st.data(), st.integers(0, 2**32 - 1))
@example([1.0] * 6, None, 0)   # six drawn, every repair drops
@example([0.0] * 6, None, 0)   # none drawn, every repair adds
def test_sample_set_repairs_as_the_node_loop_did(q, data, seed):
    q = np.array(q)
    budget = data.draw(st.integers(1, len(q))) if data is not None else 3
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _sample_set(q, budget, new)
    assert got == _loop_sample_set(q, budget, old)
    assert len(got) == budget
    assert new.random() == old.random()   # both read the same uniforms


def _loop_weighted_refit(samples, n, getter):
    """``_weighted_refit`` as it was: one addition per member, sample by
    sample."""
    total = math.fsum(s.value for s in samples)
    q_new = np.zeros(n)
    for s in samples:
        for v in getter(s):
            q_new[v] += s.value if total > 0 else 1.0
    return q_new / (total if total > 0 else len(samples))


VALUES = st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.floats(1e-300, 1e-3))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(0, 9), max_size=10, unique=True), VALUES),
                min_size=1, max_size=30))
@example([((0, 3), 0.0), ((3,), 0.0), ((), 0.0)])   # all zero: membership frequency
@example([((0, 3), 0.1), ((3,), 0.2), ((3, 9), 0.7)])
def test_weighted_refit_adds_as_the_member_loop_did(rows):
    samples = [CeSample(set=tuple(sorted(m)), value=v, k1=len(m), d=len(m) % 3)
               for m, v in rows]
    for n, getter in ((10, lambda s: s.set), (11, lambda s: (s.k1,)), (3, lambda s: (s.d,))):
        got = _weighted_refit(samples, n, getter)
        assert got.dtype == np.float64
        assert got.tobytes() == _loop_weighted_refit(samples, n, getter).tobytes()


def test_face_full_budget_returns_all_nodes(example1):
    got = face_select(example1, example1.n, lambda s: len(s), master_seed=0)
    assert got.nodes == list(range(example1.n))


def test_face_finds_singleton_optimum(example1):
    orc = get_oracle(example1)
    wins = sum(
        face_select(example1, 1, lambda s: orc.exact_sigma(s), master_seed=s).nodes == [1]
        for s in range(20))
    assert wins >= 18


def test_face_degenerate_objective_is_robust(example1):
    got = face_select(example1, 2, lambda s: float(len(s)), master_seed=1)
    assert len(got.nodes) == 2


def test_face_incumbent_value_is_monotone(example1):
    orc = get_oracle(example1)
    _, log = face_select(example1, 2, lambda s: orc.exact_sigma(s),
                         master_seed=3, return_log=True)
    bests = [e.best for e in log]
    assert bests == sorted(bests)
    assert all(e.draws >= example1.n for e in log)


def test_face_deterministic_per_seed(example1):
    orc = get_oracle(example1)
    runs = [face_select(example1, 2, lambda s: orc.exact_sigma(s), master_seed=9).nodes
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_face_joint_harsh_decay_collapses_to_single_phase(example1):
    # any delayed activation is worthless, so the single-phase arm must win
    orc = get_oracle(example1)

    def objective(k1, d, nodes):
        value = orc.exact_sigma(nodes)
        return value if d == 0 else 0.1 * value

    k1, d, s1 = face_joint_optimize(example1, 2, 3, lambda cs: [objective(*c) for c in cs],
                                    master_seed=0)
    assert (k1, d) == (2, 0)
    assert len(s1.nodes) == 2


def test_face_joint_finds_two_phase_optimum(example1):
    # randomized search on a 4-node instance: require most seeds to land on
    # the exact optimum value (k1=1, s1={A}, d>=2 scores 3.84)
    orc = get_oracle(example1)

    def objective(k1, d, nodes):
        if d == 0:
            return orc.exact_sigma(nodes)
        return orc.exact_f(nodes, d, 2 - k1)

    hits = 0
    for seed in range(10):
        k1, d, s1 = face_joint_optimize(example1, 2, 3, lambda cs: [objective(*c) for c in cs],
                                        master_seed=seed)
        if objective(k1, d, tuple(s1.nodes)) == pytest.approx(3.84, abs=1e-9):
            hits += 1
    assert hits >= 8


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), min_size=1, max_size=50),
       st.integers(0, 2**63))
def test_categorical_draws_what_choice_draws(weights, seed):
    # FACE-joint's d and k1 probabilities, normalized as its refit does (all
    # zero weights give the uniform); one entry still reads one uniform
    p = _normalized(np.array(weights))
    cdf = _cdf(p)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(50):
        assert _categorical(cdf, ours) == theirs.choice(len(p), p=p)
    assert ours.random() == theirs.random()
