from dataclasses import replace

import numpy as np
import pytest

from conftest import estimate_1d, instance_family
from twophase_im import diffusion
from twophase_im.diffusion import (
    BATCH_BYTES,
    CHUNK,
    NEVER,
    DecayFunction,
    MonteCarloConfig,
    _estimates,
    chunk_size,
    estimate_spread,
    simulate_batch,
    simulate_ic,
    stream,
)
from twophase_im.graph import RawEdgeList, build_graph
from twophase_im.instances import example1_graph, les_miserables_wc
from twophase_im.oracle import get_oracle


def chain(k, p=1.0):
    pairs = [(str(i), str(i + 1), p) for i in range(k)]
    return build_graph(RawEdgeList(directed=True, pairs=pairs))


def test_stream_tags_are_distinct():
    tags = {name: value for name, value in vars(diffusion).items() if name.startswith("TAG_")}
    assert len(tags) >= 8 and tags["TAG_PHASE2_SELECT"] == 7
    assert len(set(tags.values())) == len(tags)


def test_decay_validation():
    for delta in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError):
            DecayFunction(delta)


def test_decay_weights():
    times = np.array([[0, 2, NEVER, 1], [NEVER, NEVER, NEVER, 3]])
    plain = DecayFunction().values(times)
    assert plain.dtype.kind == "i" and list(plain) == [3, 1]
    assert list(DecayFunction(0.5).values(times)) == [1.75, 0.125]
    # delta = 0 still values step-0 activations at 1
    assert list(DecayFunction(0.0).values(times)) == [1.0, 0.0]
    assert DecayFunction(0.5).values(times[0]) == 1.75


def test_simulate_ic_deterministic_chain():
    g = chain(4, p=1.0)
    trace = simulate_ic(g, [0], stream(0, 0))
    assert list(trace.activation_time) == [0, 1, 2, 3, 4]


def test_simulate_ic_stop_at_truncates():
    g = chain(4, p=1.0)
    trace = simulate_ic(g, [0], stream(0, 0), stop_at=2)
    assert list(trace.activation_time) == [0, 1, 2, NEVER, NEVER]


def test_simulate_ic_zero_probability_spreads_nowhere():
    g = chain(3, p=0.0)
    trace = simulate_ic(g, [0], stream(0, 0))
    assert list(trace.activation_time) == [0, NEVER, NEVER, NEVER]


def test_simulate_ic_empty_seeds():
    g = chain(3)
    trace = simulate_ic(g, [], stream(0, 0))
    assert (trace.activation_time == NEVER).all()


def test_simulate_batch_matches_per_replicate_semantics_on_sure_chain():
    g = chain(4, p=1.0)
    times = simulate_batch(g, [0], stream(0, 0), reps=8)
    assert (times == np.arange(5)).all()


def test_simulate_batch_deterministic_per_stream():
    g = example1_graph()
    a = simulate_batch(g, [0], stream(3, 1, 5), reps=100)
    b = simulate_batch(g, [0], stream(3, 1, 5), reps=100)
    assert (a == b).all()


def test_estimate_spread_agrees_with_exact_on_example1():
    g = example1_graph()
    cfg = MonteCarloConfig(single_phase_sims=40_000, master_seed=1)
    for seeds in ([0], [1], [0, 1], [2]):
        est = estimate_spread(g, seeds, cfg)
        truth = get_oracle(g).exact_sigma(seeds)
        assert abs(est.mean - truth) <= max(4 * est.stderr, 1e-9)


def test_estimate_spread_empty_seeds_is_zero():
    g = example1_graph()
    est = estimate_spread(g, [], MonteCarloConfig())
    assert est.mean == 0.0 and est.stderr == 0.0


def test_estimate_spread_rejects_bad_seed():
    g = example1_graph()
    with pytest.raises(ValueError):
        estimate_spread(g, [99], MonteCarloConfig())


def test_temporal_equals_plain_spread_replicate_for_replicate():
    g = example1_graph()
    cfg = MonteCarloConfig(single_phase_sims=5_000, master_seed=9)
    plain = estimate_spread(g, [0], cfg)
    trivial = estimate_spread(g, [0], cfg, decay=DecayFunction(1.0))
    assert plain.mean == trivial.mean
    assert plain.stderr == trivial.stderr


def test_temporal_spread_decay_discounts_later_steps():
    g = chain(2, p=1.0)  # activations at t = 0, 1, 2
    cfg = MonteCarloConfig(single_phase_sims=10, master_seed=0)
    est = estimate_spread(g, [0], cfg, decay=DecayFunction(0.5))
    assert est.mean == pytest.approx(1 + 0.5 + 0.25)


def test_simulate_ic_is_row_zero_of_one_replicate_batch():
    g = les_miserables_wc()
    for stop_at in (None, 0, 1, 3):
        trace = simulate_ic(g, [0, 11, 48], stream(4, 0, 7), stop_at=stop_at)
        batch = simulate_batch(g, [0, 11, 48], stream(4, 0, 7), 1, stop_at)
        assert (trace.activation_time == batch[0]).all()


def test_decay_weighted_spread_agrees_with_exact_nu():
    # checks activation steps, not only final counts
    decay = DecayFunction(0.5)
    cfg = MonteCarloConfig(single_phase_sims=50_000, master_seed=3)
    for g in instance_family(15, seed=31):
        for seeds in ([0], [0, g.n - 1]):
            est = estimate_spread(g, seeds, cfg, decay=decay)
            gap = abs(est.mean - get_oracle(g).exact_nu(seeds, decay))
            assert gap <= max(3 * est.stderr, 0.01 * g.n), (g.n, seeds, gap)


def test_same_step_hits_activate_target_once():
    # a and b both reach c at step 1 with p = 1; c then gets one try at d
    g = build_graph(RawEdgeList(directed=True, pairs=[
        ("a", "c", 1.0), ("b", "c", 1.0), ("c", "d", 0.5)]))
    a, b, c, d = (g.node_id(x) for x in "abcd")
    times = simulate_batch(g, [a, b], stream(0, 0), reps=20_000)
    assert (times[:, c] == 1).all()
    hit_d = (times[:, d] == 2).mean()
    assert abs(hit_d - 0.5) < 0.02   # 0.75 if c were in the frontier twice


def test_chunk_size_caps_times_matrix_bytes():
    assert chunk_size(77) == CHUNK
    n = 100_000
    assert 4 * n * chunk_size(n) <= BATCH_BYTES
    assert chunk_size(10**12) == 1


@pytest.mark.parametrize("sims", [1, 2, 7, 8, 9, 127, 128, 129, 4097])
def test_row_estimates_equal_each_row_reduced_alone(sims):
    # numpy sums in blocks of 8 and pairwise past 128 elements; a row of the
    # axis-1 reduction must take the same float sums as the row alone
    rng = np.random.default_rng(sims)
    vals = np.concatenate([rng.random((3, sims)) * 1e6,
                           rng.integers(0, 77, (3, sims)).astype(np.float64),
                           np.full((1, sims), 0.1)])
    want = [replace(estimate_1d(row), samples=5 * sims) for row in vals]
    assert _estimates(vals, 5 * sims) == want
