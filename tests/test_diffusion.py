from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    simulate_blocks,
    simulate_ic,
    stream,
    stream_source,
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


LESMIS = les_miserables_wc()
# few streams, so that drawn blocks often read one stream in one cascade
STREAMS = [(3, 1, 0), (3, 1, 1), (3, 2, 0), (8, 1, 0)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(0, LESMIS.n - 1), max_size=4),
                          st.integers(1, 9), st.sampled_from(STREAMS)),
                min_size=1, max_size=6),
       st.sampled_from([None, 2]))
def test_each_block_draws_what_it_draws_alone(blocks, stop_at):
    # every block holds a generator of its own, also when its stream is the
    # stream of another block in the cascade
    times = simulate_blocks(LESMIS, [(seeds, rows, stream(*key)) for seeds, rows, key in blocks],
                            stop_at)
    first = 0
    for seeds, rows, key in blocks:
        alone = simulate_batch(LESMIS, seeds, stream(*key), rows, stop_at=stop_at)
        assert np.array_equal(times[first:first + rows], alone)
        first += rows
    assert first == len(times)


def _loop_blocks(graph, blocks, stop_at=None):
    """``simulate_blocks`` as a plain loop, the spec its cascade must meet.
    Block by block, step by step, row by row: a row's frontier nodes in
    ascending order, each node's out-edges in CSR order. An edge is open
    when its target was inactive at the start of the step; each open edge
    draws one ``rng.random()`` from the block's generator and fires when it
    is below the edge's probability, and a target hit activates once, at
    that step. No step past ``stop_at`` (n without it) runs."""
    n = graph.n
    indptr, dst, prob = graph.indptr.tolist(), graph.dst.tolist(), graph.p.tolist()
    stop = n if stop_at is None else stop_at
    out = []
    for seeds, rows, rng in blocks:
        seeds = sorted(set(seeds))
        times = [[NEVER] * n for _ in range(rows)]
        for row in times:
            for s in seeds:
                row[s] = 0
        frontiers = [seeds] * rows
        t = 0
        while any(frontiers) and t < stop:
            t += 1
            for r, row in enumerate(times):
                hit = set()
                for u in frontiers[r]:
                    for e in range(indptr[u], indptr[u + 1]):
                        if row[dst[e]] == NEVER and rng.random() < prob[e]:
                            hit.add(dst[e])
                for v in hit:
                    row[v] = t
                frontiers[r] = sorted(hit)
        out.extend(times)
    return np.array(out, dtype=np.int32).reshape(-1, n)


FAMILY = instance_family(6, seed=13)


@st.composite
def graph_and_blocks(draw):
    """lesmis or a family graph, and 1 to 6 blocks of (seeds, rows, stream
    key) on it; few stream keys, so blocks often share one."""
    graph = draw(st.sampled_from([LESMIS, *FAMILY]))
    seeds = st.lists(st.integers(0, graph.n - 1), max_size=4)
    blocks = draw(st.lists(st.tuples(seeds, st.integers(1, 9), st.sampled_from(STREAMS)),
                           min_size=1, max_size=6))
    return graph, blocks


@settings(max_examples=60, deadline=None)
@given(graph_and_blocks(), st.sampled_from([None, 2]))
def test_simulate_blocks_equals_the_loop_reference(graph_blocks, stop_at):
    # the same coins for the same (key, edge) requests in the same order:
    # the kernel's selections keep element order
    graph, blocks = graph_blocks
    times = simulate_blocks(graph, [(seeds, rows, stream(*key)) for seeds, rows, key in blocks],
                            stop_at)
    want = _loop_blocks(graph, [(seeds, rows, stream(*key)) for seeds, rows, key in blocks],
                        stop_at)
    assert np.array_equal(times, want)


def _recording(coin, starts, n, log):
    """``coin`` that first logs, per block and per call, the block's part of
    the request: (keys relative to the block's first row, edges)."""
    bounds = np.asarray(starts) * n

    def recorded(key, edge):
        at = np.searchsorted(key, bounds)
        for b in np.flatnonzero(np.diff(at)).tolist():
            lo, hi = at[b], at[b + 1]
            log[b].append(((key[lo:hi] - bounds[b]).tolist(), edge[lo:hi].tolist()))
        return coin(key, edge)

    return recorded


@pytest.mark.parametrize("stop_at", [4, LESMIS.n + 5])
def test_rows_that_start_at_different_steps_cascade_as_one_cascade_per_step(stop_at):
    # blocks of 3 rows whose frontier enters at steps 2, 0, 3, 0, 5 and 2,
    # out of order, each with nodes active before that step: one cascade of
    # every row asks each block's coin for the (key, edge) requests that one
    # cascade per start step asks it, call by call, and ends at the same
    # times. A stop at 4 leaves the block that starts at 5 as it was
    rng = np.random.default_rng(31)
    n, rows, enter = LESMIS.n, 3, [2, 0, 3, 0, 5, 2]
    times = np.full((rows * len(enter), n), NEVER, dtype=np.int32)
    for b, s in enumerate(enter):
        draw = rng.random((rows, n))
        block = times[b * rows:(b + 1) * rows]
        block[draw < 0.2] = rng.integers(0, max(s, 1), size=int((draw < 0.2).sum()))
        block[draw > 0.93] = s
    before = times.copy()

    def run(blocks):
        sub = np.concatenate([times[b * rows:(b + 1) * rows] for b in blocks])
        starts = range(0, len(sub) + 1, rows)
        log = [[] for _ in blocks]
        coin = diffusion._block_coin(LESMIS.p, n, starts,
                                     [stream(7, 2, b % 4) for b in blocks])
        key = np.flatnonzero(sub == np.repeat([enter[b] for b in blocks], rows)[:, None])
        diffusion._cascade(LESMIS, sub, key, stop_at, _recording(coin, starts, n, log))
        return sub, dict(zip(blocks, log))

    merged, merged_log = run(list(range(len(enter))))
    for s in sorted(set(enter)):
        blocks = [b for b, e in enumerate(enter) if e == s]
        alone, alone_log = run(blocks)
        for j, b in enumerate(blocks):
            assert np.array_equal(merged[b * rows:(b + 1) * rows], alone[j * rows:(j + 1) * rows])
            assert merged_log[b] == alone_log[b]
    ran = [b for b, e in enumerate(enter) if e < stop_at]
    assert all(merged_log[b] for b in ran)
    for b, s in enumerate(enter):   # each block's steps follow its own start, up to the stop
        block, was = merged[b * rows:(b + 1) * rows], before[b * rows:(b + 1) * rows]
        wrote = block[block != was]
        assert (wrote.size > 0) == (b in ran)
        assert wrote.size == 0 or s < wrote.min() <= wrote.max() <= stop_at
    late = slice(4 * rows, 5 * rows)
    assert np.array_equal(merged[late], before[late]) == (stop_at == 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**63), st.integers(0, 7),
       st.lists(st.integers(0, 40), min_size=1, max_size=30))
def test_stream_source_builds_the_stream_of_each_index(seed, tag, indices):
    # indices repeat, and a repeated index builds its generator from the
    # seed words hashed at its first call
    source = stream_source(seed, tag)
    for j in indices:
        got, want = source(j), stream(seed, tag, j)
        assert got.bit_generator.state == want.bit_generator.state
        assert np.array_equal(got.random(5), want.random(5))
        assert got.integers(2**62) == want.integers(2**62)


def test_stream_source_generators_of_one_index_are_separate():
    source = stream_source(3, 2)
    a, b = source(5), source(5)
    first = a.random(4)
    assert np.array_equal(b.random(4), first)   # a's draws left b where it was
    ref = stream(3, 2, 5)
    ref.random(4)
    assert np.array_equal(a.random(4), ref.random(4))
    assert np.array_equal(source(5).random(4), first)   # and a fresh one starts over


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


@pytest.mark.parametrize("delta", [0.0, 1e-300, 0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95,
                                   0.999999, np.nextafter(1.0, 0.0)])
def test_decay_values_equal_the_power_of_each_entry(delta):
    # the table of powers that values() reads gives each entry what
    # np.power gives it, NEVER included, at small and at large steps; so
    # does weights(), the table itself, and the objective's per-step
    # weights are that table
    rng = np.random.default_rng(5)
    decay = DecayFunction(delta)
    for shape, top in (((400, 77), 12), ((50, 600), 5000)):
        times = rng.integers(NEVER, top + 1, size=shape, dtype=np.int32)
        times[0, 0] = top
        times[-1] = NEVER
        power = np.power(delta, np.maximum(times, 0), dtype=float)
        want = np.where(times >= 0, power, 0.0).sum(axis=-1)
        got = decay.values(times)
        assert np.array_equal(got, want)
        assert got[-1] == 0.0
        table = decay.weights(top + 1)
        assert table.dtype == np.float64
        assert np.array_equal(table[np.maximum(times, 0)], power)
    objective = diffusion.SigmaObjective(LESMIS, MonteCarloConfig(), decay=decay)
    assert np.array_equal(objective.weights, decay.weights(LESMIS.n))
    assert DecayFunction(delta).values(np.full((3, 4), NEVER)).tolist() == [0.0] * 3
    assert DecayFunction(delta).values(np.zeros((0, 4), dtype=np.int32)).shape == (0,)


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
