"""Monte-Carlo independent-cascade simulation and the spread estimators.

Discrete-step IC semantics: a node activated at step t-1 gets one chance to
activate each inactive out-neighbor at step t. Edges are sampled
on-activation, which is equivalent to pre-sampling a live graph. One
frontier loop, ``_cascade``, walks the frontier's out-edges in the graph's
CSR arrays, from the seeds at step 0 or from frontiers that enter at later
steps, each replicate's at its own.

This module alone decides which stream each replicate's coins come from.
Every fresh replicate comes from one sampler, ``simulate_blocks``: blocks
of (seed set, rows, generator) as one cascade whose coin draws one uniform
per edge tested, each block from its own generator (``_block_coin``), so
blocks of one stream each build a generator of it and read it from the
start. ``simulate_batch`` is its one-block case (``simulate_ic`` a
one-replicate view), and ``replicate_rows`` the row source over it: chunk j
of every set reads ``stream(master_seed, tag, j)`` (``_chunks``), and as
many chunks as fit ``GROUP_CELLS`` run as one cascade, to the latest stop.
A call that builds many generators of one (master_seed, tag), some of one
index, takes them from a ``stream_source`` of its own, which hashes each
index's seed once and is dropped with the call, so a run costs the same
whatever ran before it in the process.
One estimator loop, ``_spreads``, values the replicates its callers stream
to it, each the mean over its samples (its row, or its continuations) of a
``DecayFunction`` summed over all n columns (delta = 1, the default, is the
plain spread, a count of the sample's activations). ``estimate_spreads``
streams it plain replicates; ``estimate_spread`` is its one-set case.
``nested_spreads``, the two-phase estimate, stops each set's rows at the
set's own delay, picks a second phase on each observation by a caller's
``pick``, once per slice of a phase-1 group, and continues the cascade
from it with the same coin, every set of a call in one run.
``SigmaObjective``, the objective of the selectors, runs ``_cascade`` in
live-edge worlds drawn once, with a lookup for a coin, and falls back to
``estimate_spread`` when the worlds or their time table would pass a byte
budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import InfluenceGraph, edge_ids

NEVER = -1

# RNG stream tags, one per simulation context.
TAG_SINGLE = 0
TAG_PHASE1 = 1
TAG_PHASE2 = 2
TAG_FACE = 3
TAG_RMAX = 4
TAG_SPIC = 5
TAG_PROBE = 6
TAG_PHASE2_SELECT = 7

CHUNK = 4096             # most replicates per derived RNG stream in batch simulation
BATCH_BYTES = 32 << 20   # budget for one chunk's (reps, n) int32 times matrix
GROUP_CELLS = 1 << 16    # most cells (rows x cells per row) a group of rows takes downstream
WORLD_BYTES = 256 << 20  # budget for a (sims, m) live-edge mask or (sets, sims) replicate values
TABLE_BYTES = 64 << 20   # budget for the (sims, n) time table an objective composes sets in
CACHE_BYTES = 64 << 20   # budget for one world sample's cached per-node activations
DRAW_BYTES = 1 << 20     # uniforms held at once while a live-edge mask is drawn


class BudgetError(ValueError):
    """An allocation would pass its byte budget."""


def check_bytes(what: str, nbytes: int, budget: int, error=BudgetError):
    """Raise ``error`` before an allocation of ``nbytes`` that passes ``budget``.
    The message rounds the request up and the budget down to 0.1 MiB, so
    the two never read as equal, and gives both in bytes."""
    if nbytes > budget:
        raise error(f"{what}: {-(-nbytes * 10 // 2**20) / 10:.1f} MiB ({nbytes} bytes), "
                    f"above the budget of {budget * 10 // 2**20 / 10:.1f} MiB ({budget} bytes)")


def chunk_size(n: int) -> int:
    """Replicates per chunk: CHUNK, or fewer so the times matrix fits BATCH_BYTES."""
    return max(1, min(CHUNK, BATCH_BYTES // (4 * max(n, 1))))


def _chunks(sims: int, n: int) -> list:
    """(j, first, rows) of each ``chunk_size(n)`` chunk of ``sims``; chunk j reads stream j."""
    size = chunk_size(n)
    return [(j, first, min(size, sims - first)) for j, first in enumerate(range(0, sims, size))]


def stream(master_seed: int, tag: int, index: int = 0) -> np.random.Generator:
    """Derived RNG stream for (master_seed, tag, index); order-insensitive."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(tag, index)))


class _HashedSeed(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose words are hashed at their first request and
    handed out again at each later one."""

    def __init__(self, seq: np.random.SeedSequence):
        self._seq, self._words = seq, {}

    def generate_state(self, n_words, dtype=np.uint32):
        words = self._words.get((n_words, dtype))
        if words is None:
            words = self._words[n_words, dtype] = self._seq.generate_state(n_words, dtype)
        return words


def stream_source(master_seed: int, tag: int):
    """index -> a fresh generator equal to ``stream(master_seed, tag,
    index)``. Each index's seed is hashed once, at its first call, and kept
    as long as the source is."""
    seeds = {}

    def source(index: int) -> np.random.Generator:
        seed = seeds.get(index)
        if seed is None:
            seed = seeds[index] = _HashedSeed(
                np.random.SeedSequence(master_seed, spawn_key=(tag, index)))
        return np.random.Generator(np.random.PCG64(seed))

    return source


@dataclass(frozen=True)
class DecayFunction:
    """Time value of an activation: one at step t is worth delta**t, in [0, 1]
    and non-increasing in t, read from ``weights``, the one table of
    delta**t. delta = 1, the default, is the plain spread."""

    delta: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.delta <= 1.0):
            raise ValueError("delta must lie in [0, 1]")

    def weights(self, steps) -> np.ndarray:
        """The float64 table of delta**t for t in 0..steps-1, every decay weight's source."""
        return np.power(self.delta, np.arange(steps), dtype=float)

    def values(self, times: np.ndarray, count=None):
        """Per-replicate value of an activation-time array: the sum over its
        last axis of delta**t, NEVER counting 0. At delta = 1 it is the
        integer active count, ``count`` if the caller counted it from its
        activations, so the plain spread builds no float array. Below 1 each
        entry reads its power from ``weights`` up to the largest step and a
        last 0.0, where NEVER (-1) lands."""
        if self.delta == 1.0:
            return (times >= 0).sum(axis=-1) if count is None else count
        return np.append(self.weights(times.max(initial=NEVER) + 1), 0.0)[times].sum(axis=-1)


NO_DECAY = DecayFunction()


@dataclass
class MonteCarloConfig:
    single_phase_sims: int = 10_000
    phase1_sims: int = 1_000
    phase2_sims: int = 1_000
    master_seed: int = 0

    def __post_init__(self):
        if min(self.single_phase_sims, self.phase1_sims, self.phase2_sims) < 1:
            raise ValueError("simulation counts must be >= 1")


@dataclass
class DiffusionTrace:
    """Per-node activation times; NEVER (-1) marks nodes never activated."""

    activation_time: np.ndarray


@dataclass
class SpreadEstimate:
    mean: float
    stderr: float
    samples: int

    def as_dict(self):
        return {"mean": self.mean, "stderr": self.stderr, "samples": self.samples}


def _check_seeds(graph: InfluenceGraph, seeds) -> list:
    seeds = sorted(set(int(s) for s in seeds))
    if seeds and (seeds[0] < 0 or seeds[-1] >= graph.n):
        raise ValueError(f"seed id out of range 0..{graph.n - 1}")
    return seeds


def simulate_ic(graph: InfluenceGraph, seeds, rng: np.random.Generator,
                stop_at: int | None = None) -> DiffusionTrace:
    """One IC replicate; returns the full activation-time trace. The same
    draws as row 0 of ``simulate_batch`` with one replicate."""
    return DiffusionTrace(simulate_batch(graph, seeds, rng, 1, stop_at=stop_at)[0])


def _seed_keys(reps: int, n: int, seeds: list) -> np.ndarray:
    """The sorted flat keys replicate * n + seed of every replicate's seeds."""
    return (np.arange(0, reps * n, n)[:, None] + np.asarray(seeds)).ravel()


def _cascade(graph: InfluenceGraph, times: np.ndarray, key: np.ndarray, stop_at: int,
             coin) -> list:
    """The IC frontier loop, in place on a (reps, n) times matrix, from the
    sorted flat keys ``key`` (replicate * n + node), each already written in
    at the step it enters the frontier; returns the keys activated at each
    step from the first of those steps, entering keys included. No step
    past ``stop_at`` runs.

    Each step gathers the out-edges of every (replicate, node) activated in
    the previous step, drops edges into nodes already active in that
    replicate (any non-NEVER entry), asks ``coin(key, edge)`` which of the
    remaining edges fire (``key`` is replicate * n + target, ordered by
    replicate) and activates the targets of the hits, each once, beside the
    keys that enter at that step. Frontier entries are kept sorted by
    (replicate, node) and edges in CSR order, so the coins are asked in a
    fixed order; a replicate whose keys all enter at one step asks what it
    would ask alone. Every filter selects with ``compress``, each mask
    built elementwise from the array it selects, so the kept elements keep
    their order, at a fraction of what boolean indexing costs.
    """
    reps, n = times.shape
    flat = times.reshape(-1)
    indptr, degree, dst = graph.indptr, graph.out_degrees, graph.dst
    start_key, start = key, flat[key]
    t, last = (int(start.min()), int(start.max())) if key.size else (0, 0)
    if last > t:   # the keys of a later step join the frontier at that step
        key = start_key.compress(start == t)
    steps = [key]
    while (key.size or t < last) and t < stop_at:
        t += 1
        node = key % n
        count = degree[node]
        edge = edge_ids(indptr, node, count)
        if edge.size == 0 and t > last:
            break
        key = (key - node).repeat(count)
        key += dst[edge]
        open_ = flat[key] == NEVER
        key, edge = key.compress(open_), edge.compress(open_)
        key = key.compress(coin(key, edge))
        if t <= last:
            key = np.concatenate((key, start_key.compress(start == t)))
        key.sort()
        if key.size > 1:
            fresh = np.empty(key.size, dtype=bool)
            fresh[0] = True
            np.not_equal(key[1:], key[:-1], out=fresh[1:])
            key = key.compress(fresh)
        flat[key] = t
        steps.append(key)
    return steps


def simulate_blocks(graph: InfluenceGraph, blocks, stop_at: int | None = None) -> np.ndarray:
    """IC replicates in blocks, as one (rows, n) activation-time matrix from
    one cascade: block (seeds, rows, rng) is ``rows`` replicates of ``seeds``
    whose coins come from ``rng``, read from its position at the call as if
    the block ran alone (``_block_coin``).

    Each edge tested draws one uniform and fires when ``u < p``, so the
    draws are fixed by the stream alone."""
    n = graph.n
    sets = [_check_seeds(graph, seeds) for seeds, _, _ in blocks]
    starts = np.cumsum([0] + [rows for _, rows, _ in blocks])
    times = np.full((int(starts[-1]), n), NEVER, dtype=np.int32)
    key = np.concatenate([first * n + _seed_keys(rows, n, seeds)
                          for first, (_, rows, _), seeds in zip(starts.tolist(), blocks, sets)
                          if seeds] or [np.zeros(0, np.int64)])
    times.reshape(-1)[key] = 0
    coin = _block_coin(graph.p, n, starts, [rng for _, _, rng in blocks])
    _cascade(graph, times, key, n if stop_at is None else stop_at, coin)
    return times


def simulate_batch(graph: InfluenceGraph, seeds, rng: np.random.Generator,
                   reps: int, stop_at: int | None = None) -> np.ndarray:
    """IC replicates; returns a (reps, n) activation-time matrix, the one
    block of ``simulate_blocks``."""
    return simulate_blocks(graph, [(seeds, reps, rng)], stop_at)


def _block_coin(prob: np.ndarray, n: int, starts, rngs: list):
    """The coin of a cascade whose rows come in blocks: block b, rows
    ``starts[b]`` to ``starts[b + 1] - 1``, draws one uniform per edge it
    tests from its own generator ``rngs[b]``, in key order, so it reads its
    stream as it would in a cascade of its own."""
    bounds = np.asarray(starts, dtype=np.int64) * n

    def coin(key, edge):
        at = np.searchsorted(key, bounds)
        u = np.empty(key.size)
        for b in np.flatnonzero(np.diff(at)).tolist():
            rngs[b].random(out=u[at[b]:at[b + 1]])
        return u < prob[edge]

    return coin


def replicate_rows(graph: InfluenceGraph, seed_sets, sims: int, master_seed: int, tag: int,
                   cells: int, stops=None):
    """``sims`` IC replicates of each seed set, as groups of (set index,
    replicate index, times) rows, sets in order and replicates in order.

    A set's replicates come in chunks of ``chunk_size(n)``; chunk j is a
    block (``simulate_blocks``) with a generator of ``stream(master_seed,
    tag, j)`` of its own, so a replicate's row does not depend on how the
    chunks are batched. The call takes them from one ``stream_source``, so
    chunk j's seed is hashed once, however many sets read it. One cascade
    runs consecutive chunks, as many as fit ``GROUP_CELLS`` at ``cells`` per
    row (what a row takes downstream), and at least one; its rows come in
    groups of at most that many rows. Set c's replicates stop at step
    ``stops[c]`` (or run to their end without ``stops``); a cascade stops at
    the largest stop among its sets, so a row may hold steps past its set's
    stop, and its steps up to that stop read the same uniforms either way."""
    fit = max(1, GROUP_CELLS // max(cells, 1))
    streams = stream_source(master_seed, tag)
    layout = _chunks(sims, graph.n)
    chunks = [(c, j, first, rows) for c in range(len(seed_sets)) for j, first, rows in layout]
    hi = 0
    while hi < len(chunks):
        lo, rows = hi, 0
        while hi < len(chunks) and (hi == lo or rows + chunks[hi][3] <= fit):
            rows += chunks[hi][3]
            hi += 1
        batch = chunks[lo:hi]
        times = simulate_blocks(graph, [(seed_sets[c], r, streams(j)) for c, j, _, r in batch],
                                None if stops is None else max(stops[c] for c, _, _, _ in batch))
        owner = np.repeat([c for c, _, _, _ in batch], [r for _, _, _, r in batch])
        index = np.concatenate([np.arange(first, first + r) for _, _, first, r in batch])
        for a in range(0, rows, fit):
            yield owner[a:a + fit], index[a:a + fit], times[a:a + fit]


def _estimates(vals: np.ndarray, samples: int) -> list:
    """The estimate of each row of ``vals`` (sets, sims): its mean and standard
    error, over ``samples`` replicates in all. A row's float sums are its
    own, whatever the other rows."""
    sims = vals.shape[1]
    stderrs = vals.std(ddof=1, axis=1) / math.sqrt(sims) if sims > 1 else np.zeros(len(vals))
    return [SpreadEstimate(mean=mean, stderr=stderr, samples=samples)
            for mean, stderr in zip(vals.mean(axis=1).tolist(), stderrs.tolist())]


def _histogram_add(hist, owner, counts, first=0):
    """hist, (sets, steps), plus the (rows, steps) ``counts`` of activations
    by step from step ``first`` on, those of row r counted in row
    ``owner[r]`` of hist, which is widened to fit the last step."""
    end = first + counts.shape[1]
    if end > hist.shape[1]:
        grow = np.zeros((len(hist), end - hist.shape[1]), dtype=hist.dtype)
        hist = np.concatenate((hist, grow), axis=1)
    np.add.at(hist[:, first:end], owner, counts)
    return hist


def _trim(prog):
    """Drop trailing zero steps, keeping at least step 0."""
    nonzero = np.flatnonzero(prog)
    return prog[:nonzero[-1] + 1] if nonzero.size else np.zeros(1)


def _spreads(parts, sets: int, sims: int, decay: DecayFunction, progression: bool) -> list:
    """The estimator loop: each of ``sets`` sets' (estimate, progression)
    over ``sims`` replicates, from the parts (owner, index, entries, times,
    steps) its caller yields: replicates' set and replicate indices, their
    (reps, n) ``entries`` written in before a cascade, the (reps x per, n)
    ``times`` of their ``per`` samples each, and the keys (sample * n +
    node) the cascade activated at each step (a plain replicate is its row
    as entries and times, with no steps). A sample's value is
    ``decay.values`` of its times over all n columns, given at delta = 1 the
    count of its activations; a replicate's is the mean over its samples.
    The progression, the mean new activations per step, is counted from the
    same activations, each entry once per sample, only when asked for (else
    None). The values are checked before any part is drawn."""
    check_bytes("the per-replicate values (sets x sims float64)", 8 * sets * sims, WORLD_BYTES)
    vals = np.empty((sets, sims))
    hist = np.zeros((sets, 0), dtype=np.int64)
    per = 1
    for owner, index, entries, times, steps in parts:
        (reps, n), per = entries.shape, len(times) // len(entries)
        active = entries >= 0
        found = active.sum(axis=1)
        count = found[:, None]   # a sample's entries are its replicate's
        if steps:
            count = count + np.bincount(np.concatenate(steps) // n,
                                        minlength=len(times)).reshape(reps, per)
        vals[owner, index] = decay.values(times, count).reshape(reps, per).mean(axis=1)
        if progression:
            entry_step = entries.compress(active.ravel())
            width = int(entry_step.max(initial=NEVER)) + 1
            by_row = np.bincount(np.arange(reps).repeat(found) * width + entry_step,
                                 minlength=reps * width).reshape(reps, width)
            hist = _histogram_add(hist, owner, by_row * per)
            if steps:   # step j's keys activate j steps after the first key
                first = int(times.reshape(-1)[steps[0][0]]) if steps[0].size else 0
                # cut[j, r]: how many of step j's keys (sorted) come before row r's
                bounds = np.arange(0, (reps + 1) * per * n, per * n)
                cut = np.array([keys.searchsorted(bounds) for keys in steps])
                hist = _histogram_add(hist, owner, np.diff(cut).T, first)
    return [(est, _trim(h / (sims * per)) if progression else None)
            for est, h in zip(_estimates(vals, sims * per), hist)]


def estimate_spreads(graph: InfluenceGraph, seed_sets, config: MonteCarloConfig,
                     sims: int | None = None, tag: int = TAG_SINGLE,
                     decay: DecayFunction = NO_DECAY, progression: bool = False) -> list:
    """Monte-Carlo estimate of the expected decay-weighted active count (the
    final active count under the default, delta = 1) of each seed set, as
    the (estimate, progression) pairs of ``_spreads`` on plain replicates,
    each ``replicate_rows`` row one sample. A set's pair is deterministic
    given (graph, set, master_seed, sims, tag), whatever the other sets;
    every decay sees the same traces."""
    sims = config.single_phase_sims if sims is None else sims
    if sims < 1:
        raise ValueError("sims must be >= 1")
    parts = ((owner, index, at, at, []) for owner, index, at in
             replicate_rows(graph, seed_sets, sims, config.master_seed, tag, graph.n))
    return _spreads(parts, len(seed_sets), sims, decay, progression)


def estimate_spread(graph: InfluenceGraph, seeds, config: MonteCarloConfig,
                    sims: int | None = None, tag: int = TAG_SINGLE,
                    decay: DecayFunction = NO_DECAY) -> SpreadEstimate:
    """The estimate of ``estimate_spreads`` for one seed set."""
    return estimate_spreads(graph, [seeds], config, sims, tag, decay)[0][0]


def nested_spreads(graph: InfluenceGraph, s1s, ds, config: MonteCarloConfig,
                   decay: DecayFunction, pick, collect_examples: int = 0,
                   progression: bool = False) -> list:
    """The nested Monte-Carlo estimate of a two-phase run from each
    first-phase set, set c at delay ``ds[c]`` (a negative one raises
    ``ValueError``), as (estimate, progression, first ``collect_examples``
    second-phase sets, each a sorted list) per set: ``_spreads`` over the
    parts a generator makes of the phase-1 rows, each outer replicate's
    already-active entries and its continuations.

    ``config.phase1_sims`` outer replicates of each set run to its delay
    (``replicate_rows`` at n cells a row, ``TAG_PHASE1``); a row's steps
    past its delay are cleared as its group is observed. ``pick(owner,
    already, recent)`` returns the (reps, n) mask of second-phase seeds of
    a slice of a group's rows, ``max(GROUP_CELLS // (phase2_sims * n),
    GROUP_CELLS // m)`` of them (or one), from each row's set index and its
    nodes activated before its delay and at it. Outer replicate i of every
    set is then repeated ``phase2_sims`` times with the recent nodes and
    its seeds at its delay, and continued to its end with the coins of
    ``stream(master_seed, TAG_PHASE2, i)``, from the stream's start; one
    ``stream_source`` hashes i's seed once, however many sets read it. The
    rows continue in groups of at most ``GROUP_CELLS`` phase-2 times (or
    one outer replicate), a group in one cascade, each row from its own
    delay; the rows of an outer replicate share their delay, so they draw
    what they would draw alone. Edges into active nodes are dropped before
    any draw and the rest keep their CSR order, so a continuation draws
    what ``simulate_batch`` would draw on the residual graph (the
    already-active nodes cut out), and its times are that graph's plus the
    delay; they keep the already-active nodes' phase-1 steps, which
    ``_spreads`` counts once per outer replicate, and are valued over all n
    columns, over phase1_sims x phase2_sims samples. One replicate's
    (phase2_sims, n) times are checked against ``BATCH_BYTES`` first: they
    cannot be split without changing its stream. Sets in order of delay
    share phase-1 cascades with sets of near delays, so few steps run past
    a row's delay."""
    n, m2 = graph.n, config.phase2_sims
    ds = np.asarray(ds, dtype=np.int32)
    if ds.size and ds.min() < 0:
        raise ValueError(f"delay {int(ds.min())} is negative")
    check_bytes("one outer replicate's phase-2 times (phase2_sims x n int32)",
                4 * m2 * n, BATCH_BYTES)
    fit = max(1, GROUP_CELLS // (m2 * n))
    # a pick's (rows, m) discount arrays stay within GROUP_CELLS or fit rows
    size = max(fit, GROUP_CELLS // max(graph.m, 1))
    s2_examples = [[] for _ in s1s]
    phase2 = stream_source(config.master_seed, TAG_PHASE2)

    def parts():
        for c, i, at in replicate_rows(graph, s1s, config.phase1_sims, config.master_seed,
                                       TAG_PHASE1, n, ds):
            d = ds[c][:, None]
            already, recent = (at >= 0) & (at < d), at == d
            picked = np.concatenate([pick(c[a:a + size], already[a:a + size],
                                          recent[a:a + size]) for a in range(0, len(at), size)])
            start, entries = recent | picked, np.where(already, at, NEVER)
            for r in np.flatnonzero(i < collect_examples).tolist():
                s2_examples[c[r]].append(np.flatnonzero(picked[r]).tolist())
            for a in range(0, len(at), fit):
                rows = slice(a, a + fit)
                times = np.where(start[rows], d[rows], entries[rows]).repeat(m2, axis=0)
                coin = _block_coin(graph.p, n, range(0, len(times) + 1, m2),
                                   [phase2(j) for j in i[rows].tolist()])
                # a cascade on n nodes ends within n steps of its last delay
                steps = _cascade(graph, times, np.flatnonzero(start[rows].repeat(m2, axis=0)),
                                 int(d[rows].max()) + n, coin)
                yield c[rows], i[rows], entries[rows], times, steps

    pairs = _spreads(parts(), len(s1s), config.phase1_sims, decay, progression)
    return [(est, prog, examples) for (est, prog), examples in zip(pairs, s2_examples)]


class SigmaObjective:
    """The Monte-Carlo (decay-weighted) spread of a seed set on ``sims``
    live-edge worlds drawn once, on first use, so every set scored sees the
    same worlds: the mean over the worlds of the decay-weighted count of the
    nodes the members' BFS reach, each at its earliest time. It is the
    objective, frozenset -> float, that greedy, RMax, SPIC and FACE select
    on. A set is scored together with ``base``, a fixed partial seed set (a
    second phase's recently activated nodes): the objective of S is the
    spread of base | S, and of the empty set that of base.

    World w keeps edge e when u < p[e]; the uniforms of the c-th chunk of
    ``chunk_size(n)`` worlds (``_chunks``) come from ``stream(master_seed,
    tag, c)``, one world (row) after another, at most ``DRAW_BYTES`` of them
    at a time, into ``live``, a (sims, m) mask. In a fixed world a cascade is a BFS over the
    kept edges (``_cascade`` with a lookup for a coin), so the activation
    time of a node from a set is the minimum of its times from the members.
    A node's activations, flat keys world * n + node and the step of each,
    are computed on first use and stored while they fit ``CACHE_BYTES`` (the
    first node always); none is evicted, so greedy's scan in id order cannot
    flush the nodes it stored first, as it would flush a least-recently-used
    cache.

    One dense (sims, n) table of activation times, of the smallest unsigned
    dtype whose signed view holds the steps 0..n-1 and with NEVER stored as
    its largest value, holds a stack of members, each pushed with the
    entries it improved and the values they had, so a pop restores the
    table. A set keeps the stack's bottom part that it shares with the set
    before it, pushes the rest but its last node and scores that node by the
    entries it would improve; each step costs the activations of one node,
    never the whole table. The table's entries are counted per step, as
    integers, and a value is the sum of those counts times the decay weights
    (numpy's ``sum``, no BLAS), over sims: a function of the set and the
    worlds alone, whatever was scored before it.

    The worlds are checked against ``WORLD_BYTES`` and the table against
    ``TABLE_BYTES`` before anything is allocated; past either budget, each
    set is estimated by a forward simulation (``estimate_spread``) instead.
    """

    def __init__(self, graph: InfluenceGraph, config: MonteCarloConfig,
                 sims: int | None = None, tag: int = TAG_SINGLE,
                 decay: DecayFunction = NO_DECAY, base=frozenset()):
        self.graph, self.config, self.tag = graph, config, tag
        self.base = frozenset(base)
        self.sims = config.single_phase_sims if sims is None else sims
        if self.sims < 1:
            raise ValueError("sims must be >= 1")
        self.decay = decay
        self.weights = decay.weights(graph.n)   # an activation at step t < n is worth weights[t]
        self.live = None                     # the worlds, False past a budget
        self._cache = {}
        self._nodes, self._node_bytes = {}, 0   # node -> its activations (keys, times)
        self._stack = []                     # (node, keys, replaced times, counts before)
        self._counts = np.zeros(graph.n, dtype=np.int64)   # table entries per step
        self._prev = frozenset()

    def __call__(self, seeds) -> float:
        key = self.base | frozenset(seeds)
        if key not in self._cache:
            self._cache[key] = self._value(key) if key else 0.0
        return self._cache[key]

    @property
    def submodular(self) -> bool:
        """True unless the draw has failed: a value on fixed worlds is a
        coverage (delta = 1) or facility-location (delta < 1) sum, so a
        set's gain can only shrink as the set grows, which lazy greedy
        relies on; forward estimates give no such bound."""
        return self.live is not False

    def _draw(self):
        """Draw the worlds and allocate the table and the BFS work matrix,
        once both fit their budgets."""
        graph, sims = self.graph, self.sims
        n, m = graph.n, graph.m
        dtype = next(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                     if n <= np.iinfo(t).max // 2 + 1)
        check_bytes("the live-edge worlds", sims * m, WORLD_BYTES)
        check_bytes("an activation-time table", sims * n * dtype.itemsize, TABLE_BYTES)
        self.live = np.empty((sims, m), dtype=bool)
        rows = max(1, DRAW_BYTES // (8 * max(m, 1)))
        for j, lo, count in _chunks(sims, n):
            rng, hi = stream(self.config.master_seed, self.tag, j), lo + count
            for a in range(lo, hi, rows):
                b = min(a + rows, hi)
                np.less(rng.random((b - a, m)), graph.p, out=self.live[a:b])
        self._key_dtype = np.int32 if sims * n <= np.iinfo(np.int32).max else np.int64
        # one chunk of BFS times, all NEVER between calls
        self._work = np.full((min(sims, chunk_size(n)), n), NEVER,
                             dtype=dtype.str.replace("u", "i"))
        self._table = np.full((sims, n), np.iinfo(dtype).max, dtype=dtype)

    def _activations(self, seeds):
        """The activations from ``seeds`` in every world, by one BFS, as
        (flat keys, steps)."""
        seeds = _check_seeds(self.graph, seeds)
        n, m = self.graph.n, self.graph.m
        keys, times = [], []
        for lo in range(0, self.sims, len(self._work)):
            work = self._work[:self.sims - lo]
            live = self.live[lo:lo + len(work)].reshape(-1)
            work[:, seeds] = 0
            steps = _cascade(self.graph, work, _seed_keys(len(work), n, seeds), n,
                             lambda key, edge: live[key // n * m + edge])
            found = np.concatenate(steps)
            work.reshape(-1)[found] = NEVER
            keys.append(found + lo * n)
            times.append(np.arange(len(steps), dtype=self._table.dtype).repeat(
                [len(step) for step in steps]))
        return np.concatenate(keys).astype(self._key_dtype), np.concatenate(times)

    def _node(self, v: int):
        """``_activations([v])``, stored if it fits."""
        got = self._nodes.get(v)
        if got is None:
            got = self._activations([v])
            nbytes = got[0].nbytes + got[1].nbytes
            if not self._nodes or self._node_bytes + nbytes <= CACHE_BYTES:
                self._nodes[v] = got
                self._node_bytes += nbytes
        return got

    def _value(self, key) -> float:
        if self.live is None:
            try:
                self._draw()
            except BudgetError:
                self.live = False
        if self.live is False:
            return estimate_spread(self.graph, key, self.config, sims=self.sims,
                                   tag=self.tag, decay=self.decay).mean
        common, self._prev = key & self._prev, key
        kept = next((i for i, entry in enumerate(self._stack) if entry[0] not in common),
                    len(self._stack))
        while len(self._stack) > kept:
            self._pop()
        for v in sorted(common - {entry[0] for entry in self._stack}):
            self._push(v)
        rest = sorted(key - common)
        if not rest:
            return self._score(self._counts)
        for v in rest[:-1]:
            self._push(v)
        value = self._score(self._counts + self._gain(rest[-1])[0])
        for _ in rest[:-1]:
            self._pop()
        return value

    def _score(self, counts) -> float:
        return float((counts * self.weights).sum()) / self.sims

    def _gain(self, v):
        """The change of the per-step counts if v joined the table, and the
        entries it would improve (keys, times, old times); an old NEVER
        counts past the last step."""
        keys, times = self._node(v)
        old = self._table.reshape(-1)[keys]
        better = times < old
        keys, times, old = keys.compress(better), times.compress(better), old.compress(better)
        n = self.graph.n
        gain = (np.bincount(times, minlength=n)
                - np.bincount(np.minimum(old, n), minlength=n + 1)[:n])
        return gain, keys, times, old

    def _push(self, v):
        gain, keys, times, old = self._gain(v)
        self._table.reshape(-1)[keys] = times
        self._stack.append((v, keys, old, self._counts))
        self._counts = self._counts + gain

    def _pop(self):
        _, keys, old, self._counts = self._stack.pop()
        self._table.reshape(-1)[keys] = old
