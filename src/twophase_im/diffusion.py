"""Monte-Carlo independent-cascade simulation and the spread estimator.

Discrete-step IC semantics: a node activated at step t-1 gets one chance to
activate each inactive out-neighbor at step t. Edges are sampled
on-activation, which is equivalent to pre-sampling a live graph. One
frontier loop, ``_cascade``, walks the frontier's out-edges in the graph's
CSR arrays, from the seeds at step 0 or from any frontier at a later step.

Every fresh replicate comes from one sampler, ``simulate_blocks``: blocks
of (seed set, rows, stream) as one cascade whose coin draws one uniform per
edge tested, each block reading its stream from the start at its own
offset (``_block_coin``), so that many blocks can share one stream.
``simulate_batch`` is its one-block case (``simulate_ic`` a one-replicate
view), and ``replicate_rows`` the row source over it: chunk j of every set
reads ``stream(master_seed, tag, j)``, and as many chunks as fit
``GROUP_CELLS`` run as one cascade. ``continue_blocks`` continues stopped
replicates with the same coin (the second phase of a two-phase run).
``WorldSample`` runs the loop in live-edge worlds drawn once, with a lookup
for a coin. One estimator, ``estimate_spreads``, weights activations by a
``DecayFunction`` (delta = 1, the default, is the plain spread);
``estimate_spread`` is its one-set case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import InfluenceGraph

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
    """Raise ``error`` before an allocation of ``nbytes`` that passes ``budget``."""
    if nbytes > budget:
        raise error(f"{what}: {nbytes / 2**20:.1f} MiB, above the budget "
                    f"of {budget / 2**20:.1f} MiB")


def chunk_size(n: int) -> int:
    """Replicates per chunk: CHUNK, or fewer so the times matrix fits BATCH_BYTES."""
    return max(1, min(CHUNK, BATCH_BYTES // (4 * max(n, 1))))


def stream(master_seed: int, tag: int, index: int = 0) -> np.random.Generator:
    """Derived RNG stream for (master_seed, tag, index); order-insensitive."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(tag, index)))


@dataclass(frozen=True)
class DecayFunction:
    """Time value of an activation: one at step t is worth delta**t, in [0, 1]
    and non-increasing in t. delta = 1, the default, is the plain spread."""

    delta: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.delta <= 1.0):
            raise ValueError("delta must lie in [0, 1]")

    def values(self, times: np.ndarray):
        """Per-replicate value of an activation-time array: the sum over its
        last axis of delta**t, NEVER counting 0. At delta = 1 it is the
        integer active count, so the plain spread builds no float array."""
        active = times >= 0
        if self.delta == 1.0:
            return active.sum(axis=-1)
        return np.where(active, np.power(self.delta, np.maximum(times, 0), dtype=float),
                        0.0).sum(axis=-1)


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


def _edge_ids(indptr: np.ndarray, nodes: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ids indptr[v] + 0..count_v-1 of each node's CSR range, node after
    node; ``count`` is the nodes' range lengths."""
    ends = count.cumsum()
    edge = (indptr[nodes] - ends + count).repeat(count)
    edge += np.arange(edge.size)
    return edge


def _cascade(graph: InfluenceGraph, times: np.ndarray, key: np.ndarray, stop_at: int,
             coin, t: int = 0) -> list:
    """The IC frontier loop, in place on a (reps, n) times matrix, from the
    sorted flat keys ``key`` (replicate * n + node) activated at step ``t``
    and written in; returns the keys activated at each step, ``key`` first.
    No step past ``stop_at`` runs.

    Each step gathers the out-edges of every (replicate, node) activated in
    the previous step, drops edges into nodes already active in that
    replicate (any non-NEVER entry), asks ``coin(key, edge)`` which of the
    remaining edges fire (``key`` is replicate * n + target, ordered by
    replicate) and activates the targets of the hits, each once. Frontier
    entries are kept sorted by (replicate, node) and edges in CSR order, so
    the coins are asked in a fixed order.
    """
    reps, n = times.shape
    flat = times.reshape(-1)
    indptr, degree, dst = graph.indptr, graph.out_degrees, graph.dst
    steps = [key]
    while key.size and t < stop_at:
        t += 1
        node = key % n
        count = degree[node]
        edge = _edge_ids(indptr, node, count)
        if edge.size == 0:
            break
        key = (key - node).repeat(count)
        key += dst[edge]
        open_ = flat[key] == NEVER
        key = key[open_]
        key = key[coin(key, edge[open_])]
        key.sort()
        if key.size > 1:
            fresh = np.empty(key.size, dtype=bool)
            fresh[0] = True
            np.not_equal(key[1:], key[:-1], out=fresh[1:])
            key = key[fresh]
        flat[key] = t
        steps.append(key)
    return steps


def simulate_blocks(graph: InfluenceGraph, blocks, rngs: list,
                    stop_at: int | None = None) -> np.ndarray:
    """IC replicates in blocks, as one (rows, n) activation-time matrix from
    one cascade: block (seeds, rows, s) is ``rows`` replicates of ``seeds``
    whose coins come from ``rngs[s]``, read from its position at the call as
    if the block ran alone (``_block_coin``).

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
    coin = _block_coin(graph.p, n, starts, [s for _, _, s in blocks], rngs)
    _cascade(graph, times, key, n if stop_at is None else stop_at, coin)
    return times


def simulate_batch(graph: InfluenceGraph, seeds, rng: np.random.Generator,
                   reps: int, stop_at: int | None = None) -> np.ndarray:
    """IC replicates; returns a (reps, n) activation-time matrix, the one
    block of ``simulate_blocks``."""
    return simulate_blocks(graph, [(seeds, reps, 0)], [rng], stop_at)


def _block_coin(prob: np.ndarray, n: int, starts, src, rngs: list):
    """The coin of a cascade whose rows come in blocks: block b, rows
    ``starts[b]`` to ``starts[b + 1] - 1``, draws one uniform per edge tested
    from ``rngs[src[b]]``, in key order, at its own offset. So each block
    reads its stream from the start, as it would in a cascade of its own,
    however many blocks share the stream.

    A stream read by one block is drawn as it is read, ``rng.random(count)``
    a step. Of a stream shared by several blocks only the uniforms that some
    block still reading has not passed are kept: a block asked no coin in a
    step activates nothing, so it never reads again."""
    bounds = np.asarray(starts, dtype=np.int64) * n
    src = np.asarray(src, dtype=np.int64)
    solo = len(set(src.tolist())) == len(src)
    read = np.zeros(len(src), dtype=np.int64)     # uniforms each block has read
    base = np.zeros(len(rngs), dtype=np.int64)    # stream position of kept[s][0]
    kept = [np.zeros(0)] * len(rngs)
    last = np.iinfo(np.int64).max

    def coin(key, edge):
        count = np.diff(np.searchsorted(key, bounds))
        live = np.flatnonzero(count)
        count, used, at = count[live], src[live], read[live]
        if solo:   # each live block draws its count into its own slice, in key order
            u, ends = np.empty(key.size), count.cumsum()
            for s, a, b in zip(used.tolist(), (ends - count).tolist(), ends.tolist()):
                rngs[s].random(out=u[a:b])
            return u < prob[edge]
        read[live] += count
        lo, hi = np.full(len(rngs), last), np.zeros(len(rngs), dtype=np.int64)
        np.minimum.at(lo, used, at)
        np.maximum.at(hi, used, at + count)
        start = np.zeros(len(rngs), dtype=np.int64)   # pool position of stream position 0
        pool, size = [], 0
        for s in np.flatnonzero(hi).tolist():
            keep = kept[s][lo[s] - base[s]:]
            need = int(hi[s] - lo[s]) - keep.size
            if need > 0:
                keep = np.concatenate((keep, rngs[s].random(need)))
            kept[s], base[s] = keep, lo[s]
            start[s], size = size - lo[s], size + keep.size
            pool.append(keep)
        u = np.concatenate(pool or [np.zeros(0)])
        return u[_edge_ids(start[used] + at, np.arange(live.size), count)] < prob[edge]

    return coin


def continue_blocks(graph: InfluenceGraph, times: np.ndarray, key: np.ndarray, t: int,
                    block: int, src, rngs: list) -> None:
    """Continue IC replicates in place to their end: the (reps, n) ``times``
    matrix, from the sorted flat keys ``key`` activated at step ``t``.

    The rows come in blocks of ``block``; block b reads ``rngs[src[b]]``
    (``_block_coin``). Edges into nodes already active are dropped before
    any draw and the rest keep their CSR order, so a block draws what
    ``simulate_batch`` with its stream would draw on the graph with those
    nodes cut out (``residual_graph``), from the frontier.
    """
    reps, n = times.shape
    coin = _block_coin(graph.p, n, range(0, reps + 1, block), src, rngs)
    _cascade(graph, times, key, t + n, coin, t)   # a cascade on n nodes ends within n steps


def replicate_rows(graph: InfluenceGraph, seed_sets, sims: int, master_seed: int, tag: int,
                   cells: int, stop_at: int | None = None):
    """``sims`` IC replicates of each seed set, as groups of (set index,
    replicate index, times) rows, sets in order and replicates in order.

    A set's replicates come in chunks of ``chunk_size(n)``; chunk j is a
    block (``simulate_blocks``) that reads ``stream(master_seed, tag, j)``
    from its start, so a replicate's row does not depend on how the chunks
    are batched. One cascade runs consecutive chunks, as many as fit
    ``GROUP_CELLS`` at ``cells`` per row (what a row takes downstream), and
    at least one; its rows come in groups of at most that many rows."""
    size = chunk_size(graph.n)
    fit = max(1, GROUP_CELLS // max(cells, 1))
    chunks = [(c, first, min(size, sims - first))
              for c in range(len(seed_sets)) for first in range(0, sims, size)]
    hi = 0
    while hi < len(chunks):
        lo, rows = hi, 0
        while hi < len(chunks) and (hi == lo or rows + chunks[hi][2] <= fit):
            rows += chunks[hi][2]
            hi += 1
        batch = chunks[lo:hi]
        used, src = np.unique([first // size for _, first, _ in batch], return_inverse=True)
        times = simulate_blocks(graph, [(seed_sets[c], r, s) for (c, _, r), s in zip(batch, src)],
                                [stream(master_seed, tag, j) for j in used.tolist()], stop_at)
        owner = np.repeat([c for c, _, _ in batch], [r for _, _, r in batch])
        index = np.concatenate([np.arange(first, first + r) for _, first, r in batch])
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


def _histogram_add(hist, times, mask, owner, offset=0):
    """hist, (sets, steps), plus the count of each step ``times - offset``
    at the entries of ``mask``, those of row r counted in row ``owner[r]``
    (ascending) of hist, which is widened to fit the largest step."""
    steps = times[mask] - offset if offset else times[mask]
    lo, hi = int(owner[0]), int(owner[-1]) + 1
    width = int(steps.max()) + 1 if steps.size else 0
    flat = (owner - lo).repeat(mask.sum(axis=1)) * width + steps
    counts = np.bincount(flat, minlength=(hi - lo) * width).reshape(hi - lo, width)
    if counts.shape[1] > hist.shape[1]:
        grow = np.zeros((len(hist), counts.shape[1] - hist.shape[1]), dtype=hist.dtype)
        hist = np.concatenate((hist, grow), axis=1)
    hist[lo:hi, :counts.shape[1]] += counts
    return hist


def _trim(prog):
    """Drop trailing zero steps, keeping at least step 0."""
    nonzero = np.flatnonzero(prog)
    return prog[:nonzero[-1] + 1] if nonzero.size else np.zeros(1)


def estimate_spreads(graph: InfluenceGraph, seed_sets, config: MonteCarloConfig,
                     sims: int | None = None, tag: int = TAG_SINGLE,
                     decay: DecayFunction = NO_DECAY, progression: bool = False) -> list:
    """Monte-Carlo estimate of the expected decay-weighted active count (the
    final active count under the default, delta = 1) of each seed set, as
    (estimate, progression) pairs: the progression, the expected new
    activations per step, is counted only when asked for (else None). A
    set's pair is deterministic given (graph, set, master_seed, sims, tag),
    whatever the other sets; every decay sees the same traces."""
    sims = config.single_phase_sims if sims is None else sims
    if sims < 1:
        raise ValueError("sims must be >= 1")
    check_bytes("the per-replicate values (sets x sims float64)", 8 * len(seed_sets) * sims,
                WORLD_BYTES)
    vals = np.empty((len(seed_sets), sims))
    hist = np.zeros((len(seed_sets), 0), dtype=np.int64)
    for owner, index, times in replicate_rows(graph, seed_sets, sims, config.master_seed,
                                              tag, graph.n):
        vals[owner, index] = decay.values(times)
        if progression:
            hist = _histogram_add(hist, times, times >= 0, owner)
    return [(est, _trim(h / sims) if progression else None)
            for est, h in zip(_estimates(vals, sims), hist)]


def estimate_spread(graph: InfluenceGraph, seeds, config: MonteCarloConfig,
                    sims: int | None = None, tag: int = TAG_SINGLE,
                    decay: DecayFunction = NO_DECAY) -> SpreadEstimate:
    """The estimate of ``estimate_spreads`` for one seed set."""
    return estimate_spreads(graph, [seeds], config, sims, tag, decay)[0][0]


class ByteCache:
    """Values with an ``nbytes`` by key under a byte budget. An entry is
    stored while it fits (the first one whatever its size) and is never
    evicted, so a scan in a fixed order (greedy's) cannot flush the entries
    it stored first, as it would flush a least-recently-used cache."""

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._items = {}

    def __len__(self) -> int:
        return len(self._items)

    def get(self, key, make):
        """The value stored under ``key``, else ``make()``, stored if it fits."""
        got = self._items.get(key)
        if got is None:
            got = make()
            if not self._items or self.nbytes + got.nbytes <= self.budget:
                self._items[key] = got
                self.nbytes += got.nbytes
        return got


def _time_dtype(n: int) -> np.dtype:
    """Smallest unsigned dtype whose signed view holds the times 0..n-1."""
    return next(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                if n <= np.iinfo(t).max // 2 + 1)


class Activations(NamedTuple):
    """Every activation of a cascade over a world sample, as flat keys
    world * n + node and the step of each."""

    keys: np.ndarray
    times: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.times.nbytes


class WorldSample:
    """``sims`` live-edge worlds of a graph, drawn once, and the activations
    of a cascade in them.

    World w keeps edge e when u < p[e]; the uniforms of the c-th chunk of
    ``chunk_size(n)`` worlds come from ``stream(master_seed, tag, c)``, one
    world (row) after another. In a fixed world a cascade is a BFS over the
    kept edges (``_cascade`` with a lookup for a coin), so the activation
    time of a node from a set is the minimum of its times from the members.
    A node's activations are computed on first use and kept in a
    ``ByteCache`` of ``CACHE_BYTES``; each costs the edges its BFS tests.
    A dense (sims, n) table of the unsigned ``dtype``, NEVER stored as its
    largest value, composes them. The mask is checked against
    ``WORLD_BYTES`` and one table against ``TABLE_BYTES`` before anything
    is allocated (``BudgetError``).
    """

    def __init__(self, graph: InfluenceGraph, sims: int, master_seed: int, tag: int):
        if sims < 1:
            raise ValueError("sims must be >= 1")
        n, m = graph.n, graph.m
        self.graph, self.sims = graph, sims
        self.dtype = _time_dtype(n)
        self.signed = np.dtype(self.dtype.str.replace("u", "i"))
        self.never = np.iinfo(self.dtype).max
        check_bytes("the live-edge worlds", sims * m, WORLD_BYTES)
        check_bytes("an activation-time table", sims * n * self.dtype.itemsize, TABLE_BYTES)
        self.live = np.empty((sims, m), dtype=bool)
        size = chunk_size(n)
        rows = max(1, DRAW_BYTES // (8 * max(m, 1)))
        for idx, lo in enumerate(range(0, sims, size)):
            rng, hi = stream(master_seed, tag, idx), min(lo + size, sims)
            for a in range(lo, hi, rows):
                b = min(a + rows, hi)
                np.less(rng.random((b - a, m)), graph.p, out=self.live[a:b])
        self._key_dtype = np.int32 if sims * n <= np.iinfo(np.int32).max else np.int64
        # one chunk of BFS times, all NEVER between calls
        self._work = np.full((min(sims, size), n), NEVER, dtype=self.signed)
        self._nodes = ByteCache(CACHE_BYTES)

    def activations(self, seeds) -> Activations:
        """The activations from ``seeds`` in every world, by one BFS."""
        seeds = _check_seeds(self.graph, seeds)
        n, m = self.graph.n, self.graph.m
        if not seeds:
            return Activations(np.zeros(0, self._key_dtype), np.zeros(0, self.dtype))
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
            times.append(np.arange(len(steps), dtype=self.dtype).repeat(
                [len(step) for step in steps]))
        return Activations(np.concatenate(keys).astype(self._key_dtype),
                           np.concatenate(times))

    def node(self, v: int) -> Activations:
        """``activations([v])``, cached."""
        return self._nodes.get(v, lambda: self.activations([v]))

    def table(self, *found: Activations) -> np.ndarray:
        """A (sims, n) times table with the given activations written in."""
        table = np.full((self.sims, self.graph.n), self.never, dtype=self.dtype)
        for acts in found:
            keys, times, _ = self.improve(table, acts)
            table.reshape(-1)[keys] = times
        return table

    def improve(self, table: np.ndarray, acts: Activations):
        """The activations in ``acts`` earlier than ``table``'s, as (keys,
        times, the table's times there)."""
        old = table.reshape(-1)[acts.keys]
        better = acts.times < old
        return acts.keys[better], acts.times[better], old[better]

