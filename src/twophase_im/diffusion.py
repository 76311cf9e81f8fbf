"""Monte-Carlo independent-cascade simulation and the spread estimator.

Discrete-step IC semantics: a node activated at step t-1 gets one chance to
activate each inactive out-neighbor at step t. Edges are sampled
on-activation, which is equivalent to pre-sampling a live graph. One
sampler, ``simulate_batch``, walks the frontier's out-edges in the graph's
CSR arrays; ``simulate_ic`` is its one-replicate view. One estimator,
``estimate_spread``, weights activations by a ``DecayFunction`` (delta = 1,
the default, is the plain spread).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

CHUNK = 4096             # most replicates per derived RNG stream in batch simulation
BATCH_BYTES = 32 << 20   # budget for one chunk's (reps, n) int32 times matrix


def chunk_size(n: int) -> int:
    """Replicates per chunk: CHUNK, or fewer so the times matrix fits BATCH_BYTES."""
    return max(1, min(CHUNK, BATCH_BYTES // (4 * max(n, 1))))


def stream(master_seed: int, tag: int, index: int = 0) -> np.random.Generator:
    """Derived RNG stream for (master_seed, tag, index); order-insensitive."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(tag, index)))


@dataclass(frozen=True)
class DecayFunction:
    """Time value of an activation: one at step t is worth delta**t, in [0, 1]
    and non-increasing in t. delta = 1 (``constant_one``) is the plain spread."""

    delta: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.delta <= 1.0):
            raise ValueError("delta must lie in [0, 1]")

    @classmethod
    def constant_one(cls) -> "DecayFunction":
        return cls(1.0)

    @classmethod
    def exponential(cls, delta: float) -> "DecayFunction":
        return cls(delta)

    def values(self, times: np.ndarray, offset: int = 0):
        """Per-replicate value of an activation-time array: the sum over its
        last axis of delta**(t + offset), NEVER counting 0. At delta = 1 it is
        the integer active count, so the plain spread builds no float array."""
        active = times >= 0
        if self.delta == 1.0:
            return active.sum(axis=-1)
        return np.where(active, np.power(self.delta, np.maximum(times, 0) + offset,
                                         dtype=float), 0.0).sum(axis=-1)


NO_DECAY = DecayFunction.constant_one()


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

    @property
    def final_active_count(self) -> int:
        return int(np.count_nonzero(self.activation_time >= 0))

    def active_at_or_before(self, t: int) -> np.ndarray:
        at = self.activation_time
        return np.flatnonzero((at >= 0) & (at <= t))


@dataclass(frozen=True)
class Observation:
    """Partial observation at step d: already- and recently-activated sets."""

    at_step: int
    already: frozenset
    recent: frozenset


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


def observe_at(trace: DiffusionTrace, d: int) -> Observation:
    """Classify activations at step d: already (< d) vs recent (== d)."""
    if d < 0:
        raise ValueError("observation step must be >= 0")
    at = trace.activation_time
    already = np.flatnonzero((at >= 0) & (at < d))
    recent = np.flatnonzero(at == d)
    return Observation(at_step=d,
                       already=frozenset(int(v) for v in already),
                       recent=frozenset(int(v) for v in recent))


def simulate_batch(graph: InfluenceGraph, seeds, rng: np.random.Generator,
                   reps: int, stop_at: int | None = None) -> np.ndarray:
    """IC replicates; returns a (reps, n) activation-time matrix.

    Per-edge frontier sampler: each step gathers the out-edges of every
    (replicate, node) activated in the previous step, drops edges into nodes
    already active in that replicate, draws one uniform per remaining edge
    and activates the targets of the hits (``u < p``), each once. Frontier
    entries are kept sorted by (replicate, node) and edges in CSR order, so
    the draws are fixed by the stream alone.
    """
    seeds = _check_seeds(graph, seeds)
    n = graph.n
    if stop_at is None:
        stop_at = n
    times = np.full((reps, n), NEVER, dtype=np.int32)
    if not seeds or n == 0:
        return times
    times[:, seeds] = 0
    flat = times.reshape(-1)
    indptr, degree, dst, prob = graph.indptr, graph.out_degrees, graph.dst, graph.p
    # frontier as sorted flat keys replicate * n + node
    key = (np.arange(0, reps * n, n)[:, None] + np.asarray(seeds)).ravel()
    t = 0
    while key.size and t < stop_at:
        t += 1
        node = key % n
        count = degree[node]
        ends = count.cumsum()
        total = int(ends[-1])
        if total == 0:
            break
        # edge ids: indptr[node] + 0..count-1 for every frontier entry
        edge = (indptr[node] - ends + count).repeat(count)
        edge += np.arange(total)
        key = (key - node).repeat(count)
        key += dst[edge]
        open_ = flat[key] == NEVER
        key = key[open_]
        key = key[rng.random(key.size) < prob[edge[open_]]]
        key.sort()
        if key.size > 1:
            fresh = np.empty(key.size, dtype=bool)
            fresh[0] = True
            np.not_equal(key[1:], key[:-1], out=fresh[1:])
            key = key[fresh]
        flat[key] = t
    return times


def _batches(graph, seeds, sims, master_seed, tag, stop_at=None):
    """Times matrices for ``sims`` replicates, one per derived stream
    (master_seed, tag, chunk index), at most ``chunk_size(n)`` rows each."""
    size = chunk_size(graph.n)
    for idx, done in enumerate(range(0, sims, size)):
        yield simulate_batch(graph, seeds, stream(master_seed, tag, idx),
                             min(size, sims - done), stop_at=stop_at)


def _estimate(vals: np.ndarray) -> SpreadEstimate:
    sims = len(vals)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(sims)) if sims > 1 else 0.0
    return SpreadEstimate(mean=mean, stderr=stderr, samples=sims)


def estimate_spread(graph: InfluenceGraph, seeds, config: MonteCarloConfig,
                    sims: int | None = None, tag: int = TAG_SINGLE,
                    decay: DecayFunction = NO_DECAY) -> SpreadEstimate:
    """Monte-Carlo estimate of the expected decay-weighted active count (the
    final active count under the default, delta = 1). Deterministic given
    (graph, seeds, master_seed, sims, tag); every decay sees the same traces."""
    sims = config.single_phase_sims if sims is None else sims
    if sims < 1:
        raise ValueError("sims must be >= 1")
    seeds = _check_seeds(graph, seeds)
    if not seeds:
        return SpreadEstimate(mean=0.0, stderr=0.0, samples=sims)
    vals = [decay.values(times)
            for times in _batches(graph, seeds, sims, config.master_seed, tag)]
    return _estimate(np.concatenate(vals, dtype=np.float64))


def trace_csv_rows(trace: DiffusionTrace):
    """CSV dump rows (node_id, activation_time); blank time for never."""
    for v, t in enumerate(trace.activation_time):
        yield v, (int(t) if t >= 0 else "")
