"""Fully adaptive cross-entropy optimization over seed sets.

Iterates: sample candidate sets from a per-node product distribution, rank
by objective value, refit the distribution to the value-weighted elites with
smoothing, repeat until the elite threshold stabilizes. Optional joint mode
also samples the delay d and the budget split k1, each by one uniform from
a CDF built once per refit, as ``Generator.choice`` draws it, and the seeds
from the node probabilities scaled to k1 members once per iteration and
k1. Each draw round is drawn whole before any of it is scored, and its new
candidates are scored in one objective call, so a batched objective can
score a round at once: ``tpim twophase --optimize face-joint`` scores it
with ``two_phase.score_cells``, the cell scorer of the grid and
golden-section searches too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .diffusion import TAG_FACE, stream
from .graph import InfluenceGraph
from .selectors import SeedSet, check_budget

BOUNDARY_TOL = 0.01       # node_probs this close to {0,1} count as converged
ALPHA = 0.6               # weight of the refit against the previous probabilities
MAX_ITERATIONS = 20
RELIABILITY_TOL = 1e-3    # relative change of the elite threshold that counts as stable
EXPLORATION_FLOOR = 0.1   # least inclusion probability of a node after a refit


@dataclass
class CeSample:
    set: tuple   # sorted, as ``_sample_set`` returns it
    value: float
    k1: int   # first-phase budget; the whole budget in plain mode
    d: int    # delay; 0 in plain mode


@dataclass
class CeIterationLog:
    iteration: int
    draws: int
    elite_threshold: float
    best: float


def _clamp_redistribute(q: np.ndarray, total: float) -> np.ndarray:
    """Clamp entries above 1 and push their surplus onto the remaining
    entries proportionally until all are feasible; saturated entries stay
    pinned at 1 so the loop makes progress. Preserves the sum (= total)
    whenever total <= len(q)."""
    q = q.astype(float).copy()
    saturated = np.zeros(len(q), dtype=bool)
    while True:
        over = (q > 1.0 + 1e-15) & ~saturated
        if not over.any():
            break
        saturated |= over
        q[saturated] = 1.0
        free = ~saturated & (q > 0)
        remainder = total - saturated.sum()
        if not free.any() or remainder <= 0:
            break
        q[free] *= remainder / q[free].sum()
    return np.clip(q, 0.0, 1.0)


def _sample_set(q: np.ndarray, budget: int, rng: np.random.Generator) -> tuple:
    """Bernoulli draw per node, then repair to exactly ``budget`` members by
    adding highest-q excluded nodes or dropping lowest-q included ones
    (random jitter breaks probability ties)."""
    n = len(q)
    included = rng.random(n) < q
    count = int(included.sum())
    if count != budget:
        order = np.lexsort((rng.random(n), q))  # ascending q
        if count < budget:
            order = order[::-1]
        # the first |count - budget| nodes of the order on the wrong side
        flip = order[included[order] == (count > budget)][:abs(count - budget)]
        included[flip] = count < budget
    return tuple(int(v) for v in np.flatnonzero(included))


def _weighted_refit(samples, n, getter):
    """q_new[v] = sum of elite values over samples containing v / total elite
    value; falls back to plain membership frequency when all values are 0.
    One ``bincount`` over the members in sample order adds each node's values
    in that order."""
    members = [getter(s) for s in samples]
    nodes = np.fromiter(chain.from_iterable(members), np.int64)
    total = math.fsum(s.value for s in samples)
    if total > 0:
        values = np.repeat([s.value for s in samples], [len(m) for m in members])
        return np.bincount(nodes, weights=values, minlength=n) / total
    return np.bincount(nodes, minlength=n) / len(samples)


def _reliable(threshold, prev_threshold, q):
    if np.all((q <= BOUNDARY_TOL) | (q >= 1.0 - BOUNDARY_TOL)):
        return True
    if prev_threshold is None:
        return False
    denom = max(abs(prev_threshold), 1e-12)
    return abs(threshold - prev_threshold) / denom < RELIABILITY_TOL


def _better(cand: CeSample, best: CeSample | None) -> bool:
    if best is None or cand.value > best.value:
        return True
    return cand.value == best.value and cand.set < best.set   # sorted tuples


def _cross_entropy(q: np.ndarray, draw, score, refit=None):
    """The CE loop of both modes; returns (best sample, iteration log).

    ``draw(q)`` returns one candidate (k1, d, sorted seed tuple) from the
    node probabilities q, and ``score(candidates)`` returns their values.
    With n = len(q) nodes, each iteration draws n samples, doubling up to 20n
    while the elite threshold (the value of the ceil(n / 4)-th best sample)
    fails to improve, then refits q to the value-weighted elites (smoothed
    by ALPHA, floored) and hands the elites to ``refit``. No draw depends on
    a value, so each round (the first n samples, then each doubling's
    top-up) is drawn whole and its candidates not seen before are scored in
    one call, in the order they first appear."""
    n_min, n_max, n_elite = len(q), 20 * len(q), math.ceil(len(q) / 4)
    best: CeSample | None = None
    prev_threshold = None
    log = []
    cache = {}
    for it in range(MAX_ITERATIONS):
        draws = n_min
        samples = []
        while True:
            fresh = [draw(q) for _ in range(draws - len(samples))]
            new = [c for c in dict.fromkeys(fresh) if c not in cache]
            if new:
                cache.update(zip(new, map(float, score(new)), strict=True))
            samples += [CeSample(set=c[2], value=cache[c], k1=c[0], d=c[1]) for c in fresh]
            samples.sort(key=lambda s: (-s.value, s.d, s.set))
            threshold = samples[n_elite - 1].value
            improved = prev_threshold is None or threshold > prev_threshold
            if improved or draws >= n_max:
                break
            draws = min(2 * draws, n_max)
        elites = samples[:n_elite]
        for s in samples:
            if _better(s, best):
                best = s
        q_new = _weighted_refit(elites, len(q), lambda s: s.set)
        # the floor keeps every node sampleable so a sharp early elite set
        # cannot freeze out the true optimum; convergence then comes from
        # the elite-threshold stagnation test rather than the boundary test
        q = np.clip(ALPHA * q_new + (1.0 - ALPHA) * q, EXPLORATION_FLOOR, 1.0)
        if refit is not None:
            refit(elites)
        log.append(CeIterationLog(iteration=it, draws=len(samples),
                                  elite_threshold=threshold, best=best.value))
        if _reliable(threshold, prev_threshold, q):
            break
        prev_threshold = threshold
    return best, log


def face_select(graph: InfluenceGraph, budget: int, objective, master_seed: int = 0,
                return_log: bool = False):
    """Cross-entropy search for an approximately spread-maximal budget-set.

    Deterministic per master seed; returns the best set ever sampled."""
    n = graph.n
    check_budget(graph, budget)
    rng = stream(master_seed, TAG_FACE)
    best, log = _cross_entropy(
        np.full(n, budget / n, dtype=float),
        lambda q: (budget, 0, _sample_set(q, budget, rng)),
        lambda cands: [objective(frozenset(nodes)) for _, _, nodes in cands])
    result = SeedSet(nodes=sorted(best.set), budget=budget)
    return (result, log) if return_log else result


def face_joint_optimize(graph: InfluenceGraph, total_budget: int, max_delay: int,
                        two_phase_objective, master_seed: int = 0,
                        return_log: bool = False):
    """Joint cross-entropy search over (k1, d, S1).

    two_phase_objective(candidates) scores a list of (k1, d, seed_tuple)
    candidates, returning one value each; it is called once per draw round
    (see ``_cross_entropy``), with the round's new candidates. The pure
    single-phase arm (k1 = total_budget, d = 0) is sampled explicitly so
    the optimizer can fall back to it under harsh decay."""
    n = graph.n
    k, D = total_budget, max_delay
    check_budget(graph, k)
    if D < 1:
        raise ValueError("max_delay must be >= 1")
    k1_probs = np.full(k, 1.0 / k)        # over {1..k}
    d_probs = np.full(D + 1, 1.0 / (D + 1))  # over {0..D}; d=0 forces k1=k
    k1_cdf, d_cdf = _cdf(k1_probs), _cdf(d_probs)
    scaled = {}   # k1 -> (q, q scaled to k1 members) for the q last drawn from
    rng = stream(master_seed, TAG_FACE)

    def draw(q):
        """One candidate: d, then k1 unless d = 0, each from one uniform as
        ``rng.choice`` would draw it, then k1 nodes from q scaled to k1
        members (scaled once per q and k1)."""
        d = _categorical(d_cdf, rng)
        k1 = k if d == 0 else 1 + _categorical(k1_cdf, rng)
        if k1 == k:
            d = 0  # no second phase left, the delay is meaningless
        got = scaled.get(k1)
        if got is None or got[0] is not q:
            got = scaled[k1] = q, _clamp_redistribute(q * (k1 / max(q.sum(), 1e-12)), k1)
        return k1, d, _sample_set(got[1], k1, rng)

    def refit(elites):
        nonlocal k1_probs, d_probs, k1_cdf, d_cdf
        k1_new = _weighted_refit(elites, k, lambda s: (s.k1 - 1,))
        d_new = _weighted_refit(elites, D + 1, lambda s: (s.d,))
        k1_probs = _normalized(ALPHA * k1_new + (1 - ALPHA) * k1_probs)
        d_probs = _normalized(ALPHA * d_new + (1 - ALPHA) * d_probs)
        k1_cdf, d_cdf = _cdf(k1_probs), _cdf(d_probs)

    best, log = _cross_entropy(np.full(n, k / n, dtype=float), draw, two_phase_objective,
                               refit)
    result = (best.k1, best.d, SeedSet(nodes=sorted(best.set), budget=best.k1))
    return (result, log) if return_log else result


def _cdf(p: np.ndarray) -> np.ndarray:
    """The CDF that ``Generator.choice`` builds from the probabilities p."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _categorical(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """The index ``rng.choice(len(p), p=p)`` draws, given the ``_cdf`` of p:
    from the one uniform ``choice`` reads, also when p has one entry."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _normalized(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 0.0, None)
    s = p.sum()
    return p / s if s > 0 else np.full(len(p), 1.0 / len(p))
