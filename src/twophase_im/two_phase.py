"""Two-phase pipeline: surrogate objectives g and h, and the end-to-end
myopic/farsighted run.

Structure of every nested evaluation (``_nested_run``): simulate phase 1 to
step d and observe it; in each outer replicate, pick second-phase seeds as
if on the residual graph (already-activated nodes cut out), with the
recently-activated nodes as a free partial seed set; then continue the
diffusion on the parent graph from the recent nodes and the second-phase
seeds, m2 times per outer replicate, and aggregate. Outer replicates run in
groups: one batched SD/WD/GDD selection and one continued cascade per group.
Already-active nodes take no part in the continuation, so it draws exactly
what a simulation on the residual graph would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import (
    BATCH_BYTES,
    NEVER,
    NO_DECAY,
    TAG_PHASE1,
    TAG_PHASE2,
    TAG_SINGLE,
    DecayFunction,
    MonteCarloConfig,
    SpreadEstimate,
    _batches,
    _estimate,
    check_bytes,
    continue_blocks,
    stream,
)
from .graph import InfluenceGraph, residual_graph
from .selectors import (
    SeedSet,
    SigmaObjective,
    select_discount,
    select_gdd,
    select_greedy,
    select_rmax,
    select_sd,
    select_spic,
    select_wd,
)

TAG_PHASE2_SELECT = 7
GROUP_CELLS = 1 << 16   # most (rows x n) phase-2 times continued in one cascade

HEURISTIC_SELECTORS = ("sd", "wd", "gdd")
OBJECTIVE_SELECTORS = ("greedy", "rmax", "spic", "face")
ALL_SELECTORS = HEURISTIC_SELECTORS + OBJECTIVE_SELECTORS


@dataclass
class TwoPhasePlan:
    k1: int
    k2: int
    d: int
    mode: str = "myopic"  # myopic | farsighted
    selector: str = "gdd"
    selector2: str | None = None  # defaults to selector
    s1: SeedSet | None = None     # pre-chosen first-phase seeds, else selected

    def __post_init__(self):
        if self.mode not in ("myopic", "farsighted"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.selector not in ALL_SELECTORS:
            raise ValueError(f"unknown selector {self.selector!r}")
        if self.selector2 is None:
            self.selector2 = self.selector
        if self.k1 < 0 or self.k2 < 0 or self.d < 0:
            raise ValueError("k1, k2, d must be non-negative")
        if self.s1 is not None and len(self.s1.nodes) > self.k1:
            raise ValueError("s1 exceeds k1")

    @property
    def k(self) -> int:
        return self.k1 + self.k2


@dataclass
class TwoPhaseResult:
    spread: SpreadEstimate
    realized_s2_examples: list
    progression: np.ndarray  # expected newly-activated count per time step

    def progression_rows(self):
        for t, v in enumerate(self.progression):
            yield t, float(v)


def _second_phase_heuristic(selector2):
    def pick(graph, already, recent, budgets, master_seed):
        return select_discount(graph, selector2, budgets, removed=already,
                               preselected=recent)
    return pick


def _second_phase_objective(selector2, sims):
    def pick_one(res: InfluenceGraph, recent_local, k2_eff, master_seed):
        cfg = MonteCarloConfig(master_seed=master_seed)
        base = frozenset(recent_local)
        sigma = SigmaObjective(res, cfg, sims=sims, tag=TAG_PHASE2_SELECT)
        objective = lambda s: sigma(base | s)
        if selector2 == "greedy":
            return select_greedy(res, k2_eff, objective).nodes
        if selector2 == "rmax":
            return select_rmax(res, k2_eff, objective, master_seed=master_seed).nodes
        if selector2 == "spic":
            return select_spic(res, k2_eff, objective, master_seed=master_seed).nodes
        if selector2 == "face":
            from .face import face_select
            return face_select(res, k2_eff, objective, master_seed=master_seed).nodes
        raise ValueError(selector2)

    def pick(graph, already, recent, budgets, master_seed):
        """Select on each outer replicate's residual graph, mapped back."""
        picks = []
        for gone, now, k2_eff in zip(already, recent, budgets.tolist()):
            if k2_eff <= 0:
                picks.append([])
                continue
            res, kept = residual_graph(graph, np.flatnonzero(gone))
            recent_local = np.searchsorted(kept, np.flatnonzero(now)).tolist()
            picks.append(kept[pick_one(res, recent_local, k2_eff, master_seed)].tolist())
        return picks
    return pick


def _histogram_add(hist, steps):
    """hist plus the count of each step value, grown to fit the largest."""
    counts = np.bincount(steps)
    if len(counts) > len(hist):
        hist = np.concatenate([hist, np.zeros(len(counts) - len(hist), dtype=hist.dtype)])
    hist[:len(counts)] += counts
    return hist


def _outer_values(blocks, at, already, decay):
    """The mean value of each outer replicate: its phase-1 value before d
    plus that of each of its continuations (``blocks``, (reps, m2, n)) on
    the nodes not already active. At delta < 1 a continuation's values are
    summed over a C-ordered gather of those nodes, the residual graph's
    columns, so the float sums are the residual graph's; at delta = 1 they
    are counts."""
    base = decay.values(np.where(already, at, NEVER)).astype(np.float64)
    if decay.delta == 1.0:
        counts = (blocks >= 0).sum(axis=2) - already.sum(axis=1)[:, None]
        return (base[:, None] + counts).mean(axis=1)
    return [(b + decay.values(np.ascontiguousarray(block[:, ~gone]))).mean()
            for b, block, gone in zip(base, blocks, already)]


def _nested_run(graph, s1, d, k2, config, decay, second_phase, collect_examples=0):
    """Shared nested Monte-Carlo engine; returns (estimate, progression, s2s).

    All phase-1 replicates come from one chunked batch stopped at step d.
    They are taken in groups of whole outer replicates, at most
    ``GROUP_CELLS`` phase-2 times (or one outer replicate) each. A group's
    second-phase seeds are selected at once; then outer replicate i is
    repeated m2 times with its seeds written in at step d and continued on
    the parent graph with the coins of ``stream(master_seed, TAG_PHASE2, i)``.
    One replicate's (m2, n) times are checked against ``BATCH_BYTES`` first:
    they cannot be split without changing its stream."""
    s1 = sorted(set(int(v) for v in s1))
    n = graph.n
    m1, m2 = config.phase1_sims, config.phase2_sims
    check_bytes("one outer replicate's phase-2 times (phase2_sims x n int32)",
                4 * m2 * n, BATCH_BYTES)
    group = max(1, GROUP_CELLS // max(m2 * n, 1))
    outer_means = np.empty(m1)
    phase1_hist = np.zeros(0, dtype=np.int64)   # phase-1 activations per step
    phase2_hist = np.zeros(0, dtype=np.int64)   # phase-2 activations per step - d
    s2_examples = []
    first = 0                                   # the group's first outer replicate
    for times1 in _batches(graph, s1, m1, config.master_seed, TAG_PHASE1, stop_at=d):
        for at in np.split(times1, range(group, len(times1), group)):
            reps = len(at)
            already, recent = (at >= 0) & (at < d), at == d
            budgets = np.minimum(k2, n - already.sum(axis=1) - recent.sum(axis=1))
            s2 = second_phase(graph, already, recent, budgets, config.master_seed)
            s2_examples += [sorted(s) for s in s2[:collect_examples - len(s2_examples)]]
            frontier = recent.copy()
            for r, seeds in enumerate(s2):
                frontier[r, seeds] = True
            frontier = frontier.repeat(m2, axis=0)
            times = at.repeat(m2, axis=0)
            times[frontier] = d
            continue_blocks(graph, times, np.flatnonzero(frontier), d,
                            [stream(config.master_seed, TAG_PHASE2, first + r)
                             for r in range(reps)], m2)
            outer_means[first:first + reps] = _outer_values(
                times.reshape(reps, m2, n), at, already, decay)
            # progression bookkeeping (plain counts; sums to the delta = 1 mean)
            phase1_hist = _histogram_add(phase1_hist, at[already])
            phase2_hist = _histogram_add(phase2_hist, times[times >= d] - d)
            first += reps
    mean = float(outer_means.mean())
    stderr = (float(outer_means.std(ddof=1) / math.sqrt(m1)) if m1 > 1 else 0.0)
    prog = np.zeros(max(len(phase1_hist), d + len(phase2_hist)))
    prog[:len(phase1_hist)] += phase1_hist / m1
    prog[d:d + len(phase2_hist)] += phase2_hist / (m1 * m2)
    est = SpreadEstimate(mean=mean, stderr=stderr, samples=m1 * m2)
    return est, _trim(prog), s2_examples


def _trim(prog):
    """Drop trailing zero steps, keeping at least step 0."""
    nonzero = np.flatnonzero(prog)
    return prog[:nonzero[-1] + 1] if nonzero.size else np.zeros(1)


def eval_h(graph: InfluenceGraph, s1, d: int, k2: int, config: MonteCarloConfig,
           decay: DecayFunction = NO_DECAY) -> SpreadEstimate:
    """Two-phase surrogate with GDD second-phase selection (the production
    objective: orders of magnitude cheaper than greedy)."""
    est, _, _ = _nested_run(graph, s1, d, k2, config, decay,
                            _second_phase_heuristic("gdd"))
    return est


def eval_g(graph: InfluenceGraph, s1, d: int, k2: int, config: MonteCarloConfig,
           decay: DecayFunction = NO_DECAY,
           greedy_sims: int | None = None) -> SpreadEstimate:
    """Two-phase surrogate with greedy second-phase selection; validation-only
    path (costly), restricted to small graphs in practice."""
    sims = greedy_sims if greedy_sims is not None else config.phase2_sims
    est, _, _ = _nested_run(graph, s1, d, k2, config, decay,
                            _second_phase_objective("greedy", sims))
    return est


def _single_phase_result(graph, seeds, config, decay, sims):
    """Single-phase spread plus progression, on the TAG_SINGLE streams of
    estimate_spread and bit-identical to it."""
    vals = []
    hist = np.zeros(0, dtype=np.int64)
    for times in _batches(graph, seeds, sims, config.master_seed, TAG_SINGLE):
        vals.append(decay.values(times))
        hist = _histogram_add(hist, times[times >= 0])
    return _estimate(np.concatenate(vals, dtype=np.float64)), _trim(hist / sims)


def _phase1_objective(graph, plan, config, decay, farsighted_config):
    if plan.mode == "myopic" or plan.selector in HEURISTIC_SELECTORS:
        return SigmaObjective(graph, config, sims=config.phase1_sims, decay=decay)
    far = farsighted_config or MonteCarloConfig(
        phase1_sims=max(1, config.phase1_sims // 10),
        phase2_sims=max(1, config.phase2_sims // 10),
        master_seed=config.master_seed)
    cache = {}

    def h_objective(s):
        key = frozenset(s)
        if key not in cache:
            cache[key] = eval_h(graph, key, plan.d, plan.k2, far, decay).mean
        return cache[key]

    return h_objective


def select_phase1(graph, plan: TwoPhasePlan, config, decay=NO_DECAY,
                  farsighted_config=None) -> SeedSet:
    if plan.s1 is not None:
        return plan.s1
    if plan.k1 == 0:
        return SeedSet(nodes=[], budget=0)
    sel = plan.selector
    if sel == "sd":
        return select_sd(graph, plan.k1)
    if sel == "wd":
        return select_wd(graph, plan.k1)
    if sel == "gdd":
        return select_gdd(graph, plan.k1)
    objective = _phase1_objective(graph, plan, config, decay, farsighted_config)
    if sel == "greedy":
        return select_greedy(graph, plan.k1, objective)
    if sel == "rmax":
        return select_rmax(graph, plan.k1, objective, master_seed=config.master_seed)
    if sel == "spic":
        return select_spic(graph, plan.k1, objective, master_seed=config.master_seed)
    if sel == "face":
        from .face import face_select
        return face_select(graph, plan.k1, objective, master_seed=config.master_seed)
    raise ValueError(sel)


def run_two_phase(graph: InfluenceGraph, plan: TwoPhasePlan, config: MonteCarloConfig,
                  decay: DecayFunction = NO_DECAY,
                  farsighted_config: MonteCarloConfig | None = None):
    """Full two-phase execution; returns (result, s1).

    With k2=0 and d=0 this reduces exactly to a single-phase run of the
    selector (same estimator streams as estimate_spread)."""
    s1 = select_phase1(graph, plan, config, decay, farsighted_config)
    if plan.k2 == 0 and plan.d == 0:
        est, prog = _single_phase_result(graph, s1.nodes, config, decay,
                                         config.single_phase_sims)
        return TwoPhaseResult(spread=est, realized_s2_examples=[], progression=prog), s1
    if plan.selector2 in HEURISTIC_SELECTORS:
        second = _second_phase_heuristic(plan.selector2)
    else:
        second = _second_phase_objective(plan.selector2, config.phase2_sims)
    est, prog, s2s = _nested_run(graph, s1.nodes, plan.d, plan.k2, config, decay,
                                 second, collect_examples=5)
    return TwoPhaseResult(spread=est, realized_s2_examples=s2s, progression=prog), s1
