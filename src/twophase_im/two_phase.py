"""Two-phase pipeline: the surrogate objective h, the one cell scorer of
the optimizers, and the end-to-end myopic/farsighted run of a fixed plan.
Every seed selection, of a single phase, a first phase or a replicate's
second phase, goes through ``select_seeds``.

Structure of every nested evaluation (``_nested_run``): simulate phase 1 to
step d and observe it; in each outer replicate, pick second-phase seeds as
if on the residual graph (already-activated nodes cut out), with the
recently-activated nodes as a free partial seed set; then continue the
diffusion on the parent graph from the recent nodes and the second-phase
seeds, m2 times per outer replicate, and aggregate. The phase-1 replicates
come from the row source of ``diffusion`` (``replicate_rows``) in groups of
outer replicates: one ``_second_phase`` call, which returns the group's
second-phase seeds as a mask (one batched selection for SD/WD/GDD), and
one continued cascade per group. Already-active nodes take no part in the
continuation, so it draws exactly what a simulation on the residual graph
would.

One nested run takes many first-phase sets at one d; each set reads the
streams it would read alone, so its estimate is the same bit for bit.
``eval_h`` and ``run_two_phase`` are its one-set case, and ``score_cells``
scores many (k1, d, S1) cells, grouped by d, in one batch: the grid,
golden-section and FACE-joint optimizers, and FACE-joint's final estimate,
all score through it. Single-phase estimates (k2 = 0 and d = 0, and the
k1 = k arm of ``score_cells``) are those of ``diffusion.estimate_spreads``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .diffusion import (
    BATCH_BYTES,
    NEVER,
    NO_DECAY,
    TAG_PHASE1,
    TAG_PHASE2,
    TAG_PHASE2_SELECT,
    WORLD_BYTES,
    DecayFunction,
    MonteCarloConfig,
    SpreadEstimate,
    _estimates,
    _histogram_add,
    _trim,
    check_bytes,
    continue_blocks,
    estimate_spreads,
    replicate_rows,
    stream_source,
)
from .face import face_select
from .graph import InfluenceGraph, residual_graph
from .selectors import (
    DISCOUNT_KINDS,
    SigmaObjective,
    discount_state,
    select_discount,
    select_gdd,
    select_greedy,
    select_rmax,
    select_sd,
    select_spic,
    select_wd,
)

# Every selector by name, as (graph, k, objective, master_seed) -> SeedSet;
# SD, WD and GDD use neither the objective nor the seed. Each entry looks its
# function up by name when called, so a rebinding of that module-level name
# (a tracer's wrapper, say) is seen.
SELECTORS = {
    "sd": lambda graph, k, objective, seed: select_sd(graph, k),
    "wd": lambda graph, k, objective, seed: select_wd(graph, k),
    "gdd": lambda graph, k, objective, seed: select_gdd(graph, k),
    "greedy": lambda graph, k, objective, seed: select_greedy(graph, k, objective),
    "rmax": lambda graph, k, objective, seed: select_rmax(graph, k, objective, master_seed=seed),
    "spic": lambda graph, k, objective, seed: select_spic(graph, k, objective, master_seed=seed),
    "face": lambda graph, k, objective, seed: face_select(graph, k, objective, master_seed=seed),
}


def select_seeds(selector, graph, k, objective, master_seed) -> list:
    """The k seeds that selector ``selector`` picks on ``objective``; no
    seeds, and no selector call, at k = 0."""
    return SELECTORS[selector](graph, k, objective, master_seed).nodes if k else []


def myopic_objective(graph, config: MonteCarloConfig, decay: DecayFunction = NO_DECAY):
    """The spread objective a myopic first phase (and a single phase)
    selects on: ``config.phase1_sims`` worlds."""
    return SigmaObjective(graph, config, sims=config.phase1_sims, decay=decay)


@dataclass
class TwoPhasePlan:
    k1: int
    k2: int
    d: int
    mode: str = "myopic"  # myopic | farsighted
    selector: str = "gdd"         # picks both phases

    def __post_init__(self):
        if self.mode not in ("myopic", "farsighted"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.selector not in SELECTORS:
            raise ValueError(f"unknown selector {self.selector!r}")
        if self.k1 < 0 or self.k2 < 0 or self.d < 0:
            raise ValueError("k1, k2, d must be non-negative")

    @property
    def k(self) -> int:
        return self.k1 + self.k2


@dataclass
class TwoPhaseResult:
    spread: SpreadEstimate
    realized_s2_examples: list
    progression: np.ndarray  # expected newly-activated count per time step


def _second_phase(graph, selector2, already, recent, budgets, config) -> np.ndarray:
    """The (reps, n) mask of each outer replicate's second-phase seeds:
    ``budgets[r]`` nodes picked by ``selector2`` as if on the residual graph
    of row r (the nodes of ``already[r]`` cut out), with the nodes of
    ``recent[r]`` a free partial seed set. SD, WD and GDD pick for every
    row in one ``select_discount`` on a ``discount_state`` of all rows; an
    objective selector picks on row r's ``residual_graph``, on an objective
    of ``config.phase2_sims`` worlds, and its picks are mapped back."""
    if selector2 in DISCOUNT_KINDS:
        state = discount_state(graph, selector2, removed=already, preselected=recent)
        select_discount(graph, state, budgets)
        return state.taken & ~(already | recent)
    picked = np.zeros_like(already)
    for r in np.flatnonzero(budgets).tolist():
        res, kept = residual_graph(graph, np.flatnonzero(already[r]))
        base = frozenset(np.searchsorted(kept, np.flatnonzero(recent[r])).tolist())
        sigma = SigmaObjective(res, config, sims=config.phase2_sims, tag=TAG_PHASE2_SELECT)
        picked[r, kept[select_seeds(selector2, res, int(budgets[r]),
                                    lambda s: sigma(base | s), config.master_seed)]] = True
    return picked


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


def _nested_run(graph, s1s, d, k2s, config, decay, selector2, collect_examples=0,
                progression=False):
    """Shared nested Monte-Carlo engine over first-phase sets at one delay
    d, set c with k2s[c] second-phase seeds picked by ``selector2``; returns
    (estimate, progression, first s2 examples, each a sorted list) for each
    set. The progression, the expected new activations per step, is counted
    only when asked for (else None).

    The phase-1 replicates come from ``replicate_rows`` in groups of whole
    outer replicates, at most ``GROUP_CELLS`` phase-2 times (or one outer
    replicate) each. A group's second-phase seeds come from one
    ``_second_phase`` call, as a mask with a row per outer replicate;
    then outer replicate i of every set is repeated m2 times with its seeds
    written in at step d and continued on the parent graph with the coins of
    ``stream(master_seed, TAG_PHASE2, i)``, each block from the stream's
    start, as if alone. The call takes those generators from one
    ``stream_source``, so outer replicate i's seed is hashed once, however
    many sets read it. One replicate's (m2, n) times are checked against
    ``BATCH_BYTES`` first: they cannot be split without changing its
    stream."""
    sets = [sorted(set(int(v) for v in s1)) for s1 in s1s]
    n = graph.n
    m1, m2 = config.phase1_sims, config.phase2_sims
    check_bytes("one outer replicate's phase-2 times (phase2_sims x n int32)",
                4 * m2 * n, BATCH_BYTES)
    check_bytes("the outer-replicate values (sets x phase1_sims float64)", 8 * len(sets) * m1,
                WORLD_BYTES)
    k2s = np.asarray(k2s, dtype=np.int64)
    outer_means = np.empty((len(sets), m1))
    phase1_hist = np.zeros((len(sets), 0), dtype=np.int64)   # activations per step
    phase2_hist = np.zeros((len(sets), 0), dtype=np.int64)   # per step - d
    s2_examples = [[] for _ in sets]
    phase2 = stream_source(config.master_seed, TAG_PHASE2)
    for c, i, at in replicate_rows(graph, sets, m1, config.master_seed, TAG_PHASE1, m2 * n,
                                   stop_at=d):
        reps = len(at)
        already, recent = (at >= 0) & (at < d), at == d
        budgets = np.minimum(k2s[c], n - already.sum(axis=1) - recent.sum(axis=1))
        picked = _second_phase(graph, selector2, already, recent, budgets, config)
        frontier = (recent | picked).repeat(m2, axis=0)
        times = at.repeat(m2, axis=0)
        times[frontier] = d
        continue_blocks(graph, times, np.flatnonzero(frontier), d,
                        [phase2(j) for j in i.tolist()])
        outer_means[c, i] = _outer_values(times.reshape(reps, m2, n), at, already, decay)
        for r in np.flatnonzero(i < collect_examples).tolist():
            s2_examples[c[r]].append(np.flatnonzero(picked[r]).tolist())
        if progression:   # plain counts; sums to the delta = 1 mean
            phase1_hist = _histogram_add(phase1_hist, at, already, c)
            phase2_hist = _histogram_add(phase2_hist, times, times >= d, c.repeat(m2), d)
    results = []
    for est, hist1, hist2, examples in zip(_estimates(outer_means, m1 * m2),
                                           phase1_hist, phase2_hist, s2_examples):
        prog = None
        if progression:
            prog = np.zeros(max(len(hist1), d + len(hist2)))
            prog[:len(hist1)] += hist1 / m1
            prog[d:d + len(hist2)] += hist2 / (m1 * m2)
            prog = _trim(prog)
        results.append((est, prog, examples))
    return results


def eval_h(graph: InfluenceGraph, s1, d: int, k2: int, config: MonteCarloConfig,
           decay: DecayFunction = NO_DECAY) -> SpreadEstimate:
    """Two-phase surrogate with GDD second-phase selection (the production
    objective: orders of magnitude cheaper than greedy). The farsighted
    first-phase objective calls it with the plan's k2, which may be 0, where
    ``score_cells`` would take its single-phase arm instead; perfbench's
    tracer patches it by name."""
    return _nested_run(graph, [s1], d, [k2], config, decay, "gdd")[0][0]


def _farsighted(config: MonteCarloConfig) -> MonteCarloConfig:
    """The cheaper config of a nested objective: a tenth of the outer and
    inner replicates, the same master seed. A single-phase estimate on it
    takes as many replicates as its outer ones."""
    outer = max(1, config.phase1_sims // 10)
    return MonteCarloConfig(single_phase_sims=outer, phase1_sims=outer,
                            phase2_sims=max(1, config.phase2_sims // 10),
                            master_seed=config.master_seed)


def score_cells(graph: InfluenceGraph, cells, k: int, config: MonteCarloConfig,
                decay: DecayFunction = NO_DECAY, selector2: str = "gdd") -> list:
    """The estimate of each (k1, d, S1) cell for a budget of k. A cell with
    k1 = k is the single-phase arm, whatever its d: the spread of S1 over
    ``config.single_phase_sims`` replicates. Every other cell is a two-phase
    plan with k - k1 second-phase seeds picked by ``selector2``. Estimates
    are those of ``run_two_phase`` on each cell alone, bit for bit; the
    single-phase arm is scored by one ``estimate_spreads`` call, and the
    other cells of one d by one ``_nested_run``."""
    estimates = [None] * len(cells)
    groups = {}
    for j, (k1, d, _) in enumerate(cells):
        groups.setdefault(None if k1 == k else int(d), []).append(j)
    for d, idx in groups.items():
        sets = [cells[j][2] for j in idx]
        if d is None:
            got = [est for est, _ in estimate_spreads(graph, sets, config, decay=decay)]
        else:
            got = [est for est, _, _ in _nested_run(
                graph, sets, d, [k - cells[j][0] for j in idx], config, decay, selector2)]
        for j, est in zip(idx, got):
            estimates[j] = est
    return estimates


def cell_scorer(graph: InfluenceGraph, k: int, config: MonteCarloConfig,
                decay: DecayFunction = NO_DECAY, selector: str = "gdd"):
    """The memoized scorer of (k1, d) cells for a budget of k that the grid,
    golden-section and delay searches take: evaluate(cells) ->
    [SpreadEstimate]. A cell k1 = k leaves no second phase, so its delay is
    read as 0. The cells not scored before go to one ``score_cells`` call,
    each with the myopic S1 of its k1, selected once (it does not depend on
    d) on one first-phase objective that every k1 shares: an objective's
    value depends on the set alone, so a shared one picks what a fresh one
    would."""
    if k < 1:
        raise ValueError("k must be >= 1")
    memo = {}
    objective = myopic_objective(graph, config, decay)
    first_phase = functools.cache(
        lambda k1: select_seeds(selector, graph, k1, objective, config.master_seed))

    def evaluate(cells):
        for k1, _ in cells:
            if not (0 <= k1 <= k):
                raise ValueError(f"k1 {k1} outside [0, {k}]")
        cells = [(k1, 0 if k1 == k else d) for k1, d in cells]
        new = [cell for cell in dict.fromkeys(cells) if cell not in memo]
        memo.update(zip(new, score_cells(graph, [(k1, d, first_phase(k1)) for k1, d in new],
                                         k, config, decay, selector)))
        return [memo[cell] for cell in cells]

    return evaluate


def select_phase1(graph, plan: TwoPhasePlan, config, decay=NO_DECAY) -> list:
    """The plan's first-phase seeds, picked on the spread (myopic) or on
    ``eval_h`` at the plan's d and k2 (farsighted). Both objectives are lazy:
    SD, WD and GDD never call theirs, so they draw nothing."""
    if plan.mode == "myopic":
        objective = myopic_objective(graph, config, decay)
    else:   # an objective takes a frozenset, so the cache keys on the set
        far = _farsighted(config)
        objective = functools.cache(lambda s: eval_h(graph, s, plan.d, plan.k2, far, decay).mean)
    return select_seeds(plan.selector, graph, plan.k1, objective, config.master_seed)


def run_two_phase(graph: InfluenceGraph, plan: TwoPhasePlan, config: MonteCarloConfig,
                  decay: DecayFunction = NO_DECAY):
    """Full two-phase execution of a fixed plan; returns (result, S1 nodes).

    With k2=0 and d=0 this reduces exactly to a single-phase run of the
    selector (same estimator streams as estimate_spread)."""
    s1 = select_phase1(graph, plan, config, decay)
    if plan.k2 == 0 and plan.d == 0:
        [(est, prog)] = estimate_spreads(graph, [s1], config, decay=decay, progression=True)
        return TwoPhaseResult(spread=est, realized_s2_examples=[], progression=prog), s1
    est, prog, s2s = _nested_run(graph, [s1], plan.d, [plan.k2], config, decay, plan.selector,
                                 collect_examples=5, progression=True)[0]
    return TwoPhaseResult(spread=est, realized_s2_examples=s2s, progression=prog), s1
