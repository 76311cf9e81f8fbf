"""Two-phase pipeline: the surrogate objective h, the one cell scorer of
the optimizers, and the end-to-end myopic/farsighted run of a fixed plan.
Every seed selection, of a single phase, a first phase or a replicate's
second phase, goes through ``select_seeds``.

``_nested_run`` is the one plan estimator. A plan with k2 = 0 is
single-phase at any d (``diffusion.estimate_spreads``); any other is
nested: simulate phase 1 to step d and observe it; in each outer
replicate, pick second-phase seeds as if on the residual graph
(already-activated nodes cut out), with the recently-activated nodes as a
free partial seed set; then continue the diffusion from the recent nodes
and the second-phase seeds, m2 times per outer replicate, and aggregate.
The sampling is ``diffusion.nested_spreads``; this module gives it the
second phase, ``_second_phase`` under the budget rule min(k2, nodes left),
which returns a group of outer replicates' seeds as a mask (one batched
selection for SD/WD/GDD).

One run takes many plans, each set at its own d, reading the streams it
would read alone, so its estimate is the same bit for bit. ``eval_h`` and
``run_two_phase`` are its one-plan case; ``score_cells`` scores many (k1,
d, S1) cells in one run, for the grid, golden-section and FACE-joint
optimizers and FACE-joint's final estimate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .diffusion import (
    NO_DECAY,
    TAG_PHASE2_SELECT,
    DecayFunction,
    MonteCarloConfig,
    SpreadEstimate,
    estimate_spreads,
    nested_spreads,
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
    seeds, and no selector call, at k <= 0 (callers refuse k < 0)."""
    return SELECTORS[selector](graph, k, objective, master_seed).nodes if k > 0 else []


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


def _second_phase(graph, selector2, already, recent, budgets, config, decay) -> np.ndarray:
    """The (reps, n) mask of each outer replicate's second-phase seeds:
    ``budgets[r]`` nodes picked by ``selector2`` as if on the residual graph
    of row r (the nodes of ``already[r]`` cut out), with the nodes of
    ``recent[r]`` a free partial seed set. SD, WD and GDD pick for every
    row in one ``select_discount`` on a ``discount_state`` of all rows; an
    objective selector picks on row r's ``residual_graph``, on ``decay``
    over ``config.phase2_sims`` worlds with the recent nodes as the
    objective's base, and its picks are mapped back."""
    if selector2 in DISCOUNT_KINDS:
        state = discount_state(graph, selector2, removed=already, preselected=recent)
        select_discount(graph, state, budgets)
        return state.taken & ~(already | recent)
    picked = np.zeros_like(already)
    for r in np.flatnonzero(budgets).tolist():
        res, kept = residual_graph(graph, np.flatnonzero(already[r]))
        sigma = SigmaObjective(res, config, sims=config.phase2_sims, tag=TAG_PHASE2_SELECT,
                               decay=decay,
                               base=np.searchsorted(kept, np.flatnonzero(recent[r])).tolist())
        picked[r, kept[select_seeds(selector2, res, int(budgets[r]), sigma,
                                    config.master_seed)]] = True
    return picked


def _nested_run(graph, s1s, ds, k2s, config, decay, selector2, collect_examples=0,
                progression=False):
    """(estimate, progression, first ``collect_examples`` second phases) of
    each plan: set c at delay ds[c], then k2s[c] seeds picked by
    ``selector2``, or as many as the nodes not yet active leave. At k2 = 0,
    at any d, one ``estimate_spreads`` call, no examples; the rest, in order
    of delay, one ``nested_spreads`` call. An arm with no plan makes none."""
    k2s = np.asarray(k2s, dtype=np.int64)
    if k2s.size and k2s.min() < 0:
        raise ValueError(f"second-phase budget {int(k2s.min())} is negative")
    single = np.flatnonzero(k2s == 0).tolist()
    nested = sorted(np.flatnonzero(k2s).tolist(), key=lambda c: ds[c])
    k2_nested = k2s[nested]

    def pick(owner, already, recent):
        budgets = np.minimum(k2_nested[owner], graph.n - already.sum(axis=1) - recent.sum(axis=1))
        return _second_phase(graph, selector2, already, recent, budgets, config, decay)

    runs = {}
    if single:
        got = estimate_spreads(graph, [s1s[c] for c in single], config, decay=decay,
                               progression=progression)
        runs.update((c, (est, prog, [])) for c, (est, prog) in zip(single, got))
    if nested:
        got = nested_spreads(graph, [s1s[c] for c in nested], [ds[c] for c in nested], config,
                             decay, pick, collect_examples, progression)
        runs.update(zip(nested, got))
    return [runs[c] for c in range(len(s1s))]


def eval_h(graph: InfluenceGraph, s1, d: int, k2: int, config: MonteCarloConfig,
           decay: DecayFunction = NO_DECAY) -> SpreadEstimate:
    """Two-phase surrogate with GDD second-phase selection (the production
    objective: orders of magnitude cheaper than greedy): ``_nested_run``'s
    estimate of the plan, single-phase at k2 = 0. The farsighted
    first-phase objective calls it with the plan's k2 >= 1 (a negative one
    raises ``ValueError``); perfbench's tracer patches it by name."""
    return _nested_run(graph, [s1], [d], [k2], config, decay, "gdd")[0][0]


def farsighted_config(config: MonteCarloConfig) -> MonteCarloConfig:
    """The cheaper config of a nested objective: a tenth of the outer and
    inner replicates, the same master seed. A single-phase estimate on it
    takes as many replicates as its outer ones."""
    outer = max(1, config.phase1_sims // 10)
    return MonteCarloConfig(single_phase_sims=outer, phase1_sims=outer,
                            phase2_sims=max(1, config.phase2_sims // 10),
                            master_seed=config.master_seed)


def score_cells(graph: InfluenceGraph, cells, k: int, config: MonteCarloConfig,
                decay: DecayFunction = NO_DECAY, selector2: str = "gdd") -> list:
    """The estimate of each (k1, d, S1) cell for a budget of k, bit for bit
    that of ``run_two_phase`` on the cell alone: ``_nested_run``'s of the
    plans (S1, d, k - k1), all in one call, with second phases picked by
    ``selector2``. A k1 outside [0, k] raises ``ValueError`` before anything
    runs."""
    for k1, _, _ in cells:
        if not (0 <= k1 <= k):
            raise ValueError(f"k1 {k1} outside [0, {k}]")
    runs = _nested_run(graph, [s1 for _, _, s1 in cells], [d for _, d, _ in cells],
                       [k - k1 for k1, _, _ in cells], config, decay, selector2)
    return [est for est, _, _ in runs]


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
        cells = [(k1, 0 if k1 == k else d) for k1, d in cells]
        new = [cell for cell in dict.fromkeys(cells) if cell not in memo]
        memo.update(zip(new, score_cells(graph, [(k1, d, first_phase(k1)) for k1, d in new],
                                         k, config, decay, selector)))
        return [memo[cell] for cell in cells]

    return evaluate


def select_phase1(graph, plan: TwoPhasePlan, config, decay=NO_DECAY) -> list:
    """The plan's first-phase seeds, picked on the spread (myopic) or on
    ``eval_h`` at the plan's d and k2 (farsighted, unless k2 = 0 leaves no
    second phase to look ahead to). Both objectives are lazy: SD, WD and
    GDD never call theirs, so they draw nothing."""
    if plan.mode == "myopic" or plan.k2 == 0:
        objective = myopic_objective(graph, config, decay)
    else:   # an objective takes a frozenset, so the cache keys on the set
        far = farsighted_config(config)
        objective = functools.cache(lambda s: eval_h(graph, s, plan.d, plan.k2, far, decay).mean)
    return select_seeds(plan.selector, graph, plan.k1, objective, config.master_seed)


def run_two_phase(graph: InfluenceGraph, plan: TwoPhasePlan, config: MonteCarloConfig,
                  decay: DecayFunction = NO_DECAY):
    """Full two-phase execution of a fixed plan; returns (result, S1 nodes):
    ``_nested_run``'s estimate of the plan, with its progression and up to
    five example second phases (single-phase, with none, at k2 = 0).
    perfbench's tracer patches it by name."""
    s1 = select_phase1(graph, plan, config, decay)
    est, prog, s2s = _nested_run(graph, [s1], [plan.d], [plan.k2], config, decay, plan.selector,
                                 collect_examples=5, progression=True)[0]
    return TwoPhaseResult(spread=est, realized_s2_examples=s2s, progression=prog), s1
