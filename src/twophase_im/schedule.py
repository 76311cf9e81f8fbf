"""Budget-split and delay optimization: exhaustive (k1, d) grid search and
golden-section search over k1 with a nested sequential delay search.

The spread surface is treated as unimodal in k1 and in d separately, never
jointly; only nested one-dimensional searches are implemented. Under a
selector name every cell is scored by ``two_phase.score_cells``, with S1
selected once per k1, every k1 on one first-phase objective: the grid scores
all its cells in one call, the golden-section and delay searches one cell a
call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .diffusion import (
    NO_DECAY,
    TAG_PROBE,
    DecayFunction,
    MonteCarloConfig,
    SpreadEstimate,
    replicate_rows,
)
from .graph import InfluenceGraph
from .selectors import SigmaObjective, select_wd
from .two_phase import SELECTORS, score_cells

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
D_MARGIN = 2  # safety steps added past the observed stagnation point
PATIENCE = 2  # consecutive non-improving delays that end a sequential d-search
MAX_EVALUATIONS = 5000  # most cells an exhaustive grid evaluates


@dataclass
class SearchConfig:
    k_total: int
    d_max: int
    decay: DecayFunction = NO_DECAY
    mc: MonteCarloConfig = field(default_factory=MonteCarloConfig)

    def __post_init__(self):
        if self.k_total < 1:
            raise ValueError("k_total must be >= 1")
        if self.d_max < 0:
            raise ValueError("d_max must be >= 0")

    @property
    def k1_grid_step(self) -> int:
        """Spacing of the k1 grid: about 20 points over the budget."""
        return max(1, self.k_total // 20)


@dataclass
class GridResult:
    entries: list   # (k1, d, SpreadEstimate)
    best: tuple     # (k1, d)

    def best_estimate(self) -> SpreadEstimate:
        for k1, d, est in self.entries:
            if (k1, d) == self.best:
                return est
        raise KeyError(self.best)


def _make_evaluator(graph, config: SearchConfig, selector):
    """Memoized scorer of (k1, d) cells: evaluate(cells) -> [SpreadEstimate].

    ``selector`` is either a selector id or a callable (k1, d) -> float |
    SpreadEstimate for synthetic and exact objectives. Under a selector id
    the cells not scored before go to one ``score_cells`` call, each with the
    myopic S1 of its k1, selected once (it does not depend on d) on one
    first-phase objective that every k1 shares: an objective's value depends
    on the set alone, so a shared one picks what a fresh one would."""
    memo = {}
    k = config.k_total
    objective = SigmaObjective(graph, config.mc, sims=config.mc.phase1_sims,
                               decay=config.decay)

    @functools.cache
    def first_phase(k1):
        if k1 == 0:
            return []
        return SELECTORS[selector](graph, k1, objective, config.mc.master_seed).nodes

    def score(k1, d):
        got = selector(k1, d)
        return got if isinstance(got, SpreadEstimate) else SpreadEstimate(
            mean=float(got), stderr=0.0, samples=0)

    def evaluate(cells):
        for k1, _ in cells:
            if not (0 <= k1 <= k):
                raise ValueError(f"k1 {k1} outside [0, {k}]")
        # k1 = k leaves no second phase, so its delay is meaningless
        cells = [(k1, 0 if k1 == k else d) for k1, d in cells]
        new = [cell for cell in dict.fromkeys(cells) if cell not in memo]
        if callable(selector):
            memo.update((cell, score(*cell)) for cell in new)
        elif new:
            memo.update(zip(new, score_cells(
                graph, [(k1, d, first_phase(k1)) for k1, d in new], k, config.mc,
                config.decay, selector)))
        return [memo[cell] for cell in cells]

    return evaluate


def _tie_pick(candidates):
    """Best (k1, d, est): highest mean; entries within one pooled stderr of
    the top are tied and resolve to smaller k1, then smaller d."""
    top = max(candidates, key=lambda e: e[2].mean)
    tied = []
    for k1, d, est in candidates:
        pooled = math.hypot(est.stderr, top[2].stderr)
        if top[2].mean - est.mean <= pooled:
            tied.append((k1, d, est))
    return min(tied, key=lambda e: (e[0], e[1]))


def exhaustive_grid(graph: InfluenceGraph, config: SearchConfig, selector) -> GridResult:
    """Evaluate every (k1, d) grid cell; k1 = k collapses to d = 0."""
    k, D, step = config.k_total, config.d_max, config.k1_grid_step
    k1s = sorted(set(list(range(0, k + 1, step)) + [k]))
    cells = sum(1 if k1 == k else D + 1 for k1 in k1s)
    if cells > MAX_EVALUATIONS:
        raise ValueError(
            f"grid has {cells} cells, above the evaluation budget of {MAX_EVALUATIONS}")
    grid = [(k1, d) for k1 in k1s for d in ([0] if k1 == k else range(D + 1))]
    estimates = _make_evaluator(graph, config, selector)(grid)
    entries = [(k1, d, est) for (k1, d), est in zip(grid, estimates)]
    best_k1, best_d, _ = _tie_pick(entries)
    return GridResult(entries=entries, best=(best_k1, best_d))


def sequential_d_search(graph: InfluenceGraph, k1: int, config: SearchConfig,
                        selector, evaluate=None):
    """Best delay for a fixed k1: probe d = 0, 1, ... and stop after
    ``PATIENCE`` consecutive non-improvements. Without decay the value is
    non-decreasing in d, so the search jumps straight to d = d_max."""
    evaluate = evaluate or _make_evaluator(graph, config, selector)
    D = config.d_max
    if config.decay.delta == 1.0:
        return D, evaluate([(k1, D)])[0]
    best_d, best = 0, evaluate([(k1, 0)])[0]
    fails = 0
    for d in range(1, D + 1):
        est = evaluate([(k1, d)])[0]
        if est.mean > best.mean:
            best_d, best = d, est
            fails = 0
        else:
            fails += 1
            if fails >= PATIENCE:
                break
    return best_d, best


def golden_section_k1(graph: InfluenceGraph, config: SearchConfig, selector):
    """Golden-section search over k1 on the grid, each probe scored by its
    best delay; ends with a hill-climb over neighboring grid points so exact
    unimodal objectives are recovered exactly. Returns (k1, d, estimate)."""
    k, step = config.k_total, config.k1_grid_step
    pts = sorted(set(list(range(0, k + 1, step)) + [k]))
    evaluate = _make_evaluator(graph, config, selector)
    inner = {}

    def value(idx):
        k1 = pts[idx]
        if k1 not in inner:
            if k1 == k:
                inner[k1] = (0, evaluate([(k1, 0)])[0])
            else:
                inner[k1] = sequential_d_search(graph, k1, config, selector, evaluate)
        return inner[k1][1].mean

    lo, hi = 0, len(pts) - 1
    while hi - lo > 2:
        span = hi - lo
        c = hi - max(1, round(INVPHI * span))
        d_probe = lo + max(1, round(INVPHI * span))
        if not (lo < c <= d_probe < hi):
            break
        if c == d_probe:
            d_probe = c + 1
        if value(c) >= value(d_probe):
            hi = d_probe
        else:
            lo = c
    best_idx = min(range(lo, hi + 1), key=lambda i: (-value(i), pts[i]))
    while best_idx > 0 and value(best_idx - 1) > value(best_idx):
        best_idx -= 1
    while best_idx < len(pts) - 1 and value(best_idx + 1) > value(best_idx):
        best_idx += 1
    k1 = pts[best_idx]
    best_d, est = inner[k1]
    return k1, best_d, est


def estimate_D(graph: InfluenceGraph, k: int, mc: MonteCarloConfig | None = None) -> int:
    """Empirical delay horizon: latest activation step over probe replicates
    seeded by weighted discount, plus ``D_MARGIN``; capped at n."""
    mc = mc or MonteCarloConfig()
    k = max(1, min(k, graph.n))
    seeds = select_wd(graph, k).nodes
    latest = max(int(times.max()) for _, _, times in
                 replicate_rows(graph, [seeds], mc.phase1_sims, mc.master_seed, TAG_PROBE,
                                graph.n))
    return max(1, min(latest + D_MARGIN, graph.n))
