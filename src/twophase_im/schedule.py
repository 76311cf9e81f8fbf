"""Budget-split and delay optimization: exhaustive (k1, d) grid search and
golden-section search over k1 with a nested sequential delay search.

The spread surface is treated as unimodal in k1 and in d separately, never
jointly; only nested one-dimensional searches are implemented. Each search
takes a scorer of (k1, d) cells, evaluate(cells) -> [SpreadEstimate]: for a
graph and a selector it is ``two_phase.cell_scorer``, and the grid scores all
its cells in one call, the golden-section and delay searches one cell a
call. ``estimate_D``, the delay horizon when none is given, reads the
progression of a ``diffusion.estimate_spreads`` probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diffusion import TAG_PROBE, DecayFunction, MonteCarloConfig, estimate_spreads
from .graph import InfluenceGraph
from .selectors import select_wd

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
D_MARGIN = 2  # safety steps added past the observed stagnation point
PATIENCE = 2  # consecutive non-improving delays that end a sequential d-search
MAX_EVALUATIONS = 5000  # most cells an exhaustive grid evaluates


@dataclass
class GridResult:
    entries: list   # (k1, d, SpreadEstimate)
    best: tuple     # (k1, d, SpreadEstimate)


def _k1_points(k):
    """The k1 grid of both searches: about 20 points over the budget, and k."""
    return sorted(set(range(0, k + 1, max(1, k // 20))) | {k})


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


def exhaustive_grid(k: int, d_max: int, evaluate) -> GridResult:
    """Evaluate every (k1, d) grid cell; k1 = k collapses to d = 0."""
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    k1s = _k1_points(k)
    cells = sum(1 if k1 == k else d_max + 1 for k1 in k1s)
    if cells > MAX_EVALUATIONS:
        raise ValueError(
            f"grid has {cells} cells, above the evaluation budget of {MAX_EVALUATIONS}")
    grid = [(k1, d) for k1 in k1s for d in ([0] if k1 == k else range(d_max + 1))]
    entries = [(k1, d, est) for (k1, d), est in zip(grid, evaluate(grid))]
    return GridResult(entries=entries, best=_tie_pick(entries))


def sequential_d_search(k1: int, d_max: int, evaluate, decay: DecayFunction):
    """Best delay for a fixed k1: probe d = 0, 1, ... and stop after
    ``PATIENCE`` consecutive non-improvements. Without decay the value is
    non-decreasing in d, so the search jumps straight to d = d_max."""
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    if decay.delta == 1.0:
        return d_max, evaluate([(k1, d_max)])[0]
    best_d, best = 0, evaluate([(k1, 0)])[0]
    fails = 0
    for d in range(1, d_max + 1):
        est = evaluate([(k1, d)])[0]
        if est.mean > best.mean:
            best_d, best = d, est
            fails = 0
        else:
            fails += 1
            if fails >= PATIENCE:
                break
    return best_d, best


def golden_section_k1(k: int, d_max: int, evaluate, decay: DecayFunction):
    """Golden-section search over k1 on the grid, each probe scored by its
    best delay; ends with a hill-climb over neighboring grid points so exact
    unimodal objectives are recovered exactly. Returns (k1, d, estimate)."""
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    pts = _k1_points(k)
    inner = {}

    def value(idx):
        k1 = pts[idx]
        if k1 not in inner:
            inner[k1] = ((0, evaluate([(k1, 0)])[0]) if k1 == k
                         else sequential_d_search(k1, d_max, evaluate, decay))
        return inner[k1][1].mean

    lo, hi = 0, len(pts) - 1
    while hi - lo > 2:
        span = hi - lo
        c = hi - max(1, round(INVPHI * span))
        d_probe = lo + max(1, round(INVPHI * span))
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
    """Empirical delay horizon: the latest activation step over
    ``mc.phase1_sims`` probe replicates seeded by weighted discount (the
    last step of their progression), plus ``D_MARGIN``; capped at n."""
    mc = mc or MonteCarloConfig()
    k = max(1, min(k, graph.n))
    seeds = select_wd(graph, k).nodes
    [(_, progression)] = estimate_spreads(graph, [seeds], mc, mc.phase1_sims, TAG_PROBE,
                                          progression=True)
    return max(1, min(len(progression) - 1 + D_MARGIN, graph.n))
