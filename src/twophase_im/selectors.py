"""Single-phase seed-selection algorithms: SD, WD, GDD, greedy, RMax, SPIC.

SD, WD and GDD share one discount path: ``discount_state`` builds the state
of rows of a graph (each with nodes cut out and nodes taken for free), and
``select_discount`` picks on every row at once. A single phase is its
one-row case; a nested run's second phase picks on a row per outer
replicate.

Every selector is deterministic given (graph, config, master seed); ties are
always broken toward the lowest node id. Greedy, RMax and SPIC take an
objective, any callable frozenset -> float that is deterministic for a fixed
master seed (repeat calls with the same set return the same value); the one
they are run with is ``diffusion.SigmaObjective``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import TAG_RMAX, TAG_SPIC, stream
from .diffusion import SigmaObjective  # noqa: F401  (named here for the selectors' callers)
from .graph import InfluenceGraph, edge_ids

# How many random k-subsets RMax scores, and how many permutations SPIC's
# Shapley estimate samples; None is 5 per node of the graph.
RMAX_SAMPLES = None
SPIC_PERMUTATIONS = None


@dataclass
class SeedSet:
    """Ordered selection under a budget; order is selection order."""

    nodes: list
    budget: int

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate nodes in seed set")
        if len(self.nodes) > self.budget:
            raise ValueError("seed set exceeds its budget")


def _check_budget(graph, k):
    if not (1 <= k <= graph.n):
        raise ValueError(f"budget {k} out of range for n={graph.n}")


# -- degree discounts (SD, WD, GDD) -----------------------------------------


DISCOUNT_KINDS = ("sd", "wd", "gdd")


@dataclass
class DiscountState:
    """Degree-discount state of rows of one graph, as (rows, n) arrays.

    ``outsum`` is a node's out-degree (SD) or outgoing probability mass (WD,
    GDD) into nodes not removed, less the discounts of its taken
    out-neighbors. GDD also keeps ``survival``, the product over taken
    in-neighbors x of (1 - p_xv); its score is w_v = survival_v * (1 +
    outsum_v). ``taken`` marks removed and taken nodes."""

    kind: str
    outsum: np.ndarray
    taken: np.ndarray
    survival: np.ndarray | None = None
    ops: int = 0           # edge relaxations performed

    @property
    def w(self) -> np.ndarray:
        if self.survival is None:
            return self.outsum
        return self.survival * (1.0 + self.outsum)

    def take(self, graph: InfluenceGraph, rows: np.ndarray, nodes: np.ndarray):
        """Take ``nodes[i]`` in row ``rows[i]``, in the order given, which
        must list a row's nodes in the order they are taken."""
        n = graph.n
        self.taken[rows, nodes] = True
        if self.survival is not None:
            count = graph.out_degrees[nodes]
            edge = edge_ids(graph.indptr, nodes, count)
            np.multiply.at(self.survival.reshape(-1), rows.repeat(count) * n + graph.dst[edge],
                           1.0 - graph.p[edge])
            self.ops += edge.size
        in_indptr, in_src, in_p = graph.in_index
        count = in_indptr[nodes + 1] - in_indptr[nodes]
        edge = edge_ids(in_indptr, nodes, count)
        np.subtract.at(self.outsum.reshape(-1), rows.repeat(count) * n + in_src[edge],
                       1.0 if self.kind == "sd" else in_p[edge])
        self.ops += edge.size


def discount_state(graph: InfluenceGraph, kind: str, removed=None,
                   preselected=None) -> DiscountState:
    """The SD, WD or GDD state of rows of ``graph``. Row r is the graph with
    the nodes of ``removed[r]`` cut out, as ``residual_graph`` would, and the
    nodes of ``preselected[r]`` taken in ascending order; both are (rows, n)
    masks, and one row with nothing removed is the default.

    A row's out-sums add its edges' weights in edge order, with 0.0 for an
    edge into a removed node, so they equal the sums on the cut graph; the
    discounts go in in the order nodes are taken (``ufunc.at``), so a row's
    values equal those on the cut graph, bit for bit."""
    if kind not in DISCOUNT_KINDS:
        raise ValueError(f"unknown discount kind {kind!r}")
    n = graph.n
    masks = [mask for mask in (removed, preselected) if mask is not None]
    rows = len(masks[0]) if masks else 1
    taken = np.zeros((rows, n), dtype=bool) if removed is None else removed.copy()
    weight = graph.p if kind != "sd" else np.ones(graph.m)
    flat = (np.arange(0, rows * n, n)[:, None] + graph.src).reshape(-1)
    outsum = np.bincount(flat, weights=(weight * ~taken[:, graph.dst]).reshape(-1),
                         minlength=rows * n).reshape(rows, n)
    state = DiscountState(kind, outsum, taken, np.ones((rows, n)) if kind == "gdd" else None)
    if preselected is not None:
        state.take(graph, *np.nonzero(preselected))
    return state


def select_discount(graph: InfluenceGraph, state: DiscountState, budgets) -> np.ndarray:
    """SD, WD or GDD on every row of a ``discount_state``: row r takes
    ``budgets[r]`` nodes, each time the one of largest score, ties to the
    lowest id, and applies its discounts to ``state``. Returns the (rows,
    max budget) picks in the order taken, -1 past a row's budget; a row's
    picks are also the nodes its ``state.taken`` gained.

    SD scores a node by its residual out-degree, WD by its residual
    outgoing probability mass, GDD by its expected direct contribution w
    (survival against taken in-neighbors times one plus the remaining
    outgoing probability mass). On taking u, SD and WD discount each
    in-neighbor by the edge's weight; GDD also multiplies the survival of
    each out-neighbor v by (1 - p_uv)."""
    budgets = np.asarray(budgets, dtype=np.int64)
    picks = np.full((len(budgets), int(budgets.max(initial=0))), -1, dtype=np.int64)
    for j in range(picks.shape[1]):
        rows = np.flatnonzero(budgets > j)
        best = np.where(state.taken[rows], -np.inf, state.w[rows]).argmax(axis=1)
        picks[rows, j] = best
        state.take(graph, rows, best)
    return picks


def _select_one(graph: InfluenceGraph, kind: str, k: int) -> SeedSet:
    _check_budget(graph, k)
    return SeedSet(nodes=select_discount(graph, discount_state(graph, kind), [k])[0].tolist(),
                   budget=k)


def select_sd(graph: InfluenceGraph, k: int) -> SeedSet:
    """Single discount: residual out-degree, removing picked nodes."""
    return _select_one(graph, "sd", k)


def select_wd(graph: InfluenceGraph, k: int) -> SeedSet:
    """Weighted discount: residual sum of outgoing probabilities."""
    return _select_one(graph, "wd", k)


def select_gdd(graph: InfluenceGraph, k: int) -> SeedSet:
    """Generalized degree discount (``select_discount`` on one row): take k
    nodes by w, ties to the lowest id."""
    return _select_one(graph, "gdd", k)


# -- objective-driven selectors -------------------------------------------


def select_greedy(graph: InfluenceGraph, k: int, objective) -> SeedSet:
    """Hill-climbing: k rounds, each adding the candidate with the largest
    objective value (no lazy evaluation; the two-phase objective is not
    submodular)."""
    _check_budget(graph, k)
    chosen = []
    current = frozenset()
    for _ in range(k):
        best_v, best_val = -1, -np.inf
        for v in range(graph.n):
            if v in current:
                continue
            val = objective(current | {v})
            if val > best_val:
                best_v, best_val = v, val
        chosen.append(best_v)
        current = current | {best_v}
    return SeedSet(nodes=chosen, budget=k)


def select_rmax(graph: InfluenceGraph, k: int, objective, master_seed: int = 0) -> SeedSet:
    """Evaluate ``RMAX_SAMPLES`` uniformly random k-subsets and keep the
    best."""
    _check_budget(graph, k)
    rng = stream(master_seed, TAG_RMAX)
    best_set, best_val = None, -np.inf
    for _ in range(RMAX_SAMPLES or 5 * graph.n):
        cand = tuple(sorted(rng.choice(graph.n, size=k, replace=False)))
        val = objective(frozenset(cand))
        if val > best_val or (val == best_val and cand < best_set):
            best_set, best_val = cand, val
    return SeedSet(nodes=[int(v) for v in best_set], budget=k)


def shapley_values(graph: InfluenceGraph, objective, master_seed: int = 0) -> np.ndarray:
    """Permutation-sampling Shapley estimates of per-node objective value,
    over ``SPIC_PERMUTATIONS`` permutations."""
    permutations = SPIC_PERMUTATIONS or 5 * graph.n
    rng = stream(master_seed, TAG_SPIC)
    phi = np.zeros(graph.n)
    for _ in range(permutations):
        order = rng.permutation(graph.n)
        prefix = frozenset()
        prev = objective(prefix)
        for v in order:
            cur = objective(prefix | {int(v)})
            phi[v] += cur - prev
            prefix = prefix | {int(v)}
            prev = cur
    return phi / permutations


def select_spic(graph: InfluenceGraph, k: int, objective, master_seed: int = 0) -> SeedSet:
    """Shapley-value selection with probability-aware discounting.

    After estimating per-node Shapley values, picks iteratively; on picking y
    with selection-time value phi_y, out-neighbors x are discounted by
    (1 - p_yx) and in-neighbors z lose p_zy * phi_y (clamped at zero)."""
    _check_budget(graph, k)
    value = shapley_values(graph, objective, master_seed).copy()
    picked = []
    selected = np.zeros(graph.n, dtype=bool)
    for _ in range(k):
        best = int(np.where(selected, -np.inf, value).argmax())   # ties: the lowest id
        phi_y = value[best]
        picked.append(best)
        selected[best] = True
        out = slice(graph.indptr[best], graph.indptr[best + 1])
        np.multiply.at(value, graph.dst[out], 1.0 - graph.p[out])
        in_indptr, in_src, in_p = graph.in_index
        into = slice(in_indptr[best], in_indptr[best + 1])
        # clamping once after the in-edges equals clamping after each one
        np.subtract.at(value, in_src[into], in_p[into] * phi_y)
        value[in_src[into]] = np.maximum(0.0, value[in_src[into]])
    return SeedSet(nodes=picked, budget=k)
