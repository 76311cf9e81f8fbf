"""Lazy greedy: on the world-sampled objective ``select_greedy`` re-scores
only candidates whose earlier gain can still win a round, and picks what
re-scoring every candidate picks, with the same values, ties included."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import instance_family
from twophase_im import diffusion
from twophase_im.diffusion import DecayFunction, MonteCarloConfig
from twophase_im.graph import RawEdgeList, build_graph, load_graph
from twophase_im.instances import les_miserables_wc
from twophase_im.selectors import SigmaObjective, select_greedy

LESMIS = les_miserables_wc()
STARS = load_graph(Path(__file__).parent / "data" / "twostars.tpim")   # two p = 1 stars
GRAPHS = [*instance_family(8, seed=3001), LESMIS, STARS]
DECAYS = (1.0, 0.8, 0.5, 0.0)


def greedy_every_candidate(graph, k, objective):
    """The loop lazy greedy replaced: each round scores every candidate in id
    order and keeps the first of largest value. Returns (picks, the value of
    each round's pick)."""
    chosen, values, current = [], [], frozenset()
    for _ in range(k):
        best_v, best_val = -1, float("-inf")
        for v in range(graph.n):
            if v in current:
                continue
            val = objective(current | {v})
            if val > best_val:
                best_v, best_val = v, val
        chosen.append(best_v)
        values.append(best_val)
        current = current | {best_v}
    return chosen, values


class Counted:
    """An objective that counts its calls and passes on ``submodular``, as a
    tracer's wrapper of ``SigmaObjective.__call__`` would."""

    def __init__(self, objective):
        self.objective, self.calls = objective, []

    def __call__(self, seeds):
        self.calls.append(frozenset(seeds))
        return self.objective(seeds)

    @property
    def submodular(self):
        return self.objective.submodular


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lazy_greedy_picks_and_values_equal_the_full_scan(data):
    graph = data.draw(st.sampled_from(GRAPHS))
    delta = data.draw(st.sampled_from(DECAYS))
    seed = data.draw(st.integers(0, 50))
    forward = data.draw(st.booleans())   # past TABLE_BYTES: forward estimates per set
    sims = 20 if forward and graph is LESMIS else data.draw(st.sampled_from([20, 200]))
    k = data.draw(st.integers(1, min(graph.n, 3 if forward and graph is LESMIS else 6)))
    base = data.draw(st.sets(st.integers(0, graph.n - 1), max_size=3))
    decay = DecayFunction(delta)

    def fresh():
        return SigmaObjective(graph, MonteCarloConfig(master_seed=seed), sims=sims,
                              decay=decay, base=base)

    with pytest.MonkeyPatch.context() as mp:
        if forward:
            mp.setattr(diffusion, "TABLE_BYTES", 0)
        lazy, full = fresh(), fresh()
        picks = select_greedy(graph, k, lazy).nodes
        want, values = greedy_every_candidate(graph, k, full)
    assert picks == want
    assert [lazy(picks[:i + 1]) for i in range(k)] == values
    assert lazy.submodular is not forward
    # the lazy run scores no set the full scan does not, but for the base alone
    assert set(lazy._cache) <= set(full._cache) | {frozenset(base)}


def test_the_base_is_scored_with_every_set():
    cfg, base = MonteCarloConfig(master_seed=4), {11, 48}
    plain = SigmaObjective(LESMIS, cfg, sims=100, decay=DecayFunction(0.7))
    based = SigmaObjective(LESMIS, cfg, sims=100, decay=DecayFunction(0.7), base=base)
    assert based(frozenset()) == plain(base) > 0
    for seeds in ({0}, {11}, {3, 40, 48}):
        assert based(seeds) == plain(base | seeds)


def test_exact_ties_go_to_the_lowest_id():
    # every world is the same: the centers tie at 4, then each other node
    # adds 0 to 8
    objective = Counted(SigmaObjective(STARS, MonteCarloConfig(), sims=5))
    assert select_greedy(STARS, 5, objective).nodes == [0, 4, 1, 2, 3]
    assert [objective(c) for c in ({0}, {4}, {0, 4}, {0, 4, 1, 2, 3})] == [4.0, 4.0, 8.0, 8.0]


def test_a_tie_goes_to_the_lowest_id_whatever_order_the_bounds_pop_in():
    # p = 1 throughout. After b, c (stale gain 3) is scored first and gains
    # 2; a shares nothing with b, so its stale gain 2 is exact and its bound
    # equals the leader: it must be scored, ties, and wins by id
    graph = build_graph(RawEdgeList(directed=True, pairs=[
        (u, v, 1.0) for u, v in ("ax", "by", "bz", "bu", "cy", "cw")]))
    assert graph.labels == ["a", "x", "b", "y", "z", "u", "c", "w"]
    for delta in (1.0, 0.5):
        objective = SigmaObjective(graph, MonteCarloConfig(), sims=3, decay=DecayFunction(delta))
        assert select_greedy(graph, 2, objective).nodes == [2, 0]
        assert objective({0, 2}) - objective({2}) == objective({0}) == objective({2, 6}) - objective({2})


def test_lesmis_greedy_at_k6_scores_few_candidates():
    # re-scoring every candidate makes 77 + 76 + ... + 72 = 447 calls
    for delta in (1.0, 0.8):
        decay = DecayFunction(delta)
        objective = Counted(SigmaObjective(LESMIS, MonteCarloConfig(), sims=1000, decay=decay))
        picks = select_greedy(LESMIS, 6, objective).nodes
        assert len(objective.calls) <= 140
        full = SigmaObjective(LESMIS, MonteCarloConfig(), sims=1000, decay=decay)
        assert picks == greedy_every_candidate(LESMIS, 6, full)[0]


def test_an_objective_without_a_bound_is_scanned_in_full_each_round():
    # a plain callable, and a SigmaObjective whose draw has failed, are
    # scored on every candidate, in id order, as the full scan scores them
    sigma = SigmaObjective(LESMIS, MonteCarloConfig(master_seed=2), sims=50)
    plain, full = [], []
    select_greedy(LESMIS, 3, lambda s: plain.append(s) or sigma(s))
    greedy_every_candidate(LESMIS, 3, lambda s: full.append(s) or sigma(s))
    assert plain == full and len(full) == 77 + 76 + 75
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diffusion, "TABLE_BYTES", 0)
        forward = [Counted(SigmaObjective(LESMIS, MonteCarloConfig(master_seed=2), sims=5))
                   for _ in range(2)]
        assert forward[0].submodular   # nothing drawn yet
        select_greedy(LESMIS, 2, forward[0])
        greedy_every_candidate(LESMIS, 2, forward[1])
    assert not forward[0].submodular
    assert forward[0].calls == forward[1].calls
