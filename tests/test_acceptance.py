"""Acceptance gate: ten ordered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (the test name per criterion
is the pass/fail line); ``-s`` additionally shows the printed summaries.
Criteria 1 and 8 route through the CLI and leave run records behind;
criterion 10 replays every record bit-exactly.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from conftest import cell_values, instance_family
from twophase_im.cli import main
from twophase_im.diffusion import (
    NO_DECAY,
    DecayFunction,
    MonteCarloConfig,
    estimate_spread,
)
from twophase_im.face import face_joint_optimize, face_select
from twophase_im.graph import RawEdgeList, build_graph
from twophase_im.instances import example1_graph
from twophase_im.oracle import ExactOracle, get_oracle
from twophase_im.schedule import (
    exhaustive_grid,
    golden_section_k1,
    sequential_d_search,
)
from twophase_im.selectors import _pick, discount_state, select_gdd, select_wd
from twophase_im.two_phase import eval_h, score_cells

TOL = 1e-9


@pytest.fixture(scope="module")
def records_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance-records")


def report(n, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {n} {name}: PASS{suffix}")


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out[out.index("{"):])


def test_criterion_01_example1_exact_objective(records_dir, capsys):
    start = time.perf_counter()
    code, got = run_cli(capsys, "oracle", "--graph", "example1", "--query", "f",
                        "--s1", "A", "--d", "1", "--k2", "1",
                        "--output-dir", str(records_dir))
    elapsed = time.perf_counter() - start
    assert code == 0
    assert abs(got["value"] - 3.8) <= TOL
    assert elapsed < 1.0
    report(1, "example1 exact objective", f"value={got['value']}, {elapsed:.2f}s")


def test_criterion_02_property2_witness_suite():
    start = time.perf_counter()
    g = example1_graph()
    orc = get_oracle(g)
    f = {s: orc.exact_f([g.node_id(x) for x in s], 3, 1)
         for s in ["", "C", "D", "DC", "A", "B", "AB"]}
    expected = {"": 2.7, "C": 2.95, "D": 2.9, "DC": 3.5, "A": 3.84, "B": 3.7,
                "AB": 3.98}
    for key, want in expected.items():
        assert abs(f[key] - want) <= TOL, (key, f[key], want)
    # submodularity would need f(DC)-f(D) <= f(C)-f(""): 0.6 <= 0.25 fails
    assert f["DC"] - f["D"] > f["C"] - f[""] + TOL
    # supermodularity would need f(AB)-f(B) >= f(A)-f(""): 0.28 >= 1.14 fails
    assert f["AB"] - f["B"] < f["A"] - f[""] - TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, "two-phase objective witness suite", f"{elapsed:.2f}s")


def test_criterion_03_monte_carlo_oracle_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for g in instance_family(50, seed=101):
        orc = get_oracle(g)
        cfg = MonteCarloConfig(single_phase_sims=100_000,
                               master_seed=int(rng.integers(2**31)))
        for _ in range(20):
            size = int(rng.integers(1, g.n + 1))
            seeds = sorted(rng.choice(g.n, size=size, replace=False))
            est = estimate_spread(g, seeds, cfg)
            gap = abs(est.mean - orc.exact_sigma(seeds))
            tol = max(3 * est.stderr, 0.01 * g.n)
            worst = max(worst, gap / tol)
            assert gap <= tol, (g.n, seeds, gap, tol)
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(3, "Monte-Carlo vs exact spread on 1000 estimates",
           f"worst gap {worst:.2f}x tolerance, {elapsed:.0f}s")


def _check_monotone_submodular(table, n):
    for s in range(1 << n):
        outside = [v for v in range(n) if not (s >> v) & 1]
        for u in outside:
            assert table[s | (1 << u)] >= table[s] - TOL
            for v in outside:
                if v <= u:
                    continue
                left = table[s | (1 << u) | (1 << v)] - table[s | (1 << v)]
                right = table[s | (1 << u)] - table[s]
                assert left <= right + TOL


def test_criterion_04_oracle_property_suite():
    start = time.perf_counter()
    d_obs, k2 = 2, 1
    for g in instance_family(20, seed=102):
        orc = get_oracle(g)
        n = g.n
        for delta in (0.5, 0.9, 1.0):
            decay = DecayFunction(delta)
            _check_monotone_submodular(
                [orc.exact_nu([v for v in range(n) if (s >> v) & 1], decay)
                 for s in range(1 << n)], n)
        f1 = {(): orc.exact_f([], d_obs, k2)}
        for v in range(n):
            f1[(v,)] = orc.exact_f([v], d_obs, k2)
        assert all(val >= -TOL for val in f1.values())
        for v in range(n):
            assert f1[(v,)] >= f1[()] - TOL  # monotone from the empty set
            for u in range(v + 1, n):
                pair = orc.exact_f([v, u], d_obs, k2)
                assert pair >= f1[(v,)] - TOL and pair >= f1[(u,)] - TOL
                # subadditive across a disjoint split
                assert pair <= f1[(v,)] + f1[(u,)] + TOL
        vals = [orc.exact_f([0], d, k2) for d in range(n + 1)]
        assert all(b >= a - TOL for a, b in zip(vals, vals[1:]))
        # adaptive two-phase spending dominates the best static seed set
        sigma_opt = max(orc.exact_sigma([u, v])
                        for u in range(n) for v in range(u + 1, n))
        assert orc.max_f(1, d_obs, 1)[0] >= sigma_opt - TOL
        cfg = MonteCarloConfig(single_phase_sims=500, master_seed=7)
        plain = estimate_spread(g, [0], cfg)
        trivial = estimate_spread(g, [0], cfg, decay=DecayFunction(1.0))
        assert plain.mean == trivial.mean and plain.stderr == trivial.stderr
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    report(4, "oracle property suite, zero violations", f"{elapsed:.0f}s")


def _average_ranks(x):
    """Ranks 1..n of x, ties sharing the mean of the ranks they span."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="stable")
    starts = np.r_[True, x[order][1:] != x[order][:-1]]
    bounds = np.r_[np.flatnonzero(starts), len(x)]   # each tie run's first position, and n
    run = np.cumsum(starts) - 1
    ranks = np.empty(len(x))
    ranks[order] = 0.5 * (bounds[run] + bounds[run + 1] + 1)
    return ranks


def spearman_rho(a, b):
    """Spearman's rho: the Pearson correlation of the average ranks; NaN
    when either input is constant, as ``scipy.stats.spearmanr`` gives."""
    ra, rb = (_average_ranks(x) - (len(x) + 1) / 2 for x in (a, b))
    scale = math.sqrt((ra @ ra) * (rb @ rb))
    return float(ra @ rb / scale) if scale else math.nan


def test_criterion_05_h_as_proxy_for_g():
    start = time.perf_counter()
    d_obs, k2 = 1, 1
    rhos, agreements = [], []
    for g in instance_family(12, seed=103, max_nodes=6, max_edges=8):
        cfg = MonteCarloConfig(phase1_sims=200, phase2_sims=64, master_seed=5)
        cands = [(v,) for v in range(g.n)]
        cands += list(itertools.combinations(range(g.n), 2))
        gs = [score_cells(g, [(len(s1), d_obs, s1)], len(s1) + k2, cfg,
                          selector2="greedy")[0].mean for s1 in cands]
        hs = [eval_h(g, s1, d_obs, k2, cfg).mean for s1 in cands]
        rho = spearman_rho(gs, hs)
        if np.isnan(rho):  # constant rankings on degenerate instances
            rho = 1.0
        rhos.append(rho)
        agreements.append(int(np.argmax(gs)) == int(np.argmax(hs)))
    mean_rho = float(np.mean(rhos))
    agree = float(np.mean(agreements))
    assert mean_rho >= 0.9, rhos
    assert agree >= 0.8, agreements
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    report(5, "greedy-vs-discount second-phase proxy",
           f"mean rho {mean_rho:.3f}, argmax agreement {agree:.0%}, {elapsed:.0f}s")


def test_criterion_06_gdd_identities():
    start = time.perf_counter()
    g = example1_graph()
    [w] = discount_state(g, "gdd").w
    assert w[0] == pytest.approx(1.5, abs=TOL)
    assert w[1] == pytest.approx(2.7, abs=TOL)
    [after] = discount_state(g, "gdd", preselected=np.arange(g.n)[None] == 1).w
    assert after[2] == pytest.approx(0.2, abs=TOL)
    assert after[3] == pytest.approx(0.1, abs=TOL)
    for inst in instance_family(100, seed=104):
        assert select_gdd(inst, 1).nodes == select_wd(inst, 1).nodes
        k = min(3, inst.n - 1)
        state = discount_state(inst, "gdd")
        _pick(inst, state, [k])
        assert state.ops <= k * inst.n * max(1, inst.max_degree())
    elapsed = time.perf_counter() - start
    report(6, "degree-discount identities and bounds", f"{elapsed:.0f}s")


def _ten_node_graph(rng, m=14):
    # a random cycle keeps all 10 nodes present; extra random chords follow
    perm = list(rng.permutation(10))
    arcs = {(perm[i], perm[(i + 1) % 10]) for i in range(10)}
    possible = [(u, v) for u in range(10) for v in range(10)
                if u != v and (u, v) not in arcs]
    idx = rng.choice(len(possible), size=m - len(arcs), replace=False)
    arcs.update(possible[i] for i in idx)
    pairs = [(str(u), str(v), float(rng.uniform(0, 1)))
             for u, v in sorted(arcs)]
    return build_graph(RawEdgeList(directed=True, pairs=pairs))


def test_criterion_07_face_desk_scale():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    hits = 0
    for run in range(20):
        g = _ten_node_graph(rng)
        orc = ExactOracle(g)
        best = max(orc.exact_sigma(c)
                   for c in itertools.combinations(range(10), 2))
        got = face_select(g, 2, lambda s: orc.exact_sigma(s), master_seed=run)
        if abs(orc.exact_sigma(got.nodes) - best) <= TOL:
            hits += 1
    assert hits >= 18, hits

    g = example1_graph()
    orc = get_oracle(g)
    opt = max(max(orc.max_f(k1, d, 2 - k1)[0] for d in range(4))
              for k1 in (1,))
    opt = max(opt, max(orc.exact_sigma(c)
                       for c in itertools.combinations(range(4), 2)))

    def objective(k1, d, nodes):
        if d == 0:
            return orc.exact_sigma(nodes)
        return orc.exact_f(nodes, d, 2 - k1)

    joint_hits = 0
    for run in range(20):
        k1, d, s1 = face_joint_optimize(g, 2, 3, lambda cs: [objective(*c) for c in cs],
                                        master_seed=run)
        if objective(k1, d, tuple(s1.nodes)) >= opt - 1e-6:
            joint_hits += 1
    assert joint_hits >= 18, joint_hits
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(7, "cross-entropy desk-scale optimality",
           f"select {hits}/20, joint {joint_hits}/20, {elapsed:.0f}s")


def test_criterion_08_lm_scale_gains(records_dir, capsys):
    start = time.perf_counter()
    code, greedy = run_cli(capsys, "select", "--graph", "lesmis", "--algorithm",
                           "greedy", "--k", "6", "--seed", "0",
                           "--output-dir", str(records_dir))
    assert code == 0
    assert abs(greedy["spread"]["mean"] - 46.2) <= 1.5

    code, single = run_cli(capsys, "select", "--graph", "lesmis", "--algorithm",
                           "gdd", "--k", "6", "--seed", "0",
                           "--output-dir", str(records_dir))
    assert code == 0
    code, two = run_cli(capsys, "twophase", "--graph", "lesmis", "--algorithm",
                        "gdd", "--k", "6", "--k1", "3", "--k2", "3",
                        "--d", "auto", "--seed", "0",
                        "--output-dir", str(records_dir))
    assert code == 0
    gain = 100.0 * (two["spread"]["mean"] - single["spread"]["mean"]) \
        / single["spread"]["mean"]
    assert 4.0 <= gain <= 12.0, gain
    elapsed = time.perf_counter() - start
    assert elapsed < 900
    report(8, "bundled-network spread and two-phase gain",
           f"greedy {greedy['spread']['mean']:.1f}, gain {gain:.1f}%, {elapsed:.0f}s")


def test_criterion_09_scheduler_consistency():
    start = time.perf_counter()
    for g in instance_family(10, seed=106, max_nodes=6, max_edges=9):
        orc = get_oracle(g)
        k = 2

        def exact(k1, d):
            if k1 == k:
                return orc.max_f(k, 0, 0)[0]
            return orc.max_f(k1, d, k - k1)[0]

        grid = exhaustive_grid(k, 2, cell_values(exact))
        _, d_found, est = golden_section_k1(k, 2, cell_values(exact), NO_DECAY)
        best = max(e.mean for _, _, e in grid.entries)
        assert est.mean >= best - max(0.01 * abs(best), 0.0) - TOL
        # trivial decay short-circuits straight to the horizon
        d_direct, _ = sequential_d_search(1, 2, cell_values(exact), NO_DECAY)
        assert d_direct == 2
    for peak in range(0, 11):
        k1, _, _ = golden_section_k1(10, 0, cell_values(lambda k1, d, p=peak: -(k1 - p) ** 2),
                                     NO_DECAY)
        assert k1 == peak
    elapsed = time.perf_counter() - start
    report(9, "scheduler search consistency", f"{elapsed:.0f}s")


def test_criterion_10_reproducibility(records_dir, capsys):
    start = time.perf_counter()
    records = sorted(records_dir.glob("*.json"))
    assert records, "criteria 1 and 8 should have produced records"
    for record in records:
        code = main(["rerun", str(record)])
        capsys.readouterr()
        assert code == 0, record
    elapsed = time.perf_counter() - start
    report(10, "bit-exact record replay",
           f"{len(records)} records, {elapsed:.0f}s")
