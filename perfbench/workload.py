"""Run one benchmark workload in this process and print its result as JSON.

run.py starts this file in a fresh interpreter, from the root of a checkout,
with BLAS and OpenMP pinned to one thread. The program is imported from the
checkout's ``src`` directory. Load is a closed loop: one client issues one
command at a time, in rounds; every round repeats the same commands with the
same seed, so every round does the same work and must print the same numbers.
Cheap commands run several times per round (``Step.reps``) and commands of
several seconds run in the first round only (``Step.once``), so that the
rest are timed over many rounds. Rounds continue while the next one is
expected to end within ``--seconds``; there are at least two. A traced run
makes exactly two full rounds, the second one traced. Times are scaled for
machine-speed drift (speed.py); the raw medians are printed too.

Commands go through the public entry point ``twophase_im.cli.main`` (with
``--output-dir`` in a scratch directory inside the checkout) or through the
public library functions. Each command belongs to one class, and each class
gives one end-to-end metric:

    select     tpim select
    twophase   tpim twophase with a fixed (k1, k2, d) plan
    optimize   tpim twophase --optimize grid | golden | face-joint
    rerun      tpim rerun of the round's select record
    oracle     exact-oracle work: tpim oracle, and the oracle-family sweep

Every workload runs every class, so every end-to-end metric is measured on
every workload: a class's metric is the sum, over its commands, of each
command's median time, and ``wall_s`` is that sum over all commands, the
time of one pass through the workload. ``--setup-only`` measures the set-up
alone and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLASSES = ("select", "twophase", "optimize", "rerun", "oracle")
# Reference checks allow Z combined standard errors. A standard error taken
# from few outer replicates is itself uncertain (Student t tails), so those
# checks get a wider Z; both keep a false alarm below about 1e-6 per check.
Z_REFERENCE, Z_FEW_REPLICATES, FEW_REPLICATES = 5.0, 8.0, 100
EXACT_TOL = 1e-9

# Sizes per scale. "smoke" only exercises every path quickly; its numbers are
# not comparable with "full", and the quality bands are not checked there.
SCALES = {
    "full": {
        "lesmis": {"greedy_k": 6, "greedy_sims": 4000, "gdd_sims": 8000,
                   "twophase": (8000, 800, 50), "optimize": (4000, 20, 20)},
        "ba": {"nodes": 5000, "select_sims": 100, "twophase": (500, 20, 100),
               "golden": (50, 1, 10), "check_sims": 300},
        "family": {"instances": 2, "arcs": 16, "cli_arcs": 12, "mc_sims": 100_000,
                   "select_sims": 200_000, "twophase": (20_000, 1000, 100),
                   "optimize": (20_000, 200, 50)},
    },
    "smoke": {
        "lesmis": {"greedy_k": 1, "greedy_sims": 200, "gdd_sims": 500,
                   "twophase": (500, 20, 10), "optimize": (200, 10, 2)},
        "ba": {"nodes": 800, "select_sims": 50, "twophase": (50, 2, 5),
               "golden": (20, 1, 2), "check_sims": 100},
        "family": {"instances": 1, "arcs": 9, "cli_arcs": 8, "mc_sims": 20_000,
                   "select_sims": 2000, "twophase": (2000, 20, 5),
                   "optimize": (2000, 10, 5)},
    },
}

LESMIS_K, LESMIS_K1, LESMIS_D_MAX = 6, 3, 6   # make_reference.py uses the same
FACE_SEED = "0"
BA_K, BA_K1, BA_D_MAX = 20, 10, 3
BA_SEEDS, BA_GOLDEN_SEEDS = 3, 4
FAMILY_K, FAMILY_D_MAX, FAMILY_CLI_SEED = 2, 2, 0
EXAMPLE1_F_VALUE = 3.8           # criterion 1 of the acceptance gate
EXAMPLE1_SIGMA_A = 2.35          # 1 + 0.5 * (1 + 0.8 + 0.9)
EXAMPLE1_NODES = "ABCD"


class Step:
    """One command of a round, run ``reps`` times in a row, or in the first
    round only when ``once``. ``argv`` is a list or a function of the
    round's outputs so far; ``call`` runs library code instead of the CLI."""

    def __init__(self, label, cls, argv=None, call=None, reps=1, once=False):
        self.label, self.cls, self.argv, self.call = label, cls, argv, call
        self.reps, self.once = reps, once


class Checks:
    """Correctness checks. Each failed check marks its operation failed."""

    def __init__(self):
        self.failed = {}   # label -> first message

    def expect(self, label, ok, message):
        if not ok and label not in self.failed:
            self.failed[label] = message
            print(f"check failed: {label}: {message}", file=sys.stderr)

    def close(self, label, got, want, tol, what):
        self.expect(label, abs(got - want) <= tol,
                    f"{what}: {got!r} vs {want!r}, tolerance {tol:.4g}")


# -- running commands ----------------------------------------------------------


def run_cli(argv, output_dir):
    from twophase_im import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--output-dir", str(output_dir)])
    text = out.getvalue()
    payload = json.loads(text[text.index("{"):]) if code == 0 else None
    return {"code": code, "payload": payload, "stderr": err.getvalue()[-500:]}


def run_step(step, outs, output_dir):
    try:
        if step.call is not None:
            return {"code": 0, "payload": step.call()}
        argv = step.argv(outs) if callable(step.argv) else step.argv
        return run_cli(argv, output_dir)
    except Exception as exc:  # a failed operation must not stop the run
        return {"code": None, "payload": None, "stderr": repr(exc)}


def comparable(result):
    """A step's output without the parts that differ between identical runs."""
    payload = result["payload"]
    if isinstance(payload, dict):
        payload = {k: v for k, v in payload.items() if k != "record"}
    return result["code"], payload


def run_rounds(steps, seconds, tracer, output_dir):
    """Closed-loop rounds. With a tracer, the second of two full rounds is
    traced, so the overhead is measured on the same work. Returns the
    executions as (round, label, start, end, traced, result)."""
    runs = []
    rounds = 0
    start = time.perf_counter()
    outs = {}
    while True:
        traced = tracer is not None and rounds == 1
        if traced:
            tracer.install()
        round_start = time.perf_counter()
        try:
            for step in steps:
                if step.once and rounds > 0 and tracer is None:
                    continue
                for _ in range(step.reps):
                    t0 = time.perf_counter()
                    outs[step.label] = run_step(step, outs, output_dir)
                    runs.append((rounds, step.label, t0, time.perf_counter(), traced,
                                 outs[step.label]))
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        now = time.perf_counter()
        if rounds == 2 and tracer is not None or (
                rounds >= 2 and now - start + (now - round_start) > seconds):
            return runs


# -- workloads ---------------------------------------------------------------


def lesmis_workload(seed, p, work, state):
    s = str(seed)
    tp_sims, tp1, tp2 = p["twophase"]
    op_sims, op1, op2 = p["optimize"]
    base = ["--graph", "lesmis", "--seed", s, "--algorithm"]
    optimize = ["twophase", "--graph", "lesmis", "--algorithm", "gdd", "--k", str(LESMIS_K),
                "--d-max", str(LESMIS_D_MAX), "--sims", str(op_sims), "--phase1-sims", str(op1),
                "--phase2-sims", str(op2), "--optimize"]
    steps = [
        Step("select-greedy", "select", ["select", *base, "greedy", "--k", str(p["greedy_k"]),
                                         "--sims", str(p["greedy_sims"])], once=True),
        Step("select-gdd", "select", ["select", *base, "gdd", "--k", str(LESMIS_K),
                                      "--sims", str(p["gdd_sims"])], reps=3),
        Step("twophase", "twophase", ["twophase", *base, "gdd", "--k", str(LESMIS_K),
                                      "--k1", str(LESMIS_K1), "--k2", str(LESMIS_K - LESMIS_K1),
                                      "--d", "auto", "--sims", str(tp_sims),
                                      "--phase1-sims", str(tp1), "--phase2-sims", str(tp2)]),
        Step("grid", "optimize", [*optimize, "grid", "--seed", s]),
        Step("golden", "optimize", [*optimize, "golden", "--seed", s], reps=2),
        # FACE's work depends on its seed (2 to 7 s across seeds here), so
        # it runs with one fixed seed and does the same work in every run.
        Step("face-joint", "optimize", [*optimize, "face-joint", "--seed", FACE_SEED]),
        rerun_step("select-gdd", reps=3),
        *example1_steps(),
    ]

    def setup():
        from twophase_im import cli
        graph = cli.resolve_graph({"source": "builtin:lesmis"})
        warm(graph)
        state["n"] = graph.n
        return {"builtin:lesmis": graph_sha256(graph)}

    def check(outs, checks, reference, scale):
        ref = reference["lesmis"]
        n = state["n"]
        gdd = spread(outs, "select-gdd")
        two = spread(outs, "twophase")
        info = {}
        if gdd and two:
            info["twophase_gain_pct"] = 100.0 * (two["mean"] - gdd["mean"]) / gdd["mean"]
        greedy = spread(outs, "select-greedy")
        if greedy:
            info["spread_greedy"] = greedy["mean"]
        if scale == "full":
            if greedy:
                checks.close("select-greedy", greedy["mean"], 46.2, 1.5,
                             "greedy spread against the criterion-8 band")
            if "twophase_gain_pct" in info:
                gain = info["twophase_gain_pct"]
                checks.expect("twophase", 4.0 <= gain <= 12.0,
                              f"two-phase gain {gain:.2f}% outside 4-12%")
        if gdd:
            check_reference(checks, "select-gdd", gdd, ref["select_gdd"], "select gdd spread",
                            p["gdd_sims"])
        if two:
            d = outs["twophase"]["payload"]["plan"]["d"]
            check_cell(checks, "twophase", ref, LESMIS_K1, d, two, tp1)
        check_grid_golden(checks, outs, n, LESMIS_K, LESMIS_D_MAX, ref, op1)
        check_face(checks, outs, n, LESMIS_K, LESMIS_D_MAX)
        check_example1(checks, outs)
        return info

    return steps, setup, check


def ba_workload(seed, p, work, state):
    from inputs import write_ba_edge_list

    path = work / "ba.txt"
    tp_sims, tp1, tp2 = p["twophase"]
    gs_sims, gs1, gs2 = p["golden"]
    graph_args = ["--graph", str(path), "--transform", "wc", "--undirected",
                  "--algorithm", "gdd", "--k", str(BA_K)]
    # A batch simulation costs (replicates x n) per step until its deepest
    # cascade ends, so one command's time follows the maximum depth of its
    # batch and varies by 20% with the seed. Select and golden therefore run
    # for several seeds derived from the workload seed, and the metric sums
    # their times.
    seeds = [derived_seed(seed, i) for i in range(max(BA_SEEDS, BA_GOLDEN_SEEDS))]
    steps = [Step(f"select-gdd-{i}", "select",
                  ["select", *graph_args, "--seed", str(si), "--sims", str(p["select_sims"])])
             for i, si in enumerate(seeds[:BA_SEEDS])]
    steps.append(Step("twophase", "twophase",
                      ["twophase", *graph_args, "--seed", str(seed), "--k1", str(BA_K1),
                       "--k2", str(BA_K - BA_K1), "--d", "auto", "--sims", str(tp_sims),
                       "--phase1-sims", str(tp1), "--phase2-sims", str(tp2)]))
    steps += [Step(f"golden-{i}", "optimize",
                   ["twophase", *graph_args, "--seed", str(si), "--optimize", "golden",
                    "--d-max", str(BA_D_MAX), "--sims", str(gs_sims),
                    "--phase1-sims", str(gs1), "--phase2-sims", str(gs2)])
              for i, si in enumerate(seeds[:BA_GOLDEN_SEEDS])]
    steps += [rerun_step(f"select-gdd-{i}", f"rerun-{i}") for i in range(BA_SEEDS)]
    steps += example1_steps()

    def setup():
        from twophase_im import cli
        from inputs import sha256_of
        write_ba_edge_list(path, seed, n=p["nodes"])
        graph = cli.resolve_graph(cli.make_graph_spec(str(path), "wc", 0, directed=False))
        warm(graph)
        state["graph"] = graph
        return {"ba.txt": sha256_of(path)}

    def check(outs, checks, reference, scale):
        from twophase_im.diffusion import MonteCarloConfig, estimate_spread
        graph = state["graph"]
        for i, si in enumerate(seeds[:BA_SEEDS]):
            label = f"select-gdd-{i}"
            got = spread(outs, label)
            if got:
                # an independent estimate of the same seed set, on other streams
                mine = estimate_spread(graph, outs[label]["payload"]["seed_ids"],
                                       MonteCarloConfig(single_phase_sims=p["check_sims"],
                                                        master_seed=si + 1)).as_dict()
                check_reference(checks, label, got, mine,
                                "select gdd spread against an independent estimate",
                                min(p["select_sims"], p["check_sims"]))
        gdd = spread(outs, "select-gdd-0")
        two = spread(outs, "twophase")
        info = {}
        if gdd and two:
            info["twophase_gain_pct"] = 100.0 * (two["mean"] - gdd["mean"]) / gdd["mean"]
        if two:
            payload = outs["twophase"]["payload"]
            checks.expect("twophase", 0 < two["mean"] <= graph.n and len(payload["s1"]) == BA_K1
                          and payload["plan"]["d"] >= 1, f"implausible two-phase output {two}")
        for i in range(BA_GOLDEN_SEEDS):
            golden = outs[f"golden-{i}"]["payload"]
            if golden:
                k1, d = golden["best"]
                checks.expect(f"golden-{i}", 0 <= k1 <= BA_K and 0 <= d <= BA_D_MAX
                              and 0 < golden["spread"]["mean"] <= graph.n,
                              f"implausible golden output {golden['best']} {golden['spread']}")
        check_example1(checks, outs)
        return info

    return steps, setup, check


def family_workload(seed, p, work, state):
    from inputs import write_family

    paths = [work / f"family-{i}.txt" for i in range(p["instances"])]
    # The tpim commands run on one fixed instance with fewer arcs: their cost
    # depends on the probabilities (which seeds GDD picks, how deep cascades
    # go), so a seeded instance made their times vary with the seed. The
    # sweep instances carry the seed.
    cli_path = work / "cli-0.txt"
    s = str(seed)
    tp_sims, tp1, tp2 = p["twophase"]
    op_sims, op1, op2 = p["optimize"]
    base = ["--graph", str(cli_path), "--seed", s, "--algorithm"]
    optimize = ["twophase", "--graph", str(cli_path), "--algorithm", "gdd",
                "--k", str(FAMILY_K), "--d-max", str(FAMILY_D_MAX), "--sims", str(op_sims),
                "--phase1-sims", str(op1), "--phase2-sims", str(op2), "--optimize"]

    def sweep(i):
        return lambda: oracle_sweep(paths[i], seed, p["mc_sims"])

    def sigma_of_gdd(outs):
        seeds = ",".join(outs["select-gdd"]["payload"]["seeds"])
        return ["oracle", "--graph", str(cli_path), "--query", "sigma", "--seeds", seeds]

    steps = [Step(f"sweep-{i}", "oracle", call=sweep(i), once=True) for i in range(len(paths))]
    steps += [
        Step("select-gdd", "select", ["select", *base, "gdd", "--k", str(FAMILY_K),
                                      "--sims", str(p["select_sims"])], reps=5),
        Step("select-greedy", "select", ["select", *base, "greedy", "--k", str(FAMILY_K),
                                         "--sims", str(p["select_sims"])], reps=5),
        # a fixed d: with --d auto, d plus the phase-2 steps can pass n + 1
        # on these 8-node graphs, where twophase fails with an IndexError
        Step("twophase", "twophase", ["twophase", *base, "gdd", "--k", str(FAMILY_K),
                                      "--k1", "1", "--k2", "1", "--d", "1",
                                      "--sims", str(tp_sims), "--phase1-sims", str(tp1),
                                      "--phase2-sims", str(tp2)], reps=2),
        Step("grid", "optimize", [*optimize, "grid", "--seed", s], reps=2),
        Step("golden", "optimize", [*optimize, "golden", "--seed", s], reps=2),
        Step("face-joint", "optimize", [*optimize, "face-joint", "--seed", FACE_SEED], reps=2),
        rerun_step("select-gdd", reps=5),
        Step("oracle-sigma", "oracle", sigma_of_gdd),
        *example1_steps(),
    ]

    def setup():
        from inputs import sha256_of
        write_family(work, seed, len(paths), arcs=p["arcs"])
        write_family(work, FAMILY_CLI_SEED, 1, arcs=p["cli_arcs"], prefix="cli")
        for path in [*paths, cli_path]:
            warm(load_weighted(path))
        return {path.name: sha256_of(path) for path in [*paths, cli_path]}

    def check(outs, checks, reference, scale):
        for i in range(len(paths)):
            got = outs[f"sweep-{i}"]["payload"]
            if got:
                check_sweep(checks, f"sweep-{i}", got)
        from twophase_im.oracle import ExactOracle
        orc = ExactOracle(load_weighted(cli_path))
        graph = orc.graph
        for label in ("select-gdd", "select-greedy"):
            payload = outs[label]["payload"]
            if payload:
                est = payload["spread"]
                exact = orc.exact_sigma(payload["seed_ids"])
                checks.close(label, est["mean"], exact,
                             max(3 * est["stderr"], 0.01 * graph.n),
                             "spread against exact_sigma")
        payload = outs["oracle-sigma"]["payload"]
        if payload and outs["select-gdd"]["payload"]:
            exact = orc.exact_sigma(outs["select-gdd"]["payload"]["seed_ids"])
            checks.close("oracle-sigma", payload["value"], exact, EXACT_TOL,
                         "tpim oracle sigma against the library oracle")
        two = spread(outs, "twophase")
        if two:
            checks.expect("twophase", 0 < two["mean"] <= graph.n,
                          f"implausible two-phase spread {two}")
        check_grid_golden(checks, outs, graph.n, FAMILY_K, FAMILY_D_MAX, None)
        check_face(checks, outs, graph.n, FAMILY_K, FAMILY_D_MAX)
        check_example1(checks, outs)
        return {}

    return steps, setup, check


WORKLOADS = {"lesmis-cli": lesmis_workload, "ba5k-cli": ba_workload,
             "oracle-family": family_workload}


# -- shared pieces -------------------------------------------------------------


def rerun_step(label, rerun_label="rerun", reps=1):
    return Step(rerun_label, "rerun",
                lambda outs: ["rerun", outs[label]["payload"]["record"]], reps=reps)


def derived_seed(seed, i):
    """The workload seed itself for i = 0, else a seed far from it."""
    return seed if i == 0 else (seed * 1_000_003 + i) % 2**31


def load_weighted(path):
    from twophase_im.graph import build_graph, load_edge_list
    return build_graph(load_edge_list(path, directed=True))


def warm(graph):
    """One tiny estimate, so lazy imports and caches are filled in set-up."""
    from twophase_im.diffusion import MonteCarloConfig, estimate_spread
    estimate_spread(graph, [0], MonteCarloConfig(single_phase_sims=1))


def graph_sha256(graph):
    import hashlib
    h = hashlib.sha256()
    for lab in graph.labels:
        h.update(f"{lab}\n".encode())
    for u, v, prob in graph.edges():
        h.update(f"{u} {v} {prob!r}\n".encode())
    return h.hexdigest()


def oracle_sweep(path, seed, mc_sims):
    """Exact values on one small instance, and Monte-Carlo estimates of every
    singleton's spread for the agreement check."""
    from twophase_im.diffusion import MonteCarloConfig, estimate_spread
    from twophase_im.oracle import ExactOracle

    graph = load_weighted(path)
    orc = ExactOracle(graph)
    orc.dist  # the per-live-graph distance table, built on first access
    nodes = range(graph.n)
    out = {
        "n": graph.n,
        "sigma": [orc.exact_sigma([v]) for v in nodes],
        "f": {str(d): [orc.exact_f([v], d, 1) for v in nodes] for d in (1, 2)},
        "max_f": list(orc.max_f(1, 2, 1)),
    }
    config = MonteCarloConfig(single_phase_sims=mc_sims, master_seed=seed)
    out["mc"] = [estimate_spread(graph, [v], config).as_dict() for v in nodes]
    return out


def spread(outs, label):
    payload = outs[label]["payload"]
    return payload["spread"] if payload else None


def check_reference(checks, label, got, ref, what, replicates):
    z = Z_REFERENCE if replicates >= FEW_REPLICATES else Z_FEW_REPLICATES
    tol = z * math.hypot(got["stderr"], ref["stderr"])
    checks.close(label, got["mean"], ref["mean"], tol, what)


def check_cell(checks, label, ref, k1, d, got, replicates):
    want = ref["cells"].get(f"{k1},{d}")
    checks.expect(label, want is not None, f"no reference for k1={k1}, d={d}")
    if want is not None:
        check_reference(checks, label, got, want, f"spread of plan k1={k1}, d={d}", replicates)


def check_grid_golden(checks, outs, n, k, d_max, ref, replicates=0):
    """Every grid cell against its reference (when given); golden's answer
    must be bit-identical to the grid cell it names, since both evaluate a
    cell with the same streams."""
    grid = outs["grid"]["payload"]
    if grid:
        cells = {(k1, d): (mean, stderr) for k1, d, mean, stderr in grid["grid"]}
        expected = {(k1, d) for k1 in range(k) for d in range(d_max + 1)} | {(k, 0)}
        checks.expect("grid", set(cells) == expected, f"grid cells {sorted(cells)}")
        for (k1, d), (mean, stderr) in cells.items():
            checks.expect("grid", 0 < mean <= n, f"cell {k1},{d} spread {mean}")
            if ref is not None:
                check_cell(checks, "grid", ref, k1, d, {"mean": mean, "stderr": stderr},
                           replicates)
        checks.expect("grid", tuple(grid["best"]) in cells, f"best {grid['best']} not a cell")
    golden = outs["golden"]["payload"]
    if grid and golden:
        k1, d = golden["best"]
        mean, stderr = cells.get((k1, d), (None, None))
        checks.expect("golden", (mean, stderr) == (golden["spread"]["mean"],
                                                   golden["spread"]["stderr"]),
                      f"golden {golden['best']} {golden['spread']} differs from grid cell")


def check_face(checks, outs, n, k, d_max):
    face = outs["face-joint"]["payload"]
    if face:
        k1, d = face["best"]
        checks.expect("face-joint", 1 <= k1 <= k and 0 <= d <= d_max
                      and len(face["s1"]) == k1 and face["face_log"]
                      and 0 < face["spread"]["mean"] <= n,
                      f"implausible face-joint output {face['best']} {face['spread']}")


def example1_steps():
    """tpim oracle on the four-node example: f(s1, d=1, k2=1) and sigma for
    every singleton."""
    steps = []
    for v in EXAMPLE1_NODES:
        f = ["oracle", "--graph", "example1", "--query", "f", "--s1", v, "--d", "1", "--k2", "1"]
        steps.append(Step(f"oracle-f-{v}", "oracle", f, reps=10))
        steps.append(Step(f"oracle-sigma-{v}", "oracle",
                          ["oracle", "--graph", "example1", "--query", "sigma", "--seeds", v],
                          reps=10))
    return steps


def check_example1(checks, outs):
    """Each value against the library oracle, and the two known by hand."""
    from twophase_im.instances import example1_graph
    from twophase_im.oracle import ExactOracle

    graph = example1_graph()
    orc = ExactOracle(graph)
    for v in EXAMPLE1_NODES:
        ids = [graph.node_id(v)]
        for label, want in ((f"oracle-f-{v}", orc.exact_f(ids, 1, 1)),
                            (f"oracle-sigma-{v}", orc.exact_sigma(ids))):
            payload = outs[label]["payload"]
            if payload:
                checks.close(label, payload["value"], want, EXACT_TOL, "example1 exact value")
    checks.close("oracle-f-A", orc.exact_f([graph.node_id("A")], 1, 1), EXAMPLE1_F_VALUE,
                 EXACT_TOL, "library f(A, d=1, k2=1) on example1")
    checks.close("oracle-sigma-A", orc.exact_sigma([graph.node_id("A")]), EXAMPLE1_SIGMA_A,
                 EXACT_TOL, "library sigma(A) on example1")


def check_sweep(checks, label, got):
    n = got["n"]
    for v, (exact, est) in enumerate(zip(got["sigma"], got["mc"])):
        checks.expect(label, 1.0 - EXACT_TOL <= exact <= n + EXACT_TOL,
                      f"exact sigma of {v} is {exact}")
        # criterion 3 of the acceptance gate
        checks.close(label, est["mean"], exact, max(3 * est["stderr"], 0.01 * n),
                     f"Monte-Carlo spread of node {v} against exact_sigma")
    value, witness = got["max_f"]
    best = max(got["f"]["2"])
    checks.close(label, value, best, EXACT_TOL, "max_f(1, 2, 1) against the singleton sweep")
    checks.close(label, got["f"]["2"][witness[0]], value, EXACT_TOL, "max_f witness value")


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


# -- main ----------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    ap.add_argument("--reference", default=str(HERE / "reference.json"))
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv=None):
    start = time.perf_counter()
    args = parse_args(argv)
    work = Path(args.work_dir)
    work.mkdir(parents=True)
    try:
        return run(args, work, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work, start):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    import twophase_im.cli  # part of the set-up being timed
    if not Path(twophase_im.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"twophase_im was not imported from {ROOT / 'src'}")

    state = {}
    params = SCALES[args.scale][{"lesmis-cli": "lesmis", "ba5k-cli": "ba",
                                 "oracle-family": "family"}[args.workload]]
    steps, setup, check = WORKLOADS[args.workload](args.seed, params, work, state)
    hashes = setup()
    setup_raw = time.perf_counter() - start
    import speed
    setup_s = setup_raw * speed.scale_now()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    probe = speed.SpeedProbe()
    probe.start()
    try:
        runs = run_rounds(steps, args.seconds, tracer, work / "records")
    finally:
        probe.stop()

    # correctness: every execution must succeed and repeat its first output
    checks = Checks()
    first = {}
    failed_ops = set()     # (execution index, step label)
    for i, (rnd, label, _, _, _, result) in enumerate(runs):
        first.setdefault(label, result)
        if result["code"] != 0:
            failed_ops.add((i, label))
            print(f"round {rnd}: {label} exited with {result['code']}: "
                  f"{result.get('stderr', '')}", file=sys.stderr)
        elif comparable(result) != comparable(first[label]):
            failed_ops.add((i, label))
            print(f"round {rnd}: {label} output differs from its first run", file=sys.stderr)
    for step in steps:
        payload = first[step.label]["payload"]
        if step.cls == "rerun" and payload is not None:
            checks.expect(step.label, payload.get("match") is True,
                          "rerun did not report a bit-exact match")
    reference = json.loads(Path(args.reference).read_text())
    quality = check(first, checks, reference, args.scale)
    # every execution repeats the first one's output, so a failed check
    # fails every execution of that step
    failed_ops |= {(i, r[1]) for i, r in enumerate(runs) if r[1] in checks.failed}

    scaled = {True: {}, False: {}}     # traced -> label -> [scaled seconds]
    raw = {}
    for _, label, t0, t1, traced, _ in runs:
        scaled[traced].setdefault(label, []).append((t1 - t0) * probe.scale(t0, t1))
        if not traced:
            raw.setdefault(label, []).append(t1 - t0)
    med = {label: statistics.median(v) for label, v in scaled[False].items()}
    cls_of = {step.label: step.cls for step in steps}
    raw_classes = {f"{cls}_s": sum(statistics.median(v) for label, v in raw.items()
                                   if cls_of[label] == cls) for cls in CLASSES}
    if tracer is not None:
        from tracer import LAYER_METRICS
        traced_spans = [t for r in runs if r[4] for t in (r[2], r[3])]
        factor = probe.scale(min(traced_spans), max(traced_spans))
        layer = tracer.layer_totals()
        for name in layer:   # times scale by the factor, rates by its inverse
            if name.endswith("self_s"):
                layer[name] *= factor
            elif name.endswith("_per_s"):
                layer[name] /= factor
        base = sum(med.values())
        traced_med = sum(statistics.median(v) for v in scaled[True].values())
        layer["trace.overhead_pct"] = 100.0 * (traced_med - base) / base
        metrics = {name: {"value": layer.get(name, 0), "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    else:
        metrics = {
            "wall_s": {"value": sum(med.values()), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        for cls in CLASSES:
            metrics[f"{cls}_s"] = {"value": sum(v for label, v in med.items()
                                                if cls_of[label] == cls), "unit": "s"}

    print(json.dumps({"environment": environment(), "inputs_sha256": hashes,
                      "rounds": 1 + max(r[0] for r in runs), "quality": quality,
                      "raw_median_s": raw_classes, "setup_raw_s": setup_raw,
                      "speed_samples": len(probe.samples), "failed_checks": checks.failed}))
    print(json.dumps({"setup_s": setup_s, "correct": not failed_ops,
                      "attempted": len(runs), "failed": len(failed_ops),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
