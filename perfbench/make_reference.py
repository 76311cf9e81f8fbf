"""Recompute perfbench/reference.json, the spread means the lesmis-cli
workload checks its command outputs against.

Run from the repository root (about four minutes on a 2-core Xeon VM):

    python3 perfbench/make_reference.py

lesmis is a fixed graph and GDD is deterministic, so each (k1, d) plan has an
expected spread that does not depend on the seed. The nested estimator is
unbiased for any inner sample count, so the reference uses many outer
replicates and few inner ones. Its master seed is far from the small seeds
the benchmark is run with, so reference and run draw independent streams.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from twophase_im.diffusion import MonteCarloConfig, estimate_spread  # noqa: E402
from twophase_im.instances import les_miserables_wc  # noqa: E402
from twophase_im.selectors import select_gdd  # noqa: E402
from twophase_im.two_phase import TwoPhasePlan, run_two_phase  # noqa: E402

K = 6                 # total budget of every lesmis command
K1_FIXED = 3          # the fixed-plan twophase command splits 3 + 3
D_MAX = 6             # --d-max of the grid and golden commands
D_AUTO = range(7, 17)  # --d auto lands in 9..12 for phase-1 sims >= 200
SEED = 2_000_000_011
OUTER, INNER, SINGLE = 4000, 10, 400_000


def cell(graph, k1, d):
    mc = MonteCarloConfig(single_phase_sims=SINGLE, phase1_sims=OUTER,
                          phase2_sims=INNER, master_seed=SEED)
    result, _ = run_two_phase(graph, TwoPhasePlan(k1=k1, k2=K - k1, d=d, selector="gdd"), mc)
    return result.spread.as_dict()


def main():
    graph = les_miserables_wc()
    start = time.perf_counter()
    gdd = select_gdd(graph, K).nodes
    cells = {}
    plans = [(k1, d) for k1 in range(K) for d in range(D_MAX + 1)]
    plans += [(K, 0)] + [(K1_FIXED, d) for d in D_AUTO]
    for k1, d in plans:
        cells[f"{k1},{d}"] = cell(graph, k1, d)
        print(f"k1={k1} d={d} {cells[f'{k1},{d}']} {time.perf_counter() - start:.0f}s",
              file=sys.stderr, flush=True)
    single = estimate_spread(graph, gdd, MonteCarloConfig(single_phase_sims=SINGLE,
                                                          master_seed=SEED))
    out = {
        "lesmis": {
            "k": K,
            "select_gdd": single.as_dict(),
            "cells": cells,
        },
        "generated_with": {"seed": SEED, "phase1_sims": OUTER, "phase2_sims": INNER,
                           "single_phase_sims": SINGLE},
    }
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
