"""``perfbench/make_reference.py`` recomputes the spread means that the
benchmark checks its lesmis commands against. No other caller runs it, yet
it reaches ``TwoPhasePlan``, ``run_two_phase``, ``select_gdd`` and
``estimate_spread`` by name. Here it is loaded by path, and its cell and its
GDD seed set are computed as ``main`` computes them, at tiny sample sizes."""

import importlib.util
import sys
from pathlib import Path

from twophase_im.instances import les_miserables_wc

SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "make_reference.py"


def _script_module():
    spec = importlib.util.spec_from_file_location("perfbench_make_reference", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_reference_cell_and_seeds_run_at_tiny_sizes(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # the script prepends src
    ref = _script_module()
    monkeypatch.setattr(ref, "OUTER", 6)
    monkeypatch.setattr(ref, "INNER", 2)
    monkeypatch.setattr(ref, "SINGLE", 30)
    graph = les_miserables_wc()
    two_phase = ref.cell(graph, 3, 1)
    assert two_phase["samples"] == 6 * 2 and two_phase["mean"] > 0
    single = ref.cell(graph, ref.K, 0)   # k2 = 0 and d = 0: a single-phase run
    assert single["samples"] == 30 and single["mean"] >= ref.K
    gdd = ref.select_gdd(graph, ref.K).nodes
    assert len(set(gdd)) == ref.K
