"""The benchmark's layer tracer (``perfbench/tracer.py``) wraps package
functions and methods by name, so a deleted or renamed name breaks
``perfbench/run.py --trace 1``. Here it is installed on the package, counts
one traced call of each simulator, and is uninstalled."""

import importlib.util
from pathlib import Path

from twophase_im import diffusion
from twophase_im.instances import example1_graph

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_package_and_counts_simulations():
    originals = diffusion.simulate_batch, diffusion.simulate_ic
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()   # a name it cannot find fails here, and is undone
        g = example1_graph()   # A -> B -> {C, D}: A tests one edge, B two
        times = diffusion.simulate_batch(g, [0], diffusion.stream(0, 0), 50)
        trace = diffusion.simulate_ic(g, [1], diffusion.stream(0, 1))
    finally:
        tracer.uninstall()
    assert (diffusion.simulate_batch, diffusion.simulate_ic) == originals
    assert list(trace.activation_time[[0, 1]]) == [diffusion.NEVER, 0]
    totals = tracer.layer_totals()
    # simulate_ic runs through simulate_batch, so the tracer sees its one
    # replicate and its two edge tests twice
    assert totals["diffusion.simulate_batch.calls"] == 2
    assert totals["diffusion.simulate_ic.calls"] == 1
    assert totals["diffusion.replicates"] == 50 + 1 + 1
    reached_b = int((times[:, 1] >= 0).sum())
    assert totals["diffusion.edge_attempts"] == 50 + 2 * reached_b + 2 * 2
