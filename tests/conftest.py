import math

import numpy as np
import pytest
from hypothesis import settings

from twophase_im.diffusion import SpreadEstimate
from twophase_im.instances import random_small_graph

# ``pytest --hypothesis-profile=ci``: the same examples on every run, so that
# the property and fuzz tests cannot flake in CI
settings.register_profile("ci", derandomize=True)


def instance_family(count, seed, max_nodes=8, max_edges=12):
    """Deterministic family of small random graphs for oracle-backed tests."""
    rng = np.random.default_rng(seed)
    return [random_small_graph(rng, max_nodes=max_nodes, max_edges=max_edges)
            for _ in range(count)]


def chunk_batches(graph, seeds, sims, master_seed, tag, stop_at=None):
    """The ``sims`` replicates of one seed set as the package drew them
    before its row source (``diffusion.replicate_rows``) existed: one
    ``simulate_batch`` per chunk of ``chunk_size(n)`` replicates, chunk j on
    ``stream(master_seed, tag, j)``. The reference that the row source, and
    every estimate built on it, must equal bit for bit."""
    from twophase_im import diffusion
    size = diffusion.chunk_size(graph.n)
    for idx, done in enumerate(range(0, sims, size)):
        yield diffusion.simulate_batch(graph, seeds, diffusion.stream(master_seed, tag, idx),
                                       min(size, sims - done), stop_at=stop_at)


def estimate_1d(vals):
    """The estimate of one 1-D sample reduced on its own, as estimates were
    before one row-wise reducer (``diffusion._estimates``) served them all."""
    sims = len(vals)
    stderr = float(vals.std(ddof=1) / math.sqrt(sims)) if sims > 1 else 0.0
    return SpreadEstimate(mean=float(vals.mean()), stderr=stderr, samples=sims)


def in_edges(graph):
    """in_edges[v] = [(u, p), ...] ordered by source id, from the graph's
    reverse index: the adjacency list the loop references walk."""
    in_indptr, in_src, in_p = graph.in_index
    bounds, src, p = in_indptr.tolist(), in_src.tolist(), in_p.tolist()
    return [list(zip(src[a:b], p[a:b])) for a, b in zip(bounds[:-1], bounds[1:])]


@pytest.fixture
def example1():
    from twophase_im.instances import example1_graph
    return example1_graph()
