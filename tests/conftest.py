import numpy as np
import pytest
from hypothesis import settings

from twophase_im.instances import random_small_graph

# ``pytest --hypothesis-profile=ci``: the same examples on every run, so that
# the property and fuzz tests cannot flake in CI
settings.register_profile("ci", derandomize=True)


def instance_family(count, seed, max_nodes=8, max_edges=12):
    """Deterministic family of small random graphs for oracle-backed tests."""
    rng = np.random.default_rng(seed)
    return [random_small_graph(rng, max_nodes=max_nodes, max_edges=max_edges)
            for _ in range(count)]


@pytest.fixture
def example1():
    from twophase_im.instances import example1_graph
    return example1_graph()
