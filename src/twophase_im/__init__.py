"""Two-phase influence maximization under the independent cascade model.

Library layout:

- graph: CSR graph core, edge-list ingestion, WC/TV probability transforms,
  residual graphs sliced from the parent's arrays
- diffusion: one per-edge frontier IC sampler, the only source of fresh
  replicates (block, batch and one-replicate views, and the row source over
  it), the continuation of stopped replicates, live-edge world samples, and
  one (decay-weighted) spread estimator over many seed sets
- oracle: exact small-instance values by live-graph enumeration
- selectors: SD, WD, GDD, greedy, RMax, SPIC seed selection
- face: fully adaptive cross-entropy optimization (plain and joint modes)
- two_phase: the selector table, surrogate objectives g/h, the one (k1, d,
  S1) cell scorer of every optimizer, and the myopic/farsighted pipeline
- schedule: (k1, d) grid search, golden-section / sequential-delay search,
  each cell scored by the two_phase cell scorer
- cli: the ``tpim`` command-line harness with replayable run records
"""

from .diffusion import (
    DecayFunction,
    DiffusionTrace,
    MonteCarloConfig,
    SpreadEstimate,
    estimate_spread,
    simulate_batch,
    simulate_ic,
)
from .face import face_joint_optimize, face_select
from .graph import (
    GraphError,
    InfluenceGraph,
    RawEdgeList,
    apply_tv_transform,
    apply_wc_transform,
    build_graph,
    load_edge_list,
    load_graph,
    residual_graph,
    save_graph,
)
from .instances import BUILTINS, example1_graph, les_miserables_wc, random_small_graph
from .oracle import ExactOracle, OracleCapError, get_oracle
from .schedule import (
    GridResult,
    SearchConfig,
    estimate_D,
    exhaustive_grid,
    golden_section_k1,
    sequential_d_search,
)
from .selectors import (
    SeedSet,
    select_gdd,
    select_greedy,
    select_rmax,
    select_sd,
    select_spic,
    select_wd,
    shapley_values,
)
from .two_phase import TwoPhasePlan, TwoPhaseResult, eval_h, run_two_phase

__version__ = "0.1.0"
