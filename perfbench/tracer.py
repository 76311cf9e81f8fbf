"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each ``twophase_im`` module. A
``from module import name`` copies the binding into the importing module, so
every module attribute that holds the original object is replaced, not only
the one in the defining module. Each call records a span (name, start, end,
parent); a layer's self time is its spans' durations minus the time covered
by their direct children. Counts are taken at the same boundaries, from the
arguments and return values, so they repeat exactly for a fixed seed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import Counter, defaultdict

import numpy as np

# Layer metrics printed with --trace 1, with their units. BENCHMARK.json lists
# the same names under "per_layer".
LAYER_METRICS = {
    "graph.residual_graph.calls": "count",
    "graph.residual_graph.self_s": "s",
    "graph.residual_graph.nodes_copied": "count",
    "graph.load_edge_list.self_s": "s",
    "graph.apply_wc_transform.self_s": "s",
    "cli.resolve_graph.calls": "count",
    "cli.resolve_graph.self_s": "s",
    "records.graph_fingerprint.self_s": "s",
    "records.write_record.self_s": "s",
    "records.diff_results.self_s": "s",
    "diffusion.simulate_batch.calls": "count",
    "diffusion.simulate_batch.self_s": "s",
    "diffusion.simulate_batch.cold_self_s": "s",
    "diffusion.simulate_ic.calls": "count",
    "diffusion.simulate_ic.self_s": "s",
    "diffusion.replicates": "count",
    "diffusion.edge_attempts": "count",
    "diffusion.edge_attempts_per_s": "1/s",
    "diffusion.estimate_spread.calls": "count",
    "diffusion.estimate_spread.self_s": "s",
    "selectors.select_gdd.calls": "count",
    "selectors.select_gdd.self_s": "s",
    "selectors.select_greedy.self_s": "s",
    "selectors.objective.calls": "count",
    "selectors.objective.hit_ratio": "ratio",
    "two_phase.run_two_phase.calls": "count",
    "two_phase.run_two_phase.self_s": "s",
    "two_phase.eval_h.calls": "count",
    "two_phase.eval_h.self_s": "s",
    "two_phase.outer_replicates": "count",
    "two_phase.inner_replicates": "count",
    "schedule.exhaustive_grid.self_s": "s",
    "schedule.golden_section_k1.self_s": "s",
    "schedule.estimate_D.self_s": "s",
    "schedule.evaluations": "count",
    "face.face_joint_optimize.self_s": "s",
    "face.iterations": "count",
    "face.draws": "count",
    "face.objective_calls": "count",
    "face.unique_ratio": "ratio",
    "oracle.init.self_s": "s",
    "oracle.dist.self_s": "s",
    "oracle.exact_sigma.self_s": "s",
    "oracle.exact_f.calls": "count",
    "oracle.exact_f.self_s": "s",
    "oracle.max_f.self_s": "s",
    "oracle.live_graphs": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}

# Spans whose call counts are reported.
_COUNTED = ("graph.residual_graph", "cli.resolve_graph", "diffusion.simulate_batch",
            "diffusion.simulate_ic", "diffusion.estimate_spread", "selectors.select_gdd",
            "selectors.objective", "two_phase.run_two_phase", "two_phase.eval_h",
            "oracle.exact_f")


def _out_degrees(graph) -> np.ndarray:
    return np.fromiter((len(adj) for adj in graph.out_edges), dtype=np.int64,
                       count=graph.n)


def _edge_attempts(graph, times: np.ndarray, stop_at) -> int:
    """Sum of out-degrees over nodes activated before ``stop_at``: each such
    node tests every out-edge once in the following step."""
    stop = graph.n if stop_at is None else stop_at
    tried = (times >= 0) & (times < stop)
    return int((tried @ _out_degrees(graph)).sum())


class Tracer:
    """Spans and counters for one traced stretch of a run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, cold flag]
        self.counts = Counter()
        self._stack = []
        self._undo = []
        self._simulated = {}     # id(graph) -> weak reference, for cold calls
        self._signatures = {}

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, False]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer, span, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, original, name, before=None, after=None, sites=None):
        """Replace every ``twophase_im`` module binding of ``original``.

        ``sites`` maps a module name to a callable run before the call when
        the function is reached through that module's binding."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "twophase_im" or key.startswith("twophase_im."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is not original:
                    continue
                site = (sites or {}).get(module.__name__.rpartition(".")[2])
                hook = before
                if site is not None:
                    def hook(tracer, args, kwargs, site=site, inner=before):
                        site(tracer)
                        return inner(tracer, args, kwargs) if inner else (args, kwargs)
                self._patch(module, attr, self._wrap(original, name, hook, after))

    def patch_method(self, cls, attr, name, after=None):
        original = cls.__dict__[attr]
        if isinstance(original, property):
            self._patch(cls, attr, property(self._wrap(original.fget, name, after=after)))
        else:
            self._patch(cls, attr, self._wrap(original, name, after=after))

    def install(self):
        """Patch every layer; undo with ``uninstall``."""
        from twophase_im import cli, diffusion, face, graph, oracle, records
        from twophase_im import schedule, selectors, two_phase

        self._signatures = {"run_two_phase": inspect.signature(two_phase.run_two_phase),
                            "eval_h": inspect.signature(two_phase.eval_h)}
        self.patch_function(graph.residual_graph, "graph.residual_graph",
                            after=_count_residual)
        self.patch_function(graph.load_edge_list, "graph.load_edge_list")
        self.patch_function(graph.apply_wc_transform, "graph.apply_wc_transform")
        self.patch_function(cli.resolve_graph, "cli.resolve_graph")
        self.patch_function(records.graph_fingerprint, "records.graph_fingerprint")
        self.patch_function(records.write_record, "records.write_record")
        self.patch_function(records.diff_results, "records.diff_results")
        self.patch_function(diffusion.simulate_batch, "diffusion.simulate_batch",
                            after=_count_batch)
        self.patch_function(diffusion.simulate_ic, "diffusion.simulate_ic",
                            after=_count_ic)
        self.patch_function(diffusion.estimate_spread, "diffusion.estimate_spread")
        self.patch_function(selectors.select_gdd, "selectors.select_gdd")
        self.patch_function(selectors.select_greedy, "selectors.select_greedy")
        self.patch_method(selectors.SigmaObjective, "__call__", "selectors.objective")
        self.patch_function(two_phase.run_two_phase, "two_phase.run_two_phase",
                            after=_count_two_phase,
                            sites={"schedule": _count_evaluation})
        self.patch_function(two_phase.eval_h, "two_phase.eval_h", after=_count_eval_h)
        self.patch_function(schedule.exhaustive_grid, "schedule.exhaustive_grid")
        self.patch_function(schedule.golden_section_k1, "schedule.golden_section_k1")
        self.patch_function(schedule.estimate_D, "schedule.estimate_D")
        self.patch_function(face.face_joint_optimize, "face.face_joint_optimize",
                            before=_count_face_objective, after=_count_face_log)
        self.patch_method(oracle.ExactOracle, "__init__", "oracle.init",
                          after=_count_live_graphs)
        self.patch_method(oracle.ExactOracle, "dist", "oracle.dist")
        self.patch_method(oracle.ExactOracle, "exact_sigma", "oracle.exact_sigma")
        self.patch_method(oracle.ExactOracle, "exact_f", "oracle.exact_f")
        self.patch_method(oracle.ExactOracle, "max_f", "oracle.max_f")

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict:
        """Totals over every span recorded so far, in unscaled seconds."""
        child = [0.0] * len(self.spans)
        has_estimate_child = set()
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
                if name == "diffusion.estimate_spread":
                    has_estimate_child.add(parent)
        self_s = defaultdict(float)
        calls = Counter()
        cold = 0.0
        misses = 0
        for i, (name, start, end, _, is_cold) in enumerate(self.spans):
            own = (end - start) - child[i]
            self_s[name] += own
            calls[name] += 1
            if is_cold:
                cold += own
            if name == "selectors.objective" and i in has_estimate_child:
                misses += 1
        out = {}
        for metric in LAYER_METRICS:
            if metric.endswith(".self_s"):
                out[metric] = self_s[metric[:-len(".self_s")]]
        for name in _COUNTED:
            out[f"{name}.calls"] = calls[name]
        out["diffusion.simulate_batch.cold_self_s"] = cold
        out.update({k: v for k, v in self.counts.items()})
        sim_s = self_s["diffusion.simulate_batch"] + self_s["diffusion.simulate_ic"]
        attempts = self.counts["diffusion.edge_attempts"]
        out["diffusion.edge_attempts_per_s"] = attempts / sim_s if sim_s > 0 else 0.0
        objective_calls = calls["selectors.objective"]
        out["selectors.objective.hit_ratio"] = (
            (objective_calls - misses) / objective_calls if objective_calls else 0.0)
        draws = self.counts["face.draws"]
        out["face.unique_ratio"] = self.counts["face.objective_calls"] / draws if draws else 0.0
        out["trace.spans"] = len(self.spans)
        return out


# -- counters (called with the tracer, the span, and the call) --------------


def _bound(tracer, fn_name, args, kwargs):
    return tracer._signatures[fn_name].bind(*args, **kwargs).arguments


def _count_residual(tracer, span, args, kwargs, result):
    tracer.counts["graph.residual_graph.nodes_copied"] += len(result[1])


def _count_batch(tracer, span, args, kwargs, result):
    graph = args[0]
    # the first call on a graph object builds its simulation matrices
    ref = tracer._simulated.get(id(graph))
    if ref is None or ref() is not graph:
        tracer._simulated[id(graph)] = weakref.ref(graph)
        span[4] = True
    stop_at = args[4] if len(args) > 4 else kwargs.get("stop_at")
    tracer.counts["diffusion.replicates"] += result.shape[0]
    tracer.counts["diffusion.edge_attempts"] += _edge_attempts(graph, result, stop_at)


def _count_ic(tracer, span, args, kwargs, result):
    stop_at = args[3] if len(args) > 3 else kwargs.get("stop_at")
    tracer.counts["diffusion.replicates"] += 1
    tracer.counts["diffusion.edge_attempts"] += _edge_attempts(
        args[0], result.activation_time, stop_at)


def _count_nested(tracer, config):
    tracer.counts["two_phase.outer_replicates"] += config.phase1_sims
    tracer.counts["two_phase.inner_replicates"] += config.phase1_sims * config.phase2_sims


def _count_two_phase(tracer, span, args, kwargs, result):
    call = _bound(tracer, "run_two_phase", args, kwargs)
    plan = call["plan"]
    if not (plan.k2 == 0 and plan.d == 0):   # otherwise a single-phase run
        _count_nested(tracer, call["config"])


def _count_eval_h(tracer, span, args, kwargs, result):
    _count_nested(tracer, _bound(tracer, "eval_h", args, kwargs)["config"])


def _count_evaluation(tracer):
    tracer.counts["schedule.evaluations"] += 1


def _count_face_objective(tracer, args, kwargs):
    args = list(args)
    objective = args[3] if len(args) > 3 else kwargs["two_phase_objective"]

    def counted(*a, **kw):
        tracer.counts["face.objective_calls"] += 1
        return objective(*a, **kw)

    if len(args) > 3:
        args[3] = counted
    else:
        kwargs = dict(kwargs, two_phase_objective=counted)
    return tuple(args), kwargs


def _count_face_log(tracer, span, args, kwargs, result):
    if kwargs.get("return_log") or (len(args) > 6 and args[6]):
        _, log = result
        tracer.counts["face.iterations"] += len(log)
        tracer.counts["face.draws"] += sum(entry.draws for entry in log)


def _count_live_graphs(tracer, span, args, kwargs, result):
    tracer.counts["oracle.live_graphs"] += 1 << args[0].m
