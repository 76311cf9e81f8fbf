"""Command-line experiment harness.

Every command loads its graph once, runs a core function on a plain parameter
dict and that graph, writes a replayable run record, and prints its results
as JSON. The ``rerun`` command reloads the graph from the stored spec (checking
its hash), replays the record and verifies bit-exact agreement.

Exit codes: 0 success, 1 usage error, 2 data error (bad input, a file or
directory that cannot be read or written, or a run past a memory budget),
3 reproducibility failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import secrets
import sys
import time
from pathlib import Path

import click

from .diffusion import BATCH_BYTES, DecayFunction, MonteCarloConfig, check_bytes, estimate_spread
from .face import face_joint_optimize
from .graph import (
    GraphError,
    apply_tv_transform,
    apply_wc_transform,
    build_graph,
    is_native_graph_file,
    load_edge_list,
    load_graph,
    save_graph,
)
from .instances import BUILTINS
from .oracle import OracleCapError, get_oracle
from .records import (
    RecordError,
    ReproducibilityError,
    diff_results,
    graph_fingerprint,
    load_record,
    output_lock,
    write_record,
)
from .schedule import SearchConfig, estimate_D, exhaustive_grid, golden_section_k1
from .selectors import SigmaObjective
from .two_phase import SELECTORS, TwoPhasePlan, _farsighted, run_two_phase, score_cells

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_REPRO = 0, 1, 2, 3


# -- graph resolution ------------------------------------------------------


def make_graph_spec(source, transform="none", tv_seed=0, directed=True):
    if source in BUILTINS:
        if transform != "none":
            raise GraphError(f"builtin graph {source!r} takes no transform")
        return {"source": f"builtin:{source}"}
    path = Path(source)
    if not path.exists():
        raise GraphError(f"graph source {source!r}: no such builtin or file")
    if is_native_graph_file(path) and (transform != "none" or not directed):
        raise GraphError(f"native graph file {source!r} takes no transform or --undirected")
    return {"source": f"file:{path}", "transform": transform,
            "tv_seed": tv_seed, "directed": directed}


def resolve_graph(spec):
    kind, _, name = spec["source"].partition(":")
    if kind == "builtin":
        graph = BUILTINS[name]()
    else:
        path = Path(name)
        if not path.exists():
            raise GraphError(f"graph file not found: {path}")
        if is_native_graph_file(path):
            graph = load_graph(path)
        else:
            graph = _edge_list_graph(path, spec.get("directed", True),
                                     spec.get("transform", "none"), spec.get("tv_seed", 0))
    expected = spec.get("hash")
    if expected and expected != graph_fingerprint(graph):
        raise RecordError("input graph has changed since the record was written")
    return graph


def _edge_list_graph(path, directed, transform, tv_seed):
    """The graph of an edge-list file, its probabilities given or transformed."""
    raw = load_edge_list(path, directed=directed)
    if transform == "none":
        return build_graph(raw)
    if transform == "wc":
        return apply_wc_transform(raw)
    if transform == "tv":
        return apply_tv_transform(raw, tv_seed)
    raise GraphError(f"unknown transform {transform!r}")


def _ids(graph, text):
    if not text:
        return []
    return [graph.node_id(tok) for tok in text.split(",") if tok]


def _labels(graph, ids):
    return [graph.labels[int(v)] for v in ids]


def _decay(delta):
    """``--delta``; omitted means plain spread (delta = 1)."""
    return DecayFunction(1.0 if delta is None else delta)


# -- core runners (shared by commands and rerun) ---------------------------


def run_transform(params, graph):
    if graph is None:   # a replay builds the graph again; only ``transform`` writes it
        graph = _edge_list_graph(params["input"], params["directed"], params["model"],
                                 params["seed"])
    return {"n": graph.n, "m": graph.m, "graph_hash": graph_fingerprint(graph)}


def run_select(params, graph):
    k = params["k"]
    decay = _decay(params.get("delta"))
    mc = MonteCarloConfig(single_phase_sims=params["sims"],
                          master_seed=params["master_seed"])
    # greedy, RMax, SPIC and FACE pick on phase1_sims worlds, as a first phase does
    objective = SigmaObjective(graph, mc, sims=mc.phase1_sims, decay=decay)
    seeds = []
    if k:
        seeds = SELECTORS[params["algorithm"]](graph, k, objective, mc.master_seed).nodes
    est = estimate_spread(graph, seeds, mc, decay=decay)
    return {"seeds": _labels(graph, seeds), "seed_ids": list(seeds), "spread": est.as_dict()}


def run_oracle(params, graph):
    orc = get_oracle(graph)
    query = params["query"]
    if query == "sigma":
        value = orc.exact_sigma(_ids(graph, params.get("seeds", "")))
    elif query == "nu":
        decay = DecayFunction(params["delta"])
        value = orc.exact_nu(_ids(graph, params.get("seeds", "")), decay)
    elif query == "f":
        value = orc.exact_f(_ids(graph, params.get("s1", "")),
                            params["d"], params["k2"])
    else:
        raise GraphError(f"unknown oracle query {query!r}")
    return {"query": query, "value": value}


def run_twophase(params, graph):
    k = params["k"]
    decay = _decay(params.get("delta"))
    mc = MonteCarloConfig(single_phase_sims=params["sims"],
                          phase1_sims=params["phase1_sims"],
                          phase2_sims=params["phase2_sims"],
                          master_seed=params["master_seed"])
    optimize = params["optimize"]
    if optimize != "none" and k > graph.n:
        # every search space holds the single-phase cell k1 = k
        raise GraphError(f"budget {k} out of range for n={graph.n}")
    # the fixed plan's delay, or the optimizers' delay horizon
    delay = params["d"] if optimize == "none" else params.get("d_max")
    if delay in (None, "auto"):
        delay = estimate_D(graph, k, mc)
    else:
        # a run holds one float per step up to its delay (the progression,
        # FACE-joint's delay distribution); refuse a huge one before any run
        check_bytes(f"a delay of {delay} steps (one float64 per step)", 8 * (delay + 1),
                    BATCH_BYTES)
    if optimize == "none":
        plan = TwoPhasePlan(k1=params["k1"], k2=params["k2"], d=int(delay),
                            mode=params["mode"], selector=params["algorithm"])
        result, s1 = run_two_phase(graph, plan, mc, decay)
        return {
            "plan": {"k1": plan.k1, "k2": plan.k2, "d": plan.d,
                     "mode": plan.mode, "selector": plan.selector},
            "s1": _labels(graph, s1.nodes),
            "spread": result.spread.as_dict(),
            "s2_examples": [_labels(graph, s2) for s2 in result.realized_s2_examples],
            "progression": [float(x) for x in result.progression],
        }
    search = SearchConfig(k_total=k, d_max=delay, decay=decay, mc=mc)
    if optimize == "grid":
        grid = exhaustive_grid(graph, search, params["algorithm"])
        return {
            "best": list(grid.best),
            "spread": grid.best_estimate().as_dict(),
            "grid": [[k1, d, est.mean, est.stderr] for k1, d, est in grid.entries],
        }
    if optimize == "golden":
        k1, d, est = golden_section_k1(graph, search, params["algorithm"])
        return {"best": [k1, d], "spread": est.as_dict()}
    if optimize == "face-joint":
        far = _farsighted(mc)
        (k1, d, s1), log = face_joint_optimize(
            graph, k, delay,
            lambda cands: [est.mean for est in score_cells(graph, cands, k, far, decay)],
            master_seed=params["master_seed"], return_log=True)
        # run_two_phase's estimate of the plan (k1, k - k1, d) with this S1,
        # as FACE draws d = 0 exactly when k1 = k
        [est] = score_cells(graph, [(k1, d, s1.nodes)], k, mc, decay, params["algorithm"])
        return {
            "best": [k1, d],
            "s1": _labels(graph, s1.nodes),
            "spread": est.as_dict(),
            "face_log": [[e.iteration, e.draws, e.elite_threshold, e.best]
                         for e in log],
        }
    raise GraphError(f"unknown optimize mode {optimize!r}")


CORE = {
    "transform": run_transform,
    "select": run_select,
    "oracle": run_oracle,
    "twophase": run_twophase,
}


# -- artifact writing ------------------------------------------------------


def _write_csvs(results, record_path: Path):
    stem = record_path.with_suffix("")
    if "progression" in results:
        with open(f"{stem}-progression.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "new_activations_mean"])
            w.writerows(enumerate(results["progression"]))
    if "grid" in results:
        with open(f"{stem}-grid.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["k1", "d", "mean", "stderr"])
            w.writerows(results["grid"])
    if "face_log" in results:
        with open(f"{stem}-face-log.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "draws", "elite_threshold", "best"])
            w.writerows(results["face_log"])


def _execute(command, params, output_dir, graph=None):
    output_dir = Path(output_dir)
    with output_lock(output_dir):
        start = time.perf_counter()
        results = CORE[command](params, graph)
        wall = time.perf_counter() - start
        path = write_record(output_dir, command, params, results, wall)
        _write_csvs(results, path)
    payload = dict(results)
    payload["record"] = str(path)
    click.echo(json.dumps(payload, indent=2, sort_keys=True))
    return results


def _seed_param(seed):
    if seed is None:
        seed = secrets.randbits(32)
        click.echo(f"master seed (generated): {seed}", err=True)
    return int(seed)


def _graph_param(source, transform, tv_seed, undirected):
    """(spec, graph): the record's graph spec with the loaded graph's hash."""
    spec = make_graph_spec(source, transform, tv_seed, directed=not undirected)
    graph = resolve_graph(spec)
    spec["hash"] = graph_fingerprint(graph)
    return spec, graph


def graph_options(fn):
    for opt in reversed([
        click.option("--graph", "source", required=True,
                     help="builtin name (example1, lesmis), edge-list file, or native graph file"),
        click.option("--transform", type=click.Choice(["none", "wc", "tv"]),
                     default="none", show_default=True),
        click.option("--tv-seed", type=int, default=0, show_default=True),
        click.option("--undirected", is_flag=True,
                     help="treat edge-list records as undirected"),
    ]):
        fn = opt(fn)
    return fn


# -- commands --------------------------------------------------------------


@click.group()
def cli():
    """Influence-maximization experiments: selection, two-phase runs,
    exact small-instance oracles, and reproducible records."""


@cli.command()
@click.argument("input", type=click.Path(exists=True, dir_okay=False))
@click.argument("output", type=click.Path(dir_okay=False))
@click.option("--model", type=click.Choice(["wc", "tv"]), required=True)
@click.option("--seed", type=int, default=None, help="master seed (tv draws)")
@click.option("--undirected", is_flag=True)
@click.option("--output-dir", default="runs", show_default=True)
def transform(input, output, model, seed, undirected, output_dir):
    """Assign edge probabilities to an unweighted edge list."""
    params = {"input": str(input), "output": str(output), "model": model,
              "seed": _seed_param(seed), "directed": not undirected}
    graph = _edge_list_graph(input, not undirected, model, params["seed"])
    save_graph(graph, output)
    _execute("transform", params, output_dir, graph)


@cli.command()
@graph_options
@click.option("--algorithm", type=click.Choice(list(SELECTORS)), required=True)
@click.option("--k", type=int, required=True)
@click.option("--sims", type=int, default=10_000, show_default=True)
@click.option("--delta", type=float, default=None,
              help="decay factor; omitted or 1 means plain spread")
@click.option("--seed", type=int, default=None)
@click.option("--output-dir", default="runs", show_default=True)
def select(source, transform, tv_seed, undirected, algorithm, k, sims, delta,
           seed, output_dir):
    """Single-phase seed selection plus a Monte-Carlo spread estimate."""
    if k < 0:
        raise GraphError("k must be >= 0")
    spec, graph = _graph_param(source, transform, tv_seed, undirected)
    params = {"graph": spec, "algorithm": algorithm, "k": k, "sims": sims,
              "delta": delta, "master_seed": _seed_param(seed)}
    _execute("select", params, output_dir, graph)


@cli.command()
@graph_options
@click.option("--query", type=click.Choice(["sigma", "nu", "f"]), required=True)
@click.option("--seeds", default="", help="comma-separated node labels")
@click.option("--s1", default="", help="first-phase seed labels (f query)")
@click.option("--d", type=int, default=0)
@click.option("--k2", type=int, default=0)
@click.option("--delta", type=float, default=1.0, show_default=True)
@click.option("--output-dir", default="runs", show_default=True)
def oracle(source, transform, tv_seed, undirected, query, seeds, s1, d, k2,
           delta, output_dir):
    """Exact values on small graphs by live-graph enumeration."""
    spec, graph = _graph_param(source, transform, tv_seed, undirected)
    params = {"graph": spec, "query": query, "seeds": seeds, "s1": s1, "d": d,
              "k2": k2, "delta": delta}
    _execute("oracle", params, output_dir, graph)


@cli.command()
@graph_options
@click.option("--algorithm", type=click.Choice(list(SELECTORS)), required=True)
@click.option("--k", type=int, required=True)
@click.option("--k1", type=int, default=None)
@click.option("--k2", type=int, default=None)
@click.option("--d", default=None, help="delay step, or 'auto' for the probe estimate")
@click.option("--mode", type=click.Choice(["myopic", "farsighted"]),
              default="myopic", show_default=True,
              help="first-phase objective of a fixed plan (not with --optimize)")
@click.option("--optimize", type=click.Choice(["none", "grid", "golden", "face-joint"]),
              default="none", show_default=True)
@click.option("--d-max", type=int, default=None,
              help="delay horizon for optimization; default auto-estimated")
@click.option("--delta", type=float, default=None)
@click.option("--sims", type=int, default=10_000, show_default=True)
@click.option("--phase1-sims", type=int, default=1_000, show_default=True)
@click.option("--phase2-sims", type=int, default=1_000, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--output-dir", default="runs", show_default=True)
def twophase(source, transform, tv_seed, undirected, algorithm, k, k1, k2, d,
             mode, optimize, d_max, delta, sims, phase1_sims, phase2_sims,
             seed, output_dir):
    """Two-phase runs: fixed (k1, d) plans or budget/delay optimization."""
    if k < 1:
        raise GraphError("k must be >= 1")
    spec, graph = _graph_param(source, transform, tv_seed, undirected)
    params = {"graph": spec, "algorithm": algorithm, "k": k, "mode": mode,
              "optimize": optimize, "delta": delta, "sims": sims,
              "phase1_sims": phase1_sims, "phase2_sims": phase2_sims,
              "master_seed": _seed_param(seed)}
    if optimize == "none":
        if k1 is None or k2 is None or d is None:
            raise click.UsageError("--k1, --k2 and --d are required without --optimize")
        if k1 + k2 != k:
            raise GraphError(f"k1 + k2 = {k1 + k2} does not match k = {k}")
        params.update({"k1": k1, "k2": k2,
                       "d": d if d == "auto" else int(d)})
    else:
        if mode != "myopic":
            raise click.UsageError("--mode farsighted applies to a fixed plan only, "
                                   "not with --optimize")
        params["d_max"] = d_max
    _execute("twophase", params, output_dir, graph)


@cli.command()
@click.argument("record", type=click.Path(exists=True, dir_okay=False))
@click.option("--output-dir", default=None,
              help="where to write the verification record; default alongside the input")
def rerun(record, output_dir):
    """Replay a run record and require bit-exact numeric agreement."""
    stored = load_record(record)
    command, params = stored["command"], stored["params"]
    if command not in CORE:
        raise RecordError(f"record command {command!r} unknown")
    graph = resolve_graph(params["graph"]) if "graph" in params else None
    fresh = CORE[command](params, graph)
    diffs = diff_results(stored["results"], fresh)
    if diffs:
        for line in diffs:
            click.echo(f"mismatch: {line}", err=True)
        raise ReproducibilityError(
            f"{len(diffs)} numeric difference(s) replaying {record}")
    out = Path(output_dir) if output_dir else Path(record).parent
    with output_lock(out):
        path = write_record(out, command, params, fresh, 0.0)
    click.echo(json.dumps({"match": True, "record": str(path)}, indent=2))


@cli.group()
def datasets():
    """Fetch or export benchmark graphs."""


@datasets.command()
@click.argument("url")
@click.option("--sha256", "digest", required=True, help="expected content hash")
@click.option("--output", type=click.Path(dir_okay=False), required=True)
def fetch(url, digest, output):
    """Download a dataset with checksum pinning."""
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=60) as resp:
            content = resp.read()
    except OSError as exc:   # URLError is an OSError
        raise GraphError(f"cannot fetch {url}: {exc}") from None
    got = hashlib.sha256(content).hexdigest()
    if got != digest.lower():
        raise RecordError(f"checksum mismatch for {url}: got {got}")
    Path(output).write_bytes(content)
    click.echo(json.dumps({"output": output, "bytes": len(content),
                           "sha256": got}, indent=2))


@datasets.command("export-builtin")
@click.argument("name", type=click.Choice(sorted(BUILTINS)))
@click.option("--output", type=click.Path(dir_okay=False), required=True)
def export_builtin(name, output):
    """Write a bundled graph in the native serialized format."""
    graph = BUILTINS[name]()
    save_graph(graph, output)
    click.echo(json.dumps({"output": output, "n": graph.n, "m": graph.m,
                           "hash": graph_fingerprint(graph)}, indent=2))


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.exceptions.Abort:
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except ReproducibilityError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_REPRO
    except (GraphError, OracleCapError, RecordError, OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
