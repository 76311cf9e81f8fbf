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
from .schedule import estimate_D, exhaustive_grid, golden_section_k1
from .two_phase import (
    SELECTORS,
    TwoPhasePlan,
    cell_scorer,
    farsighted_config,
    myopic_objective,
    run_two_phase,
    score_cells,
    select_seeds,
)

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_REPRO = 0, 1, 2, 3


# -- graph resolution ------------------------------------------------------


def make_graph_spec(source, transform="none", tv_seed=0, directed=True):
    """The record's spec of the graph options, for ``resolve_graph`` to check."""
    if source in BUILTINS:   # a builtin's spec holds an option only off its default
        spec = {"source": f"builtin:{source}"}
        if transform != "none":
            spec["transform"] = transform
        if tv_seed != 0:
            spec["tv_seed"] = tv_seed
        if directed is not True:
            spec["directed"] = directed
        return spec
    # Path("") is ".": an empty source stays empty, for resolve_graph to refuse
    return {"source": f"file:{Path(source) if source else ''}", "transform": transform,
            "tv_seed": tv_seed, "directed": directed}


def resolve_graph(spec):
    """The graph of a spec. A ``GraphError`` naming the source refuses a spec no
    command writes: a source not ``builtin:NAME`` or ``file:PATH``, or no such
    file or builtin, or an empty path or one that is not a file, or a transform
    or ``directed: false`` on a builtin or native file, or a non-zero
    ``tv_seed`` without the tv transform. A hash must match the graph."""
    kind, _, name = spec["source"].partition(":")
    path = Path(name)
    transform, directed = spec.get("transform", "none"), spec.get("directed", True)
    tv_seed = spec.get("tv_seed", 0)
    if tv_seed != 0 and transform != "tv":
        raise GraphError(f"graph source {name!r}: --tv-seed {tv_seed} applies to "
                         f"--transform tv only")
    if kind == "builtin":
        if name not in BUILTINS:
            raise GraphError(f"no builtin graph {name!r}")
        fixed, graph = "builtin graph", BUILTINS[name]()
    elif kind == "file":
        if not name or not path.exists():
            raise GraphError(f"graph source {name!r}: no such builtin or file")
        if not path.is_file():
            what = "Is a directory" if path.is_dir() else "not a regular file"
            raise GraphError(f"graph source {name!r}: {what}")
        if is_native_graph_file(path):
            fixed, graph = "native graph file", load_graph(path)
        else:
            fixed, graph = None, _edge_list_graph(path, directed, transform, tv_seed)
    else:
        raise GraphError(f"graph source {spec['source']!r} is not builtin:NAME or file:PATH")
    if fixed and (transform != "none" or directed is not True):
        raise GraphError(f"{fixed} {name!r} takes no transform or --undirected")
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
    return [graph.node_id(tok) for tok in text.split(",") if tok]


def _labels(graph, ids):
    return [graph.labels[int(v)] for v in ids]


def _decay(delta):
    """``--delta``; omitted means plain spread (delta = 1)."""
    return DecayFunction(1.0 if delta is None else delta)


def _delay(text):
    """``--d``: a step count, or 'auto' for the probe estimate."""
    return text if text == "auto" else int(text)


# -- core runners (shared by commands and rerun) ---------------------------


def run_transform(params, graph):
    if graph is None:   # a replay builds the graph again; only ``transform`` writes it
        graph = _edge_list_graph(params["input"], params["directed"], params["model"],
                                 params["seed"])
    return {"n": graph.n, "m": graph.m, "graph_hash": graph_fingerprint(graph)}


def run_select(params, graph):
    k = params["k"]
    if k < 0:
        raise GraphError("k must be >= 0")
    decay = _decay(params.get("delta"))
    mc = MonteCarloConfig(single_phase_sims=params["sims"],
                          master_seed=params["master_seed"])
    # greedy, RMax, SPIC and FACE pick on phase1_sims worlds, as a first phase does
    seeds = select_seeds(params["algorithm"], graph, k, myopic_objective(graph, mc, decay),
                         mc.master_seed)
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
    else:   # f; the command and rerun refuse any other query
        value = orc.exact_f(_ids(graph, params.get("s1", "")),
                            params["d"], params["k2"])
    return {"query": query, "value": value}


def run_twophase(params, graph):
    k, optimize = params["k"], params["optimize"]
    if k < 1:
        raise GraphError("k must be >= 1")
    if optimize == "none":
        k1, k2 = params["k1"], params["k2"]
        if None in (k1, k2) or k1 + k2 != k:
            raise GraphError(f"k1 = {k1} and k2 = {k2} do not add up to k = {k}")
    elif params["mode"] != "myopic":
        raise click.UsageError("--mode farsighted applies to a fixed plan only, "
                               "not with --optimize")
    elif any(params.get(key) is not None for key in ("k1", "k2", "d")):
        raise click.UsageError("--k1, --k2 and --d apply to a fixed plan only, "
                               "not with --optimize")
    elif k > graph.n:
        # every search space holds the single-phase cell k1 = k
        raise GraphError(f"budget {k} out of range for n={graph.n}")
    decay = _decay(params.get("delta"))
    mc = MonteCarloConfig(single_phase_sims=params["sims"],
                          phase1_sims=params["phase1_sims"],
                          phase2_sims=params["phase2_sims"],
                          master_seed=params["master_seed"])
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
        plan = TwoPhasePlan(k1=k1, k2=k2, d=int(delay),
                            mode=params["mode"], selector=params["algorithm"])
        result, s1 = run_two_phase(graph, plan, mc, decay)
        return {
            "plan": {"k1": plan.k1, "k2": plan.k2, "d": plan.d,
                     "mode": plan.mode, "selector": plan.selector},
            "s1": _labels(graph, s1),
            "spread": result.spread.as_dict(),
            "s2_examples": [_labels(graph, s2) for s2 in result.realized_s2_examples],
            "progression": [float(x) for x in result.progression],
        }
    if optimize == "face-joint":
        far = farsighted_config(mc)
        # the search scores its second phase with GDD whatever --algorithm
        # says; only the final estimate below uses --algorithm
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
    evaluate = cell_scorer(graph, k, mc, decay, params["algorithm"])
    if optimize == "grid":
        grid = exhaustive_grid(k, delay, evaluate)
        k1, d, est = grid.best
        return {
            "best": [k1, d],
            "spread": est.as_dict(),
            "grid": [[k1, d, est.mean, est.stderr] for k1, d, est in grid.entries],
        }
    # golden; the command and rerun refuse any other optimize mode
    k1, d, est = golden_section_k1(k, delay, evaluate, decay)
    return {"best": [k1, d], "spread": est.as_dict()}


CORE = {
    "transform": run_transform,
    "select": run_select,
    "oracle": run_oracle,
    "twophase": run_twophase,
}


# -- artifact writing ------------------------------------------------------


def _write_csvs(results, record_path: Path):
    """One CSV per table the results hold; the progression's rows are
    numbered by step."""
    stem = record_path.with_suffix("")
    for key, suffix, header in (("progression", "progression", ["t", "new_activations_mean"]),
                                ("grid", "grid", ["k1", "d", "mean", "stderr"]),
                                ("face_log", "face-log",
                                 ["iter", "draws", "elite_threshold", "best"])):
        if key in results:
            rows = results[key]
            with open(f"{stem}-{suffix}.csv", "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow(header)
                w.writerows(enumerate(rows) if key == "progression" else rows)


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


def _execute_on_graph(command, params, output_dir):
    """``_execute`` on the graph options' graph, which the record holds as a
    spec with its hash, and on a drawn seed if none was given."""
    spec = make_graph_spec(*(params.pop(key) for key in
                             ("source", "transform", "tv_seed", "directed")))
    graph = resolve_graph(spec)
    spec["hash"] = graph_fingerprint(graph)
    if "master_seed" in params:
        params["master_seed"] = _seed_param(params["master_seed"])
    _execute(command, {"graph": spec, **params}, output_dir, graph)


def graph_options(fn):
    for opt in reversed([
        click.option("--graph", "source", required=True,
                     help="builtin name (example1, lesmis), edge-list file, or native graph file"),
        click.option("--transform", type=click.Choice(["none", "wc", "tv"]),
                     default="none", show_default=True),
        click.option("--tv-seed", type=int, default=0, show_default=True),
        click.option("--undirected", "directed", is_flag=True,
                     callback=lambda _ctx, _opt, undirected: not undirected,
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
@click.option("--undirected", "directed", is_flag=True,
              callback=lambda _ctx, _opt, undirected: not undirected)
@click.option("--output-dir", default="runs", show_default=True)
def transform(output_dir, **params):
    """Assign edge probabilities to an unweighted edge list."""
    params["seed"] = _seed_param(params["seed"])
    graph = _edge_list_graph(params["input"], params["directed"], params["model"],
                             params["seed"])
    save_graph(graph, params["output"])
    _execute("transform", params, output_dir, graph)


@cli.command()
@graph_options
@click.option("--algorithm", type=click.Choice(list(SELECTORS)), required=True)
@click.option("--k", type=int, required=True)
@click.option("--sims", type=int, default=10_000, show_default=True,
              help="replicates of the printed spread estimate only; greedy, RMax, SPIC "
                   f"and FACE select on {MonteCarloConfig.phase1_sims} live-edge worlds "
                   "whatever it is")
@click.option("--delta", type=float, default=None,
              help="decay factor; omitted or 1 means plain spread")
@click.option("--seed", "master_seed", type=int, default=None)
@click.option("--output-dir", default="runs", show_default=True)
def select(output_dir, **params):
    """Single-phase seed selection plus a Monte-Carlo spread estimate."""
    _execute_on_graph("select", params, output_dir)


@cli.command()
@graph_options
@click.option("--query", type=click.Choice(["sigma", "nu", "f"]), required=True)
@click.option("--seeds", default="", help="comma-separated node labels")
@click.option("--s1", default="", help="first-phase seed labels (f query)")
@click.option("--d", type=int, default=0)
@click.option("--k2", type=int, default=0)
@click.option("--delta", type=float, default=1.0, show_default=True)
@click.option("--output-dir", default="runs", show_default=True)
def oracle(output_dir, **params):
    """Exact values on small graphs by live-graph enumeration."""
    _execute_on_graph("oracle", params, output_dir)


@cli.command()
@graph_options
@click.option("--algorithm", type=click.Choice(list(SELECTORS)), required=True)
@click.option("--k", type=int, required=True)
@click.option("--k1", type=int, default=None)
@click.option("--k2", type=int, default=None)
@click.option("--d", type=_delay, default=None,
              help="delay step, or 'auto' for the probe estimate")
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
@click.option("--seed", "master_seed", type=int, default=None)
@click.option("--output-dir", default="runs", show_default=True)
def twophase(output_dir, **params):
    """Two-phase runs: fixed (k1, d) plans or budget/delay optimization."""
    if params["optimize"] == "none":
        if None in (params["k1"], params["k2"], params["d"]):
            raise click.UsageError("--k1, --k2 and --d are required without --optimize")
        del params["d_max"]
    else:   # run_twophase refuses any of them that was given
        for key in ("k1", "k2", "d"):
            if params[key] is None:
                del params[key]
    _execute_on_graph("twophase", params, output_dir)


def _check_params(command, params):
    """Refuse a record value that the command's option of that name cannot
    give: one its click type fails to convert or turns into another value or
    type (a string or true for an integer, 2.5 for a count, 1 for a flag), or
    null where the option has a default, is required or is ``--seed``."""
    options = {param.name: param for param in command.params}
    for name, value in params.items():
        option = options.get(name)
        if option is None or (value is None and option.default is None
                              and not option.required and "--seed" not in option.opts):
            continue
        try:
            given = option.type.convert(value, option, None)
            valid = type(given) is type(value) and given == value
        except (click.BadParameter, TypeError, AttributeError, OverflowError):
            valid = False   # BOOL raises AttributeError on 1, Path OverflowError on 10**30
        if not valid:
            raise RecordError(f"record parameter {name!r} = {value!r} is not a valid "
                              f"{option.opts[0]}")


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
    _check_params(cli.commands[command], {**params, **params.get("graph", {})})
    graph = None if command == "transform" else resolve_graph(params["graph"])
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
