import fcntl
import hashlib
import json
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from twophase_im.cli import cli, main
from twophase_im.graph import load_graph
from twophase_im.records import LOCK_NAME, load_record


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout):
    return json.loads(stdout[stdout.index("{"):])


def test_oracle_command_exact_value(tmp_path, capsys):
    code, out, _ = run(capsys, "oracle", "--graph", "example1", "--query", "f",
                       "--s1", "A", "--d", "1", "--k2", "1",
                       "--output-dir", str(tmp_path))
    assert code == 0
    assert abs(last_json(out)["value"] - 3.8) < 1e-9


def test_select_zero_budget(tmp_path, capsys):
    code, out, _ = run(capsys, "select", "--graph", "example1", "--algorithm",
                       "gdd", "--k", "0", "--seed", "1",
                       "--output-dir", str(tmp_path))
    assert code == 0
    got = last_json(out)
    assert got["seeds"] == [] and got["spread"]["mean"] == 0.0


def test_select_gdd_on_example1(tmp_path, capsys):
    code, out, _ = run(capsys, "select", "--graph", "example1", "--algorithm",
                       "gdd", "--k", "1", "--seed", "1", "--sims", "4000",
                       "--output-dir", str(tmp_path))
    assert code == 0
    got = last_json(out)
    assert got["seeds"] == ["B"]
    assert abs(got["spread"]["mean"] - 2.7) < 0.1


def test_twophase_reduction_matches_select(tmp_path, capsys):
    common = ["--graph", "example1", "--algorithm", "gdd", "--seed", "5",
              "--sims", "3000"]
    code, sel_out, _ = run(capsys, "select", *common, "--k", "1",
                           "--output-dir", str(tmp_path / "a"))
    assert code == 0
    code, tp_out, _ = run(capsys, "twophase", *common, "--k", "1", "--k1", "1",
                          "--k2", "0", "--d", "0",
                          "--output-dir", str(tmp_path / "b"))
    assert code == 0
    assert last_json(sel_out)["spread"] == last_json(tp_out)["spread"]


def test_twophase_fixed_plan_writes_progression_csv(tmp_path, capsys):
    code, out, _ = run(capsys, "twophase", "--graph", "example1", "--algorithm",
                       "gdd", "--k", "2", "--k1", "1", "--k2", "1", "--d", "1",
                       "--seed", "2", "--phase1-sims", "200",
                       "--phase2-sims", "50", "--output-dir", str(tmp_path))
    assert code == 0
    got = last_json(out)
    assert got["s1"] == ["B"]
    csvs = list(tmp_path.glob("*-progression.csv"))
    assert len(csvs) == 1
    header = csvs[0].read_text().splitlines()[0]
    assert header == "t,new_activations_mean"


@pytest.mark.parametrize("optimize, key, suffix, header", [
    ("grid", "grid", "grid", "k1,d,mean,stderr"),
    ("face-joint", "face_log", "face-log", "iter,draws,elite_threshold,best")])
def test_optimizer_writes_its_table_as_csv(tmp_path, capsys, optimize, key, suffix, header):
    code, out, _ = run(capsys, "twophase", "--graph", "example1", "--algorithm", "gdd",
                       "--k", "2", "--optimize", optimize, "--d-max", "1", "--sims", "20",
                       "--phase1-sims", "10", "--phase2-sims", "5", "--seed", "0",
                       "--output-dir", str(tmp_path))
    assert code == 0
    rows = load_record(last_json(out)["record"])["results"][key]
    assert rows
    [path] = tmp_path.glob(f"*-{suffix}.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == header
    assert [[float(x) for x in line.split(",")] for line in lines[1:]] == rows


def test_twophase_requires_plan_without_optimize(tmp_path, capsys):
    code, _, err = run(capsys, "twophase", "--graph", "example1", "--algorithm",
                       "gdd", "--k", "2", "--output-dir", str(tmp_path))
    assert code == 1


@pytest.mark.parametrize("optimize", ["grid", "golden", "face-joint"])
def test_farsighted_mode_is_refused_under_optimize(tmp_path, capsys, optimize):
    # the optimizers score plans with a myopic first phase; a record saying
    # farsighted would misreport what ran
    code, out, err = run(capsys, "twophase", "--graph", "lesmis", "--algorithm", "greedy",
                         "--k", "2", "--d-max", "1", "--sims", "20", "--phase1-sims", "10",
                         "--phase2-sims", "5", "--seed", "0", "--optimize", optimize,
                         "--mode", "farsighted", "--output-dir", str(tmp_path))
    assert code == 1
    assert "--mode farsighted" in err and out == ""
    assert [p.name for p in tmp_path.iterdir()] == [LOCK_NAME]   # no record


@pytest.mark.parametrize("optimize", ["grid", "golden", "face-joint"])
@pytest.mark.parametrize("given", [["--k1", "1"], ["--k2", "1"], ["--d", "3"],
                                   ["--k1", "1", "--k2", "1", "--d", "3"]],
                         ids=["k1", "k2", "d", "all"])
def test_fixed_plan_options_are_refused_under_optimize(tmp_path, capsys, optimize, given):
    # an optimizer picks k1 and d itself; a record that dropped the given
    # values would not say what was asked for
    code, out, err = run(capsys, "twophase", "--graph", "example1", "--algorithm", "gdd",
                         "--k", "2", *given, "--optimize", optimize, "--d-max", "1",
                         "--sims", "20", "--phase1-sims", "10", "--phase2-sims", "5",
                         "--seed", "0", "--output-dir", str(tmp_path))
    assert code == 1
    assert "--k1, --k2 and --d apply to a fixed plan only" in err and out == ""
    assert [p.name for p in tmp_path.iterdir()] == [LOCK_NAME]   # no record


def test_record_of_an_optimizer_with_a_fixed_plan_option_is_refused(tmp_path, capsys):
    for key, value in (("k1", 1), ("k2", 1), ("d", 1)):
        data = json.loads((FIXTURES / "golden-decay.json").read_text())
        data["params"][key] = value
        record = tmp_path / "golden.json"
        record.write_text(json.dumps(data))
        code, out, err = run(capsys, "rerun", str(record), "--output-dir", str(tmp_path / "out"))
        assert code == 1, key
        assert "apply to a fixed plan only" in err and out == ""


def test_tv_seed_is_refused_without_the_tv_transform(tmp_path, capsys, monkeypatch):
    # the seed draws tv probabilities only; recorded elsewhere it changes nothing
    monkeypatch.chdir(tmp_path)
    Path("e.txt").write_text("a b\nb c\nc a\n")
    args = ["select", "--algorithm", "gdd", "--k", "1", "--sims", "20", "--seed", "1",
            "--output-dir", "runs"]
    for graph in (["--graph", "e.txt", "--transform", "wc"], ["--graph", "e.txt"],
                  ["--graph", "example1"]):
        code, out, err = run(capsys, *args, *graph, "--tv-seed", "7")
        assert code == 2 and out == "", graph
        assert "--tv-seed 7 applies to --transform tv only" in err
    assert not Path("runs").exists()
    # with the tv transform, or at its default 0, the seed is valid
    for extra in (["--transform", "tv", "--tv-seed", "7"], ["--transform", "wc", "--tv-seed", "0"]):
        code, out, err = run(capsys, *args, "--graph", "e.txt", *extra)
        assert code == 0, err
        record = last_json(out)["record"]
        code, _, err = run(capsys, "rerun", record, "--output-dir", "replay")
        assert code == 0, err
    # a wc record edited to carry a tv seed is refused on replay
    data = json.loads(Path(record).read_text())
    data["params"]["graph"]["tv_seed"] = 7
    Path("edited.json").write_text(json.dumps(data))
    code, _, err = run(capsys, "rerun", "edited.json", "--output-dir", "edited")
    assert code == 2 and "--tv-seed 7 applies to --transform tv only" in err
    assert not Path("edited").exists()


@pytest.mark.parametrize("source", ["", "/", "/dev/null"])
def test_graph_source_that_is_not_a_file_is_refused_naming_it(tmp_path, capsys, source):
    # Path("") is ".", which read as a file gave "Is a directory: '.'"
    code, out, err = run(capsys, "select", "--graph", source, "--algorithm", "gdd", "--k", "1",
                         "--seed", "1", "--output-dir", str(tmp_path / "runs"))
    assert code == 2 and out == ""
    assert err.startswith(f"error: graph source {source!r}: ")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("optimize", ["grid", "golden", "face-joint"])
@pytest.mark.parametrize("d_max", [["--d-max", "6"], []], ids=["d-max", "auto"])
def test_optimize_budget_above_n_is_refused_before_any_simulation(tmp_path, capsys,
                                                                  monkeypatch, optimize, d_max):
    # each search space holds the single-phase cell k1 = k, which n = 77
    # nodes cannot seed; neither the delay probe nor any cell may run first
    from twophase_im import diffusion

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated")

    monkeypatch.setattr(diffusion, "_cascade", no_simulation)
    code, out, err = run(capsys, "twophase", "--graph", "lesmis", "--algorithm", "gdd",
                         "--k", "100", "--optimize", optimize, *d_max, "--sims", "4000",
                         "--phase1-sims", "20", "--phase2-sims", "20", "--seed", "0",
                         "--output-dir", str(tmp_path))
    assert code == 2
    assert "budget 100 out of range for n=77" in err and out == ""
    assert [p.name for p in tmp_path.iterdir()] == [LOCK_NAME]   # no record


def test_twophase_mismatched_split_is_data_error(tmp_path, capsys):
    code, _, err = run(capsys, "twophase", "--graph", "example1", "--algorithm",
                       "gdd", "--k", "2", "--k1", "2", "--k2", "1", "--d", "0",
                       "--output-dir", str(tmp_path))
    assert code == 2


def test_transform_wc_and_tv(tmp_path, capsys):
    src = tmp_path / "edges.txt"
    src.write_text("a b\nb c\nc a\n")
    out_wc = tmp_path / "wc.tpim"
    code, _, _ = run(capsys, "transform", str(src), str(out_wc), "--model",
                     "wc", "--undirected", "--seed", "0",
                     "--output-dir", str(tmp_path / "r1"))
    assert code == 0
    g = load_graph(out_wc)
    assert g.n == 3 and g.m == 6
    for path, seed in (("tv1.tpim", 4), ("tv2.tpim", 4)):
        code, _, _ = run(capsys, "transform", str(src), str(tmp_path / path),
                         "--model", "tv", "--undirected", "--seed", str(seed),
                         "--output-dir", str(tmp_path / f"r{path}"))
        assert code == 0
    assert (tmp_path / "tv1.tpim").read_text() == (tmp_path / "tv2.tpim").read_text()


def test_transform_rejects_weighted_input_for_wc(tmp_path, capsys):
    src = tmp_path / "edges.txt"
    src.write_text("a b 0.5\n")
    code, _, err = run(capsys, "transform", str(src), str(tmp_path / "o.tpim"),
                       "--model", "wc", "--seed", "0",
                       "--output-dir", str(tmp_path / "r"))
    assert code == 2
    assert "unweighted" in err


def test_unknown_graph_is_data_error(tmp_path, capsys):
    code, _, err = run(capsys, "select", "--graph", "missing", "--algorithm",
                       "gdd", "--k", "1", "--seed", "0",
                       "--output-dir", str(tmp_path))
    assert code == 2


def test_unknown_algorithm_is_usage_error(tmp_path, capsys):
    code, _, _ = run(capsys, "select", "--graph", "example1", "--algorithm",
                     "bogus", "--k", "1", "--output-dir", str(tmp_path))
    assert code == 1


def test_rerun_fresh_record_matches(tmp_path, capsys):
    code, out, _ = run(capsys, "select", "--graph", "example1", "--algorithm",
                       "wd", "--k", "1", "--seed", "3", "--sims", "500",
                       "--output-dir", str(tmp_path))
    assert code == 0
    record = last_json(out)["record"]
    code, out, _ = run(capsys, "rerun", record)
    assert code == 0
    assert last_json(out)["match"] is True
    # the verification record replays the original command, so it reruns too
    code, _, _ = run(capsys, "rerun", last_json(out)["record"])
    assert code == 0


def test_rerun_detects_tampering(tmp_path, capsys):
    code, out, _ = run(capsys, "select", "--graph", "example1", "--algorithm",
                       "wd", "--k", "1", "--seed", "3", "--sims", "500",
                       "--output-dir", str(tmp_path))
    record = Path(last_json(out)["record"])
    data = json.loads(record.read_text())
    data["results"]["spread"]["mean"] += 0.5
    record.write_text(json.dumps(data))
    code, _, err = run(capsys, "rerun", str(record))
    assert code == 3
    assert "mismatch" in err


def test_rerun_refuses_changed_graph(tmp_path, capsys):
    src = tmp_path / "edges.txt"
    src.write_text("a b 0.9\nb c 0.9\n")
    code, out, _ = run(capsys, "select", "--graph", str(src), "--algorithm",
                       "sd", "--k", "1", "--seed", "0", "--sims", "200",
                       "--output-dir", str(tmp_path / "r"))
    assert code == 0
    record = last_json(out)["record"]
    src.write_text("a b 0.1\nb c 0.9\n")
    code, _, err = run(capsys, "rerun", record)
    assert code == 2
    assert "changed" in err


def test_output_dir_lock_blocks_concurrent_runs(tmp_path, capsys):
    with open(tmp_path / LOCK_NAME, "a") as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        code, _, err = run(capsys, "oracle", "--graph", "example1", "--query",
                           "sigma", "--seeds", "B", "--output-dir", str(tmp_path))
    assert code == 2
    assert "lock" in err


def test_leftover_lock_file_does_not_block(tmp_path, capsys):
    (tmp_path / LOCK_NAME).write_text("4242")   # written by a run that died
    code, _, _ = run(capsys, "oracle", "--graph", "example1", "--query",
                     "sigma", "--seeds", "B", "--output-dir", str(tmp_path))
    assert code == 0


def test_killed_run_releases_its_lock(tmp_path, capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    holder = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time\n"
         "from pathlib import Path\n"
         "from twophase_im.records import output_lock\n"
         "with output_lock(Path(sys.argv[1])):\n"
         "    print('locked', flush=True)\n"
         "    time.sleep(60)\n", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, env={"PYTHONPATH": src})
    try:
        assert holder.stdout.readline().strip() == "locked"
        args = ("oracle", "--graph", "example1", "--query", "sigma", "--seeds", "B",
                "--output-dir", str(tmp_path))
        code, _, err = run(capsys, *args)
        assert code == 2 and "lock" in err
        holder.send_signal(signal.SIGKILL)
        holder.wait(timeout=30)
        assert (tmp_path / LOCK_NAME).exists()
        code, _, _ = run(capsys, *args)
        assert code == 0
    finally:
        holder.kill()
        holder.wait(timeout=30)
        holder.stdout.close()


def test_datasets_export_builtin_round_trips(tmp_path, capsys):
    out = tmp_path / "ex1.tpim"
    code, _, _ = run(capsys, "datasets", "export-builtin", "example1",
                     "--output", str(out))
    assert code == 0
    g = load_graph(out)
    assert g.labels == ["A", "B", "C", "D"]


def test_record_files_are_well_formed(tmp_path, capsys):
    run(capsys, "oracle", "--graph", "example1", "--query", "sigma",
        "--seeds", "B", "--output-dir", str(tmp_path))
    records = list(tmp_path.glob("oracle-*.json"))
    assert len(records) == 1
    rec = load_record(records[0])
    assert rec["command"] == "oracle"
    assert rec["results"]["value"] == pytest.approx(2.7, abs=1e-12)


def test_twophase_delay_past_the_cascade_runs(tmp_path, capsys):
    # d + phase-2 steps exceeds n + 1 on this four-node graph
    code, out, err = run(capsys, "twophase", "--graph", "example1", "--algorithm",
                         "gdd", "--k", "2", "--k1", "1", "--k2", "1", "--d", "50",
                         "--seed", "3", "--phase1-sims", "100", "--phase2-sims", "20",
                         "--output-dir", str(tmp_path))
    assert code == 0, err
    got = last_json(out)
    assert sum(got["progression"]) == pytest.approx(got["spread"]["mean"], abs=1e-9)


@pytest.mark.parametrize("plan", [["--k1", "1", "--k2", "1", "--d", "1000000000000"],
                                  ["--optimize", "golden", "--d-max", "1000000000000"],
                                  ["--optimize", "face-joint", "--d-max", "1000000000000"]])
def test_huge_delay_is_refused_before_allocating(tmp_path, capsys, plan):
    # one float64 per step up to the delay would be 8 TB
    code, _, err = run(capsys, "twophase", "--graph", "example1", "--algorithm", "gdd",
                       "--k", "2", *plan, "--seed", "0", "--output-dir", str(tmp_path))
    assert code == 2 and "delay" in err and "budget" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("cmd", [
    ["select", "--k", "1", "--sims", "1000000000"],
    ["twophase", "--k", "2", "--k1", "1", "--k2", "1", "--d", "1",
     "--phase1-sims", "1000000000"],
], ids=["sims", "phase1-sims"])
def test_huge_replicate_count_is_refused_before_allocating(tmp_path, capsys, cmd):
    # one float64 per replicate would be 7.5 GiB, past WORLD_BYTES
    code, _, err = run(capsys, *cmd, "--graph", "example1", "--algorithm", "gdd",
                       "--seed", "1", "--output-dir", str(tmp_path))
    assert code == 2 and "budget of 256.0 MiB" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.json"))


def test_replicate_count_just_past_the_budget_reads_past_it(tmp_path, capsys):
    # 33 554 433 float64 values are 8 bytes past WORLD_BYTES
    code, _, err = run(capsys, "select", "--graph", "example1", "--algorithm", "gdd",
                       "--k", "1", "--sims", "33554433", "--seed", "1",
                       "--output-dir", str(tmp_path))
    assert code == 2 and "Traceback" not in err
    assert not list(tmp_path.glob("*.json"))
    sizes = re.search(r"([\d.]+) MiB \((\d+) bytes\), above the budget of "
                      r"([\d.]+) MiB \((\d+) bytes\)", err)
    assert sizes.groups() == ("256.1", "268435464", "256.0", "268435456")


@pytest.mark.parametrize("delta", ["1.5", "-0.1", "nan"])
def test_out_of_range_delta_is_data_error(tmp_path, capsys, delta):
    common = ["--graph", "example1", "--algorithm", "gdd", "--delta", delta,
              "--seed", "0", "--sims", "100", "--output-dir", str(tmp_path)]
    for cmd in (["select", "--k", "1"],
                ["twophase", "--k", "2", "--k1", "1", "--k2", "1", "--d", "1",
                 "--phase1-sims", "10", "--phase2-sims", "10"]):
        code, _, err = run(capsys, *cmd, *common)
        assert code == 2, (cmd, delta)
        assert "delta" in err


def test_twophase_help_names_what_each_count_sizes(capsys):
    code, out, _ = run(capsys, "twophase", "--help")
    assert code == 0
    assert "--d STEPS|auto" in out and "_DELAY" not in out
    options = dict(re.findall(r"^  (--[\w-]+) [A-Z]+ +(\S.*)$", out, flags=re.M))
    for option in ("--delta", "--sims", "--phase1-sims", "--phase2-sims"):
        assert not options[option].startswith("["), option   # a help text, not the default


def test_rerun_rejects_older_record_version(tmp_path, capsys):
    code, out, _ = run(capsys, "select", "--graph", "example1", "--algorithm",
                       "gdd", "--k", "1", "--seed", "3", "--sims", "200",
                       "--output-dir", str(tmp_path))
    assert code == 0
    record = Path(last_json(out)["record"])
    data = json.loads(record.read_text())
    for version in (1, 3):   # 3 hashed the graph's edge text
        data["version"] = version
        record.write_text(json.dumps(data))
        code, _, err = run(capsys, "rerun", str(record))
        assert code == 2
        assert f"record version {version} unsupported (this build writes v4)" in err


def test_rerun_refuses_a_graph_whose_out_edges_were_reordered(tmp_path, capsys):
    # the sampler tests node 0's out-edges in file order: the same edge set
    # in another order is another graph, not a numeric mismatch (exit 3)
    src = tmp_path / "g.txt"
    src.write_text("3 1 0.1\n3 2 0.1\n0 1 0.9\n0 2 0.8\n")
    code, out, err = run(capsys, "select", "--graph", str(src), "--algorithm", "gdd",
                         "--k", "1", "--sims", "2000", "--seed", "3",
                         "--output-dir", str(tmp_path / "runs"))
    assert code == 0, err
    src.write_text("3 1 0.1\n3 2 0.1\n0 2 0.8\n0 1 0.9\n")
    code, _, err = run(capsys, "rerun", last_json(out)["record"],
                       "--output-dir", str(tmp_path / "again"))
    assert code == 2
    assert "input graph has changed" in err


def test_select_on_an_exported_builtin_matches_the_builtin(tmp_path, capsys):
    # the export keeps lesmis's out-edges in CSR order, so it is the same graph
    native = tmp_path / "lesmis.tpim"
    code, out, _ = run(capsys, "datasets", "export-builtin", "lesmis", "--output", str(native))
    assert code == 0
    exported_hash = last_json(out)["hash"]
    got = {}
    for source in ("lesmis", str(native)):
        code, out, err = run(capsys, "select", "--graph", source, "--algorithm", "gdd",
                             "--k", "3", "--sims", "2000", "--seed", "5",
                             "--output-dir", str(tmp_path / "runs"))
        assert code == 0, err
        result = last_json(out)
        got[source] = (load_record(result.pop("record"))["params"]["graph"]["hash"], result)
    assert got["lesmis"] == got[str(native)]
    assert got["lesmis"][0] == exported_hash


def test_select_does_not_import_scipy(tmp_path):
    # scipy, networkx and requests are no dependencies, not even of the tests
    # (lesmis ships as package data); the package must run without them
    import subprocess
    import sys
    code = ("import sys\n"
            "from twophase_im.cli import main\n"
            "for graph in ('example1', 'lesmis'):\n"
            "    assert main(['select', '--graph', graph, '--algorithm', 'gdd', '--k', '1',"
            f" '--seed', '0', '--sims', '100', '--output-dir', {str(tmp_path)!r}]) == 0\n"
            "print([m for m in ('scipy', 'networkx', 'requests') if m in sys.modules])\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, check=True).stdout
    assert out.strip().splitlines()[-1] == "[]"


def test_select_resolves_its_graph_once(tmp_path, capsys, monkeypatch):
    import twophase_im.cli as cli
    calls = []
    original = cli.resolve_graph
    monkeypatch.setattr(cli, "resolve_graph",
                        lambda spec: calls.append(spec) or original(spec))
    code, out, _ = run(capsys, "select", "--graph", "lesmis", "--algorithm", "gdd",
                       "--k", "2", "--seed", "0", "--sims", "100",
                       "--output-dir", str(tmp_path))
    assert code == 0 and len(calls) == 1
    code, _, _ = run(capsys, "rerun", last_json(out)["record"])
    assert code == 0 and len(calls) == 2


def test_face_joint_searches_on_gdd_whatever_the_algorithm(tmp_path, capsys, monkeypatch):
    # the search's second phase is score_cells' default, GDD; only the final
    # estimate of the chosen plan uses --algorithm
    import inspect

    import twophase_im.cli as cli
    selectors, original = [], cli.score_cells

    def recording(*args, **kwargs):
        bound = inspect.signature(original).bind(*args, **kwargs)
        bound.apply_defaults()
        selectors.append(bound.arguments["selector2"])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "score_cells", recording)
    code, _, err = run(capsys, "twophase", "--graph", "lesmis", "--algorithm", "sd",
                       "--k", "3", "--d-max", "2", "--sims", "20", "--phase1-sims", "10",
                       "--phase2-sims", "5", "--seed", "0", "--optimize", "face-joint",
                       "--output-dir", str(tmp_path))
    assert code == 0, err
    assert len(selectors) >= 2
    assert selectors == ["gdd"] * (len(selectors) - 1) + ["sd"]


def _fetch(capsys, source, digest, output):
    return run(capsys, "datasets", "fetch", source.as_uri(), "--sha256", digest,
               "--output", str(output))


def test_datasets_fetch_file_url_with_matching_hash(tmp_path, capsys):
    source = tmp_path / "edges.txt"
    source.write_bytes(b"a b 0.5\n")
    digest = hashlib.sha256(b"a b 0.5\n").hexdigest()
    code, out, _ = _fetch(capsys, source, digest, tmp_path / "copy.txt")
    assert code == 0
    assert (tmp_path / "copy.txt").read_bytes() == b"a b 0.5\n"
    assert last_json(out)["sha256"] == digest


def test_datasets_fetch_wrong_hash_writes_nothing(tmp_path, capsys):
    source = tmp_path / "edges.txt"
    source.write_bytes(b"a b 0.5\n")
    code, _, err = _fetch(capsys, source, "0" * 64, tmp_path / "copy.txt")
    assert code == 2 and "checksum" in err
    assert not (tmp_path / "copy.txt").exists()


def test_datasets_fetch_missing_file_is_data_error(tmp_path, capsys):
    code, _, err = _fetch(capsys, tmp_path / "absent.txt", "0" * 64, tmp_path / "copy.txt")
    assert code == 2 and "cannot fetch" in err
    assert not (tmp_path / "copy.txt").exists()


def _tpim(*args):
    """``tpim`` in a fresh interpreter, as a user runs it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-m", "twophase_im.cli", *args],
                          capture_output=True, text=True, env={"PYTHONPATH": src},
                          timeout=120)


def test_output_dir_under_a_file_is_data_error(tmp_path):
    proc = _tpim("select", "--graph", "lesmis", "--algorithm", "gdd", "--k", "2",
                 "--sims", "10", "--seed", "1", "--output-dir", "/dev/null/x")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "Not a directory" in proc.stderr


def test_directory_given_as_graph_is_data_error(tmp_path):
    proc = _tpim("select", "--graph", str(tmp_path), "--algorithm", "gdd", "--k", "2",
                 "--sims", "10", "--seed", "1", "--output-dir", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "Is a directory" in proc.stderr


def test_oversized_phase2_batch_is_refused_before_allocating(tmp_path, capsys, monkeypatch):
    from twophase_im import diffusion
    # one outer replicate's block is phase2_sims x 77 int32 on lesmis
    monkeypatch.setattr(diffusion, "BATCH_BYTES", 4 * 77 * 40)
    args = ["twophase", "--graph", "lesmis", "--algorithm", "gdd", "--k", "2", "--k1", "1",
            "--k2", "1", "--d", "1", "--sims", "10", "--phase1-sims", "3", "--seed", "1",
            "--output-dir", str(tmp_path)]
    code, _, err = run(capsys, *args, "--phase2-sims", "41")
    assert code == 2 and "phase-2" in err and "budget" in err
    assert not list(tmp_path.glob("*.json"))
    code, _, err = run(capsys, *args, "--phase2-sims", "40")
    assert code == 0, err


def test_auto_delay_refuses_oversized_phase1_sims_before_simulating(tmp_path, capsys,
                                                                    monkeypatch):
    # the probe's values are sets x phase1_sims float64, checked before any
    # replicate is drawn
    from twophase_im import diffusion

    def refuse(*args, **kwargs):
        raise AssertionError("the probe simulated past its values budget")

    monkeypatch.setattr(diffusion, "WORLD_BYTES", 8 * 1000)
    monkeypatch.setattr(diffusion, "_cascade", refuse)
    code, _, err = run(capsys, "twophase", "--graph", "lesmis", "--algorithm", "gdd",
                       "--k", "4", "--k1", "2", "--k2", "2", "--d", "auto",
                       "--phase1-sims", "1001", "--phase2-sims", "10", "--sims", "100",
                       "--seed", "1", "--output-dir", str(tmp_path))
    assert code == 2 and "budget" in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.json"))


def test_auto_delay_on_eight_nodes_runs_past_n_steps_and_replays(tmp_path, capsys,
                                                                   monkeypatch):
    # d + the phase-2 steps pass n + 1 = 9 steps, where --d auto once failed
    monkeypatch.chdir(Path(__file__).parent / "data")
    code, out, err = run(capsys, "twophase", "--graph", "family8.tpim", "--algorithm", "gdd",
                         "--k", "2", "--k1", "1", "--k2", "1", "--d", "auto", "--seed", "0",
                         "--output-dir", str(tmp_path))
    assert code == 0, err
    got = last_json(out)
    assert got["plan"]["d"] == 6 and len(got["progression"]) > 9
    code, _, err = run(capsys, "rerun", got["record"], "--output-dir", str(tmp_path / "rerun"))
    assert code == 0, err


def test_select_sims_does_not_size_the_objective(tmp_path, capsys, monkeypatch):
    # --sims sizes the printed estimate; greedy picks on phase1_sims worlds
    from twophase_im.diffusion import SigmaObjective

    sizes, draw = [], SigmaObjective._draw

    def recorded(self):
        sizes.append(self.sims)
        return draw(self)

    monkeypatch.setattr(SigmaObjective, "_draw", recorded)
    code, out, err = run(capsys, "select", "--graph", "lesmis", "--algorithm", "greedy",
                         "--k", "1", "--sims", "50", "--seed", "1",
                         "--output-dir", str(tmp_path))
    assert code == 0, err
    assert sizes == [1000] and last_json(out)["spread"]["samples"] == 50


@pytest.mark.parametrize("algorithm, delta", [("gdd", "1"), ("greedy", "0.8")])
def test_select_runs_no_two_phase_plan_and_counts_no_progression(tmp_path, capsys,
                                                                   monkeypatch, algorithm,
                                                                   delta):
    # one selector call and one spread estimate, the same as the
    # single-phase plan (k2 = 0, d = 0) that select ran through before
    import twophase_im.cli as cli
    from twophase_im import diffusion
    from twophase_im.diffusion import DecayFunction, MonteCarloConfig
    from twophase_im.instances import les_miserables_wc
    from twophase_im.two_phase import TwoPhasePlan, run_two_phase

    mc = MonteCarloConfig(single_phase_sims=300, master_seed=4)
    plan = TwoPhasePlan(k1=3, k2=0, d=0, selector=algorithm)
    want, s1 = run_two_phase(les_miserables_wc(), plan, mc, DecayFunction(float(delta)))

    def refuse(*args, **kwargs):
        raise AssertionError("select must not count a progression or run a two-phase plan")

    monkeypatch.setattr(diffusion, "_histogram_add", refuse)
    monkeypatch.setattr(cli, "run_two_phase", refuse)
    code, out, _ = run(capsys, "select", "--graph", "lesmis", "--algorithm", algorithm,
                       "--k", "3", "--delta", delta, "--seed", "4", "--sims", "300",
                       "--output-dir", str(tmp_path))
    assert code == 0
    got = last_json(out)
    assert got["seed_ids"] == s1
    assert got["spread"] == want.spread.as_dict()


def test_rerun_of_transform_never_writes_its_output(tmp_path, capsys):
    src, out = tmp_path / "e.txt", tmp_path / "g.tpim"
    src.write_text("a b\nb c\n")
    code, stdout, _ = run(capsys, "transform", str(src), str(out), "--model", "wc",
                          "--seed", "0", "--output-dir", str(tmp_path / "r"))
    assert code == 0
    record, written = last_json(stdout)["record"], out.read_bytes()
    code, _, err = run(capsys, "rerun", record)
    assert code == 0, err
    src.write_text("a b\nb c\nc d\n")
    code, _, err = run(capsys, "rerun", record)
    assert code == 3 and "mismatch" in err
    assert out.read_bytes() == written


def _unknown_command(data):
    return dict(data, command="bogus")


def _missing_model(data):
    del data["params"]["model"]
    return data


def _input_past_any_fd(data):
    data["params"]["input"] = 10 ** 30   # click's Path stats an int as a file descriptor
    return data


def _params_not_object(data):
    return dict(data, params=[1, 2])


def _spec_without_source(data):
    del data["params"]["graph"]["source"]
    return data


def _record_not_object(data):
    return [data]


MALFORMED = [("transform", _unknown_command), ("transform", _missing_model),
             ("transform", _input_past_any_fd),
             ("select", _params_not_object), ("select", _spec_without_source),
             ("select", _record_not_object)]


@pytest.mark.parametrize("command, edit", MALFORMED,
                         ids=[edit.__name__.strip("_") for _, edit in MALFORMED])
def test_malformed_record_is_data_error(tmp_path, capsys, command, edit):
    src = tmp_path / "e.txt"
    src.write_text("a b\nb c\n")
    if command == "transform":
        args = ["transform", str(src), str(tmp_path / "g.tpim"), "--model", "wc"]
    else:
        args = ["select", "--graph", "example1", "--algorithm", "gdd", "--k", "1",
                "--sims", "20"]
    code, out, _ = run(capsys, *args, "--seed", "0", "--output-dir", str(tmp_path / "r"))
    assert code == 0
    record = Path(last_json(out)["record"])
    record.write_text(json.dumps(edit(json.loads(record.read_text()))))
    code, _, err = run(capsys, "rerun", str(record))
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("name, argv", [
    ("select", ["--graph", "g", "--algorithm", "gdd", "--k", "1"]),
    ("oracle", ["--graph", "g", "--query", "sigma"]),
    ("twophase", ["--graph", "g", "--algorithm", "gdd", "--k", "1"]),
    ("transform", ["in.txt", "out.tpim", "--model", "wc"]),
])
def test_directed_is_true_unless_undirected_is_given(name, argv, tmp_path, monkeypatch):
    # the record key is the option's dest, so its default must be the
    # directed graph that a record without the key replays
    monkeypatch.chdir(tmp_path)
    Path("in.txt").write_text("0 1\n")
    command = cli.commands[name]
    assert command.make_context(name, list(argv)).params["directed"] is True
    assert command.make_context(name, [*argv, "--undirected"]).params["directed"] is False


NATIVE_RECORD = Path(__file__).parent / "data" / "native-select.json"


def test_native_graph_file_refuses_transform_and_undirected(tmp_path, capsys, monkeypatch):
    # a native file holds its probabilities and directions already; the
    # record must not claim a transform or direction the run never applied
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "datasets", "export-builtin", "example1", "--output", "ex1.tpim")
    assert code == 0
    args = ["select", "--graph", "ex1.tpim", "--algorithm", "gdd", "--k", "1",
            "--sims", "50", "--seed", "3", "--output-dir", "runs"]
    for flags in (["--transform", "wc"], ["--undirected"]):
        code, _, err = run(capsys, *args, *flags)
        assert code == 2 and "native graph file" in err, flags
    # a builtin is refused the same way
    code, _, err = run(capsys, "select", "--graph", "example1", *args[3:], "--undirected")
    assert code == 2 and "builtin graph 'example1'" in err
    assert not Path("runs").exists()
    # and so is a record edited to claim what the command refuses
    for edit in ({"transform": "wc"}, {"directed": False}, {"directed": "x"}):
        data = json.loads(NATIVE_RECORD.read_text())
        data["params"]["graph"].update(edit)
        Path("edited.json").write_text(json.dumps(data))
        code, _, err = run(capsys, "rerun", "edited.json", "--output-dir", "edited")
        assert code == 2 and err.startswith("error: "), edit
    assert not Path("edited").exists()
    # a valid run keeps its spec, and a record written before still replays
    code, out, _ = run(capsys, *args)
    assert code == 0
    fresh = load_record(last_json(out)["record"])
    stored = json.loads(NATIVE_RECORD.read_text())
    assert fresh["params"] == stored["params"]
    assert json.dumps(fresh["params"]["graph"]) == json.dumps(stored["params"]["graph"])
    code, _, err = run(capsys, "rerun", str(NATIVE_RECORD), "--output-dir", "replay")
    assert code == 0, err


FIXTURES = Path(__file__).parent / "data" / "records"


def _drop_graph(params):
    del params["graph"]


# (fixture record, edit of its params, what the error names)
BAD_PARAMS = {
    "select-k-string": ("select-gdd", lambda p: p.update(k="1"), "'k'"),
    "select-k-true": ("select-gdd", lambda p: p.update(k=True), "'k'"),
    "select-sims-null": ("select-gdd", lambda p: p.update(sims=None), "'sims'"),
    "select-delta-string": ("select-gdd", lambda p: p.update(delta="0.5"), "'delta'"),
    "select-seed-null": ("select-gdd", lambda p: p.update(master_seed=None), "'master_seed'"),
    "twophase-phase1-sims-float": ("twophase-decay", lambda p: p.update(phase1_sims=2.5),
                                   "'phase1_sims'"),
    "twophase-d-string": ("twophase-decay", lambda p: p.update(d="7"), "'d'"),
    "twophase-algorithm-int": ("twophase-decay", lambda p: p.update(algorithm=3),
                               "'algorithm'"),
    "twophase-split-not-k": ("twophase-decay", lambda p: p.update(k=3), "add up to k = 3"),
    "twophase-k1-null": ("twophase-decay", lambda p: p.update(k1=None), "add up to k"),
    "select-no-graph": ("select-gdd", _drop_graph, "'graph'"),
    "oracle-no-graph": ("oracle-f", _drop_graph, "'graph'"),
    "unknown-builtin": ("select-gdd", lambda p: p["graph"].update(source="builtin:nope"),
                        "no builtin graph 'nope'"),
    "oracle-query-int": ("oracle-f", lambda p: p.update(query=1), "'query'"),
    "builtin-transform": ("select-gdd", lambda p: p["graph"].update(transform="wc"),
                          "builtin graph 'lesmis'"),
    "builtin-undirected": ("select-gdd", lambda p: p["graph"].update(directed=False),
                           "builtin graph 'lesmis'"),
    "source-without-kind": ("select-gdd", lambda p: p["graph"].update(source="lesmis"),
                            "graph source 'lesmis'"),
    "builtin-tv-seed": ("select-gdd", lambda p: p["graph"].update(tv_seed=7),
                        "--tv-seed 7 applies to --transform tv only"),
    "source-empty-file": ("select-gdd", lambda p: p["graph"].update(source="file:"),
                          "graph source '': no such builtin or file"),
    "source-directory": ("select-gdd", lambda p: p["graph"].update(source="file:/"),
                         "graph source '/': Is a directory"),
    "hash-null": ("select-gdd", lambda p: p["graph"].update(hash=None), "'hash'"),
    "hash-deleted": ("select-gdd", lambda p: p["graph"].pop("hash"), "'hash'"),
}


@pytest.mark.parametrize("case", list(BAD_PARAMS))
def test_record_with_a_bad_parameter_is_data_error(tmp_path, capsys, case):
    # a parameter the command would refuse, or could not have recorded,
    # ends the replay with exit 2 and an error line, never a traceback
    name, edit, named = BAD_PARAMS[case]
    data = json.loads((FIXTURES / f"{name}.json").read_text())
    edit(data["params"])
    record = tmp_path / f"{name}.json"
    record.write_text(json.dumps(data))
    code, _, err = run(capsys, "rerun", str(record), "--output-dir", str(tmp_path / "out"))
    assert code == 2, err
    assert err.startswith("error: ") and named in err


def test_record_of_farsighted_optimizer_is_refused_as_the_command_is(tmp_path, capsys):
    data = json.loads((FIXTURES / "golden-decay.json").read_text())
    data["params"]["mode"] = "farsighted"
    record = tmp_path / "golden.json"
    record.write_text(json.dumps(data))
    code, out, err = run(capsys, "rerun", str(record), "--output-dir", str(tmp_path / "out"))
    assert code == 1
    assert "--mode farsighted" in err and out == ""


_OPTIMIZE = ["twophase", "--graph", "example1", "--algorithm", "gdd", "--k", "2", "--sims", "20",
             "--phase1-sims", "2", "--phase2-sims", "2", "--seed", "1", "--optimize"]
_FIXED = ["twophase", "--graph", "example1", "--algorithm", "gdd", "--k", "2", "--k1", "1",
          "--k2", "1", "--d", "1", "--sims", "20", "--phase1-sims", "2", "--phase2-sims", "2",
          "--seed", "7"]
_ORACLE_F = ["oracle", "--graph", "example1", "--query", "f", "--s1", "A", "--d", "1",
             "--k2", "1"]
_ORACLE_SIGMA = ["oracle", "--graph", "example1", "--query", "sigma", "--seeds", "A",
                 "--d", "0", "--k2", "0"]
_ORACLE_NU = ["oracle", "--graph", "example1", "--query", "nu", "--seeds", "A", "--delta",
              "0.5", "--d", "0", "--k2", "0"]
# (a command with a valid value of the option, the option, a value below its
# least, or for the oracle's --k2 above n, the record field that stores it,
# the message)
BELOW_LEAST = [
    ([*_OPTIMIZE, "grid", "--d-max", "1"], "--d-max", -1, ["d_max"],
     "--d-max must be >= 0, not -1"),
    ([*_OPTIMIZE, "golden", "--d-max", "1"], "--d-max", -1, ["d_max"],
     "--d-max must be >= 0, not -1"),
    ([*_OPTIMIZE, "face-joint", "--d-max", "1"], "--d-max", 0, ["d_max"],
     "--d-max must be >= 1, not 0"),
    (["select", "--graph", "example1", "--algorithm", "gdd", "--k", "1", "--sims", "20",
      "--seed", "7"], "--seed", -1, ["master_seed"], "--seed must be >= 0, not -1"),
    (_FIXED, "--seed", -3, ["master_seed"], "--seed must be >= 0, not -3"),
    (["select", "--graph", "e.txt", "--transform", "tv", "--tv-seed", "7", "--algorithm",
      "gdd", "--k", "1", "--sims", "20", "--seed", "1"], "--tv-seed", -1, ["graph", "tv_seed"],
     "--tv-seed must be >= 0, not -1"),
    (["transform", "e.txt", "g.tpim", "--model", "tv", "--seed", "7"], "--seed", -1, ["seed"],
     "--seed must be >= 0, not -1"),
    (["select", "--graph", "example1", "--algorithm", "gdd", "--k", "1", "--sims", "20",
      "--seed", "7"], "--sims", 0, ["sims"], "--sims must be >= 1, not 0"),
    (_FIXED, "--sims", 0, ["sims"], "--sims must be >= 1, not 0"),
    (_FIXED, "--phase1-sims", -2, ["phase1_sims"], "--phase1-sims must be >= 1, not -2"),
    (_FIXED, "--phase2-sims", 0, ["phase2_sims"], "--phase2-sims must be >= 1, not 0"),
    (_ORACLE_F, "--d", -1, ["d"], "--d must be >= 0, not -1"),
    (_ORACLE_F, "--k2", -1, ["k2"], "--k2 must be >= 0, not -1"),
    (_ORACLE_F, "--k2", 5, ["k2"], "--k2 must be <= n = 4, not 5"),
    # --d auto: refused before the probe simulates
    ([*_FIXED[:_FIXED.index("--d") + 1], "auto", *_FIXED[_FIXED.index("--d") + 2:]], "--k1",
     -1, ["k1"], "--k1 must be >= 0, not -1"),
    (_FIXED, "--k2", -1, ["k2"], "--k2 must be >= 0, not -1"),
    (_ORACLE_SIGMA, "--d", -5, ["d"], "--d must be >= 0, not -5"),
    (_ORACLE_SIGMA, "--k2", 99, ["k2"], "--k2 must be <= n = 4, not 99"),
    (_ORACLE_NU, "--d", -1, ["d"], "--d must be >= 0, not -1"),
    (_ORACLE_NU, "--k2", -1, ["k2"], "--k2 must be >= 0, not -1"),
]


@pytest.mark.parametrize("argv, option, bad, field, message", BELOW_LEAST,
                         ids=["grid", "golden", "face-joint", "select-seed", "twophase-seed",
                              "tv-seed", "transform-seed", "select-sims", "twophase-sims",
                              "phase1-sims", "phase2-sims", "oracle-d", "oracle-k2",
                              "oracle-k2-above-n", "twophase-k1", "twophase-k2",
                              "oracle-sigma-d", "oracle-sigma-k2-above-n", "oracle-nu-d",
                              "oracle-nu-k2"])
def test_a_value_below_its_least_is_refused_by_its_option(tmp_path, capsys, monkeypatch, argv,
                                                           option, bad, field, message):
    # a run, and the replay of a record edited to hold the value, both exit
    # 2 naming the option, before any simulation or tv draw, and write no
    # record
    import twophase_im.cli as cli_module
    from twophase_im import diffusion

    monkeypatch.chdir(tmp_path)
    Path("e.txt").write_text("a b\nb c\nc a\n")
    code, out, err = run(capsys, *argv, "--output-dir", "runs")
    assert code == 0, err
    record = json.loads(Path(last_json(out)["record"]).read_text())

    def refuse(*args, **kwargs):
        raise AssertionError("ran")

    monkeypatch.setattr(diffusion, "_cascade", refuse)
    monkeypatch.setattr(cli_module, "apply_tv_transform", refuse)
    at = argv.index(option) + 1
    code, out, err = run(capsys, *argv[:at], str(bad), *argv[at + 1:], "--output-dir", "refused")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    holder = record["params"]
    for key in field[:-1]:
        holder = holder[key]
    holder[field[-1]] = bad
    Path("edited.json").write_text(json.dumps(record))
    code, out, err = run(capsys, "rerun", "edited.json", "--output-dir", "replay")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not list(Path().glob("re*/*.json"))
