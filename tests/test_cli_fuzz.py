"""Fuzzing the ``tpim`` command line: argv drawn from the option grammar,
with valid and invalid values, missing and malformed files, a directory
where a file belongs and an output directory under a file. Every input must
end in a documented exit code (0 ok, 1 usage, 2 data, 3 reproducibility),
never in an exception or a traceback. Sizes stay tiny so that a run takes
milliseconds; ``datasets fetch`` is left out because it opens a URL. Run
records are fuzzed too: a fixture record with one parameter of another JSON
type must replay (0), or be refused as data (2) or as irreproducible (3); a
graph-spec field of another type is always refused as data."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from twophase_im.cli import main
from twophase_im.graph import FORMAT_MAGIC, save_graph
from twophase_im.instances import example1_graph


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {name: root / name for name in (
        "small.txt", "weighted.txt", "malformed.txt", "binary.bin", "empty.txt",
        "native.tpim", "native-bad.tpim", "missing.txt", "adir", "afile", "out",
        "garbage.json", "old.json", "ex1.tpim")}
    paths["small.txt"].write_text("a b\nb c\nc d\nd a\nb d\n")
    paths["weighted.txt"].write_text("a b 0.5\nb c 0.3\nc a 0.9\n")
    paths["malformed.txt"].write_text("a b 0.5\nb\nc d 2.5\n")
    paths["binary.bin"].write_bytes(bytes(range(256)) * 4)
    paths["empty.txt"].write_text("")
    save_graph(example1_graph(), paths["native.tpim"])
    save_graph(example1_graph(), paths["ex1.tpim"])   # the graph of native-select.json
    paths["native-bad.tpim"].write_text(f"{FORMAT_MAGIC}\n3\n")
    paths["adir"].mkdir()
    paths["afile"].write_text("not a directory\n")
    paths["garbage.json"].write_text("{not json")
    paths["old.json"].write_text(json.dumps({"version": 1, "command": "select"}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["select", "--graph", "example1", "--algorithm", "gdd", "--k", "1",
                     "--sims", "10", "--seed", "1", "--output-dir", str(root / "rec")]) == 0
    paths["record"] = next((root / "rec").glob("select-*.json"))
    tampered = json.loads(paths["record"].read_text())
    tampered["results"]["spread"]["mean"] += 1.0
    paths["tampered.json"] = root / "tampered.json"
    paths["tampered.json"].write_text(json.dumps(tampered))
    return {name: str(path) for name, path in paths.items()}


# (valid, invalid) values of each kind of option
GRAPHS = (["example1", "small.txt", "native.tpim"],
          ["nosuch", "weighted.txt", "malformed.txt", "binary.bin", "empty.txt",
           "native-bad.tpim", "missing.txt", "adir"])
OUTPUT_DIRS = (["out"], ["adir/sub", "afile", "afile/sub"])
ALGORITHMS = (["gdd", "sd", "wd", "greedy", "rmax", "spic", "face"], ["bogus"])
COUNTS = (["1", "2", "3"], ["0", "5", "-1", "x", "1.5"])
SIMS = (["1", "2", "10"], ["0", "-3", "x"])
DELAYS = (["0", "1", "2", "7"], ["-1", "x", "1000000000000"])
DELTAS = (["1", "0.8", "0"], ["nan", "inf", "-0.1", "1.5", "x"])
SEEDS = (["0", "1", "123"], ["-1", "x"])
TRANSFORMS = (["none"], ["wc", "tv", "xx"])


def _pick(values):
    return st.sampled_from(values)


def _path(files, name):
    """The fixture file ``name``, a path under one (``afile/sub``), or
    ``name`` itself (a builtin graph)."""
    head, _, tail = name.partition("/")
    if head not in files:
        return name
    return files[head] + (f"/{tail}" if tail else "")


@st.composite
def _argv(draw, files):
    # half of the inputs use valid values only and leave nothing out, so
    # that the commands run; the rest mix in invalid and missing ones
    valid = draw(st.booleans())

    def value(kind):
        good, bad = kind
        return draw(_pick(good if valid else good + bad))

    def opt(flag, kind, path=False):
        if not valid and draw(st.integers(0, 4)) == 0:    # left out
            return []
        return [flag, _path(files, value(kind)) if path else value(kind)]

    def flag(name):
        return [name] if draw(st.booleans()) else []

    def graph_opts():
        return (opt("--graph", GRAPHS, path=True) + opt("--transform", TRANSFORMS)
                + opt("--tv-seed", SEEDS) + flag("--undirected"))

    def output_dir():
        # every command that writes gets a directory; never the default ./runs
        return ["--output-dir", _path(files, value(OUTPUT_DIRS))]

    command = draw(_pick(["select", "twophase", "twophase", "oracle", "transform", "rerun",
                          "export", "bogus"]))
    if command == "select":
        return (["select"] + graph_opts() + opt("--algorithm", ALGORITHMS)
                + opt("--k", COUNTS) + opt("--sims", SIMS) + opt("--delta", DELTAS)
                + opt("--seed", SEEDS) + output_dir())
    if command == "twophase":
        plan = draw(_pick(["none", "grid", "golden", "face-joint"]))
        if plan == "none":
            k1, k2 = int(value((["1", "2"], []))), int(value((["0", "1"], [])))
            split = ["--k", str(k1 + k2), "--k1", str(k1), "--k2", str(k2)]
            split += opt("--d", (DELAYS[0] + ["auto"], DELAYS[1]))
        else:
            split = opt("--k", COUNTS) + ["--optimize", plan]
            split += opt("--d-max", (["1", "2", "3"], ["0", "-1", "x", "1000000000000"]))
        if not valid:
            split += opt("--k1", COUNTS) + opt("--optimize", (["none"], ["x"]))
        return (["twophase"] + graph_opts() + opt("--algorithm", ALGORITHMS) + split
                + opt("--mode", (["myopic", "farsighted"], ["x"])) + opt("--delta", DELTAS)
                + opt("--sims", SIMS) + opt("--phase1-sims", SIMS)
                + opt("--phase2-sims", SIMS) + opt("--seed", SEEDS) + output_dir())
    if command == "oracle":
        labels = (["A", "B", "A,B", ""], ["Z", ",,", "a"])
        return (["oracle"] + graph_opts() + opt("--query", (["sigma", "nu", "f"], ["x"]))
                + opt("--seeds", labels) + opt("--s1", labels) + opt("--d", DELAYS)
                + opt("--k2", (["0", "1"], COUNTS[1])) + opt("--delta", DELTAS) + output_dir())
    if command == "transform":
        inputs = (["small.txt"], ["weighted.txt", "malformed.txt", "binary.bin", "empty.txt",
                                  "missing.txt", "adir"])
        target = value((["out/g.tpim"], ["afile/sub.tpim", "adir", "afile"]))
        return (["transform", _path(files, value(inputs)), _path(files, target)]
                + opt("--model", (["wc", "tv"], ["x"])) + opt("--seed", SEEDS)
                + flag("--undirected") + output_dir())
    if command == "rerun":
        records = (["record"], ["tampered.json", "garbage.json", "old.json", "missing.txt",
                                "adir", "small.txt"])
        return ["rerun", _path(files, value(records))] + output_dir()
    if command == "export":
        target = value((["out/e.tpim"], ["afile/sub.tpim", "adir"]))
        return (["datasets", "export-builtin", value((["example1", "lesmis"], ["x"])),
                 "--output", _path(files, target)])
    return [draw(_pick(["bogus", "--bogus", "select --k"]))]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_cli_input_exits_with_a_documented_code(files, data):
    argv = data.draw(_argv(files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())


# fast fixture records of each command that replays a graph, and a native-file
# record whose spec holds every graph option
RECORDS = Path(__file__).parent / "data" / "records"
FAST_RECORDS = [RECORDS / f"{name}.json" for name in (
    "select-gdd", "select-greedy-decay", "oracle-f", "oracle-nu", "twophase-sd",
    "twophase-farsighted", "grid", "golden-decay")] + [RECORDS.parent / "native-select.json"]
JSON_VALUES = ["x", None, 2.5, True, [], {}]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_every_record_param_of_another_type_exits_with_a_documented_code(files, data):
    record = json.loads(data.draw(_pick(FAST_RECORDS)).read_text())
    params = record["params"]
    if params["graph"]["source"] == "file:ex1.tpim":   # relative to the working directory
        params["graph"]["source"] = f"file:{files['ex1.tpim']}"
    keys = [(params, key) for key in sorted(params)]
    keys += [(params["graph"], key) for key in sorted(params["graph"])]
    owner, key = data.draw(_pick(keys))
    owner[key] = data.draw(_pick([v for v in JSON_VALUES if type(v) is not type(owner[key])]))
    path = Path(files["out"]) / "edited.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(record))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["rerun", str(path), "--output-dir", str(path.parent / "replay")])
    # no graph spec with a field of another type is one a command writes
    assert code in ((0, 2, 3) if owner is params else (2,)), (key, owner[key], code,
                                                              err.getvalue())
    assert "Traceback" not in err.getvalue(), (key, owner[key], err.getvalue())
