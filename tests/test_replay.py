"""Stored run records must replay bit-exactly.

Each file under ``tests/data/records`` is a small ``tpim`` run recorded by an
earlier build on a builtin graph; its ``params`` hold the command, and
CHANGES.md says what each was recorded to cover. Together they run select
with GDD and the objective selectors, fixed two-phase plans with each
second phase (myopic and farsighted, at delta = 1 and below), the grid,
golden-section and face-joint optimizers, and exact oracle queries. The
lesmis records also pin the graph hash of the bundled Les Miserables
instance. Five of them, ``face-joint-decay``, ``face-joint-sd-decay``,
``grid-decay``, ``twophase-decay`` and ``twophase-wd-decay``, were
re-recorded from their stored params when a two-phase value at delta < 1
came to be summed over all n columns, not over the residual graph's: float
fields moved in the last bits (at most 4.4e-16 relative), and no pick, plan
or count changed. When the graph fingerprint came to hash the labels and
the CSR arrays the sampler reads, each node's out-edges in the order it
tests them (record version 4), every fixture here and beside them was
re-stamped: only ``version`` and ``params.graph.hash`` were rewritten, and
their results replay as recorded. A native graph keeps its file's arc order
as its CSR order, and ``save_graph`` writes that order back.

The records beside them read the native graphs there by a relative path, so
they replay from ``tests/data``: the ``oracle-family-*`` records hold exact
``f`` and ``sigma`` queries on ``family8.tpim``, a native 8-node, 16-arc
graph (2^16 live graphs, where the example1 records have 8);
``select-spic`` is a SPIC selection on the same graph; ``select-greedy-ties``
is a greedy selection on ``twostars.tpim``, two identical stars with p = 1,
where symmetric nodes tie exactly. ``native-select`` reads an exported
example1 instead.
"""

import ast
from pathlib import Path

import pytest

import twophase_im

from twophase_im.cli import main
from twophase_im.graph import load_graph
from twophase_im.records import RECORD_VERSION, load_record

DATA = Path(__file__).parent / "data"
SRC = Path(twophase_im.__file__).parent
# numpy hands these to the BLAS build, whose sums may differ between builds
BLAS_CALLS = {"dot", "matmul", "einsum", "inner", "tensordot", "vdot"}
RECORDS = sorted((DATA / "records").glob("*.json"))


def test_fixture_records_exist():
    assert len(RECORDS) == 26


@pytest.mark.parametrize("record", RECORDS, ids=lambda p: p.stem)
def test_fixture_record_replays(record, tmp_path, capsys):
    assert load_record(record)["version"] == RECORD_VERSION == 4
    code = main(["rerun", str(record), "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 0, err


@pytest.mark.parametrize("name", ["oracle-family-f", "oracle-family-sigma", "select-spic"])
def test_oracle_record_on_sixteen_arcs_replays(name, tmp_path, capsys, monkeypatch):
    record = DATA / f"{name}.json"
    params = load_record(record)["params"]
    assert params["graph"]["source"] == "file:family8.tpim"
    graph = load_graph(DATA / "family8.tpim")
    assert (graph.n, graph.m) == (8, 16)
    monkeypatch.chdir(DATA)
    code = main(["rerun", str(record), "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 0, err


def test_greedy_record_with_exact_ties_replays(tmp_path, capsys, monkeypatch):
    # every world of two identical p = 1 stars is the same: the centers tie,
    # then every other node ties at gain 0, and the lowest id must win
    record = DATA / "select-greedy-ties.json"
    graph = load_graph(DATA / "twostars.tpim")
    assert (graph.n, graph.m) == (8, 6) and set(graph.p.tolist()) == {1.0}
    assert load_record(record)["results"]["seed_ids"] == [0, 4, 1, 2]
    monkeypatch.chdir(DATA)
    code = main(["rerun", str(record), "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 0, err


def _source_nodes():
    """(module file name, node) for every ast node of the package source."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_package_source_makes_no_blas_call():
    # replay must not depend on which BLAS numpy was built with
    found = []
    for module, node in _source_nodes():
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((module, node.lineno, "@"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_CALLS:
                found.append((module, node.lineno, name))
    assert len(list(SRC.glob("*.py"))) >= 10
    assert found == []


def test_no_module_imports_a_private_name_of_another():
    # a name with a leading underscore is used only where it is defined
    found = [(module, node.lineno, alias.name) for module, node in _source_nodes()
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").startswith("twophase_im"))
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_only_diffusion_names_the_replicate_streams():
    # one module decides which stream every replicate's coins come from
    streams = {"replicate_rows", "simulate_blocks", "stream_source", "TAG_PHASE1", "TAG_PHASE2"}
    found = {(module, getattr(node, key)) for module, node in _source_nodes()
             if module != "diffusion.py"
             for key in ("id", "attr", "name")   # Name, Attribute, alias and def
             if getattr(node, key, None) in streams}
    assert found == set()
