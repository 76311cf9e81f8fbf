"""Stored run records must replay bit-exactly.

Each file under ``tests/data/records`` is a small ``tpim`` run recorded by an
earlier build: select (gdd; greedy with decay; face; rmax); fixed two-phase plans
with gdd (decay), sd, wd (decay) and greedy second phases, a farsighted plan
and an example1 plan whose second phase runs short of nodes (k2_eff < k2);
a grid, golden-section search with decay, face-joint with and without
decay, face-joint on lesmis with rounds that span several batches, on
example1 with decay, and with an SD (decay) and a greedy final second
phase, the benchmark's lesmis face-joint search (k = 6, d-max 6), a k = 1
face-joint search whose budget split has a single option, and exact ``nu``
and ``f`` oracle queries. The lesmis records also pin the graph hash of
the bundled Les Miserables instance.

The ``oracle-family-*`` records beside them hold exact ``f`` and ``sigma``
queries on ``family8.tpim``, a native 8-node, 16-arc graph: 2^16 live graphs,
where the example1 records have 8; ``select-spic`` is a SPIC selection on the
same graph. Their source is relative, so they replay from ``tests/data``.
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
    assert len(RECORDS) == 22


@pytest.mark.parametrize("record", RECORDS, ids=lambda p: p.stem)
def test_fixture_record_replays(record, tmp_path, capsys):
    assert load_record(record)["version"] == RECORD_VERSION == 3
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
