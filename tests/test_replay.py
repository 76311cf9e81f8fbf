"""Stored run records must replay bit-exactly.

Each file under ``tests/data/records`` is a small ``tpim`` run recorded by an
earlier build: select (gdd; greedy with decay; face); fixed two-phase plans
with gdd (decay), sd, wd (decay) and greedy second phases, a farsighted plan
and an example1 plan whose second phase runs short of nodes (k2_eff < k2);
a grid, golden-section search with decay, face-joint with and without
decay, face-joint on lesmis with rounds that span several batches, and on
example1 with decay, and exact ``nu`` and ``f`` oracle queries. The lesmis records also pin the
graph hash of the bundled Les Miserables instance.
"""

from pathlib import Path

import pytest

from twophase_im.cli import main
from twophase_im.records import RECORD_VERSION, load_record

RECORDS = sorted((Path(__file__).parent / "data" / "records").glob("*.json"))


def test_fixture_records_exist():
    assert len(RECORDS) == 17


@pytest.mark.parametrize("record", RECORDS, ids=lambda p: p.stem)
def test_fixture_record_replays(record, tmp_path, capsys):
    assert load_record(record)["version"] == RECORD_VERSION == 3
    code = main(["rerun", str(record), "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 0, err
