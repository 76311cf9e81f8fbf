from twophase_im import records
from twophase_im.records import write_record


def test_same_second_records_get_distinct_names(tmp_path, monkeypatch):
    monkeypatch.setattr(records.time, "strftime", lambda fmt: "20260101-000000")
    paths = [write_record(tmp_path, "oracle", {}, {"i": i}, 0.0) for i in range(40)]
    assert len(set(paths)) == 40
    assert paths[0].name == "oracle-20260101-000000.json"
    assert [p.name for p in paths[1:4]] == [f"oracle-20260101-000000-{i}.json" for i in (1, 2, 3)]
    # a gap left by a deleted record is never overwritten into an existing one
    (tmp_path / "oracle-20260101-000000-7.json").unlink()
    before = {p: p.read_text() for p in tmp_path.iterdir()}
    new = write_record(tmp_path, "oracle", {}, {"i": "new"}, 0.0)
    assert new not in before
    assert all(p.read_text() == text for p, text in before.items())
