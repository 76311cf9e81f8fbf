"""Smoke test of the benchmark itself, at a tiny scale (about two minutes):

    python3 -m pytest perfbench/smoke.py

It runs every workload untraced and traced and checks that each prints
every metric BENCHMARK.json names, with its unit; that a wrong reference
mean makes a correctness check fail; and that the benchmark refuses to run
without the program beside it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
         "--scale", "smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = result_of(bench("--workload", workload, "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))


def test_wrong_reference_mean_fails_a_check(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    reference["lesmis"]["select_gdd"]["mean"] *= 1.2
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    result = result_of(bench("--workload", "lesmis-cli", "--trace", "0",
                             "--reference", str(path)))
    assert not result["correct"]
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "lesmis-cli", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
