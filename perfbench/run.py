"""Benchmark of the ``tpim`` package: three closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 -m pytest perfbench/smoke.py        # the benchmark's own smoke test

Run it from the root of a checkout; it imports the package from ``src``.

Workloads (BENCHMARK.json says why each was chosen):

    lesmis-cli     tpim commands on the bundled Les Miserables graph (dense path)
    ba5k-cli       tpim commands on a generated 5000-node Barabasi-Albert graph
    oracle-family  exact-oracle sweep over generated 8-node, 16-arc instances

Each workload runs in a fresh interpreter (workload.py) with BLAS and OpenMP
pinned to one thread. With ``--trace 0`` the last line of output holds the
end-to-end metrics: the set-up time (median over several fresh processes),
the time of each command class and of one pass through all commands (sums of
per-command medians), and the process's peak RSS. Times are scaled for
machine-speed drift (speed.py). With ``--trace 1`` it holds the per-layer
metrics of tracer.py and the tracing overhead. The line before it records
the machine, the input hashes, the quality figures, the raw medians and any
failed check. The exit code is 0 whenever a result was printed; ``correct``
and ``failed`` say whether the outputs passed their checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lesmis-cli", "ba5k-cli", "oracle-family")
SETUP_PROBES = 4          # extra processes that only set up, for setup_s
BUDGET_S = 170.0          # whole run, so that it exits within 180 s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED)
    return env


def run_workload(args, extra, timeout):
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}-{time.monotonic_ns()}"
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale, "--reference", args.reference,
           "--work-dir", str(work), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()   # only once the last run in this checkout is done
        except OSError:
            pass
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description="tpim benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: tiny sizes for the benchmark's own test")
    ap.add_argument("--reference", default=str(HERE / "reference.json"),
                    help="reference spread means checked on lesmis-cli")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "twophase_im" / "__init__.py").is_file():
        print(f"error: no twophase_im package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                line = run_workload(args, ["--setup-only"], deadline - time.monotonic())[-1]
                setups.append(json.loads(line)["setup_s"])
        lines = run_workload(args, [], deadline - time.monotonic())
        info, result = lines[-2], json.loads(lines[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result.pop("setup_s"))
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
