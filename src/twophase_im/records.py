"""Run records: JSON snapshots of every CLI invocation, replayable bit-exactly.

A record stores the command id, its full parameter dict (including the master
seed and a fingerprint of the input graph), and the numeric results. Replaying
dispatches the same core function and compares results exactly; wall time is
informational and excluded from the comparison.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

from .graph import edge_lines

RECORD_VERSION = 3  # 2: CSR frontier sampler streams; 3: world-sampled SigmaObjective
LOCK_NAME = ".tpim.lock"


class RecordError(ValueError):
    """Unreadable, incompatible, or mismatched run record."""


class ReproducibilityError(RecordError):
    """Replay produced different numbers than the stored record."""


class RecordObject(dict):
    """A JSON object of a loaded record (its params, say): a key it lacks is
    a ``RecordError`` naming the key, not a ``KeyError``."""

    def __missing__(self, key):
        raise RecordError(f"record lacks {key!r}")


def graph_fingerprint(graph) -> str:
    """SHA-256 of the lines ``n=<n>``, each label, and ``u v repr(p)`` for
    each edge in (u, v) order (``edge_lines``, as in the native file), each
    line ending in a newline. The text is joined and hashed once."""
    lines = [f"n={graph.n}", *map(str, graph.labels), *edge_lines(graph), ""]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@contextmanager
def output_lock(output_dir: Path):
    """One process at a time per output directory: an exclusive ``flock`` on
    the lock file, held until the block exits. The kernel drops the lock
    when its holder dies, so a killed run leaves no stale lock behind."""
    output_dir.mkdir(parents=True, exist_ok=True)
    lock = output_dir / LOCK_NAME
    with open(lock, "a", encoding="utf-8") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise RecordError(
                f"output dir {output_dir} is locked by another run ({lock})") from None
        yield


def _free_record_path(output_dir: Path, base: str) -> Path:
    """``base.json``, else ``base-<i>.json`` for an unused i. Records written
    in the same second are numbered 1, 2, ...; the number is found by doubling
    and bisection, O(log k) probes for k such records, not one probe each."""
    def numbered(i):
        return output_dir / (f"{base}-{i}.json" if i else f"{base}.json")

    lo, hi = 0, 0   # invariant once searching: numbered(lo) exists, numbered(hi) does not
    while numbered(hi).exists():
        lo, hi = hi, max(1, 2 * hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if numbered(mid).exists() else (lo, mid)
    return numbered(hi)


def write_record(output_dir: Path, command: str, params: dict, results: dict,
                 wall_time: float) -> Path:
    output_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "version": RECORD_VERSION,
        "command": command,
        "params": params,
        "results": results,
        "wall_time": wall_time,
    }
    path = _free_record_path(output_dir, f"{command}-{time.strftime('%Y%m%d-%H%M%S')}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_record(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh, object_hook=RecordObject)
    except (OSError, json.JSONDecodeError) as exc:
        raise RecordError(f"cannot read record {path}: {exc}") from None
    if not isinstance(record, dict):
        raise RecordError(f"record {path} is not a JSON object")
    if record.get("version") != RECORD_VERSION:
        raise RecordError(
            f"record version {record.get('version')!r} unsupported "
            f"(this build writes v{RECORD_VERSION})")
    for key, kind in (("command", str), ("params", dict), ("results", dict)):
        if not isinstance(record.get(key), kind):
            raise RecordError(f"record field {key!r} missing or not a {kind.__name__}")
    if not isinstance(record["params"].get("graph", {}), dict):
        raise RecordError("record graph spec is not a dict")
    return record


def diff_results(stored, fresh, path="results"):
    """All differences between two result trees; [] means bit-exact match."""
    diffs = []
    if isinstance(stored, dict) and isinstance(fresh, dict):
        for key in sorted(set(stored) | set(fresh)):
            if key not in stored:
                diffs.append(f"{path}.{key}: missing in record")
            elif key not in fresh:
                diffs.append(f"{path}.{key}: missing in replay")
            else:
                diffs.extend(diff_results(stored[key], fresh[key], f"{path}.{key}"))
    elif isinstance(stored, list) and isinstance(fresh, list):
        if len(stored) != len(fresh):
            diffs.append(f"{path}: length {len(stored)} vs {len(fresh)}")
        else:
            for i, (a, b) in enumerate(zip(stored, fresh)):
                diffs.extend(diff_results(a, b, f"{path}[{i}]"))
    elif stored != fresh:
        diffs.append(f"{path}: {stored!r} vs {fresh!r}")
    return diffs
