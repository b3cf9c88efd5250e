"""The benchmark's own checks: tracing must not change what bmsim computes,
traced counts must repeat exactly, and the metrics the benchmark prints must
be the ones BENCHMARK.json declares.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (perfbench/run.py)


def worker(out: Path, trace: bool, hash_seed: str) -> dict:
    """A short 4->20 growth run in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", "growth_t1",
           "--seed", "3", "--to-size", "20", "--out", str(out)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    base = tmp_path_factory.mktemp("fidelity")
    return {
        (hash_seed, trace): worker(base / f"{hash_seed}-{trace}", trace, hash_seed)
        for hash_seed in ("0", "1")
        for trace in (False, True)
    }


def test_wrappers_leave_csv_bytes_unchanged(records):
    digests = {key: record["digests"] for key, record in records.items()}
    assert len(digests[("0", False)]) == 5
    assert all(d == digests[("0", False)] for d in digests.values()), digests
    assert all(r["failed"] == 0 and not r["problems"] for r in records.values())


def test_traced_counts_repeat(records):
    first, second = records[("0", True)]["layers"], records[("1", True)]["layers"]
    assert {n: c[0] for n, c in first["calls"].items()} == {
        n: c[0] for n, c in second["calls"].items()
    }
    assert first["counts"] == second["counts"]
    assert first["calls"]["simcore.auth.sign"][0] > 0


def test_printed_metrics_match_benchmark_json(records):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    traced = records[("0", True)]
    untraced = records[("0", False)]
    layers = run.per_layer([traced], untraced["wall_s"], traced["import_s"])
    assert all(layers[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])
    # a time that reads 0 on every run of a workload is not a measurement
    assert all(layers[m["name"]]["value"] > 0 for m in spec["per_layer"] if m["unit"] == "s")
    e2e = run.end_to_end([untraced], [untraced["setup_s"]])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert all(e2e[m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])
    assert all(e2e[name]["value"] > 0 for name in e2e)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_rank(96) == (89, 85)
    assert run.tail_rank(200) == (95, 189)
