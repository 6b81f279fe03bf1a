"""Smoke test of the ``stack`` benchmark: ``--quick`` runs exit 0 and print
every end-to-end metric with its unit.  No timing assertions -- the point is
that a change which breaks a public call the benchmark relies on fails here,
in tier-1, instead of at measurement time."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


@pytest.mark.parametrize("workload", ["search_dynamic", "cluster_batch"])
def test_quick_run_prints_every_end_to_end_metric(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0", "--quick"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected


def test_corrupted_oracle_fails_the_run():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "search_dynamic",
         "--seed", "1", "--seconds", "1", "--trace", "0", "--quick", "--corrupt-oracle"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
