"""Smoke test of the perf ledger: every workload, both tiers, 1/20 scale.

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Not a measurement — one repeat of a few thousand requests — but it runs
the same command the driver runs, so a change that breaks a workload, an
output check or the ``BENCHMARK.json`` contract fails here in under a
minute instead of in a full benchmark pass.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_declared_names_are_plain() -> None:
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in DECLARED[key]
    ]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in DECLARED["end_to_end"])


def test_every_workload_emits_its_declared_metrics(tmp_path) -> None:
    ledger_path = tmp_path / "ledger.json"
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--scale", "0.05",
            "--repeats", "1", "--out", str(ledger_path),
        ],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    ledger = json.loads(ledger_path.read_text())
    assert all(ledger["checks"].values())
    assert ledger["derived"]["cluster.scaling_2_over_1"] > 0

    sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]
    from layers import on_path
    from workloads import WORKLOADS

    tiers = {0: DECLARED["end_to_end"], 1: DECLARED["per_layer"]}
    seen = set()
    emitted = set()
    for run in ledger["runs"]:
        seen.add((run["workload"], run["trace"]))
        workload = WORKLOADS[run["workload"]]
        result = run["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        # The driver's line: every declared name, with its unit.
        expected = {m["name"]: m["unit"] for m in tiers[run["trace"]]}
        assert set(result["metrics"]) == set(expected)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == expected[name], name
            assert math.isfinite(metric["value"]), name
        # The ledger: a metric only where it is on the workload's path.
        measured = run["detail"]["metrics"]
        for name in expected:
            if on_path(name, workload):
                assert measured[name] == result["metrics"][name]["value"]
            else:
                assert name not in measured, (name, workload.name)
                assert result["metrics"][name]["value"] == 0.0
        emitted |= set(measured)
        if run["trace"] == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
            assert ("train_s_per_window" in measured) == (
                workload.name == "online_serve"
            )
            assert measured["failed_share"] == 0.0
    assert seen == {
        (spec["name"], tier)
        for spec in DECLARED["workloads"] for tier in (0, 1)
    }
    assert emitted >= {m["name"] for tier in tiers.values() for m in tier}
