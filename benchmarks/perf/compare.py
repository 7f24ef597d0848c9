#!/usr/bin/env python3
"""Compare two ledgers: one row per (workload, end-to-end metric).

    python3 benchmarks/perf/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two sets of the
same commit), ``B`` the candidate; each is a ledger ``run.py`` wrote.
Every row gives both values, B/A, the bound, and each side's spread: the
distance between the quartiles of its repeats' own values (their range,
below four repeats) as a share of their median — the per-repeat values
the reported median was taken from.

Verdicts: ``worse`` / ``better`` when B is beyond the bound in that
direction, ``within`` when it is not, and ``unresolved`` when either
side's spread is wider than the bound — a difference that small cannot
be told from noise, so it is not reported as unchanged.  Exit status 1
when any row is ``worse``.

Bounds are ``BENCHMARK.json``'s, with ``run.LEDGER_ONLY`` for the two
metrics it cannot declare, and one exception: ``BENCHMARK.json``'s bound
on ``bhr`` has to cover the spread between the driver's ten different
seeds, but ``bhr`` is deterministic for one seed, so two ledgers of the
same seed are held to ISSUE 12's 0.01.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import LEDGER_ONLY, ROOT

SAME_SEED_BOUNDS = {"bhr": 0.01}


def _untraced(ledger: dict) -> dict[str, dict]:
    """workload -> detail of its ``--trace 0`` run."""
    return {
        run["workload"]: run["detail"]
        for run in ledger["runs"] if run["trace"] == 0
    }


def _verdict(base: float, new: float, better: str, bound: float,
             noise: float) -> str:
    worse_by = base - new if better == "higher" else new - base
    if base:
        worse_by /= abs(base)
    if noise > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ledger_a, ledger_b = (json.loads(Path(path).read_text()) for path in argv)
    base, new = _untraced(ledger_a), _untraced(ledger_b)
    same_seed = ledger_a["seed"] == ledger_b["seed"]
    print(f"{'workload':<14} {'metric':<18} {'A':>12} {'B':>12} "
          f"{'B/A':>7} {'bound':>6} {'spreadA':>8} {'spreadB':>8}  verdict")
    worse = 0
    for spec in declared["workloads"]:
        name = spec["name"]
        if name not in base or name not in new:
            continue
        for metric in declared["end_to_end"] + list(LEDGER_ONLY):
            key = metric["name"]
            if key not in base[name]["metrics"] or key not in new[name]["metrics"]:
                continue
            a, b = base[name]["metrics"][key], new[name]["metrics"][key]
            spread_a, spread_b = (
                side[name]["repeats"].get(f"spread_{key}", 0.0)
                for side in (base, new)
            )
            bound = metric["bound"]
            if same_seed:
                bound = SAME_SEED_BOUNDS.get(key, bound)
            verdict = _verdict(
                a, b, metric["better"], bound, max(spread_a, spread_b)
            )
            worse += verdict == "worse"
            ratio = f"{b / a:>7.4f}" if a else f"{'-':>7}"
            print(f"{name:<14} {key:<18} {a:>12.6g} {b:>12.6g} "
                  f"{ratio} {bound:>6.2f} "
                  f"{spread_a:>8.4f} {spread_b:>8.4f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
