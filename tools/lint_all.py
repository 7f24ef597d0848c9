#!/usr/bin/env python
"""Run ruff and mypy, skipping either with a warning when it is absent.

CI's lint job calls this.  Both come from the ``[dev]`` extra, which
constrained build containers do not always have, so a missing checker
is a loud warning, not a failure.  The repo's own invariants are not
checked here: they are tier-1 tests (``tests/test_source_invariants.py``).

Exit code: non-zero when a checker that ran found problems.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKERS = {
    "ruff": ["ruff", "check", "src", "benchmarks", "examples"],
    "mypy": ["mypy", "src/repro"],
}


def main() -> int:
    failures = []
    for name, cmd in CHECKERS.items():
        if shutil.which(cmd[0]) is None:
            print(
                f"warning: {name} not installed in this environment; skipping "
                f"(install the [dev] extra to run it)",
                flush=True,
            )
            continue
        print(f"$ {' '.join(cmd)}", flush=True)
        if subprocess.call(cmd, cwd=ROOT):
            failures.append(name)
    if failures:
        print("FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("all linters clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
