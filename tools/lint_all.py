#!/usr/bin/env python
"""Run every linter with graceful degradation for missing tools.

CI's lint job calls this instead of invoking each checker inline:
``ruff`` and ``mypy`` come from the ``[dev]`` extra and have repeatedly
been unavailable in constrained build containers, so a missing
third-party checker is a loud *warning*, not a job failure, while the
repo's own ``lfo lint`` (stdlib-only, one pass, every rule — including
the staleness check of the generated docs metric table) always runs and
always gates.  ``--json-out`` writes its JSON report to a file for upload.

Exit code: non-zero when any checker that *ran* found problems; skipped
tools never fail the job.
"""

from __future__ import annotations

import argparse
import io
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.cli import main as lfo_main  # noqa: E402


def _capture(argv: list[str], out_path: Path | None) -> int:
    """Run one ``lfo`` invocation in-process, teeing stdout to a file."""
    print(f"$ lfo {' '.join(argv)}", flush=True)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = lfo_main(argv)
    output = buffer.getvalue()
    if out_path is not None:
        out_path.write_text(output, encoding="utf-8")
        print(f"  wrote {out_path}")
    else:
        sys.stdout.write(output)
    return code


def _external(name: str, cmd: list[str]) -> int:
    """Run a third-party checker; missing binary = skip with a warning."""
    if shutil.which(cmd[0]) is None:
        print(
            f"warning: {name} not installed in this environment; skipping "
            f"(install the [dev] extra to run it)",
            flush=True,
        )
        return 0
    print(f"$ {' '.join(cmd)}", flush=True)
    return subprocess.call(cmd, cwd=ROOT)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json-out", type=Path, default=None, metavar="PATH",
        help="write the lfo lint JSON report here (CI artifact)",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []
    if _capture(["lint", "--format", "json"], args.json_out) != 0:
        failures.append("lfo lint")
    # Third-party checkers, skip-with-warning when absent.
    if _external("ruff", ["ruff", "check", "src", "benchmarks", "examples"]):
        failures.append("ruff")
    if _external("mypy", ["mypy", "src/repro"]):
        failures.append("mypy")

    if failures:
        print("FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("all linters clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
