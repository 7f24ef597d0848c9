#!/usr/bin/env python
"""Execute the fenced Python blocks in markdown docs and check their links.

CI's docs job runs this over the handbook (``docs/usage.md``,
``docs/robustness.md``, ``docs/serving.md``, ``docs/architecture.md``)
so the recipes in the handbook cannot silently rot: every ````` ```python
````` block is executed, in order, in one shared namespace per file (so a
``trace`` built in an early block is usable by later ones — exactly how a
reader would paste them into a REPL).  Blocks that are illustrative rather
than runnable opt out with ````` ```python no-run `````.

Relative markdown links (``[text](path)``) are also resolved against the
doc's directory and must exist; external (``http``/``mailto``) and
in-page (``#``) links are ignored.

Usage::

    PYTHONPATH=src python tools/check_docs.py docs/usage.md docs/robustness.md

Blocks run with the current working directory switched to a throwaway
temp dir, so recipes may write scratch files freely without polluting the
repo checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_FENCE = re.compile(
    r"^```(?P<info>[^\n`]*)\n(?P<body>.*?)^```\s*$",
    re.MULTILINE | re.DOTALL,
)
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\((?P<target>[^)\s]+)\)")


def extract_python_blocks(text: str) -> list[tuple[int, str]]:
    """Return ``(line_number, source)`` for each runnable python block."""
    blocks = []
    for match in _FENCE.finditer(text):
        info = match.group("info").strip().lower()
        if not info.startswith("python") or "no-run" in info:
            continue
        lineno = text.count("\n", 0, match.start()) + 2  # first code line
        blocks.append((lineno, match.group("body")))
    return blocks


def check_links(doc: Path, text: str) -> list[str]:
    """Return one error string per relative link that does not resolve."""
    errors = []
    for match in _LINK.finditer(text):
        target = match.group("target")
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        if not (doc.parent / path).exists():
            errors.append(f"{doc}: broken link -> {target}")
    return errors


def run_blocks(doc: Path, blocks: list[tuple[int, str]]) -> list[str]:
    """Exec the doc's blocks sequentially in one namespace; return errors."""
    namespace: dict = {"__name__": f"docs_check_{doc.stem}"}
    errors = []
    for lineno, source in blocks:
        code = compile(source, f"{doc}:{lineno}", "exec")
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                exec(code, namespace)  # noqa: S102 - that is the point here
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(
                f"{doc}: block at line {lineno} raised "
                f"{type(exc).__name__}: {exc}"
            )
            break  # later blocks likely depend on this one
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("docs", nargs="+", help="markdown files to check")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT / "src"))
    failures: list[str] = []
    for name in args.docs:
        doc = Path(name).resolve()
        text = doc.read_text()
        failures.extend(check_links(doc, text))
        blocks = extract_python_blocks(text)
        old_cwd = os.getcwd()
        with tempfile.TemporaryDirectory(prefix="docs-check-") as tmp:
            os.chdir(tmp)
            try:
                failures.extend(run_blocks(doc, blocks))
            finally:
                os.chdir(old_cwd)
        print(f"{doc.name}: {len(blocks)} python block(s) executed")

    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    print("docs ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
