"""Tests for the lint reporters and the CLI's exit codes.

The JSON key set is an interchange contract (CI archives the report as an
artifact), so these tests pin it, the text summary lines, and the exit
code of every outcome: clean, violation, unknown rule id.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
import unittest
from pathlib import Path

from repro.analysis import (
    AnalysisReport,
    Violation,
    render_json,
    render_text,
)
from repro.cli import main


def _violation(
    rule: str = "det-rng",
    path: str = "src/repro/sim/bad.py",
    line: int = 3,
    message: str = "unseeded RNG",
) -> Violation:
    return Violation(rule_id=rule, path=path, line=line, col=5, message=message)


def _report(**overrides: object) -> AnalysisReport:
    base: dict = dict(
        violations=[],
        files_checked=4,
        rule_ids=["det-rng", "xf-metric-surface"],
        duration_seconds=0.1234,
    )
    base.update(overrides)
    return AnalysisReport(**base)


class JsonReporterTest(unittest.TestCase):
    #: The exact top-level key set CI tooling parses; changing it is an
    #: interface break, not a refactor.
    KEYS = {
        "ok",
        "files_checked",
        "rules",
        "counts",
        "violations",
        "parse_errors",
        "duration_seconds",
    }

    def test_key_set_is_stable(self) -> None:
        document = json.loads(render_json(_report()))
        self.assertEqual(self.KEYS, set(document))

    def test_clean_report(self) -> None:
        document = json.loads(render_json(_report()))
        self.assertTrue(document["ok"])
        self.assertEqual([], document["violations"])
        self.assertEqual({}, document["counts"])
        self.assertEqual(0.123, document["duration_seconds"])

    def test_violations_and_suppressed_serialised(self) -> None:
        document = json.loads(
            render_json(
                _report(
                    violations=[_violation()],
                    parse_errors=[_violation(rule="parse-error")],
                )
            )
        )
        self.assertFalse(document["ok"])
        self.assertEqual({"det-rng": 1}, document["counts"])
        entry = document["violations"][0]
        self.assertEqual(
            {"rule", "path", "line", "col", "message"}, set(entry)
        )
        self.assertEqual("parse-error", document["parse_errors"][0]["rule"])


class TextReporterTest(unittest.TestCase):
    def test_clean_and_deep_tags(self) -> None:
        # One pass, so the summary carries no tier tag.
        self.assertEqual(
            "ok: 4 file(s) clean (2 rules)", render_text(_report())
        )

    def test_breakdown_and_suppressed_line(self) -> None:
        text = render_text(
            _report(violations=[_violation(), _violation(line=9)])
        )
        self.assertIn("src/repro/sim/bad.py:9:5: [det-rng]", text)
        # The summary is the last line: no suppressed-count line follows.
        self.assertTrue(
            text.endswith("2 violation(s) in 4 file(s) (det-rng=2)"), text
        )


class ExitCodeTest(unittest.TestCase):
    def _lint(self, *argv: str) -> tuple[int, str]:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main(["lint", *argv])
        return code, stdout.getvalue()

    def test_clean_file_exits_zero(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            clean = Path(tmp) / "clean.py"
            clean.write_text('"""Fine."""\n\nX = 1\n')
            code, _ = self._lint(str(clean))
        self.assertEqual(0, code)

    def test_violation_exits_one_in_every_format(self) -> None:
        # Scope-gated rules key off the dotted module name, which is
        # derived relative to the working directory — lint from the
        # fixture tree's root so repro/sim/bad.py means repro.sim.bad.
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "repro" / "sim" / "bad.py"
            bad.parent.mkdir(parents=True)
            bad.write_text(
                '"""Bad."""\n\nimport random\n\n\n'
                "def f():\n    return random.random()\n"
            )
            try:
                os.chdir(tmp)
                for fmt in ("text", "json"):
                    code, out = self._lint(
                        "repro/sim/bad.py", "--format", fmt
                    )
                    self.assertEqual(1, code, fmt)
                    self.assertTrue(out.strip(), fmt)
                code, out = self._lint("repro/sim/bad.py", "--format", "json")
                self.assertFalse(json.loads(out)["ok"])
            finally:
                os.chdir(cwd)

    def test_unknown_rule_id_exits_two(self) -> None:
        code, _ = self._lint("--select", "no-such-rule")
        self.assertEqual(2, code)


if __name__ == "__main__":
    unittest.main()
