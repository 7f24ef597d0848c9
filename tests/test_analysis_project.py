"""Tests for the repo-wide rules and the program model they read.

Covers ``xf-metric-surface`` with good/bad fixtures and the repo-clean
gate: the actual tree must pass every rule, and a one-file run reports a
repo-wide finding only in the file asked about.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
import textwrap
import unittest
from pathlib import Path

from repro.analysis import check_sources, rule_ids, run_analysis
from repro.cli import main
from repro.obs.export import prom_series_name

REPO_ROOT = Path(__file__).resolve().parent.parent


def fired(
    sources: dict[str, str],
    *,
    docs: dict[str, str] | None = None,
    select: list[str] | None = None,
) -> list[str]:
    found = check_sources(
        {m: textwrap.dedent(s) for m, s in sources.items()},
        docs=docs,
        select=select,
    )
    return [v.rule_id for v in found]


def _doc_table(rows: list[tuple[str, str, str]]) -> dict[str, str]:
    body = "\n".join(
        f"| `{name}` | {kind} | `{prom}` |" for name, kind, prom in rows
    )
    return {
        "docs/architecture.md": (
            "# doc\n\n<!-- metric-surface:begin -->\n"
            "| Metric | Kind | Prometheus series |\n| --- | --- | --- |\n"
            f"{body}\n<!-- metric-surface:end -->\n"
        )
    }


class MetricSurfaceRuleTest(unittest.TestCase):
    REGISTERS = "def setup(registry):\n    registry.counter('sim.hits')\n"

    def test_reconciled_surface_is_silent(self) -> None:
        self.assertEqual(
            [],
            fired(
                {"repro.obs.custom": self.REGISTERS},
                docs=_doc_table(
                    [
                        (
                            "sim.hits",
                            "counter",
                            prom_series_name("sim.hits", "counter"),
                        )
                    ]
                ),
                select=["xf-metric-surface"],
            ),
        )

    def test_undocumented_and_stale_and_mismatches(self) -> None:
        # The table is generated, so any difference from regenerating it
        # — a missing row, an extra row, one edited cell — is the same
        # single finding, anchored at the table.
        good = ("sim.hits", "counter", prom_series_name("sim.hits", "counter"))
        for rows in (
            [],  # sim.hits undocumented
            [good, ("sim.gone", "counter", "repro_sim_gone_total")],
            [("sim.hits", "gauge", good[2])],  # kind cell edited
            [("sim.hits", "counter", "repro_sim_hits")],  # series cell edited
        ):
            found = check_sources(
                {"repro.obs.custom": self.REGISTERS},
                docs=_doc_table(rows),
                select=["xf-metric-surface"],
            )
            self.assertEqual(1, len(found), rows)
            self.assertEqual(
                ("docs/architecture.md", 3), (found[0].path, found[0].line)
            )
            self.assertIn("stale", found[0].message)
            self.assertIn("tools/update_metrics_doc.py", found[0].message)

    def test_missing_markers_reported(self) -> None:
        found = check_sources(
            {"repro.obs.custom": self.REGISTERS},
            docs={"docs/architecture.md": "# doc without markers\n"},
            select=["xf-metric-surface"],
        )
        self.assertEqual(1, len(found))
        self.assertIn("table not found", found[0].message)

    def test_prometheus_collision_reported(self) -> None:
        found = check_sources(
            {
                "repro.obs.custom": (
                    "def setup(registry):\n"
                    "    registry.counter('sim.hit_bytes')\n"
                    "    registry.counter('sim.hit.bytes')\n"
                )
            },
            docs=_doc_table(
                [
                    ("sim.hit.bytes", "counter", "repro_sim_hit_bytes_total"),
                    ("sim.hit_bytes", "counter", "repro_sim_hit_bytes_total"),
                ]
            ),
            select=["xf-metric-surface"],
        )
        self.assertTrue(
            any("both expose Prometheus series" in v.message for v in found),
            found,
        )


class DeepTierIntegrationTest(unittest.TestCase):
    def test_project_rule_ids_registered(self) -> None:
        # One registry: the repo-wide id sits beside the visitor ids.
        self.assertEqual(
            ["xf-metric-surface"],
            [rule for rule in rule_ids() if rule.startswith("xf-")],
        )
        self.assertEqual(12, len(set(rule_ids())))

    def test_repo_tree_is_deep_clean(self) -> None:
        """The actual tree passes every rule, repo-wide ones included."""
        report = run_analysis(root=REPO_ROOT)
        self.assertTrue(
            report.ok,
            "\n".join(v.render() for v in report.violations)
            + "\n".join(v.render() for v in report.parse_errors),
        )
        self.assertEqual(rule_ids(), report.rule_ids)
        self.assertGreater(report.files_checked, 50)

    def test_cli_deep_json_gate(self) -> None:
        """A planted repo-wide violation fails the CLI, and a one-file run
        reports exactly its site there: `paths` filters the findings,
        never the program (the clashing registration is outside the path
        given, and so is the missing docs table)."""
        files = {
            "src/repro/obs/a.py":
                "def _setup(registry):\n"
                "    registry.counter('sim.hits').inc()\n",
            "src/repro/obs/b.py":  # not asked about
                "def _setup(registry):\n"
                "    registry.gauge('sim.hits').set(1.0)\n",
        }
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            for name, source in files.items():
                target = Path(tmp) / name
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(source)
            try:
                os.chdir(tmp)
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = main(
                        ["lint", "--format", "json", "src/repro/obs/a.py"]
                    )
            finally:
                os.chdir(cwd)
        self.assertEqual(1, code, stdout.getvalue())
        document = json.loads(stdout.getvalue())
        self.assertFalse(document["ok"])
        self.assertEqual(1, document["files_checked"])
        self.assertEqual(
            [("obs-name-unique", "src/repro/obs/a.py", 2)],
            [(v["rule"], v["path"], v["line"]) for v in document["violations"]],
        )


if __name__ == "__main__":
    unittest.main()
