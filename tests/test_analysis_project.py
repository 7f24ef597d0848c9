"""Tests for the whole-program model and the rules that read it.

Covers the :class:`ProjectModel` itself (symbols, imports, re-export
chasing, MRO, call resolution), the dataflow effect summaries, each
cross-file rule with good/bad fixtures — including a regression fixture
reproducing the mixture-policy ``_on_miss_observed`` hook break — and
finally the repo-clean gate: the actual tree must pass every rule.
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

from repro.analysis import (
    ProjectModel,
    check_sources,
    rule_ids,
    run_analysis,
)
from repro.analysis.dataflow import EffectIndex
from repro.cli import main
from repro.obs.export import prom_series_name

REPO_ROOT = Path(__file__).resolve().parent.parent

#: An in-model CachePolicy base mirroring the real contract: the miss
#: hook on the request path, a never-True batched flag, a cost-aware
#: restore.
POLICY_BASE = """\
class CachePolicy:
    def on_request(self, request):
        if request.obj in self._entries:
            return True
        self._on_miss_observed(request)
        return False

    def _on_miss_observed(self, request):
        pass

    def _select_victims(self, incoming):
        return []

    def _restore(self, obj, size, incoming, cost=None):
        pass

    @property
    def supports_batched_scoring(self):
        return False
"""


def model_of(sources: dict[str, str]) -> ProjectModel:
    return ProjectModel.from_sources(
        {m: textwrap.dedent(s) for m, s in sources.items()}
    )


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


class ProjectModelTest(unittest.TestCase):
    def test_symbol_table_functions_classes_methods(self) -> None:
        model = model_of(
            {
                "repro.x": (
                    "def top():\n"
                    "    pass\n"
                    "class Thing:\n"
                    "    def method(self):\n"
                    "        pass\n"
                )
            }
        )
        self.assertIn("repro.x.top", model.functions)
        self.assertIn("repro.x.Thing", model.classes)
        self.assertIn("repro.x.Thing.method", model.functions)

    def test_import_alias_and_reexport_chase(self) -> None:
        model = model_of(
            {
                "repro.cache.base": "class CachePolicy:\n    pass\n",
                "repro.cache": (
                    "from repro.cache.base import CachePolicy\n"
                ),
                "repro.user": (
                    "from repro.cache import CachePolicy as CP\n"
                ),
            }
        )
        self.assertEqual(
            "repro.cache.base.CachePolicy",
            model.resolve_symbol("repro.user", "CP"),
        )

    def test_mro_and_subclasses(self) -> None:
        model = model_of(
            {
                "repro.a": POLICY_BASE,
                "repro.b": (
                    "from repro.a import CachePolicy\n"
                    "class Mid(CachePolicy):\n"
                    "    pass\n"
                    "class Leaf(Mid):\n"
                    "    pass\n"
                ),
            }
        )
        self.assertTrue(model.is_subclass_of("repro.b.Leaf", "CachePolicy"))
        names = [c.qualname for c in model.subclasses_of("CachePolicy")]
        self.assertEqual(["repro.b.Leaf", "repro.b.Mid"], names)

    def test_call_resolution_self_super_and_cross_module(self) -> None:
        model = model_of(
            {
                "repro.util": "def helper():\n    pass\n",
                "repro.a": POLICY_BASE,
                "repro.b": (
                    "from repro.util import helper\n"
                    "from repro.a import CachePolicy\n"
                    "class Sub(CachePolicy):\n"
                    "    def on_request(self, request):\n"
                    "        self.local()\n"
                    "        helper()\n"
                    "        return super().on_request(request)\n"
                    "    def local(self):\n"
                    "        pass\n"
                ),
            }
        )
        callees = {
            site.callee
            for site in model.calls["repro.b.Sub.on_request"]
        }
        self.assertIn("repro.b.Sub.local", callees)
        self.assertIn("repro.util.helper", callees)
        self.assertIn("repro.a.CachePolicy.on_request", callees)


class DataflowTest(unittest.TestCase):
    def test_direct_effects_detected(self) -> None:
        model = model_of(
            {
                "repro.util": (
                    "import random\n"
                    "from time import time\n"
                    "def f():\n"
                    "    print(time())\n"
                    "    return random.random()\n"
                )
            }
        )
        kinds = {
            e.kind
            for e in EffectIndex(model).own("repro.util.f")
        }
        self.assertEqual({"wallclock", "rng", "io"}, kinds)

    def test_seeded_rng_is_not_an_effect(self) -> None:
        model = model_of(
            {
                "repro.util": (
                    "import numpy as np\n"
                    "def f():\n"
                    "    return np.random.default_rng(7).random()\n"
                )
            }
        )
        self.assertEqual([], EffectIndex(model).own("repro.util.f"))

    def test_transitive_effect_carries_chain(self) -> None:
        model = model_of(
            {
                "repro.a": (
                    "from repro.b import g\n"
                    "def f():\n"
                    "    return g()\n"
                ),
                "repro.b": (
                    "import random\n"
                    "def g():\n"
                    "    return random.random()\n"
                ),
            }
        )
        chains = EffectIndex(model).reachable(
            "repro.a.f", frozenset({"rng"})
        )
        self.assertEqual(1, len(chains))
        self.assertEqual(("repro.a.f", "repro.b.g"), chains[0].chain)

    def test_recursion_cycle_terminates_and_finds_effects(self) -> None:
        model = model_of(
            {
                "repro.a": (
                    "def f(n):\n"
                    "    print(n)\n"
                    "    return g(n)\n"
                    "def g(n):\n"
                    "    return f(n - 1)\n"
                )
            }
        )
        index = EffectIndex(model)
        # Entering via g first exercises the back-edge path.
        from_g = index.reachable("repro.a.g", frozenset({"io"}))
        self.assertEqual(1, len(from_g))
        from_f = index.reachable("repro.a.f", frozenset({"io"}))
        self.assertEqual(1, len(from_f))


class RngTaintRuleTest(unittest.TestCase):
    def test_bad_cross_module_rng_reached_from_sim(self) -> None:
        self.assertIn(
            "xf-rng-taint",
            fired(
                {
                    "repro.sim.runner": (
                        "from repro.viz.jitter import helper\n"
                        "def step():\n"
                        "    return helper()\n"
                    ),
                    "repro.viz.jitter": (
                        "import random\n"
                        "def helper():\n"
                        "    return random.random()\n"
                    ),
                },
                select=["xf-rng-taint"],
            ),
        )

    def test_good_seeded_callee_is_silent(self) -> None:
        self.assertEqual(
            [],
            fired(
                {
                    "repro.sim.runner": (
                        "from repro.viz.jitter import helper\n"
                        "def step(rng):\n"
                        "    return helper(rng)\n"
                    ),
                    "repro.viz.jitter": (
                        "def helper(rng):\n"
                        "    return rng.random()\n"
                    ),
                },
                select=["xf-rng-taint"],
            ),
        )

    def test_direct_in_scope_use_is_per_file_territory(self) -> None:
        # Direct draws inside the deterministic scopes belong to det-rng;
        # the cross-file rule must not double-report them.
        self.assertEqual(
            [],
            fired(
                {
                    "repro.sim.runner": (
                        "import random\n"
                        "def step():\n"
                        "    return random.random()\n"
                    )
                },
                select=["xf-rng-taint"],
            ),
        )


class PolicyContractRuleTest(unittest.TestCase):
    def test_regression_apply_scored_without_miss_hook(self) -> None:
        # Regression fixture: the mixture-policy break — apply_scored
        # handles the miss path without ever observing the miss.
        found = check_sources(
            {
                "repro.a": POLICY_BASE,
                "repro.core.mixture": textwrap.dedent(
                    "from repro.a import CachePolicy\n"
                    "class Mixture(CachePolicy):\n"
                    "    def apply_scored(self, request, score):\n"
                    "        if request.obj in self._entries:\n"
                    "            return True\n"
                    "        return self._admit(request)\n"
                ),
            },
            select=["xf-policy-contract"],
        )
        self.assertEqual(["xf-policy-contract"], [v.rule_id for v in found])
        self.assertIn("_on_miss_observed", found[0].message)

    def test_good_hook_via_helper_chain(self) -> None:
        self.assertEqual(
            [],
            fired(
                {
                    "repro.a": POLICY_BASE,
                    "repro.b": (
                        "from repro.a import CachePolicy\n"
                        "class P(CachePolicy):\n"
                        "    def on_request(self, request):\n"
                        "        return self._handle(request)\n"
                        "    def _handle(self, request):\n"
                        "        self._on_miss_observed(request)\n"
                        "        return False\n"
                    ),
                },
                select=["xf-policy-contract"],
            ),
        )

    def test_good_super_delegation_resolved_and_unresolved(self) -> None:
        self.assertEqual(
            [],
            fired(
                {
                    "repro.a": POLICY_BASE,
                    "repro.b": (
                        "from repro.a import CachePolicy\n"
                        "class Resolved(CachePolicy):\n"
                        "    def on_request(self, request):\n"
                        "        return super().on_request(request)\n"
                    ),
                    "repro.c": (
                        "from vendored.cache import CachePolicy\n"
                        "class Unresolved(CachePolicy):\n"
                        "    def on_request(self, request):\n"
                        "        return super().on_request(request)\n"
                    ),
                },
                select=["xf-policy-contract"],
            ),
        )

    def test_select_victims_shape_violations(self) -> None:
        found = check_sources(
            {
                "repro.a": POLICY_BASE,
                "repro.b": textwrap.dedent(
                    "from repro.a import CachePolicy\n"
                    "class ReturnsNone(CachePolicy):\n"
                    "    def _select_victims(self, incoming):\n"
                    "        return None\n"
                    "class Unwrapped(CachePolicy):\n"
                    "    def _select_victims(self, incoming):\n"
                    "        return self._select_victim(incoming)\n"
                    "class Generator(CachePolicy):\n"
                    "    def _select_victims(self, incoming):\n"
                    "        yield incoming\n"
                    "class Fine(CachePolicy):\n"
                    "    def _select_victims(self, incoming):\n"
                    "        return [(1, 2, 3)]\n"
                ),
            },
            select=["xf-policy-contract"],
        )
        self.assertEqual(3, len(found))
        messages = " / ".join(v.message for v in found)
        self.assertIn("returns None", messages)
        self.assertIn("unwrapped", messages)
        self.assertIn("generator", messages)

    def test_batched_flag_inherited_past_overridden_request_path(self) -> None:
        maybe_true_base = POLICY_BASE.replace(
            "        return False\n", "        return self._flag\n"
        )
        sources = {
            "repro.a": maybe_true_base,
            "repro.b": (
                "from repro.a import CachePolicy\n"
                "class Silent(CachePolicy):\n"
                "    def on_request(self, request):\n"
                "        self._on_miss_observed(request)\n"
                "        return False\n"
            ),
        }
        self.assertEqual(
            ["xf-policy-contract"],
            fired(sources, select=["xf-policy-contract"]),
        )
        # Overriding the property explicitly clears it...
        sources["repro.b"] += (
            "    @property\n"
            "    def supports_batched_scoring(self):\n"
            "        return False\n"
        )
        self.assertEqual([], fired(sources, select=["xf-policy-contract"]))
        # ...and a never-True base was never a problem to begin with.
        self.assertEqual(
            [],
            fired(
                {
                    "repro.a": POLICY_BASE,
                    "repro.b": (
                        "from repro.a import CachePolicy\n"
                        "class Silent(CachePolicy):\n"
                        "    def on_request(self, request):\n"
                        "        self._on_miss_observed(request)\n"
                        "        return False\n"
                    ),
                },
                select=["xf-policy-contract"],
            ),
        )

    def test_restore_must_take_and_use_cost(self) -> None:
        found = check_sources(
            {
                "repro.a": POLICY_BASE,
                "repro.b": textwrap.dedent(
                    "from repro.a import CachePolicy\n"
                    "class DropsCost(CachePolicy):\n"
                    "    def _restore(self, obj, size, incoming):\n"
                    "        pass\n"
                    "class IgnoresCost(CachePolicy):\n"
                    "    def _restore(self, obj, size, incoming, cost=None):\n"
                    "        self._insert(obj, size)\n"
                    "class Fine(CachePolicy):\n"
                    "    def _restore(self, obj, size, incoming, cost=None):\n"
                    "        self._costs[obj] = cost\n"
                ),
            },
            select=["xf-policy-contract"],
        )
        self.assertEqual(2, len(found))


class DetectorPurityRuleTest(unittest.TestCase):
    def test_bad_direct_and_transitive_impurity(self) -> None:
        found = check_sources(
            {
                "repro.obs.custom": textwrap.dedent(
                    "from repro.obs.slo import SloObjective\n"
                    "class Direct(SloObjective):\n"
                    "    def evaluate(self, snapshot, state=None):\n"
                    "        print(snapshot)\n"
                    "class Transitive(SloObjective):\n"
                    "    def evaluate(self, snapshot, state=None):\n"
                    "        return self._note(snapshot)\n"
                    "    def _note(self, snapshot):\n"
                    "        self._registry.counter('slo.notes').inc()\n"
                ),
            },
            select=["xf-detector-purity"],
        )
        self.assertEqual(
            ["xf-detector-purity", "xf-detector-purity"],
            [v.rule_id for v in found],
        )

    def test_good_state_fold_is_silent(self) -> None:
        self.assertEqual(
            [],
            fired(
                {
                    "repro.obs.custom": (
                        "from repro.obs.slo import SloObjective\n"
                        "class Pure(SloObjective):\n"
                        "    def evaluate(self, snapshot, state=None):\n"
                        "        state.last_value = snapshot.bhr\n"
                        "        if snapshot.bhr is None:\n"
                        "            return None, 0.0\n"
                        "        return snapshot.bhr >= 0.1, snapshot.bhr\n"
                    )
                },
                select=["xf-detector-purity"],
            ),
        )

    def test_non_monitor_check_methods_exempt(self) -> None:
        self.assertEqual(
            [],
            fired(
                {
                    "repro.obs.custom": (
                        "class NotAnObjective:\n"
                        "    def evaluate(self, snapshot, state=None):\n"
                        "        print(snapshot)\n"
                    )
                },
                select=["xf-detector-purity"],
            ),
        )


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
        # One registry: the whole-program ids sit beside the visitor ids.
        self.assertEqual(
            [
                "xf-rng-taint",
                "xf-policy-contract",
                "xf-detector-purity",
                "xf-metric-surface",
            ],
            [rule for rule in rule_ids() if rule.startswith("xf-")],
        )
        self.assertEqual(15, len(set(rule_ids())))

    def test_repo_tree_is_deep_clean(self) -> None:
        """The actual tree passes every rule, whole-program ones included."""
        report = run_analysis(root=REPO_ROOT)
        self.assertTrue(
            report.ok,
            "\n".join(v.render() for v in report.violations)
            + "\n".join(v.render() for v in report.parse_errors),
        )
        self.assertEqual(rule_ids(), report.rule_ids)
        self.assertGreater(report.files_checked, 50)

    def test_cli_deep_json_gate(self) -> None:
        """A planted whole-program violation fails the CLI, and a one-file
        run reports exactly it: `paths` filters the findings, never the
        program (the tainted helper is outside the path given)."""
        files = {
            "src/repro/viz.py":
                "import random\n\n\ndef jitter():\n"
                "    return random.random()\n",
            "src/repro/sim/a.py":
                "from repro.viz import jitter\n\n\n"
                "def step() -> float:\n    return jitter()\n",
            "src/repro/sim/b.py": "import random\n",  # not asked about
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
                        ["lint", "--format", "json", "src/repro/sim/a.py"]
                    )
            finally:
                os.chdir(cwd)
        self.assertEqual(1, code, stdout.getvalue())
        document = json.loads(stdout.getvalue())
        self.assertFalse(document["ok"])
        self.assertEqual(1, document["files_checked"])
        self.assertEqual(
            [("xf-rng-taint", "src/repro/sim/a.py", 5)],
            [(v["rule"], v["path"], v["line"]) for v in document["violations"]],
        )


if __name__ == "__main__":
    unittest.main()
