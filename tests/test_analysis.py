"""Tests for the static-analysis framework (``repro.analysis``).

Every rule gets at least one *bad* fixture (must fire) and one *good*
fixture (must stay silent), compiled from strings so the fixtures cannot
drift with the repo.  The last test runs ``lfo lint --format json`` over
the actual repo tree and requires it to exit 0 — the shipped code is lint
clean by construction.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import textwrap
import unittest
from pathlib import Path

from repro.analysis import (
    Violation,
    check_sources,
    render_json,
    render_text,
    rule_ids,
    run_analysis,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def check_source(
    source: str, *, module: str = "module", select: list[str] | None = None
) -> list[Violation]:
    """Findings on one dedented source snippet (a one-module program)."""
    return check_sources({module: textwrap.dedent(source)}, select=select)


def violations(
    source: str, module: str = "repro.sim.fake", select: list[str] | None = None
) -> list[str]:
    """Rule ids fired on a dedented source snippet."""
    return [v.rule_id for v in check_source(source, module=module, select=select)]


class DeterminismRngRuleTest(unittest.TestCase):
    def test_bad_stdlib_random_import(self) -> None:
        self.assertIn(
            "det-rng",
            violations("import random\nx = random.random()\n"),
        )

    def test_bad_legacy_numpy_singleton(self) -> None:
        self.assertIn(
            "det-rng",
            violations(
                "import numpy as np\nx = np.random.rand(3)\n",
                module="repro.opt.fake",
            ),
        )

    def test_bad_unseeded_default_rng(self) -> None:
        self.assertIn(
            "det-rng",
            violations(
                "import numpy as np\nrng = np.random.default_rng()\n",
                module="benchmarks.bench_fake",
            ),
        )

    def test_good_seeded_generator(self) -> None:
        self.assertNotIn(
            "det-rng",
            violations(
                """
                import numpy as np

                def draw(seed: int) -> float:
                    rng = np.random.default_rng(seed)
                    return float(rng.random())
                """
            ),
        )

    def test_out_of_scope_module_ignored(self) -> None:
        # repro.cache draws from per-policy seeded RNGs; the determinism
        # scope covers sim/opt/gbdt/features/core/trace.synthetic and
        # benchmarks, not the policy zoo.
        self.assertEqual(
            [],
            violations(
                "import random\n",
                module="repro.cache.fake",
                select=["det-rng"],
            ),
        )

    def test_core_module_in_scope(self) -> None:
        # repro.core entered the deterministic scope with sampled
        # eviction: the candidate sampler's draws decide victim sequences.
        self.assertIn(
            "det-rng",
            violations(
                "import numpy as np\nrng = np.random.default_rng()\n",
                module="repro.core.fake",
            ),
        )


class DeterminismWallClockRuleTest(unittest.TestCase):
    def test_bad_time_time(self) -> None:
        self.assertIn(
            "det-wallclock",
            violations("import time\nstamp = time.time()\n"),
        )

    def test_bad_datetime_now(self) -> None:
        self.assertIn(
            "det-wallclock",
            violations(
                "from datetime import datetime\nt = datetime.now()\n",
                module="repro.trace.synthetic",
            ),
        )

    def test_good_perf_counter(self) -> None:
        self.assertEqual(
            [],
            violations(
                "from time import perf_counter\nt0 = perf_counter()\n",
                select=["det-wallclock"],
            ),
        )


class ExecutorSharedStateRuleTest(unittest.TestCase):
    def test_bad_bound_method_submit(self) -> None:
        self.assertIn(
            "conc-submit-shared",
            violations(
                """
                class Trainer:
                    def kick(self):
                        self.pool.submit(self._train, 1)
                """,
                module="repro.core.fake",
            ),
        )

    def test_bad_lambda_over_self(self) -> None:
        self.assertIn(
            "conc-submit-shared",
            violations(
                """
                class Trainer:
                    def kick(self):
                        self.pool.submit(lambda: self.train())
                """,
                module="repro.core.fake",
            ),
        )

    def test_bad_self_as_argument(self) -> None:
        self.assertIn(
            "conc-submit-shared",
            violations(
                """
                class Trainer:
                    def kick(self):
                        self.pool.submit(train_fn, self.buffer)
                """,
                module="repro.core.fake",
            ),
        )

    def test_good_module_level_function_of_snapshots(self) -> None:
        self.assertEqual(
            [],
            violations(
                """
                class Trainer:
                    def kick(self):
                        args = (list(self.buffer), self.cache_size)
                        self.pool.submit(train_fn, *args)
                """,
                module="repro.core.fake",
                select=["conc-submit-shared"],
            ),
        )


class RequestPathLockRuleTest(unittest.TestCase):
    def test_bad_with_lock_in_on_request(self) -> None:
        self.assertIn(
            "conc-lock-request-path",
            violations(
                """
                class Cache:
                    def on_request(self, request):
                        with self._lock:
                            return True
                """,
                module="repro.core.fake",
            ),
        )

    def test_bad_acquire_in_on_request(self) -> None:
        self.assertIn(
            "conc-lock-request-path",
            violations(
                """
                class Cache:
                    def on_request(self, request):
                        self._mutex.acquire()
                        return True
                """,
                module="repro.core.fake",
            ),
        )

    def test_good_lock_outside_request_path(self) -> None:
        self.assertEqual(
            [],
            violations(
                """
                class Registry:
                    def create(self, name):
                        with self._lock:
                            return self._make(name)
                """,
                module="repro.obs.fake",
                select=["conc-lock-request-path"],
            ),
        )


class ObsLiteralNameRuleTest(unittest.TestCase):
    def test_bad_fstring_name(self) -> None:
        self.assertIn(
            "obs-literal-name",
            violations(
                """
                def record(registry, obj_id):
                    registry.counter(f"hits.{obj_id}").inc()
                """,
                module="repro.core.fake",
            ),
        )

    def test_bad_variable_name(self) -> None:
        self.assertIn(
            "obs-literal-name",
            violations(
                """
                def record(registry, which):
                    registry.histogram(which).observe(1.0)
                """,
                module="repro.core.fake",
            ),
        )

    def test_good_literal_name(self) -> None:
        self.assertEqual(
            [],
            violations(
                """
                def record(registry):
                    registry.counter("sim.hits").inc()
                """,
                module="repro.core.fake",
                select=["obs-literal-name"],
            ),
        )

    def test_good_registry_forwarding_layer(self) -> None:
        # The registry implementation itself forwards a `name` parameter;
        # that is the wrapper layer, not an instrumentation call site.
        self.assertEqual(
            [],
            violations(
                """
                class Registry:
                    def span(self, name: str):
                        return self.tracer.span(name)
                """,
                module="repro.obs.fake",
                select=["obs-literal-name"],
            ),
        )


class ObsNameStyleRuleTest(unittest.TestCase):
    def test_bad_camel_case(self) -> None:
        self.assertIn(
            "obs-name-style",
            violations(
                'def f(registry):\n    registry.counter("SimHits").inc()\n',
                module="repro.core.fake",
            ),
        )

    def test_good_dotted_snake_case(self) -> None:
        self.assertEqual(
            [],
            violations(
                'def f(registry):\n'
                '    registry.counter("online.failed_retrains").inc()\n',
                module="repro.core.fake",
                select=["obs-name-style"],
            ),
        )


class ObsNameUniqueRuleTest(unittest.TestCase):
    def test_bad_same_name_two_kinds(self) -> None:
        fired = violations(
            """
            def f(registry):
                registry.counter("sim.latency").inc()
                registry.histogram("sim.latency").observe(0.1)
            """,
            module="repro.core.fake",
        )
        self.assertEqual(
            2, sum(1 for rule in fired if rule == "obs-name-unique")
        )

    CLASH = {
        "repro.core.a": (
            "def f(registry: object) -> None:\n"
            "    registry.counter('sim.depth')\n"
        ),
        "repro.sim.b": (
            "def g(registry: object) -> None:\n"
            "    registry.gauge('sim.depth')\n"
        ),
    }

    def test_bad_clash_across_modules_reported_once_per_site(self) -> None:
        # Every rule runs: xf-metric-surface reads the same surface (two
        # entries for the name) and must leave the clash to this rule.
        found = check_sources(self.CLASH)
        self.assertEqual(
            [("obs-name-unique", "repro/core/a.py", 2),
             ("obs-name-unique", "repro/sim/b.py", 2)],
            [(v.rule_id, v.path, v.line) for v in found],
        )

    def test_markers_silence_each_site_through_the_one_pass(self) -> None:
        sources = dict(self.CLASH)
        sources["repro.core.a"] = (
            "# lint: ignore[obs-name-unique]  # fixture\n"
            + sources["repro.core.a"]
        )
        found = check_sources(sources, select=["obs-name-unique"])
        self.assertEqual(["repro/sim/b.py"], [v.path for v in found])
        sources["repro.sim.b"] = (
            "def g(registry: object) -> None:\n"
            "    # lint: ignore-next-line[obs-name-unique]  # fixture\n"
            "    registry.gauge('sim.depth')\n"
        )
        self.assertEqual(
            [], check_sources(sources, select=["obs-name-unique"])
        )

    def test_good_one_kind_many_sites(self) -> None:
        self.assertEqual(
            [],
            violations(
                """
                def f(registry):
                    registry.counter("sim.hits").inc()
                    registry.counter("sim.hits").inc(5)
                """,
                module="repro.core.fake",
                select=["obs-name-unique"],
            ),
        )


class BroadExceptRuleTest(unittest.TestCase):
    def test_bad_silent_broad_except(self) -> None:
        self.assertIn(
            "rob-broad-except",
            violations(
                """
                def f():
                    try:
                        work()
                    except Exception:
                        pass
                """,
                module="repro.core.fake",
            ),
        )

    def test_bad_bare_except(self) -> None:
        self.assertIn(
            "rob-broad-except",
            violations(
                "def f():\n    try:\n        work()\n    except:\n        x = 1\n",
                module="repro.core.fake",
            ),
        )

    def test_bad_logs_but_never_counts(self) -> None:
        self.assertIn(
            "rob-broad-except",
            violations(
                """
                def f(logger):
                    try:
                        work()
                    except Exception as exc:
                        logger.warning("failed", exc_info=exc)
                """,
                module="repro.core.fake",
            ),
        )

    def test_good_logs_and_counts(self) -> None:
        self.assertEqual(
            [],
            violations(
                """
                def f(logger, registry):
                    try:
                        work()
                    except Exception as exc:
                        logger.warning("failed (%s)", type(exc).__name__)
                        registry.counter("online_trainer_errors").inc()
                """,
                module="repro.core.fake",
                select=["rob-broad-except"],
            ),
        )

    def test_good_reraise(self) -> None:
        self.assertEqual(
            [],
            violations(
                """
                def f():
                    try:
                        work()
                    except Exception:
                        cleanup()
                        raise
                """,
                module="repro.core.fake",
                select=["rob-broad-except"],
            ),
        )

    def test_good_narrow_except(self) -> None:
        self.assertEqual(
            [],
            violations(
                """
                def f():
                    try:
                        work()
                    except (RuntimeError, ValueError):
                        pass
                """,
                module="repro.core.fake",
                select=["rob-broad-except"],
            ),
        )


class SilentDegradeRuleTest(unittest.TestCase):
    def test_bad_silent_narrow_handler(self) -> None:
        # Unlike rob-broad-except, even a *narrow* handler in core/opt/
        # trace must be observable.
        self.assertIn(
            "rob-silent-degrade",
            violations(
                """
                def f():
                    try:
                        work()
                    except KeyError:
                        pass
                """,
                module="repro.core.fake",
            ),
        )

    def test_bad_silent_fallback_branch(self) -> None:
        self.assertIn(
            "rob-silent-degrade",
            violations(
                """
                def read(line, tolerant):
                    if tolerant:
                        return None
                    return parse(line)
                """,
                module="repro.trace.fake",
            ),
        )

    def test_bad_silent_flag_flip(self) -> None:
        self.assertIn(
            "rob-silent-degrade",
            violations(
                """
                def solve(pool):
                    pool_broken = True
                    return pool_broken
                """,
                module="repro.opt.fake",
            ),
        )

    def test_good_handler_logs(self) -> None:
        self.assertEqual(
            [],
            violations(
                """
                def f(logger):
                    try:
                        work()
                    except KeyError:
                        logger.debug("key missing; using default")
                """,
                module="repro.core.fake",
                select=["rob-silent-degrade"],
            ),
        )

    def test_good_handler_counts(self) -> None:
        self.assertEqual(
            [],
            violations(
                """
                def f(registry):
                    try:
                        work()
                    except KeyError:
                        registry.counter("resilience.key_misses").inc()
                """,
                module="repro.core.fake",
                select=["rob-silent-degrade"],
            ),
        )

    def test_good_handler_reraises(self) -> None:
        self.assertEqual(
            [],
            violations(
                """
                def f():
                    try:
                        work()
                    except KeyError:
                        raise ValueError("bad key") from None
                """,
                module="repro.trace.fake",
                select=["rob-silent-degrade"],
            ),
        )

    def test_good_fallback_branch_with_event(self) -> None:
        self.assertEqual(
            [],
            violations(
                """
                def read(line, tolerant, registry):
                    if tolerant:
                        registry.counter("resilience.skips").inc()
                        return None
                    return parse(line)
                """,
                module="repro.trace.fake",
                select=["rob-silent-degrade"],
            ),
        )

    def test_good_flag_flip_in_loud_function(self) -> None:
        self.assertEqual(
            [],
            violations(
                """
                def solve(pool, logger):
                    pool_broken = True
                    logger.warning("pool broke; going serial")
                    return pool_broken
                """,
                module="repro.opt.fake",
                select=["rob-silent-degrade"],
            ),
        )

    def test_attribute_flag_tests_are_exempt(self) -> None:
        # `self._degraded` guards the per-request hot path; the flip site
        # is counted instead, so the attribute test itself stays quiet.
        self.assertEqual(
            [],
            violations(
                """
                class Cache:
                    def should_admit(self, score):
                        if self._degraded:
                            return True
                        return score > 0.5
                """,
                module="repro.core.fake",
                select=["rob-silent-degrade"],
            ),
        )

    def test_exception_class_names_are_not_flags(self) -> None:
        self.assertEqual(
            [],
            violations(
                """
                def f(exc):
                    if isinstance(exc, BrokenExecutor):
                        return None
                    return exc
                """,
                module="repro.opt.fake",
                select=["rob-silent-degrade"],
            ),
        )

    def test_out_of_scope_module_ignored(self) -> None:
        self.assertEqual(
            [],
            violations(
                """
                def f():
                    try:
                        work()
                    except KeyError:
                        pass
                """,
                module="repro.sim.fake",
                select=["rob-silent-degrade"],
            ),
        )


class FloatEqualityRuleTest(unittest.TestCase):
    def test_bad_float_literal_eq_in_gbdt(self) -> None:
        self.assertIn(
            "rob-float-eq",
            violations(
                "def split(gain):\n    return gain == 0.5\n",
                module="repro.gbdt.fake",
            ),
        )

    def test_good_tolerance_compare(self) -> None:
        self.assertEqual(
            [],
            violations(
                "def split(gain):\n    return abs(gain - 0.5) < 1e-9\n",
                module="repro.gbdt.fake",
                select=["rob-float-eq"],
            ),
        )

    def test_good_out_of_scope(self) -> None:
        self.assertEqual(
            [],
            violations(
                "def f(x):\n    return x == 0.5\n",
                module="repro.sim.fake",
                select=["rob-float-eq"],
            ),
        )


class PublicApiAnnotationRuleTest(unittest.TestCase):
    def test_bad_unannotated_public_function(self) -> None:
        fired = violations(
            "def simulate(trace, policy):\n    return None\n",
            module="repro.sim.fake",
        )
        self.assertIn("api-annotations", fired)

    def test_bad_missing_return_annotation(self) -> None:
        self.assertIn(
            "api-annotations",
            violations(
                "def simulate(trace: object, policy: object):\n    return None\n",
                module="repro.sim.fake",
            ),
        )

    def test_good_fully_annotated(self) -> None:
        self.assertEqual(
            [],
            violations(
                """
                def simulate(trace: object, policy: object) -> None:
                    return None
                """,
                module="repro.sim.fake",
                select=["api-annotations"],
            ),
        )

    def test_good_private_function_exempt(self) -> None:
        self.assertEqual(
            [],
            violations(
                "def _helper(x):\n    return x\n",
                module="repro.sim.fake",
                select=["api-annotations"],
            ),
        )


class SuppressionTest(unittest.TestCase):
    def test_file_wide_suppression(self) -> None:
        source = (
            "# lint: ignore[det-rng]  # fixture: suppression mechanics\n"
            "import random\n"
        )
        self.assertEqual([], violations(source))

    def test_suppression_is_per_rule(self) -> None:
        source = (
            "# lint: ignore[det-wallclock]  # fixture\n"
            "import random\n"
        )
        self.assertIn("det-rng", violations(source))

    def test_line_scoped_suppression(self) -> None:
        source = (
            "import numpy as np\n"
            "# lint: ignore-next-line[det-rng]  # fixture\n"
            "rng = np.random.default_rng()\n"
        )
        self.assertEqual([], violations(source, select=["det-rng"]))

    def test_line_scoped_suppression_only_covers_next_line(self) -> None:
        source = (
            "import numpy as np\n"
            "# lint: ignore-next-line[det-rng]  # fixture\n"
            "a = np.random.default_rng()\n"
            "b = np.random.default_rng()\n"
        )
        found = check_source(
            textwrap.dedent(source),
            module="repro.sim.fake",
            select=["det-rng"],
        )
        self.assertEqual([4], [v.line for v in found])

    def test_line_scoped_suppression_is_per_rule(self) -> None:
        source = (
            "# lint: ignore-next-line[det-wallclock]  # fixture\n"
            "import random\n"
            "x = random.random()\n"
        )
        self.assertIn("det-rng", violations(source, select=["det-rng"]))

    def test_line_scoped_marker_does_not_suppress_file_wide(self) -> None:
        # The file-wide regex must not also match the next-line form.
        source = (
            "# lint: ignore-next-line[det-rng]  # fixture\n"
            "import numpy as np\n"
            "rng = np.random.default_rng()\n"
        )
        self.assertIn("det-rng", violations(source, select=["det-rng"]))


class EngineTest(unittest.TestCase):
    def test_unknown_select_rejected(self) -> None:
        with self.assertRaises(ValueError):
            check_source("x = 1\n", select=["no-such-rule"])

    def test_rule_ids_are_stable_and_unique(self) -> None:
        ids = rule_ids()
        self.assertEqual(len(ids), len(set(ids)))
        self.assertIn("det-rng", ids)
        self.assertIn("api-annotations", ids)

    def test_reporters(self) -> None:
        report = run_analysis(
            [REPO_ROOT / "src" / "repro" / "analysis"], root=REPO_ROOT
        )
        text = render_text(report)
        self.assertIn("clean", text)
        document = json.loads(render_json(report))
        self.assertTrue(document["ok"])
        self.assertGreater(document["files_checked"], 0)

    def test_violation_positions_reported(self) -> None:
        found = check_source(
            "import numpy as np\nrng = np.random.default_rng()\n",
            module="repro.sim.fake",
            select=["det-rng"],
        )
        self.assertEqual(1, len(found))
        self.assertEqual(2, found[0].line)
        self.assertIn("det-rng", found[0].render())


class LintCliTest(unittest.TestCase):
    def _lint(self, *argv: str) -> tuple[int, str, str]:
        """``lfo lint`` from the repo root: (exit code, stdout, stderr)."""
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        try:
            os.chdir(REPO_ROOT)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
                stderr
            ):
                code = main(["lint", *argv])
        finally:
            os.chdir(cwd)
        return code, stdout.getvalue(), stderr.getvalue()

    def test_repo_tree_is_lint_clean_json(self) -> None:
        """`lfo lint --format json` on the repo tree exits 0."""
        code, out, _ = self._lint("--format", "json")
        self.assertEqual(0, code, out)
        document = json.loads(out)
        self.assertTrue(document["ok"])
        self.assertEqual([], document["violations"])
        self.assertGreater(document["files_checked"], 50)

    def test_select_subset_and_explicit_path(self) -> None:
        # Visitor and whole-program ids select alike; no tier flag exists.
        code, out, _ = self._lint(
            "--select", "det-rng,det-wallclock,xf-rng-taint",
            "--format", "json",
            str(REPO_ROOT / "src" / "repro" / "sim"),
        )
        self.assertEqual(0, code, out)
        self.assertEqual(
            ["det-rng", "det-wallclock", "xf-rng-taint"],
            json.loads(out)["rules"],
        )

    def test_one_real_file_is_reported_alone(self) -> None:
        # `paths` filters what is printed; the program stays the whole
        # tree, so whole-program rules do not misfire on a one-file run
        # (a one-file "program" drew 65 false xf-metric-surface findings).
        code, out, _ = self._lint("src/repro/core/lfo.py", "--format", "json")
        self.assertEqual(0, code, out)
        document = json.loads(out)
        self.assertEqual([], document["violations"])
        self.assertEqual(1, document["files_checked"])
        self.assertEqual(rule_ids(), document["rules"])

    def test_unknown_rule_id_is_usage_error(self) -> None:
        code, _, err = self._lint("--select", "bogus-rule")
        self.assertEqual(2, code)
        self.assertIn("bogus-rule", err)
        for rule_id in rule_ids():  # every id listed, each once
            self.assertEqual(1, err.count(rule_id), rule_id)


if __name__ == "__main__":
    unittest.main()
