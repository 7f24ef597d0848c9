"""Coverage for smaller API corners across subsystems."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core import TieredLFOCache
from repro.flow import FlowNetwork, solve_min_cost_flow
from repro.opt import opt_hit_ratios, solve_opt
from repro.sim import HitRatioCurve, run_experiment
from repro.trace import CostModel, Request, Trace
from repro.viz import bar_chart, line_chart


class TestFlowAccessors:
    def test_arc_flow_rejects_reverse_index(self):
        net = FlowNetwork(2)
        arc = net.add_arc(0, 1, 5, 1.0)
        with pytest.raises(ValueError):
            net.arc_flow(arc + 1)

    def test_arc_flow_after_solve(self):
        net = FlowNetwork(2)
        arc = net.add_arc(0, 1, 5, 1.0)
        net.add_supply(0, 3)
        net.add_supply(1, -3)
        solve_min_cost_flow(net)
        assert net.arc_flow(arc) == 3

    def test_forward_arcs_iteration(self):
        net = FlowNetwork(3)
        net.add_arc(0, 1, 1, 0.0)
        net.add_arc(1, 2, 1, 0.0)
        assert list(net.forward_arcs()) == [0, 2]


class TestOptHitRatioEdges:
    def test_all_unique_objects_zero_ratio(self):
        trace = Trace([Request(i, i, 5) for i in range(10)])
        result = solve_opt(trace, cache_size=100)
        bhr, ohr = opt_hit_ratios(trace, result)
        assert bhr == 0.0 and ohr == 0.0

    def test_perfect_cache_full_reuse(self):
        trace = Trace([Request(i, i % 2, 5) for i in range(10)])
        result = solve_opt(trace, cache_size=100)
        bhr, ohr = opt_hit_ratios(trace, result)
        assert ohr == pytest.approx(8 / 10)
        assert bhr == pytest.approx(8 / 10)


class TestTieredPlacementKnobs:
    def test_tier_of_unknown_is_none(self):
        cache = TieredLFOCache(ram_size=10, ssd_size=10, n_gaps=3)
        assert cache.tier_of(42) is None

    def test_aggregate_views(self):
        cache = TieredLFOCache(ram_size=30, ssd_size=70, n_gaps=3)
        assert cache.cache_size == 100
        cache.on_request(Request(0, 1, 20))
        assert cache.free_bytes == 80


class TestVizCorners:
    def test_bar_chart_custom_format(self):
        chart = bar_chart({"x": 0.123456}, fmt="{:.2f}")
        assert "0.12" in chart

    def test_line_chart_single_point(self):
        chart = line_chart([1.0], {"s": [0.5]})
        assert "s" in chart


class TestCostModelComposition:
    def test_ohr_then_bhr_roundtrip(self, paper_trace):
        ohr = CostModel.apply(paper_trace.requests, CostModel.OHR)
        back = CostModel.apply(ohr, CostModel.BHR)
        assert [r.cost for r in back] == [float(r.size) for r in paper_trace]


class TestExperimentWarmup:
    def test_warmup_changes_reported_ratio(self):
        spec = {
            "trace": {"kind": "zipf", "n_requests": 1500, "n_objects": 150,
                      "size_median": 20, "size_max": 300, "seed": 8},
            "cache": {"fraction": 5},
            "policies": ["LRU"],
        }
        cold = run_experiment({**spec, "warmup": 0.0})
        warm = run_experiment({**spec, "warmup": 0.5})
        # Warm measurement excludes the cold-start misses.
        assert warm["results"]["LRU"]["bhr"] >= cold["results"]["LRU"]["bhr"]


class TestCLICacheMb:
    def test_cache_mb_flag(self, tmp_path, capsys):
        path = tmp_path / "t.bin"
        assert main([
            "generate", "--requests", "800", "--objects", "100",
            "--size-median", "20", "--size-max", "300",
            "--out", str(path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "compare", str(path), "--policies", "LRU",
            "--cache-mb", "0.001",
        ]) == 0
        assert "LRU" in capsys.readouterr().out


class TestHitRatioCurveAt:
    def test_interpolation_and_clamping(self):
        curve = HitRatioCurve(
            sizes=np.array([10.0, 20.0]), bhr=np.array([0.2, 0.6])
        )
        assert curve.at(15) == pytest.approx(0.4)
        assert curve.at(5) == pytest.approx(0.2)   # clamped below
        assert curve.at(100) == pytest.approx(0.6)  # clamped above


def test_serving_imports_leave_scipy_and_networkx_out():
    """The router, every shard and every trainer import these packages;
    `scipy` (one calibration fit) and `networkx` (the solver's
    cross-check) are imported by the functions that use them — ~0.6 s
    and ~55 MB a process otherwise."""
    code = (
        "import sys; import repro.core, repro.sim, repro.serve, repro.cluster; "
        "print(sorted({'scipy', 'networkx'} & set(sys.modules)))"
    )
    paths = [str(Path(__file__).resolve().parents[1] / "src")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_analysis_package_exports_one_of_each():
    """`lfo lint` is one pass, so `repro.analysis` has one base class, one
    registry, one run, one fixture entry and the two reporters — the
    tiered twins and the baseline/SARIF/JSON-dump names are gone."""
    import repro.analysis as analysis

    assert sorted(analysis.__all__) == [
        "ALL_RULES", "AnalysisReport", "FileContext", "ProjectModel", "Rule",
        "Violation", "all_rules", "check_sources", "collect_metric_surface",
        "iter_python_files", "render_json", "render_metrics_markdown",
        "render_text", "rule_ids", "run_analysis",
    ]
    for name in analysis.__all__:
        assert hasattr(analysis, name), name
    for gone in (
        "Baseline", "ProjectRule", "PROJECT_RULES", "all_project_rules",
        "project_rule_ids", "render_sarif", "render_metrics_json",
        "run_deep_analysis", "check_source", "check_project_sources",
    ):
        assert not hasattr(analysis, gone), gone


def test_names_no_caller_reached_are_gone():
    """Size sweeps, the Che curve, four trace transforms, the callback
    dataset builders, the GBDT regressor and early stopping had no caller
    but their own tests; none of them is public any more."""
    import dataclasses

    import repro.features as features
    import repro.gbdt as gbdt
    import repro.obs as obs
    import repro.sim as sim
    import repro.trace as trace
    from repro.cluster import CacheCluster
    from repro.gbdt import GBDTClassifier, GBDTParams
    from repro.obs import MetricsRegistry

    gone = {
        sim: ("sweep_policies", "policy_hit_ratio_curve", "crossover_size",
              "che_hit_ratio_curve", "bootstrap_bhr_ci"),
        trace: ("sample_objects", "sample_requests", "modulate_rate",
                "concat", "popularity_histogram", "reuse_distances",
                "WEB_CLASS", "PHOTO_CLASS", "VIDEO_CLASS", "SOFTWARE_CLASS"),
        features: ("build_features", "build_dataset",
                   "feature_bits_required"),
        gbdt: ("GBDTRegressor", "SquaredLoss"),
        obs: ("traced",),
        MetricsRegistry: ("write_jsonl",),
        CacheCluster: ("publish_predictor",),
        GBDTClassifier: ("staged_predict_raw",),
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), name
            assert name not in getattr(owner, "__all__", ()), name
    assert "early_stopping_rounds" not in {
        f.name for f in dataclasses.fields(GBDTParams)
    }
