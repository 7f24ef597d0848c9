"""Coverage for smaller API corners across subsystems."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core import TieredLFOCache
from repro.opt import opt_hit_ratios, solve_opt
from repro.sim import compare_policies, policy_factories
from repro.trace import (
    CostModel,
    Request,
    SyntheticConfig,
    Trace,
    generate_trace,
)
from repro.viz import bar_chart, line_chart


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


class TestCompareWarmup:
    def test_warmup_changes_reported_ratio(self):
        trace = generate_trace(SyntheticConfig(
            n_requests=1500, n_objects=150, size_median=20, size_max=300,
            seed=8,
        ))
        cache_size = trace.footprint() // 5

        def bhr(warmup):
            results = compare_policies(
                trace, cache_size, factories=policy_factories(["LRU"]),
                warmup_fraction=warmup,
            )
            return results["LRU"].bhr

        # Warm measurement excludes the cold-start misses.
        assert bhr(0.5) >= bhr(0.0)


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


def test_serving_imports_leave_scipy_and_networkx_out():
    """The router, every shard and every trainer import these packages.
    Neither `networkx` (only the tests' cross-check of the flow solver
    uses it) nor `scipy` has a caller in the package at all. Either one
    would cost ~0.6 s and ~55 MB a process."""
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


def test_names_no_caller_reached_are_gone():
    """Size sweeps, the Che curve, four trace transforms, the callback
    dataset builders, the GBDT regressor, early stopping, the policies
    outside the paper's Figure 1 and 6 set, the declarative experiment
    runner, the PSI-triggered early retrain (the plain window loop
    recovers as fast), the LRU hit-ratio curves with their tenant
    provisioning, the Zipf/size fits of a measured trace, and the mutable
    flow network with its verification helpers (the solver takes the arc
    columns OPT builds; the checks live beside the tests) had no caller
    but their own tests; none of them is public any more."""
    import dataclasses

    import repro
    import repro.cache as cache
    import repro.core as core
    import repro.features as features
    import repro.flow as flow
    import repro.gbdt as gbdt
    import repro.obs as obs
    import repro.sim as sim
    import repro.trace as trace
    from repro.cluster import CacheCluster
    from repro.gbdt import GBDTClassifier, GBDTParams
    from repro.obs import MetricsRegistry

    gone = {
        sim: ("sweep_policies", "policy_hit_ratio_curve", "crossover_size",
              "che_hit_ratio_curve", "bootstrap_bhr_ci", "run_experiment",
              "load_spec", "ComparisonRow", "HitRatioCurve",
              "lru_hit_ratio_curve", "partition_cache",
              "reuse_distance_bytes"),
        cache: ("FIFOCache", "ClockCache", "GDSCache", "TwoQCache",
                "LFUCache"),
        trace: ("sample_objects", "sample_requests", "modulate_rate",
                "concat", "popularity_histogram", "reuse_distances",
                "WEB_CLASS", "PHOTO_CLASS", "VIDEO_CLASS", "SOFTWARE_CLASS",
                "ZipfFit", "SizeFit", "fit_zipf", "fit_sizes",
                "calibration_report"),
        features: ("build_features", "build_dataset",
                   "feature_bits_required"),
        flow: ("FlowNetwork", "check_flow", "flow_cost",
               "solve_with_networkx"),
        gbdt: ("GBDTRegressor", "SquaredLoss"),
        obs: ("traced",),
        MetricsRegistry: ("write_jsonl",),
        CacheCluster: ("publish_predictor",),
        repro: ("AdaptiveLFOOnline", "DriftDetector"),
        core: ("AdaptiveLFOOnline", "DriftDetector"),
        GBDTClassifier: ("staged_predict_raw",),
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), name
            assert name not in getattr(owner, "__all__", ()), name
    assert "early_stopping_rounds" not in {
        f.name for f in dataclasses.fields(GBDTParams)
    }
    for command in ("experiment", "hrc"):  # neither is a command
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "spec.json"])
