"""Tests for the ``lfo`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.sim import policy_factories
from repro.trace import read_binary_trace


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "t.bin"
    code = main([
        "generate", "--requests", "2000", "--objects", "300",
        "--size-median", "20", "--size-max", "500",
        "--seed", "3", "--out", str(path),
    ])
    assert code == 0
    return str(path)


#: Option strings and defaults of the two sub-parsers that share option
#: groups, plus a digest of everything else an option declares (help,
#: choices, type, nargs, metavar), order-insensitive.
_CACHE = {
    "trace": None, "--tolerant-trace": False, "--cache-fraction": 10,
    "--cache-mb": None, "--cache-bytes": None,
}
_TRAINING = {
    "--window": 5000, "--cutoff": 0.5, "--segment": 1000,
    "--label-mode": "greedy",
}
_TELEMETRY = {
    "--every": 2000, "--ring": 120, "--slo": None, "--check": False,
    "--follow": False, "--serve-metrics": None, "--windows-out": None,
}
PINNED_OPTIONS = {
    "simulate": ("03ebbdd711ce44f7", {
        **_CACHE, **_TRAINING, "--warmup": 0.25,
        "--eviction": "likelihood", "--evict-sample-k": 64,
        "--evict-sample-seed": 0, "--fault-plan": None,
        "--staleness-limit": None, "--retry-backoff": 0,
        "--metrics-out": None,
    }),
    "serve": ("a19e273c738c3e77", {
        **_CACHE, **_TRAINING, **_TELEMETRY, "--synthetic": None,
        "--seed": 42, "--queue-depth": 1024, "--max-batch": 256,
        "--arrival-rate": 0.0, "--shards": 1,
        "--trainer": "thread", "--train-deadline": None,
        "--staleness-limit": None, "--retry-backoff": 0,
        "--fault-plan": None, "--jsonl": None,
    }),
}


class TestParser:
    @pytest.mark.parametrize("command", list(PINNED_OPTIONS))
    def test_shared_option_groups_keep_every_flag(self, command):
        import hashlib

        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action.choices, dict)
        )
        actions = [
            action for action in subparsers.choices[command]._actions
            if action.dest != "help"
        ]
        digest, defaults = PINNED_OPTIONS[command]
        assert {
            ",".join(a.option_strings) or a.dest: a.default for a in actions
        } == defaults
        declared = sorted(
            f"{a.option_strings}|{a.help}|{a.choices}|"
            f"{getattr(a.type, '__name__', None)}|{a.nargs}|{a.metavar}"
            for a in actions
        )
        assert hashlib.sha256(
            "\n".join(declared).encode()
        ).hexdigest()[:16] == digest

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestGenerate:
    def test_binary_output(self, trace_file):
        trace = read_binary_trace(trace_file)
        assert len(trace) == 2000

    def test_text_output(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        assert main(["generate", "--requests", "100", "--out", str(path)]) == 0
        assert "wrote 100 requests" in capsys.readouterr().out
        assert path.exists()


class TestStats:
    def test_prints_summary(self, trace_file, capsys):
        assert main(["stats", trace_file]) == 0
        out = capsys.readouterr().out
        assert "n_requests" in out
        assert "one_hit_wonder_ratio" in out


class TestOpt:
    def test_bounds_printed(self, trace_file, capsys):
        assert main([
            "opt", trace_file, "--cache-fraction", "10",
            "--segment", "500",
        ]) == 0
        out = capsys.readouterr().out
        assert "OPT admits" in out
        assert "OPT BHR bounds" in out


class TestCompare:
    def test_subset_table(self, trace_file, capsys):
        assert main([
            "compare", trace_file, "--policies", "LRU,GDSF",
            "--cache-fraction", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "LRU" in out and "GDSF" in out

    def test_explicit_cache_bytes(self, trace_file, capsys):
        assert main([
            "compare", trace_file, "--policies", "LRU",
            "--cache-bytes", "2000",
        ]) == 0
        assert "LRU" in capsys.readouterr().out

    @pytest.mark.parametrize("policies", ["LRU,FOO", "FIFO"])
    def test_unknown_policy_is_usage_error(self, trace_file, capsys,
                                           policies):
        capsys.readouterr()
        assert main(["compare", trace_file, "--policies", policies]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()  # one line, no traceback
        assert policies.split(",")[-1] in line
        for name in policy_factories():  # every known name listed
            assert name in line


class TestSimulate:
    def test_online_lfo_runs(self, trace_file, capsys):
        assert main([
            "simulate", trace_file, "--cache-fraction", "10",
            "--window", "1000", "--segment", "500",
        ]) == 0
        out = capsys.readouterr().out
        assert "BHR" in out
        assert "retrains" in out

    def test_sampled_eviction_flags(self, trace_file, capsys):
        assert main([
            "simulate", trace_file, "--cache-fraction", "10",
            "--window", "1000", "--segment", "500",
            "--eviction", "sampled", "--evict-sample-k", "16",
            "--evict-sample-seed", "5",
        ]) == 0
        assert "BHR" in capsys.readouterr().out

    def test_invalid_eviction_flag_rejected(self, trace_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "simulate", trace_file, "--eviction", "frobnicate",
            ])


class TestMetricsOut:
    def test_simulate_writes_snapshot(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "m.json"
        assert main([
            "simulate", trace_file, "--cache-fraction", "10",
            "--window", "1000", "--segment", "500",
            "--metrics-out", str(out_path),
        ]) == 0
        captured = capsys.readouterr()
        assert "BHR" in captured.out
        assert "metrics written" in captured.err  # diagnostics on stderr
        document = json.loads(out_path.read_text())
        counters = document["metrics"]["counters"]
        assert counters["sim.requests"] == 2000
        assert counters["sim.hits"] + counters["sim.misses"] == 2000
        spans = document["metrics"]["spans"]
        for name in (
            "online.window_close",
            "online.label_solve",
            "online.gbdt_fit",
            "online.model_install",
        ):
            assert spans[name]["count"] >= 1, name
        assert document["result"]["policy"] == "LFO-online"
        assert document["result"]["n_requests"] == 2000

    def test_compare_writes_per_policy_results(
        self, trace_file, tmp_path, capsys
    ):
        out_path = tmp_path / "m.json"
        assert main([
            "compare", trace_file, "--policies", "LRU,GDSF",
            "--cache-fraction", "10", "--metrics-out", str(out_path),
        ]) == 0
        assert "LRU" in capsys.readouterr().out
        document = json.loads(out_path.read_text())
        assert set(document["result"]) == {"LRU", "GDSF"}
        assert document["metrics"]["counters"]["sim.requests"] == 4000
        for row in document["result"].values():
            assert row["metrics"] is None  # only the top-level snapshot

    def test_diagnostics_stay_off_stdout(self, trace_file, capsys):
        assert main([
            "compare", trace_file, "--policies", "LRU",
            "--cache-fraction", "10",
        ]) == 0
        captured = capsys.readouterr()
        assert "comparing" in captured.err
        assert "comparing" not in captured.out


class TestTolerantTrace:
    @pytest.fixture()
    def dirty_trace(self, tmp_path):
        path = tmp_path / "dirty.txt"
        lines = ["# time obj size"]
        lines += [f"{i} {i % 50} 10" for i in range(500)]
        lines.insert(100, "GARBAGE LINE")
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_strict_read_aborts(self, dirty_trace):
        with pytest.raises(ValueError, match="GARBAGE"):
            main(["stats", dirty_trace])

    def test_tolerant_flag_skips_and_counts(self, dirty_trace, capsys):
        assert main(["stats", dirty_trace, "--tolerant-trace"]) == 0
        out = capsys.readouterr().out
        assert "n_requests" in out

    def test_tolerant_works_on_simulate(self, dirty_trace, capsys):
        assert main([
            "simulate", dirty_trace, "--tolerant-trace",
            "--cache-bytes", "200", "--window", "200", "--segment", "100",
        ]) == 0
        assert "BHR" in capsys.readouterr().out


class TestFaultPlanFlag:
    def test_simulate_under_fault_plan(self, trace_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "seed": 0,
            "faults": [
                {"site": "online.train_window", "kind": "crash", "at": [0]}
            ],
        }))
        metrics_path = tmp_path / "m.json"
        with pytest.warns(RuntimeWarning, match="retrain failed"):
            code = main([
                "simulate", trace_file, "--cache-fraction", "10",
                "--window", "500", "--segment", "250",
                "--fault-plan", str(plan_path),
                "--retry-backoff", "1",
                "--metrics-out", str(metrics_path),
            ])
        assert code == 0
        captured = capsys.readouterr()
        assert "fault plan" in captured.err
        assert "resilience:" in captured.err
        document = json.loads(metrics_path.read_text())
        counters = document["metrics"]["counters"]
        assert counters["online.failed_retrains"] >= 1
        assert counters["resilience.backoff_skips"] >= 1
        resilience = document["result"]["resilience"]
        assert resilience["n_backoff_skips"] >= 1

    def test_staleness_limit_flag_accepted(self, trace_file, capsys):
        assert main([
            "simulate", trace_file, "--cache-fraction", "10",
            "--window", "1000", "--segment", "500",
            "--staleness-limit", "3",
        ]) == 0
        assert "BHR" in capsys.readouterr().out


class TestHealth:
    """The SLO verdict of online LFO: ``lfo serve`` with the
    deterministic inline trainer."""

    ARGS = [
        "--cache-fraction", "10", "--window", "600", "--segment", "300",
        "--every", "400", "--trainer", "inline",
    ]

    def test_check_healthy_exit_zero(self, trace_file, capsys):
        code = main(["serve", trace_file, *self.ARGS, "--check"])
        verdict = json.loads(capsys.readouterr().out)
        assert code == 0
        assert verdict["ok"] is True
        assert verdict["slo"]["ok"] is True
        assert verdict["slo"]["windows_observed"] > 0
        assert all(
            detail["violations"] == 0
            for name, detail in verdict["slo"]["objectives"].items()
            if name.endswith(("_drift", "_halted"))
        )

    def test_inline_serve_decides_like_simulate(self, trace_file, capsys):
        """The served verdict reports exactly the hits and byte hit ratio
        of ``simulate`` over the same trace and policy arguments."""
        from repro.core import LFOOnline, OptLabelConfig
        from repro.sim import simulate
        from repro.trace import compute_stats

        assert main(["serve", trace_file, *self.ARGS, "--check"]) == 0
        served = json.loads(capsys.readouterr().out)["serve"]
        trace = read_binary_trace(trace_file)
        result = simulate(trace, LFOOnline(
            compute_stats(trace).footprint_bytes // 10, window=600,
            label_config=OptLabelConfig(segment_length=300),
        ))
        assert served["requests"] == len(trace)
        assert served["hits"] == int(result.hits.sum())
        assert served["bhr"] == result.bhr_full

    def test_check_unhealthy_exit_one(self, trace_file, tmp_path, capsys):
        # An impossible BHR floor with zero budget breaches immediately.
        slo_path = tmp_path / "slo.json"
        slo_path.write_text(json.dumps({
            "horizon": 5,
            "objectives": [{
                "name": "impossible_bhr", "kind": "window_bhr",
                "min_value": 0.999, "budget": 0.0,
            }],
        }))
        code = main([
            "serve", trace_file, *self.ARGS,
            "--check", "--slo", str(slo_path),
        ])
        verdict = json.loads(capsys.readouterr().out)
        assert code == 1
        assert verdict["ok"] is False
        assert verdict["slo"]["objectives"]["impossible_bhr"]["ok"] is False

    def test_windows_out_artifact(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "windows.json"
        code = main([
            "serve", trace_file, *self.ARGS,
            "--check", "--windows-out", str(out_path),
        ])
        assert code == 0
        dump = json.loads(out_path.read_text())
        assert dump["mode"] == "requests"
        assert dump["every_requests"] == 400
        assert dump["windows"]
        # Windows close at batch edges, once 400 requests were served;
        # every decision is timed.
        for window in dump["windows"]:
            latency = window["histograms"]["serve.decision_latency_seconds"]
            assert latency["count"] == window["counters"]["serve.requests"]
        assert dump["windows"][0]["requests"] >= 400
        assert sum(w["requests"] for w in dump["windows"]) == 2000

    def test_human_summary(self, trace_file, capsys):
        code = main(["serve", trace_file, *self.ARGS])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict    HEALTHY" in out
        for name in (
            "decision_latency_p50", "decision_latency_p99",
            "decision_latency_p999", "window_bhr", "train_to_install",
            "bhr_drift", "score_drift",
        ):
            assert f"slo {name}" in out
        assert sum(line.startswith("slo ") for line in out.splitlines()) == 7

    def test_follow_renders_window_lines(self, trace_file, capsys):
        code = main(["serve", trace_file, *self.ARGS, "--follow"])
        assert code == 0
        err = capsys.readouterr().err
        lines = [l for l in err.splitlines() if l.startswith("window ")]
        assert len(lines) >= 3  # 2000 requests, >= 400 per window
        assert "bhr" in lines[-1] and "p99" in lines[-1]
