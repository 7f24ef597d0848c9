"""Tests for the ``lfo serve`` command-line surface.

Exit-code contract: 0 = run completed and the verdict is healthy,
1 = verdict breached (an SLO objective — drift detectors included — or a
dropped request),
2 = unusable invocation (bad SLO spec, no trace source).
"""

import json
import re
import urllib.error
import urllib.request

import pytest

from repro.cli import build_parser, main


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


def serve_args(trace_file, *extra):
    """Fast deterministic serve invocation: inline trainer, small windows."""
    return [
        "serve", trace_file, "--cache-fraction", "10",
        "--window", "800", "--segment", "400", "--every", "600",
        "--trainer", "inline", *extra,
    ]


class TestParser:
    def test_plumbing(self):
        args = build_parser().parse_args([
            "serve", "t.bin", "--queue-depth", "8", "--max-batch", "4",
            "--arrival-rate", "500", "--trainer", "inline",
            "--train-deadline", "900", "--staleness-limit", "3",
            "--slo", "spec.json", "--fault-plan", "plan.json",
            "--jsonl", "w.jsonl", "--check", "--follow",
        ])
        assert args.trace == "t.bin"
        assert args.queue_depth == 8
        assert args.max_batch == 4
        assert args.arrival_rate == 500.0
        assert args.trainer == "inline"
        assert args.train_deadline == 900
        assert args.staleness_limit == 3
        assert args.slo == "spec.json"
        assert args.fault_plan == "plan.json"
        assert args.jsonl == "w.jsonl"
        assert args.check and args.follow

    def test_defaults_are_production_shape(self):
        args = build_parser().parse_args(["serve", "t.bin"])
        assert args.trainer == "thread"
        assert args.queue_depth == 1024
        assert args.max_batch == 256
        assert args.arrival_rate == 0.0
        assert args.slo is None

    def test_rejects_bad_trainer(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "t.bin", "--trainer", "gpu"])


class TestBadInvocation:
    def test_no_trace_source_exits_2(self, capsys):
        assert main(["serve"]) == 2
        assert "trace path or --synthetic" in capsys.readouterr().err

    def test_missing_slo_file_exits_2(self, trace_file, tmp_path, capsys):
        code = main(serve_args(
            trace_file, "--slo", str(tmp_path / "absent.json")
        ))
        assert code == 2
        assert "invalid SLO spec" in capsys.readouterr().err

    def test_empty_slo_spec_exits_2(self, trace_file, tmp_path, capsys):
        spec = tmp_path / "empty.json"
        spec.write_text(json.dumps({"objectives": []}))
        assert main(serve_args(trace_file, "--slo", str(spec))) == 2
        assert "no objectives" in capsys.readouterr().err


class TestCleanRun:
    def test_check_verdict_json(self, trace_file, capsys):
        assert main(serve_args(trace_file, "--check")) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is True
        assert verdict["interrupted"] is False
        assert verdict["serve"]["requests"] == 2000
        assert verdict["serve"]["dropped"] == 0
        assert verdict["serve"]["drained"] is True
        assert "health" not in verdict
        assert "decision_latency_p999" in verdict["slo"]["objectives"]

    def test_human_summary(self, trace_file, capsys):
        assert main(serve_args(trace_file)) == 0
        out = capsys.readouterr().out
        assert "verdict    HEALTHY" in out
        assert "dropped    0" in out
        assert "slo decision_latency_p999" in out

    def test_synthetic_driver_and_outputs(self, tmp_path, capsys):
        jsonl = tmp_path / "w.jsonl"
        ring = tmp_path / "ring.json"
        code = main([
            "serve", "--synthetic", "2000", "--seed", "9",
            "--cache-fraction", "10", "--window", "800",
            "--segment", "400", "--every", "600", "--trainer", "inline",
            "--jsonl", str(jsonl), "--windows-out", str(ring),
        ])
        assert code == 0
        lines = [json.loads(l) for l in jsonl.read_text().splitlines() if l]
        dump = json.loads(ring.read_text())
        assert len(lines) == len(dump["windows"])
        assert sum(l["requests"] for l in lines) == 2000

    def test_follow_renders_window_lines(self, trace_file, capsys):
        assert main(serve_args(trace_file, "--follow")) == 0
        err = capsys.readouterr().err
        assert re.search(r"window\s+\d+\s+requests\s+\d+", err)

    def test_metrics_server_stopped_after_run(self, trace_file, capsys):
        assert main(serve_args(trace_file, "--serve-metrics", "0")) == 0
        err = capsys.readouterr().err
        match = re.search(r"http://127\.0\.0\.1:(\d+)", err)
        assert match, err
        with pytest.raises((urllib.error.URLError, OSError)):
            urllib.request.urlopen(
                f"http://127.0.0.1:{match.group(1)}/health", timeout=1
            )


class TestSloGate:
    def test_impossible_latency_slo_exits_1(self, trace_file, tmp_path, capsys):
        spec = tmp_path / "impossible.json"
        spec.write_text(json.dumps({
            "horizon": 10,
            "objectives": [{
                "name": "impossible_latency",
                "kind": "latency_quantile",
                "metric": "serve.decision_latency_seconds",
                "quantile": 0.5,
                "max_value": 1e-12,
                "budget": 0.0,
                "min_count": 1,
            }],
        }))
        code = main(serve_args(trace_file, "--slo", str(spec), "--check"))
        assert code == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is False
        objective = verdict["slo"]["objectives"]["impossible_latency"]
        assert objective["ok"] is False
        # The breach is an SLO verdict, never lost requests.
        assert verdict["serve"]["dropped"] == 0


class TestFaultComposition:
    def test_hung_trainer_with_watchdog(self, trace_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "seed": 0,
            "faults": [
                {"site": "trainer.submit", "kind": "hang", "at": [1]}
            ],
        }))
        code = main(serve_args(
            trace_file, "--fault-plan", str(plan_path),
            "--train-deadline", "600", "--check",
        ))
        verdict = json.loads(capsys.readouterr().out)
        # Degradation is graceful: every request answered, nothing lost.
        assert verdict["serve"]["requests"] == 2000
        assert verdict["serve"]["dropped"] == 0
        assert verdict["serve"]["drained"] is True
        assert code == (0 if verdict["ok"] else 1)
