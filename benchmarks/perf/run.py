#!/usr/bin/env python3
"""The perf ledger: every deployment shape, end to end and layer by layer.

One workload, one tier, one process (what the driver runs)::

    python3 benchmarks/perf/run.py --workload scalar_mix --seed 42 \\
        --seconds 5 --trace 0

prints a metric table and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Exit status is non-zero when an
output check fails.

Without ``--workload`` it runs all six workloads in both tiers, each in a
fresh interpreter, prints the whole ledger and writes it to
``benchmarks/perf/out/ledger.json`` (``compare.py`` reads two of those).
See ``README.md`` for what each workload and metric is.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # as early as the interpreter lets us

import argparse
import atexit
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"


def _seconds_since_process_start() -> float:
    """Age of this process by the kernel's clock (10 ms resolution)."""
    with open("/proc/self/stat") as handle:
        start_ticks = int(handle.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as handle:
        uptime = float(handle.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def _declared() -> dict:
    """``BENCHMARK.json``: the one place names, units and bounds live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default="all",
        help="one workload name, or 'all' (default) for the whole ledger",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="size of the run: repeat counts are those of REPEATS times "
        "this over run_seconds (default: run_seconds)",
    )
    parser.add_argument(
        "--trace", choices=("0", "1", "both"), default=None,
        help="0 = end-to-end tier, 1 = traced per-layer tier "
        "(default: 0 for one workload, both for 'all')",
    )
    parser.add_argument(
        "--repeats", type=int, default=0,
        help="run exactly this many timed repeats (and one stamped pass) "
        "whatever --seconds says",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every workload's request counts (smoke tests)",
    )
    parser.add_argument(
        "--trace-out", type=Path, default=None,
        help="span file of a traced run "
        "(default: benchmarks/perf/out/<workload>.spans.jsonl)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="ledger file written by 'all' "
        "(default: benchmarks/perf/out/ledger.json)",
    )
    return parser.parse_args(argv)


# -- one workload, one tier ---------------------------------------------------

#: (timed repeats, stamped passes) of a run of ``run_seconds``: about that
#: much timed work for the ``simulate`` shapes on the host this was sized
#: on.  A cluster repeat is half spawn and a serving repeat is ~13 s, so
#: they get what the driver's time limit leaves.  The counts scale with
#: ``--seconds`` and with nothing else: an estimate over a number of
#: repeats that depended on the program's speed would not compare a fast
#: and a slow program alike.
REPEATS = {"sim": (5, 3), "cluster": (4, 0), "serve": (1, 0)}

#: End-to-end metrics of ISSUE 12 that ``BENCHMARK.json`` cannot declare
#: as such — the driver wants every end-to-end metric on every workload
#: and never 0.  They are in the ledger, and ``compare.py`` gates them
#: like the declared ones.
LEDGER_ONLY = (
    {"name": "train_s_per_window", "unit": "s", "better": "lower",
     "bound": 0.10},
    {"name": "failed_share", "unit": "ratio", "better": "lower",
     "bound": 0.0},
)


def _repeat_counts(args, shape: str, run_seconds: int) -> tuple[int, int]:
    """(timed repeats, stamped passes) of this run."""
    timed, stamped = REPEATS[shape]
    if args.trace == "1":  # one untraced repeat to compare the traced one to
        return 1, min(stamped, 1)
    if args.repeats:
        return args.repeats, min(stamped, 1)
    share = 1.0 if args.seconds is None else args.seconds / run_seconds
    return (
        max(1, round(timed * share)),
        max(1, round(stamped * share)) if stamped else 0,
    )


def _output_checks(workload, inputs, repeats, digest: str):
    """Shape-specific output checks; also the policy work counters."""
    import numpy as np

    import shapes
    from workloads import hits_digest

    checks = {}
    counters = repeats[0].counters
    if workload.shape == "sim" and workload.batch_size:
        from dataclasses import replace

        scalar = shapes.run_repeat(replace(workload, batch_size=0), inputs)
        checks["batched hits equal the scalar loop's"] = (
            hits_digest(scalar.hits) == digest
        )
    elif workload.shape == "serve":
        checks["serve: nothing dropped, queue drained"] = all(
            r.dropped == 0 and r.counters["drained"] for r in repeats
        )
        checks["serve: every closed window trained a model"] = (
            counters["windows_trained"] == len(inputs.requests) // inputs.window
            and counters["windows_skipped"] == 0
            and counters["windows_failed"] == 0
        )
    elif workload.shape == "cluster":
        expected, counters = shapes.cluster_reference(workload, inputs)
        checks["cluster hits equal in-process simulate over the split"] = (
            bool(np.array_equal(expected, repeats[0].hits))
        )
        checks["shard score digests repeat"] = (
            len({tuple(r.counters["score_digests"]) for r in repeats}) == 1
        )
    return checks, counters


def _traced_tier(workload, inputs, reference, counters, span_path):
    """One traced repeat: per-layer values, checks, closure table."""
    import layers
    import shapes
    from spans import SpanTable, Tracer

    tracer = Tracer()
    layers.install(tracer, workload.shape)
    try:
        traced = shapes.run_repeat(workload, inputs, tracer)
    finally:
        tracer.unwrap_all()
    table = SpanTable(tracer)
    root_ns = int(table.duration[table.parent < 0].sum())
    checks = {
        "traced repeat returns the same hits": bool(
            (traced.hits == reference.hits).all()
        ),
        "layer self times sum to the traced wall": (
            int(table.self_time.sum()) == root_ns
        ),
    }
    if workload.shape != "cluster":
        counters = traced.counters
    values = layers.layer_metrics(workload, inputs, table, traced, counters)
    values["trace_overhead_share"] = (
        (traced.wall / traced.factor) / (reference.wall / reference.factor)
        - 1.0
    )
    tracer.write_jsonl(span_path)
    spans = {
        "file": str(span_path),
        "count": len(tracer.records),
        "traced_wall_ns": root_ns,
        "layers": table.layer_rows(),
    }
    return traced, values, checks, spans


def run_workload(args: argparse.Namespace, since_start_at_t0: float) -> int:
    """Set up, measure and check one workload in this process."""
    import numpy as np

    import host
    import layers
    import shapes
    from workloads import WORKLOADS, build_inputs, check_pins, hits_digest

    declared = _declared()
    traced_tier = args.trace == "1"
    tier = declared["per_layer" if traced_tier else "end_to_end"]
    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]
    n_timed, n_stamped = _repeat_counts(
        args, workload.shape, declared["run_seconds"]
    )

    setup_speed = host.HostSpeed()
    inputs = build_inputs(workload, args.seed, args.scale, setup_speed)
    checks: dict[str, bool | str] = {}
    if args.scale == 1.0:
        mismatches = check_pins(workload, inputs)
        checks["inputs match pins.json"] = "; ".join(mismatches) or True
    gc.collect()
    gc.freeze()

    # Timed repeats.  Every time is a whole repeat's, divided by the
    # mean host speed factor sampled through it; the reported value is
    # the median repeat's (a best-of would pick the repeat whose factor
    # happened to read high).  Raw values are kept beside them.
    repeats = [shapes.run_repeat(workload, inputs) for _ in range(n_timed)]
    setup_s = since_start_at_t0 + (repeats[0].began - _T0)
    reference = repeats[0]
    total = len(inputs.requests)
    digest = hits_digest(reference.hits)
    checks["every repeat returns the same hits"] = all(
        hits_digest(r.hits) == digest for r in repeats
    )
    rates = [r.requests * r.factor / r.wall for r in repeats]
    cpus = [r.cpu / r.factor / r.requests * 1e6 for r in repeats]

    # Per-decision service times: for ``simulate``, separate stamped
    # passes; the other shapes time their batches in every repeat.
    ran = list(repeats)
    timed_decisions = repeats
    if n_stamped:
        timed_decisions = [
            shapes.run_repeat(workload, inputs, stamped=True)
            for _ in range(n_stamped)
        ]
        ran += timed_decisions
        checks["every stamped pass returns the same hits"] = all(
            hits_digest(r.hits) == digest for r in timed_decisions
        )
    p50s = [
        float(np.median(r.decisions)) / r.decision_factor * 1e6
        for r in timed_decisions
    ]
    samples = np.concatenate(
        [r.decisions / r.decision_factor for r in timed_decisions]
    )

    shape_checks, counters = _output_checks(workload, inputs, repeats, digest)
    checks.update(shape_checks)

    median = statistics.median
    values = {
        "req_per_s": median(rates),
        "decision_p50_us": median(p50s),
        "cpu_us_per_req": median(cpus),
        "bhr": shapes.warm_bhr(inputs.trace.sizes, reference.hits),
        "peak_rss_mb": host.own_peak_rss_mb() + max(
            r.children_rss_mb for r in repeats
        ),
        # Trace generation and model fitting are numeric code.
        "setup_s": setup_s / setup_speed.factor(object_share=0.0),
    }
    per_repeat = {"req_per_s": rates, "cpu_us_per_req": cpus,
                  "decision_p50_us": p50s}
    if workload.shape == "serve":
        # Window close to model install: the ``process`` calls a model
        # was installed in (label, fit, compile, install, and that
        # batch's own decisions, < 0.1% of it).
        per_repeat["train_s_per_window"] = [
            float(np.mean([s for s, _rows, installed in r.batches if installed]))
            / r.factor
            for r in repeats
        ]
        values["train_s_per_window"] = median(per_repeat["train_s_per_window"])
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "requests": total,
        "cache_size": inputs.cache_size,
        "trace_digest": inputs.trace_digest,
        "model_digest": inputs.model_digest,
        "hits_digest": digest,
        "repeats": per_repeat | {
            f"spread_{name}": spread(seen) for name, seen in per_repeat.items()
        },
        "raw": {
            "host_speed_factor": [r.factor for r in repeats],
            "req_per_s": [r.requests / r.wall for r in repeats],
            "cpu_us_per_req": [r.cpu / r.requests * 1e6 for r in repeats],
            "setup_host_speed_factor": setup_speed.factor(object_share=0.0),
            "setup_s": setup_s,
        },
        "decision_samples": len(samples),
    }

    if traced_tier:
        traced, layer_values, traced_checks, detail["spans"] = _traced_tier(
            workload, inputs, reference, counters,
            args.trace_out or OUT / f"{workload.name}.spans.jsonl",
        )
        ran.append(traced)
        checks.update(traced_checks)
        latency = layers.latency_quantiles(samples)
        del latency["decision_p50_us"]  # the end-to-end tier's
        values.update(layer_values)
        values.update(latency)
        values.update({
            "setup.trace_s": inputs.trace_seconds,
            "setup.model_s": inputs.model_seconds,
            "setup.spawn_s": reference.spawn_seconds,
            "trace.generate_us_per_req": inputs.trace_seconds / total * 1e6,
            "host.nproc": float(os.cpu_count() or 1),
            "host.speed_factor": reference.factor,
            "host.calib_py_ns": statistics.fmean(reference.speed.arithmetic_ns),
            "host.calib_obj_ns": statistics.fmean(reference.speed.objects_ns),
            "host.calib_np_ns": host.numpy_loop_ns(),
        })
    # Handed in and not answered, or answered and then dropped.
    attempted = total * len(ran)
    failed = sum(total - len(r.hits) + r.dropped for r in ran)
    values["failed_share"] = failed / attempted
    values = {
        name: value for name, value in values.items()
        if layers.on_path(name, workload)
    }

    # The result line carries every name the tier declares, because the
    # driver's contract says so; a per-layer metric that is not on this
    # workload's path is 0 there and absent everywhere else.
    units = {m["name"]: m["unit"] for m in tier}
    missing = sorted(
        name for name in units
        if layers.on_path(name, workload) and name not in values
    )
    if missing:
        raise SystemExit(f"metrics declared but not measured: {missing}")
    units.update(
        {m["name"]: m["unit"] for m in declared["end_to_end"] + list(LEDGER_ONLY)}
    )
    correct = failed == 0 and all(ok is True for ok in checks.values())
    detail["checks"] = checks
    detail["metrics"] = values
    (OUT / f"{workload.name}.t{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )

    print(f"# {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"median of {n_timed} timed repeat(s) of {total} requests at "
          f"reference host speed; {len(samples)} decision samples")
    middle = min(repeats, key=lambda r: abs(
        r.requests * r.factor / r.wall - values["req_per_s"]
    ))
    print(f"# raw: that repeat ran {middle.requests / middle.wall:.0f} req/s "
          f"at host speed factor {middle.factor:.3f}")
    for name, value in values.items():
        print(f"{name:<36} {value:>16.6g} {units[name]}")
    for name, ok in checks.items():
        print(f"check: {name}: {'ok' if ok is True else f'FAILED {ok}'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in tier
        },
    }))
    return 0 if correct else 1


def spread(values: list[float]) -> float:
    """Quartile distance over median (range over median below 4 values)."""
    if len(values) < 4:
        return (max(values) - min(values)) / statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- the whole ledger ---------------------------------------------------------


def _run_in_fresh_interpreter(args, name: str, tier: str):
    """One (workload, tier) run; its ledger entry, or None on failure."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(args.seed), "--trace", tier,
        "--scale", str(args.scale), "--repeats", str(args.repeats),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        print(done.stdout)
        print(f"FAILED: {name} tier {tier} printed no result")
        return None
    print("\n".join(lines[:-1]), flush=True)
    return {
        "workload": name,
        "trace": int(tier),
        "exit_status": done.returncode,
        "result": json.loads(lines[-1]),
        "detail": json.loads((OUT / f"{name}.t{tier}.json").read_text()),
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in every tier, each in a fresh interpreter."""
    names = [spec["name"] for spec in _declared()["workloads"]]
    tiers = ("0", "1") if args.trace in (None, "both") else (args.trace,)
    runs = [
        _run_in_fresh_interpreter(args, name, tier)
        for name in names for tier in tiers
    ]
    ok = all(run is not None and run["exit_status"] == 0 for run in runs)
    runs = [run for run in runs if run is not None]
    print()

    def untraced(name: str, key: str):
        for run in runs:
            if run["workload"] == name and run["trace"] == 0:
                return run["detail"][key]
        return None

    derived = {}
    one = untraced("cluster1_mix", "metrics")
    two = untraced("cluster2_mix", "metrics")
    if one and two:
        scaling = two["req_per_s"] / one["req_per_s"]
        derived["cluster.scaling_2_over_1"] = scaling
        print(f"cluster.scaling_2_over_1 {scaling:.4f} (cluster2_mix "
              f"{two['req_per_s']:.0f} req/s over cluster1_mix "
              f"{one['req_per_s']:.0f})")
    checks = {}
    scalar = untraced("scalar_mix", "hits_digest")
    batched = untraced("batched_mix", "hits_digest")
    if scalar and batched:
        checks["scalar_mix and batched_mix hit digests equal"] = (
            scalar == batched
        )
    for name, passed in checks.items():
        print(f"check: {name}: {'ok' if passed else 'FAILED'}")
    out = args.out or OUT / "ledger.json"
    out.write_text(json.dumps({
        "seed": args.seed,
        "scale": args.scale,
        "runs": runs,
        "derived": derived,
        "checks": checks,
    }, indent=1) + "\n")
    print(f"ledger written to {out}")
    return 0 if ok and all(checks.values()) else 1


def main(argv: list[str] | None = None) -> int:
    since_start_at_t0 = _seconds_since_process_start()
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    args.trace = args.trace or "0"
    if args.trace == "both":
        print("--trace both needs --workload all", file=sys.stderr)
        return 2
    # The C kernel is built in a temporary directory, by this process and
    # by every shard: keep all of it inside the checkout, and clean up.
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    atexit.register(shutil.rmtree, scratch, ignore_errors=True)
    os.environ["TMPDIR"] = str(scratch)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return run_workload(args, since_start_at_t0)
    finally:
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource-tracker helper process.

    It is started behind the scenes for spawned shards and shared memory
    and would otherwise outlive this process by a moment; the benchmark
    leaves no process behind.  There is no public call for this.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
