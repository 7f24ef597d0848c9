"""Command-line interface: generate traces, inspect them, run comparisons.

Installed as the ``lfo`` console script::

    lfo generate --requests 20000 --out trace.bin
    lfo stats trace.bin
    lfo opt trace.bin --cache-mb 1 --segment 1000
    lfo compare trace.bin --cache-fraction 10 --policies LRU,GDSF,S4LRU
    lfo simulate trace.bin --cache-fraction 10 --window 5000
    lfo simulate trace.bin --window 5000 --metrics-out metrics.json
    lfo serve trace.bin --trainer inline --check
    lfo serve trace.bin --serve-metrics 9100 --follow
    lfo serve --synthetic 20000 --slo slo.json --check

``compare`` runs any subset of the paper's Figure 1 and 6 policies
(:func:`repro.sim.policy_factories`) on one trace; ``simulate`` runs
online LFO.  Results go to stdout; progress and diagnostics go to stderr,
so output stays pipeable.  ``--metrics-out PATH`` (on both) installs a
:class:`repro.obs.MetricsRegistry` for the run and writes its snapshot —
request counters, per-stage histograms, and the retraining span tree —
plus the run's result as one JSON document.
``simulate`` additionally takes the eviction-engine knobs ``--eviction
sampled --evict-sample-k K`` (minimal-overhead sampled-candidate
eviction, see docs/architecture.md "Eviction at scale") and the
resilience knobs ``--fault-plan``, ``--staleness-limit`` and
``--retry-backoff``, and every trace-reading subcommand accepts
``--tolerant-trace`` (skip-and-count malformed lines); see
docs/robustness.md for the operations runbook.  ``serve`` runs online
LFO under windowed telemetry and an SLO verdict (drift detectors included);
with ``--trainer inline`` the trainer is inline (``background=False``; a
fault plan's ``trainer.submit`` hang parks a job until
``--train-deadline`` cancels it), so the in-process loop makes exactly
the decisions ``simulate`` makes and ``--shards N`` hands each model over
at its window's edge.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import argparse

    from .core import OptLabelConfig
    from .trace import Trace

# Each command imports what it runs, inside its function: a shard that
# ``lfo serve --shards N`` spawns re-imports this module as ``__mp_main__``,
# and must load no more than a shard worker does.

__all__ = ["main", "build_parser"]


def _diag(message: str) -> None:
    """Progress/diagnostic output: stderr, so results stay pipeable."""
    print(message, file=sys.stderr)


def _load_trace(path: str, tolerant: bool = False) -> Trace:
    from .trace import read_binary_trace, read_text_trace

    if path.endswith(".bin"):
        return read_binary_trace(path)
    return read_text_trace(path, tolerant=tolerant)


def _trace_from_args(args: argparse.Namespace) -> Trace:
    """Load the positional trace, honouring ``--tolerant-trace``."""
    return _load_trace(args.trace, tolerant=getattr(args, "tolerant_trace", False))


def _fault_plan_scope(args: argparse.Namespace):
    """A ``use_fault_plan`` context for ``--fault-plan PATH`` (else a no-op)."""
    from .resilience import FaultPlan, use_fault_plan

    path = getattr(args, "fault_plan", None)
    if not path:
        return nullcontext(None)
    plan = FaultPlan.from_json(path)
    _diag(
        f"fault plan {path}: {len(plan.faults)} spec(s), seed {plan.seed}"
    )
    return use_fault_plan(plan)


def _make_registry(args: argparse.Namespace):
    """A fresh metrics registry when ``--metrics-out`` asks for one,
    otherwise whatever is already installed (``NullRegistry`` by default)."""
    from .obs import MetricsRegistry, get_registry

    if getattr(args, "metrics_out", None):
        return MetricsRegistry()
    return get_registry()


def _write_metrics(path: str, registry, result) -> None:
    """Dump the run's registry snapshot plus the result as one JSON doc."""
    import json

    document = {"metrics": registry.to_dict(), "result": result}
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    _diag(f"metrics written to {path}")


def _resolve_cache(args: argparse.Namespace, trace: Trace) -> int:
    if getattr(args, "cache_bytes", None):
        return int(args.cache_bytes)
    if getattr(args, "cache_mb", None):
        return int(args.cache_mb * 1_000_000)
    from .trace import compute_stats

    stats = compute_stats(trace)
    return max(1, stats.footprint_bytes // args.cache_fraction)


def _cmd_generate(args: argparse.Namespace) -> int:
    from .trace import (
        SyntheticConfig,
        generate_trace,
        write_binary_trace,
        write_text_trace,
    )

    config = SyntheticConfig(
        n_requests=args.requests,
        n_objects=args.objects,
        alpha=args.alpha,
        size_median=args.size_median,
        size_sigma=args.size_sigma,
        size_max=args.size_max,
        locality=args.locality,
        seed=args.seed,
    )
    trace = generate_trace(config)
    if args.out.endswith(".bin"):
        write_binary_trace(trace, args.out)
    else:
        write_text_trace(trace, args.out)
    print(f"wrote {len(trace)} requests to {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .trace import compute_stats

    trace = _trace_from_args(args)
    stats = compute_stats(trace)
    for key, value in stats.as_dict().items():
        if isinstance(value, float):
            print(f"{key:<28} {value:.4f}")
        else:
            print(f"{key:<28} {value}")
    return 0


def _cmd_opt(args: argparse.Namespace) -> int:
    from .opt import opt_bhr_bounds, solve_segmented

    trace = _trace_from_args(args)
    cache_size = _resolve_cache(args, trace)
    _diag(f"solving {len(trace)} requests, cache {cache_size} bytes")
    result = solve_segmented(trace, cache_size, args.segment)
    total_bytes = float(trace.sizes.sum())
    print(f"cache size        {cache_size}")
    print(f"segments solved   {result.n_segments}")
    print(f"OPT admits        {result.decisions.mean():.2%} of requests")
    print(f"OPT miss cost     {result.miss_cost:.0f}")
    if (trace.costs == trace.sizes).all():
        lo, hi = opt_bhr_bounds(trace, cache_size, args.segment)
        print(f"OPT BHR bounds    [{lo:.4f}, {hi:.4f}]")
        print(f"implied BHR       {1 - result.miss_cost / total_bytes:.4f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .obs import use_registry
    from .sim import compare_policies, format_table, policy_factories

    subset = args.policies.split(",") if args.policies else None
    try:
        factories = policy_factories(subset)
    except KeyError as exc:  # unknown --policies name
        _diag(exc.args[0])
        return 2
    trace = _trace_from_args(args)
    cache_size = _resolve_cache(args, trace)
    _diag(
        f"comparing {len(factories)} policies over "
        f"{len(trace)} requests, cache {cache_size} bytes"
    )
    registry = _make_registry(args)
    with use_registry(registry):
        results = compare_policies(
            trace, cache_size, factories=factories,
            warmup_fraction=args.warmup,
        )
    print(format_table(results, sort_by=args.sort_by))
    if args.metrics_out:
        # Per-policy snapshots are cumulative views of the same registry;
        # the top-level "metrics" key already carries the final one.
        rows = {}
        for name, result in results.items():
            rows[name] = {**result.to_dict(), "metrics": None}
        _write_metrics(args.metrics_out, registry, rows)
    return 0


def _label_config(args: argparse.Namespace) -> OptLabelConfig:
    from .core import OptLabelConfig

    return OptLabelConfig(mode=args.label_mode, segment_length=args.segment)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .core import LFOOnline, SampledEvictionConfig
    from .obs import use_registry
    from .sim import simulate

    registry = _make_registry(args)
    # Trace loading happens inside both scopes so a --fault-plan with
    # trace.read_line faults corrupts lines and --tolerant-trace skips land
    # on the run's registry.
    with use_registry(registry), _fault_plan_scope(args):
        trace = _trace_from_args(args)
        cache_size = _resolve_cache(args, trace)
        _diag(
            f"simulating online LFO over {len(trace)} requests, "
            f"cache {cache_size} bytes, window {args.window}"
        )
        lfo = LFOOnline(
            cache_size,
            window=args.window,
            cutoff=args.cutoff,
            label_config=_label_config(args),
            eviction=args.eviction,
            sampled=SampledEvictionConfig(
                k=args.evict_sample_k, seed=args.evict_sample_seed
            ),
            staleness_limit=args.staleness_limit,
            retry_backoff=args.retry_backoff,
        )
        result = simulate(trace, lfo, warmup_fraction=args.warmup)
    print(f"policy     {result.policy}")
    print(f"requests   {result.n_requests}")
    print(f"retrains   {lfo.n_retrains}")
    print(f"BHR        {result.bhr:.4f}")
    print(f"OHR        {result.ohr:.4f}")
    if result.resilience:
        engaged = {k: v for k, v in result.resilience.items() if v}
        if engaged:
            _diag(f"resilience: {engaged}")
    if args.metrics_out:
        _write_metrics(args.metrics_out, registry, result.to_dict())
    return 0


@contextmanager
def _telemetry(args: argparse.Namespace, spec):
    """The observability stack ``serve`` runs under.

    A windowed registry over ``serve.requests`` with the SLO engine
    attached, the ``--follow`` renderer, the ``--jsonl`` sink and the
    ``--serve-metrics`` endpoint; installed (with any ``--fault-plan``)
    for the body, the endpoint stopped on the way out.  Yields
    ``(registry, engine)``.
    """
    from .obs import (
        JsonlSink,
        MetricsServer,
        SloEngine,
        WindowedRegistry,
        use_registry,
    )

    registry = WindowedRegistry(
        every_requests=args.every, ring=args.ring,
        request_counter="serve.requests",
    )
    engine = SloEngine(spec).attach(registry)
    if args.follow:
        registry.on_close(_render_window)
    if args.jsonl:
        JsonlSink(args.jsonl).attach(registry)
        _diag(f"streaming closed windows to {args.jsonl}")
    server = None
    if args.serve_metrics is not None:
        server = MetricsServer(
            registry, port=args.serve_metrics, slo=engine
        ).start()
        _diag(
            "serving /metrics /health /windows on "
            f"http://127.0.0.1:{server.port}"
        )
    try:
        with use_registry(registry), _fault_plan_scope(args):
            yield registry, engine
    finally:
        if server is not None:
            server.stop()


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .core import LabelFitJob, LFOOnline, WindowTrainer
    from .obs import SloSpec
    from .serve import (
        ServeConfig,
        ServingLoop,
        SyntheticArrivalDriver,
        TraceReplayDriver,
    )
    from .trace import SyntheticConfig, generate_trace

    if args.slo:
        try:
            spec = SloSpec.from_json(args.slo)
        except (OSError, ValueError, KeyError) as exc:
            _diag(f"invalid SLO spec {args.slo}: {exc}")
            return 2
    else:
        spec = SloSpec.default()
    interrupted = False
    with _telemetry(args, spec) as (registry, engine):
        if args.synthetic:
            trace = generate_trace(
                SyntheticConfig(n_requests=args.synthetic, seed=args.seed)
            )
            _diag(f"serving a synthetic trace of {len(trace)} requests")
        elif args.trace:
            trace = _trace_from_args(args)
        else:
            _diag("serve needs a trace path or --synthetic N")
            return 2
        cache_size = _resolve_cache(args, trace)
        if args.shards < 1:
            _diag("--shards must be at least 1")
            return 2
        if args.shards > 1 and args.staleness_limit is not None:
            # The router's trainer would turn degraded on, but no shard
            # reads it: admission would never fall back to LRU.
            _diag("--staleness-limit needs --shards 1: the sharded router "
                  "has no staleness fallback")
            return 2
        _diag(
            f"serving {len(trace)} requests, cache {cache_size} bytes, "
            f"training window {args.window}, queue {args.queue_depth}, "
            f"batch {args.max_batch}"
            + (f", {args.shards} shard processes"
               if args.shards > 1 else "")
        )
        supervision = dict(
            background=args.trainer == "thread",
            train_deadline=args.train_deadline,
            staleness_limit=args.staleness_limit,
            retry_backoff=args.retry_backoff,
        )
        cluster = None
        policy = None
        scorer = None
        if args.shards > 1:
            from .cluster import CacheCluster, ClusterScorer

            cluster = CacheCluster(cache_size, args.shards, seed=args.seed).start()
            # Nothing serves in the router, so there is no policy: a bare
            # trainer labels against one shard's capacity — the cache
            # each OPT decision actually lands in — and a trained model
            # installs by being published to the cluster (each shard's
            # next batch carries it), not by a local swap.
            trainer = WindowTrainer(
                args.window,
                LabelFitJob(
                    cluster.shard_size,
                    label_config=_label_config(args),
                    cutoff=args.cutoff,
                ),
                install=cluster.publish,
                **supervision,
            )
            scorer = ClusterScorer(trainer, cluster)
        else:
            policy = LFOOnline(
                cache_size,
                window=args.window,
                cutoff=args.cutoff,
                label_config=_label_config(args),
                **supervision,
            )
            trainer = policy.trainer
        requests = list(trace)
        if args.arrival_rate > 0:
            driver = SyntheticArrivalDriver(
                requests, rate=args.arrival_rate, seed=args.seed
            )
        else:
            driver = TraceReplayDriver(requests)
        loop = ServingLoop(
            policy, driver,
            ServeConfig(
                queue_depth=args.queue_depth, max_batch=args.max_batch
            ),
            scorer=scorer,
        )
        try:
            report = asyncio.run(loop.run())
        except KeyboardInterrupt:
            interrupted = True
            report = loop.report
            _diag(
                "interrupted: queue drained through the scorer, "
                "telemetry flushed"
            )
        finally:
            trainer.close()
            if cluster is not None:
                # Drain-then-flush: stop the shards and fold their last
                # replies' telemetry (also the SIGINT path).
                cluster.close()
    verdict = {
        "ok": engine.ok and report.dropped == 0,
        "interrupted": interrupted,
        "slo": engine.verdict(),
        "serve": report.as_dict(),
    }
    if args.windows_out:
        with open(args.windows_out, "w") as handle:
            json.dump(registry.to_windows_dict(), handle, indent=2)
            handle.write("\n")
        _diag(f"window ring written to {args.windows_out}")
    code = 0 if verdict["ok"] else 1
    if args.check:
        print(json.dumps(verdict, indent=2))
        return code
    bhr = report.bhr
    print(f"verdict    {'HEALTHY' if verdict['ok'] else 'UNHEALTHY'}")
    print(f"requests   {report.requests}"
          f"{' (interrupted, drained)' if interrupted else ''}")
    print(f"BHR        {'  --  ' if bhr is None else format(bhr, '.4f')}")
    print(f"handoffs   {report.model_handoffs}")
    print(f"dropped    {report.dropped}")
    print(f"waits      {report.backpressure_waits} (backpressure)")
    for name, objective in engine.verdict()["objectives"].items():
        state = "ok" if objective["ok"] else "BREACHED"
        print(
            f"slo {name:<24} {state:<9} "
            f"burn {objective['burn_rate']:.2f} "
            f"last {objective['last_value']:.6g}"
        )
    return code


def _render_window(snapshot) -> None:
    """One ``--follow`` line per closed serving window (stderr)."""
    bhr = snapshot.bhr
    p99 = snapshot.quantile("serve.decision_latency_seconds", 0.99)
    _diag(
        f"window {snapshot.index:>4}  requests {snapshot.requests:>7}  "
        f"bhr {'  --  ' if bhr is None else format(bhr, '.4f')}  "
        f"p99 {p99 * 1e6:9.1f}us  "
        f"queue {int(snapshot.gauges.get('serve.queue_depth', 0)):>5}  "
        f"handoffs {int(snapshot.delta('serve.model_handoffs')):>3}"
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``lfo`` argument parser."""
    import argparse

    from .core import OptLabelConfig

    parser = argparse.ArgumentParser(
        prog="lfo",
        description="LFO: Learning From OPT for CDN caching (HotNets'18).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic trace")
    p_gen.add_argument("--requests", type=int, default=20_000)
    p_gen.add_argument("--objects", type=int, default=4_000)
    p_gen.add_argument("--alpha", type=float, default=0.9)
    p_gen.add_argument("--size-median", type=float, default=50.0)
    p_gen.add_argument("--size-sigma", type=float, default=1.3)
    p_gen.add_argument("--size-max", type=int, default=1_000_000)
    p_gen.add_argument("--locality", type=float, default=0.2)
    p_gen.add_argument("--seed", type=int, default=42)
    p_gen.add_argument("--out", required=True,
                       help="output path (.bin = binary, else text)")
    p_gen.set_defaults(func=_cmd_generate)

    def add_trace_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("trace", help="trace path (.bin or text)")
        p.add_argument("--tolerant-trace", action="store_true",
                       help="skip-and-count malformed text-trace lines "
                            "(resilience.trace_lines_skipped) instead of "
                            "aborting on the first one")

    def add_cache_size_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-fraction", type=int, default=10,
                       help="cache = footprint / fraction (default 10)")
        p.add_argument("--cache-mb", type=float,
                       help="cache size in MB (overrides fraction)")
        p.add_argument("--cache-bytes", type=int,
                       help="cache size in bytes (overrides everything)")

    def add_cache_args(p: argparse.ArgumentParser) -> None:
        add_trace_arg(p)
        add_cache_size_args(p)

    def add_training_args(
        p: argparse.ArgumentParser, window_help: str | None
    ) -> None:
        p.add_argument("--window", type=int, default=5_000, help=window_help)
        p.add_argument("--cutoff", type=float, default=0.5)
        p.add_argument("--segment", type=int, default=1_000)
        p.add_argument("--label-mode", default=OptLabelConfig.mode,
                       choices=("exact", "segmented", "pruned", "greedy"))

    def add_fault_args(
        p: argparse.ArgumentParser,
        plan_help: str = "JSON fault plan installed for the run",
    ) -> None:
        p.add_argument("--fault-plan", metavar="PATH", default=None,
                       help=plan_help)
        p.add_argument("--staleness-limit", type=int, default=None,
                       help="degrade admission to the LRU fallback after "
                            "this many windows without a fresh model")
        p.add_argument("--retry-backoff", type=int, default=0,
                       help="windows to skip after a training failure "
                            "(doubles per consecutive failure)")

    def add_metrics_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="collect repro.obs metrics during the run and "
                            "write them (plus the result) as JSON to PATH")

    p_stats = sub.add_parser("stats", help="print trace statistics")
    add_trace_arg(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    p_opt = sub.add_parser("opt", help="compute OPT decisions and bounds")
    add_cache_args(p_opt)
    p_opt.add_argument("--segment", type=int, default=1_000)
    p_opt.set_defaults(func=_cmd_opt)

    p_cmp = sub.add_parser("compare", help="compare caching policies")
    add_cache_args(p_cmp)
    p_cmp.add_argument("--policies", default=None,
                       help="comma-separated subset, e.g. LRU,GDSF,S4LRU")
    p_cmp.add_argument("--warmup", type=float, default=0.25)
    p_cmp.add_argument("--sort-by", choices=("bhr", "ohr"), default="bhr")
    add_metrics_out(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_sim = sub.add_parser("simulate", help="run online LFO over a trace")
    add_cache_args(p_sim)
    add_training_args(p_sim, window_help=None)
    p_sim.add_argument("--warmup", type=float, default=0.25)
    p_sim.add_argument("--eviction", default="likelihood",
                       choices=("likelihood", "lru", "sampled"),
                       help="eviction rule: likelihood (paper), lru "
                            "(admission-only LFO), or sampled (score only "
                            "K random candidates per eviction — the "
                            "minimal-overhead engine for large caches)")
    p_sim.add_argument("--evict-sample-k", type=int, default=64,
                       help="candidates sampled per eviction plan when "
                            "--eviction sampled (default 64)")
    p_sim.add_argument("--evict-sample-seed", type=int, default=0,
                       help="seed for the eviction candidate sampler")
    add_fault_args(
        p_sim,
        plan_help="JSON fault plan (repro.resilience.FaultPlan) "
                  "installed for the run — deterministic fault "
                  "injection drills, see docs/robustness.md",
    )
    add_metrics_out(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_serve = sub.add_parser(
        "serve",
        help="run the always-on serving loop: bounded queue, batched "
             "scoring, background retraining with warm handoff, live SLOs",
    )
    p_serve.add_argument("trace", nargs="?", default=None,
                         help="trace path (.bin or text); omit with "
                              "--synthetic")
    p_serve.add_argument("--tolerant-trace", action="store_true",
                         help="skip-and-count malformed text-trace lines "
                              "instead of aborting on the first one")
    p_serve.add_argument("--synthetic", type=int, metavar="N", default=None,
                         help="serve a generated synthetic trace of N "
                              "requests instead of a trace file")
    p_serve.add_argument("--seed", type=int, default=42,
                         help="seed for --synthetic generation and the "
                              "--arrival-rate process")
    add_cache_size_args(p_serve)
    add_training_args(p_serve, window_help="training window (requests)")
    p_serve.add_argument("--every", type=int, default=2_000,
                         help="telemetry window (requests per snapshot)")
    p_serve.add_argument("--ring", type=int, default=120,
                         help="telemetry windows retained in the ring")
    p_serve.add_argument("--slo", metavar="PATH", default=None,
                         help="SLO spec JSON (SloSpec.as_dict shape); "
                              "default: serving objectives (p50/p99/p999 "
                              "decision latency, BHR, staleness, drift)")
    p_serve.add_argument("--check", action="store_true",
                         help="print the verdict JSON and exit 1 when any "
                              "SLO is breached or any request was dropped")
    p_serve.add_argument("--follow", action="store_true",
                         help="render each telemetry window live to stderr")
    p_serve.add_argument("--serve-metrics", type=int, metavar="PORT",
                         default=None,
                         help="serve /metrics, /health and /windows over "
                              "HTTP on PORT for the duration of the run "
                              "(0 = ephemeral port, printed to stderr)")
    p_serve.add_argument("--windows-out", metavar="PATH", default=None,
                         help="write the final window-ring dump as JSON")
    p_serve.add_argument("--queue-depth", type=int, default=1024,
                         help="ingestion queue bound: a full queue waits "
                              "the driver (backpressure), never drops")
    p_serve.add_argument("--max-batch", type=int, default=256,
                         help="max requests scored per speculative batch")
    p_serve.add_argument("--arrival-rate", type=float, default=0.0,
                         help="requests/second for the Poisson arrival "
                              "driver (0 = replay at queue speed)")
    p_serve.add_argument("--shards", type=int, default=1,
                         help="shard worker processes: >1 routes batches "
                              "across a seeded hash split with the "
                              "trainer's models riding each shard's next "
                              "batch (default 1 = in-process)")
    p_serve.add_argument("--trainer", choices=("thread", "inline"),
                         default="thread",
                         help="background trainer: a worker thread "
                              "(production shape) or the deterministic "
                              "inline harness used for fault drills")
    p_serve.add_argument("--train-deadline", type=int, default=None,
                         help="watchdog: cancel a training job still in "
                              "flight after this many requests")
    add_fault_args(p_serve)
    p_serve.add_argument("--jsonl", metavar="PATH", default=None,
                         help="append each closed telemetry window to PATH "
                              "as one JSON line")
    p_serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
