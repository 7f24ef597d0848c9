"""Which callables are traced, and the per-layer metrics read off the spans.

Layer names are module names (``features``, ``gbdt``, ``opt``, ``core``,
``online``, ``sim``, ``serve``, ``obs``, ``cluster``).  A metric exists
only on the workloads whose path its layer is on (:func:`on_path`): a
scalar loop has no speculation windows to count, and what a shard
process calls cannot be wrapped from the router.  ``README.md`` says, for
each metric, which end-to-end number it should move and on which
workload.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import CacheCluster, HashRing
from repro.core import LFOCache, LFOOnline, OptLabelConfig
from repro.features import FeatureTracker
from repro.gbdt import CompiledPredictor, GBDTClassifier
from repro.obs import WindowedRegistry
from repro.serve import BatchScorer, ServingLoop

from shapes import Repeat
from spans import SpanTable, Tracer
from workloads import Inputs, Workload

__all__ = ["install", "on_path", "layer_metrics", "latency_quantiles"]

#: The span speculation windows open directly in, per shape.
_LOOP_SPAN = {"sim": "sim.simulate", "serve": "serve.process", "cluster": ""}
_ROOT_SPAN = {
    "sim": "sim.simulate", "serve": "serve.run", "cluster": "cluster.run",
}


def _in_process(w: Workload) -> bool:
    return w.shape != "cluster"


def _speculates(w: Workload) -> bool:
    return w.shape == "serve" or w.batch_size > 0


def _serve(w: Workload) -> bool:
    return w.shape == "serve"


def _cluster(w: Workload) -> bool:
    return w.shape == "cluster"


#: Which workloads have a per-layer metric on their path, by name prefix:
#: the first match decides, and a name that matches none is on every
#: workload's.
_ON_PATH = (
    ("features.tracked_objects", lambda w: True),
    ("features.batch_", _speculates),
    ("gbdt.predict_batch_", _speculates),
    ("sim.spec_", _speculates),
    ("sim.unattributed_", lambda w: w.shape == "sim"),
    ("gbdt.rows_scored_per_eviction", lambda w: w.eviction == "sampled"),
    ("features.", _in_process),
    ("gbdt.predict_single_", _in_process),
    ("gbdt.rows_scored_per_req", _in_process),
    ("core.apply_", _in_process),
    ("gbdt.fit_", _serve),
    ("gbdt.compile_", _serve),
    ("opt.", _serve),
    ("online.", _serve),
    ("serve.", _serve),
    ("obs.", _serve),
    ("cluster.", _cluster),
    ("setup.spawn_s", _cluster),
    ("setup.model_s", lambda w: w.shape != "serve"),
)


def on_path(name: str, workload: Workload) -> bool:
    """Whether per-layer metric ``name`` exists on ``workload``."""
    for prefix, applies in _ON_PATH:
        if name.startswith(prefix):
            return applies(workload)
    return True


def _rows(_result, args) -> int:
    return len(args[1])


def install(tracer: Tracer, shape: str) -> None:
    """Wrap the public callables on ``shape``'s request and training path."""
    tracer.wrap(FeatureTracker, "features", "features.scalar")
    tracer.wrap(FeatureTracker, "features_batch", "features.batch", aux=_rows)
    tracer.wrap(FeatureTracker, "update", "features.update")
    tracer.wrap(
        CompiledPredictor, "predict_proba_single", "gbdt.predict_single"
    )
    tracer.wrap(
        CompiledPredictor, "predict_proba", "gbdt.predict_batch", aux=_rows
    )
    tracer.wrap(
        LFOCache, "apply_scored", "core.apply",
        aux=lambda hit, _args: int(hit),
    )
    if shape == "serve":
        tracer.wrap(ServingLoop, "run", "serve.run")
        tracer.wrap(BatchScorer, "process", "serve.process", new_batch=True)
        tracer.wrap(LFOOnline, "poll_training", "online.poll")
        # aux = 1 when this call closed a training window (the buffer is
        # empty again), i.e. the span holds label + fit + install.
        tracer.wrap(
            LFOOnline, "record_for_training", "online.record",
            aux=lambda _r, args: int(
                args[0].window_remaining == args[0].window
            ),
        )
        tracer.wrap(
            OptLabelConfig, "compute", "opt.label",
            aux=lambda labels, _args: int(labels.sum()),
        )
        tracer.wrap(GBDTClassifier, "fit", "gbdt.fit")
        # ``GBDTClassifier.compiled`` is also the per-prediction accessor;
        # the flattening it caches is this classmethod, once per model.
        tracer.wrap(CompiledPredictor, "from_ensemble", "gbdt.compile")
        tracer.wrap(WindowedRegistry, "maybe_roll", "obs.maybe_roll")
    elif shape == "cluster":
        tracer.wrap(CacheCluster, "process", "cluster.process", new_batch=True)
        tracer.wrap(HashRing, "partition", "cluster.partition")


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def latency_quantiles(samples: np.ndarray) -> dict[str, float]:
    """p50/p99/p999/max of per-decision service times (s), in microseconds."""
    p50, p99, p999 = np.quantile(samples, [0.5, 0.99, 0.999])
    return {
        "decision_p50_us": float(p50) * 1e6,
        "decision_p99_us": float(p99) * 1e6,
        "decision_p999_us": float(p999) * 1e6,
        "decision_max_us": float(samples.max()) * 1e6,
    }


def _cluster_metrics(table: SpanTable, traced: Repeat, n: int) -> dict:
    counters = traced.counters
    first, last = counters["shard_stats_start"], counters["shard_stats"]
    busy = sum(b["busy_seconds"] - a["busy_seconds"] for a, b in zip(first, last))
    cpu = sum(b["cpu_seconds"] - a["cpu_seconds"] for a, b in zip(first, last))
    served = [b["requests"] - a["requests"] for a, b in zip(first, last)]
    critical = 0.0
    previous = first
    for sample in counters["shard_samples"]:
        critical += max(
            b["busy_seconds"] - a["busy_seconds"]
            for a, b in zip(previous, sample)
        )
        previous = sample
    process_ns = table.total("cluster.process")
    partition_ns = table.total("cluster.partition")
    return {
        "cluster.partition_ns_per_req": _per(partition_ns, n),
        "cluster.shard_busy_ns_per_req": _per(busy * 1e9, n),
        "cluster.shard_cpu_ns_per_req": _per(cpu * 1e9, n),
        "cluster.critical_shard_ns_per_req": _per(critical * 1e9, n),
        "cluster.shard_imbalance": _per(max(served) * len(served), sum(served)),
        "cluster.ipc_wait_ns_per_req": _per(
            process_ns - partition_ns - critical * 1e9, n
        ),
        "cluster.batch_p50_ms": float(
            np.median([batch[0] for batch in traced.batches])
        ) * 1e3,
        "cluster.publish_ms": counters["publish_seconds"] * 1e3,
        "cluster.attaches": float(sum(s["attaches"] for s in last)),
    }


def layer_metrics(
    workload: Workload,
    inputs: Inputs,
    table: SpanTable,
    traced: Repeat,
    counters: dict,
) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced repeat that are
    on ``workload``'s path.

    ``counters`` are the policy work counts (the traced repeat's own, or
    the in-process reference's for a cluster, whose shard policies live
    in other processes).
    """
    n = traced.requests
    total = len(inputs.requests)
    loop = _LOOP_SPAN[workload.shape]
    root = _ROOT_SPAN[workload.shape]
    root_ns = table.total(root)

    scalar_calls = table.calls("features.scalar")
    batch_rows = table.aux_total("features.batch")
    single_calls = table.calls("gbdt.predict_single")
    predict_rows = table.aux_total("gbdt.predict_batch")
    apply = table.mask("core.apply")
    apply_hit = apply & (table.aux == 1)
    apply_miss = apply & (table.aux == 0)
    misses = total - int(traced.hits.sum())
    speculated_rows = table.aux_total("features.batch", under=loop)
    windows = table.calls("opt.label")
    record = table.mask("online.record")
    train_ns = float(table.duration[record & (table.aux == 1)].sum())
    trained = int((record & (table.aux == 1)).sum())

    metrics = {
        "features.scalar_ns_per_call": _per(
            table.self_total("features.scalar"), scalar_calls
        ),
        "features.calls_per_req": _per(scalar_calls, n),
        "features.batch_ns_per_row": _per(
            table.self_total("features.batch"), batch_rows
        ),
        "features.batch_rows_per_req": _per(batch_rows, n),
        "features.update_ns_per_call": _per(
            table.self_total("features.update"), table.calls("features.update")
        ),
        "features.tracked_objects": float(counters["tracked_objects"]),
        "gbdt.predict_single_ns_per_call": _per(
            table.self_total("gbdt.predict_single"), single_calls
        ),
        "gbdt.predict_batch_ns_per_row": _per(
            table.self_total("gbdt.predict_batch"), predict_rows
        ),
        "gbdt.rows_scored_per_req": _per(single_calls + predict_rows, n),
        "gbdt.rows_scored_per_eviction": _per(
            table.calls("gbdt.predict_single", under="core.apply")
            + table.aux_total("gbdt.predict_batch", under="core.apply"),
            counters["evictions"],
        ),
        "gbdt.fit_s_per_window": _per(
            table.total("gbdt.fit"), table.calls("gbdt.fit")
        ) / 1e9,
        "gbdt.compile_ms_per_model": _per(
            table.total("gbdt.compile"), table.calls("gbdt.compile")
        ) / 1e6,
        "opt.label_s_per_window": _per(table.total("opt.label"), windows) / 1e9,
        "opt.label_us_per_req": _per(
            table.total("opt.label"), windows * inputs.window
        ) / 1e3,
        "opt.positive_label_share": _per(
            table.aux_total("opt.label"), windows * inputs.window
        ),
        "core.apply_hit_ns_per_call": _per(
            float(table.self_time[apply_hit].sum()), int(apply_hit.sum())
        ),
        "core.apply_miss_ns_per_call": _per(
            float(table.self_time[apply_miss].sum()), int(apply_miss.sum())
        ),
        "core.evictions_per_req": _per(counters["evictions"], total),
        "core.admit_share": _per(counters["admits"], misses),
        "online.poll_ns_per_req": _per(table.self_total("online.poll"), n),
        "online.record_ns_per_req": _per(table.self_total("online.record"), n),
        "online.train_share_of_wall": _per(train_ns, root_ns),
        "online.train_s_per_window": _per(train_ns, trained) / 1e9,
        "online.windows_trained": float(counters.get("windows_trained", 0)),
        "online.windows_skipped": float(counters.get("windows_skipped", 0)),
        "sim.spec_windows_per_kreq": _per(
            1e3 * table.calls("features.batch", under=loop), n
        ),
        # Decisions taken from a speculated row / rows speculated: every
        # request whose row was not re-extracted live used a speculated one.
        "sim.spec_used_share": _per(
            n - table.calls("features.scalar", under=loop), speculated_rows
        ),
        "sim.unattributed_ns_per_req": _per(table.self_total(root), n),
        "sim.unattributed_share": _per(table.self_total(root), root_ns),
        "serve.process_ns_per_req": _per(table.self_total("serve.process"), n),
        "serve.loop_overhead_ns_per_req": _per(
            table.self_total("serve.run"), n
        ),
        "serve.batch_rows_mean": _per(n, table.calls("serve.process")),
        "serve.backpressure_waits": float(
            counters.get("backpressure_waits", 0)
        ),
        "serve.model_handoffs": float(counters.get("model_handoffs", 0)),
        "obs.maybe_roll_ns_per_req": _per(table.total("obs.maybe_roll"), n),
        "obs.windows_closed": float(counters.get("telemetry_windows", 0)),
    }
    if workload.shape == "cluster":
        metrics.update(_cluster_metrics(table, traced, n))
    return {
        name: value for name, value in metrics.items()
        if on_path(name, workload)
    }
