"""The six fixed workloads of the perf ledger and their seeded inputs.

Everything a workload is made of lives here and nowhere else: content
classes, class shares, cache fractions, request counts, and the pins
that make a silent change to the generator or the learner loud.  The
benchmark deliberately does not import ``benchmarks/common.py`` — later
PRs may edit that file, and this one must keep measuring the same thing.

What ``--seed`` varies is *where the request stream starts*.  The
catalogue, the request sequence and the static model always come from
generator seed 42 and are pinned; a run serves that sequence rotated by
a seed-chosen offset (times re-based so they stay monotone).  Seeding
the generator itself would redraw the catalogue: 150 software objects
carry ~85% of the bytes, so ``bhr`` alone moves by 10% (quartile spread)
between generator seeds — more than any regression bound worth having.
A rotation changes the warm-up prefix, every cache state the run passes
through and every ``online_serve`` training window, and leaves the
workload's statistics alone.  The program under test only ever sees the
resulting ``Request`` objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core import LFOModel, LFOOnline, OptLabelConfig
from repro.gbdt import kernel_available
from repro.trace import ContentClass, Request, Trace, generate_mixed_trace

from host import HostSpeed

__all__ = ["Inputs", "Workload", "WORKLOADS", "build_inputs", "hits_digest"]

#: The CDN-like mix: hot small web objects, a long tail of rarely
#: re-requested photos, a few large software downloads.
CLASSES = (
    ContentClass("web", 2_000, 1.1, 40, 1.0, 800),
    ContentClass("photo", 15_000, 0.6, 100, 0.8, 2_000),
    ContentClass("software", 150, 0.9, 3_000, 1.0, 30_000),
)

#: trace kind -> (class shares web/photo/software, cache = footprint / N).
TRACES = {
    "mix": ((0.55, 0.35, 0.10), 10),
    "churn": ((0.15, 0.75, 0.10), 50),
}

#: Requests of the mix and churn traces at scale 1.  ISSUE 12 sized them
#: at 100k; trace generation costs 55-100 us per request today and is
#: paid in set-up by every one of the driver's 136 runs, which share
#: 3420 s (README, "Time budget").  At equal cost, five repeats of 60k
#: give a steadier median than three of 100k.
SIM_REQUESTS = 60_000

#: Requests the static model is trained on (trace prefix, in set-up).
TRAIN_PREFIX = 8_000

#: ``online_serve``: three training windows of 4000 requests.
SERVE_REQUESTS = 12_000
SERVE_WINDOW = 4_000
SERVE_TELEMETRY_EVERY = 2_000

#: Requests per ``CacheCluster.process`` call.
CLUSTER_BATCH = 2_048

#: Ring seed of the cluster workloads — fixed, not ``--seed``: the seed
#: varies the traffic, the router stays the deployed one.
RING_SEED = 42

#: Seed of ``generate_mixed_trace`` for every run (see module docstring).
GENERATOR_SEED = 42

PINS_PATH = Path(__file__).with_name("pins.json")


@dataclass(frozen=True)
class Workload:
    """One named workload: a deployment shape over a seeded trace."""

    name: str
    shape: str  # "sim" | "serve" | "cluster"
    trace: str  # key of TRACES
    requests: int
    why: str
    batch_size: int = 0
    eviction: str = "likelihood"
    shards: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scalar_mix", "sim", "mix", SIM_REQUESTS,
            "reference loop: per-request features + predict_proba_single + "
            "apply_scored do all the work; batching, IPC and training none",
        ),
        Workload(
            "batched_mix", "sim", "mix", SIM_REQUESTS,
            "same trace and model with batch_size=256: batched extraction "
            "and scoring, so apply_scored dominates; hits equal scalar_mix",
            batch_size=256,
        ),
        Workload(
            "batched_churn", "sim", "churn", SIM_REQUESTS,
            "photo-heavy, cache = footprint/50, sampled eviction: ~85% "
            "misses, arena growth, eviction plans, broken speculation",
            batch_size=256, eviction="sampled",
        ),
        Workload(
            "online_serve", "serve", "mix", SERVE_REQUESTS,
            "ServingLoop over LFOOnline with library defaults, inline "
            "trainer: label + fit + compile + install is ~98% of wall",
        ),
        Workload(
            "cluster1_mix", "cluster", "mix", SIM_REQUESTS,
            "scalar shard loop behind one pipe: the gap to scalar_mix is "
            "the IPC tax (partition, pickle, pipe, reply, fold)",
            shards=1,
        ),
        Workload(
            "cluster2_mix", "cluster", "mix", SIM_REQUESTS,
            "two shards on two cores: wall-clock scaling over cluster1_mix, "
            "the slowest shard sets each batch",
            shards=2,
        ),
    )
}


@dataclass
class Inputs:
    """What set-up hands to the timed section, plus what it cost."""

    trace: Trace
    requests: list
    cache_size: int
    model: LFOModel | None
    window: int
    telemetry_every: int
    cluster_batch: int
    trace_seconds: float
    model_seconds: float
    trace_digest: str
    model_digest: str


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


def hits_digest(hits) -> str:
    """Digest of a per-request hit vector (the output-identity witness)."""
    flags = np.asarray(hits, dtype=bool)
    return blake2b(flags.tobytes(), digest_size=8).hexdigest()


def _trace_digest(trace: Trace) -> str:
    digest = blake2b(digest_size=8)
    for column in (trace.objs, trace.sizes, trace.costs, trace.times):
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def _train_static_model(
    requests: list, cache_size: int, speed: HostSpeed
) -> LFOModel:
    """Default-``GBDTParams`` model from one window over ``requests``.

    The window runs through ``LFOOnline`` in cold-start mode so the rows
    carry live free-bytes observations; greedy labels keep set-up to the
    GBDT fit (the training path proper is ``online_serve``'s subject).
    """
    online = LFOOnline(
        cache_size,
        window=len(requests),
        label_config=OptLabelConfig(mode="greedy"),
    )
    for index, request in enumerate(requests):
        if index % 2_000 == 0:
            speed.sample()
        online.on_request(request)
    if online.model is None:
        raise RuntimeError("degenerate training prefix: no model trained")
    return online.model


def _rotated(requests: list, offset: int) -> list:
    """``requests[offset:] + requests[:offset]`` with monotone times."""
    first, last = requests[0].time, requests[-1].time
    start = requests[offset].time - first
    wrap = last - start - first + (last - first) / (len(requests) - 1)
    return [
        Request(r.time - start, r.obj, r.size, r.cost)
        for r in requests[offset:]
    ] + [
        Request(r.time + wrap, r.obj, r.size, r.cost)
        for r in requests[:offset]
    ]


def build_inputs(
    workload: Workload, seed: int, scale: float, speed: HostSpeed
) -> Inputs:
    """Generate the pinned trace, train the static model, rotate by seed.

    ``speed`` is sampled at the start, after generation, through model
    training and at the end, for the set-up time's host speed factor.
    """
    shares, fraction = TRACES[workload.trace]
    n = _scaled(workload.requests, scale, 600)
    speed.sample()
    began = perf_counter()
    base = generate_mixed_trace(
        CLASSES, shares, n_requests=n, seed=GENERATOR_SEED
    )
    trace_seconds = perf_counter() - began
    speed.sample()
    cache_size = base.footprint() // fraction
    kernel_available()  # build the C prediction kernel now, not mid-run
    model = None
    model_seconds = 0.0
    model_digest = ""
    if workload.shape != "serve":
        began = perf_counter()
        prefix = min(_scaled(TRAIN_PREFIX, scale, 1_500), n)
        model = _train_static_model(base.requests[:prefix], cache_size, speed)
        model_seconds = perf_counter() - began
        model_digest = blake2b(
            model.classifier.compiled().to_bytes(), digest_size=8
        ).hexdigest()
    offset = int(np.random.default_rng(seed).integers(n))
    requests = _rotated(base.requests, offset)
    trace = Trace(requests, name=f"{workload.trace}@{seed}")
    trace.sizes  # materialise the columns once, in set-up
    speed.sample()
    return Inputs(
        trace=trace,
        requests=requests,
        cache_size=cache_size,
        model=model,
        window=_scaled(SERVE_WINDOW, scale, 200),
        telemetry_every=_scaled(SERVE_TELEMETRY_EVERY, scale, 100),
        cluster_batch=_scaled(CLUSTER_BATCH, scale, 64),
        trace_seconds=trace_seconds,
        model_seconds=model_seconds,
        trace_digest=_trace_digest(base),
        model_digest=model_digest,
    )


def check_pins(workload: Workload, inputs: Inputs) -> list[str]:
    """Pin mismatches of the scale-1 inputs (empty = all good).

    A later change to ``repro.trace.synthetic`` or ``repro.gbdt`` that
    alters the generated trace or the trained model changes the workload
    under every number in the ledger; that must be a decision, recorded
    by editing ``pins.json``, never a side effect.
    """
    key = f"{workload.trace}-{len(inputs.requests)}"
    pins = json.loads(PINS_PATH.read_text())[key]
    found = {"trace": inputs.trace_digest}
    if inputs.model is not None:
        found["model"] = inputs.model_digest
    return [
        f"{key}: {what} digest {digest} != pinned {pins[what]}"
        for what, digest in found.items()
        if digest != pins[what]
    ]
