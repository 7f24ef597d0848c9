"""Declarative experiment runner: a JSON/dict spec in, a results table out.

Batch studies (parameter sweeps, repeated seeds, CI jobs) want experiments
as *data*, not scripts.  A spec looks like::

    {
      "trace": {"kind": "zipf", "n_requests": 20000, "alpha": 0.9},
      "cache": {"fraction": 10},
      "policies": ["LRU", "GDSF", "S4LRU", "LFO"],
      "lfo": {"window": 5000, "segment_length": 1000},
      "warmup": 0.25
    }

``run_experiment`` resolves the trace (synthetic single-class, synthetic
mix, or a file), sizes the cache, simulates every policy (including online
LFO when listed), and returns per-policy BHR/OHR plus the spec echo for
provenance.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Union

from ..trace import (
    ContentClass,
    SyntheticConfig,
    Trace,
    compute_stats,
    generate_mixed_trace,
    generate_trace,
    read_binary_trace,
    read_text_trace,
)
from .comparison import policy_factories
from .runner import simulate

__all__ = ["run_experiment", "load_spec"]

_SYNTH_KEYS = {
    "n_requests", "n_objects", "alpha", "size_median", "size_sigma",
    "size_max", "mean_interarrival", "locality", "locality_window", "seed",
}


def load_spec(path: Union[str, Path]) -> dict:
    """Read an experiment spec from a JSON file."""
    with open(path) as handle:
        return json.load(handle)


def _build_trace(spec: dict) -> Trace:
    kind = spec.get("kind", "zipf")
    if kind == "zipf":
        kwargs = {k: v for k, v in spec.items() if k in _SYNTH_KEYS}
        return generate_trace(SyntheticConfig(**kwargs))
    if kind == "mixed":
        classes = [ContentClass(**c) for c in spec["classes"]]
        return generate_mixed_trace(
            classes,
            spec["shares"],
            n_requests=spec.get("n_requests", 20_000),
            seed=spec.get("seed", 42),
        )
    if kind == "file":
        path = spec["path"]
        if str(path).endswith(".bin"):
            return read_binary_trace(path)
        return read_text_trace(path)
    raise ValueError(f"unknown trace kind: {kind!r}")


def _cache_size(spec: dict, trace: Trace) -> int:
    if "bytes" in spec:
        return int(spec["bytes"])
    fraction = spec.get("fraction", 10)
    return max(1, compute_stats(trace).footprint_bytes // int(fraction))


def run_experiment(spec: dict) -> dict[str, Any]:
    """Execute one experiment spec; returns a JSON-serialisable result."""
    trace = _build_trace(spec.get("trace", {}))
    cache_size = _cache_size(spec.get("cache", {}), trace)
    warmup = float(spec.get("warmup", 0.25))
    policy_names = spec.get("policies", ["LRU"])

    results: dict[str, dict[str, float]] = {}
    heuristics = [p for p in policy_names if p not in ("LFO", "IRL")]
    if heuristics:
        factories = policy_factories(heuristics)
        for name, factory in factories.items():
            sim = simulate(trace, factory(cache_size), warmup_fraction=warmup)
            results[name] = {"bhr": sim.bhr, "ohr": sim.ohr}

    if "LFO" in policy_names:
        from ..core import LFOOnline, OptLabelConfig

        lfo_spec = spec.get("lfo", {})
        policy = LFOOnline(
            cache_size,
            window=int(lfo_spec.get("window", 5_000)),
            cutoff=float(lfo_spec.get("cutoff", 0.5)),
            label_config=OptLabelConfig(
                mode=lfo_spec.get("label_mode", OptLabelConfig.mode),
                segment_length=int(lfo_spec.get("segment_length", 1_000)),
            ),
        )
        sim = simulate(trace, policy, warmup_fraction=warmup)
        results["LFO"] = {
            "bhr": sim.bhr, "ohr": sim.ohr, "retrains": policy.n_retrains
        }

    if "IRL" in policy_names:
        from ..core import IRLOnline, OptLabelConfig

        irl_spec = spec.get("irl", spec.get("lfo", {}))
        policy = IRLOnline(
            cache_size,
            window=int(irl_spec.get("window", 5_000)),
            label_config=OptLabelConfig(
                mode=irl_spec.get("label_mode", OptLabelConfig.mode),
                segment_length=int(irl_spec.get("segment_length", 1_000)),
            ),
        )
        sim = simulate(trace, policy, warmup_fraction=warmup)
        results["IRL"] = {
            "bhr": sim.bhr, "ohr": sim.ohr, "retrains": policy.n_retrains
        }

    return {
        "spec": spec,
        "trace": {
            "n_requests": len(trace),
            "name": trace.name,
        },
        "cache_size": cache_size,
        "results": results,
    }
