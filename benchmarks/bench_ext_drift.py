"""Extension experiment: drift-triggered early retraining.

The paper motivates LFO with content mixes that change "within minutes";
its fixed-window loop reacts only at the next boundary.  We place a hard
mix shift in the *middle* of a training window and compare standard
LFOOnline against AdaptiveLFOOnline (PSI drift monitor + early retrain).

Expected shape: the adaptive variant fires at least one drift retrain near
the shift and its post-shift BHR recovers at least as fast as (typically
faster than) the fixed-window variant's.
"""

from __future__ import annotations

import numpy as np
from common import report, table

from repro.core import AdaptiveLFOOnline, LFOOnline, OptLabelConfig
from repro.sim import simulate
from repro.trace import ContentClass, compute_stats, generate_mix_shift_trace
from repro.viz import sparkline

PHASE = 9_000
WINDOW = 6_000  # the shift at request 9000 falls mid-window (6000..12000)
SERIES = 1_500


def run_drift_experiment():
    web = ContentClass("web", 3_000, 1.0, 50, 1.0, 1_000)
    software = ContentClass("software", 300, 1.0, 2_000, 1.0, 20_000)
    trace = generate_mix_shift_trace(
        [web, software], [[0.9, 0.1], [0.2, 0.8]],
        requests_per_phase=PHASE, seed=3,
    )
    cache_size = compute_stats(trace).footprint_bytes // 10
    label_config = OptLabelConfig(mode="segmented", segment_length=1_000)

    fixed = LFOOnline(cache_size, window=WINDOW, label_config=label_config)
    adaptive = AdaptiveLFOOnline(
        cache_size, window=WINDOW, label_config=label_config,
        drift_threshold=0.25, check_interval=750,
    )
    series = {
        "fixed": simulate(trace, fixed, series_window=SERIES).series,
        "adaptive": simulate(trace, adaptive, series_window=SERIES).series,
    }
    return series, adaptive.n_drift_retrains, fixed.n_retrains


def test_drift_retraining(benchmark):
    series, drift_retrains, fixed_retrains = benchmark.pedantic(
        run_drift_experiment, rounds=1, iterations=1
    )
    shift_window = PHASE // SERIES
    rows = [
        [w if w != shift_window else f"{w}*", series["fixed"][w],
         series["adaptive"][w]]
        for w in range(len(series["fixed"]))
    ]
    sparks = "\n".join(
        f"{name:<9} {sparkline(s)}" for name, s in series.items()
    )
    report(
        "ext_drift",
        table(["window", "fixed LFO", "adaptive LFO"], rows)
        + f"\n(* = first window after the shift)\n\n{sparks}\n"
        + f"drift retrains: {drift_retrains}; "
        + f"fixed boundary retrains: {fixed_retrains}",
    )

    # The monitor actually fired around the shift.
    assert drift_retrains >= 1
    # Post-shift recovery: over the two windows after the shift the
    # adaptive variant is at least as good as the fixed-window one.
    post = slice(shift_window, shift_window + 2)
    assert float(np.mean(series["adaptive"][post])) >= float(
        np.mean(series["fixed"][post])
    ) - 0.02

# -- streaming health detection ----------------------------------------------
#
# The same mix shift, watched from the outside: a WindowedRegistry slices
# the run into fixed telemetry windows and an SloEngine judges each closed
# window with the default spec's drift detectors (BHR Page-Hinkley,
# admission-score PSI, arena-summary EWMA, training halt).  The claim
# under test is the operational one — the detectors localise the shift to
# within a few windows, with zero false alarms on a stationary control.

HEALTH_WINDOW = 1_500
#: The shift lands at request PHASE, i.e. telemetry window PHASE/1500 = 6.
SHIFT_WINDOW = PHASE // HEALTH_WINDOW
#: Detection budget: the violation must land within this many windows of the
#: shift.  The BHR detector needs a few windows of sustained shortfall to
#: integrate past its Page-Hinkley budget, so "within 4" is the bound the
#: detectors are tuned to (and the paper's "minutes, not hours" scale).
DETECTION_BUDGET = 4
DETECTORS = ("bhr_drift", "score_drift", "feature_drift", "training_halted")


def _watched_run(transitions):
    from repro.core import LFOOnline as _LFO
    from repro.obs import SloEngine, SloSpec, WindowedRegistry, use_registry

    # The adaptive-LFO experiment above shifts to a *cache-friendly*
    # class (300 hot objects) because it studies recovery speed; byte
    # hit ratio barely moves through that shift, so it is exactly the
    # kind of change a BHR detector must NOT be expected to see.  The
    # detectors' claim is about detecting degradation, so its shift
    # goes to a cache-hostile class: a long-tail catalogue with flatter
    # popularity, which drives sustained misses the moment it dominates
    # the mix.
    web = ContentClass("web", 3_000, 1.0, 50, 1.0, 1_000)
    software = ContentClass("software", 30_000, 0.7, 2_000, 1.0, 20_000)
    trace = generate_mix_shift_trace(
        [web, software], transitions, requests_per_phase=PHASE, seed=3,
    )
    cache_size = compute_stats(trace).footprint_bytes // 10
    registry = WindowedRegistry(every_requests=HEALTH_WINDOW)
    engine = SloEngine(SloSpec(tuple(
        o for o in SloSpec.default().objectives if o.kind in DETECTORS
    ))).attach(registry)
    violations = []
    seen = dict.fromkeys(DETECTORS, 0)

    def record(snapshot):
        for name, detail in engine.verdict()["objectives"].items():
            if detail["violations"] > seen[name]:
                violations.append(
                    (name, snapshot.index, detail["last_value"],
                     detail["threshold"])
                )
            seen[name] = detail["violations"]

    registry.on_close(record)
    policy = _LFO(
        cache_size, window=WINDOW,
        label_config=OptLabelConfig(mode="segmented", segment_length=1_000),
    )
    with use_registry(registry):
        simulate(trace, policy)
        registry.flush()
    bhr_series = [
        s.bhr if s.bhr is not None else 0.0 for s in registry.windows()
    ]
    return violations, bhr_series


def run_health_detection():
    shifted_violations, shifted_bhr = _watched_run(
        [[0.9, 0.1], [0.2, 0.8]]
    )
    control_violations, control_bhr = _watched_run(
        [[0.9, 0.1], [0.9, 0.1]]  # same generator, no shift
    )
    return shifted_violations, shifted_bhr, control_violations, control_bhr


def test_health_detects_mix_shift(benchmark):
    shifted_violations, shifted_bhr, control_violations, control_bhr = (
        benchmark.pedantic(run_health_detection, rounds=1, iterations=1)
    )
    drift = [
        v for v in shifted_violations if v[0] in ("bhr_drift", "score_drift")
    ]
    lines = [
        f"[{kind}] window {index}: {value:.4f} > {threshold:g}"
        for kind, index, value, threshold in shifted_violations
    ]
    report(
        "ext_drift_health",
        f"telemetry window {HEALTH_WINDOW} requests; shift enters at "
        f"window {SHIFT_WINDOW}\n"
        f"shifted  BHR {sparkline(shifted_bhr)}\n"
        f"control  BHR {sparkline(control_bhr)}\n"
        + "\n".join(lines)
        + f"\ncontrol violations: {len(control_violations)}",
    )

    # The detectors localised the shift: at least one BHR/score drift
    # violation inside the detection budget after the shift window.
    assert drift, "no drift violation on the mix-shift trace"
    first = min(index for _, index, _, _ in drift)
    assert SHIFT_WINDOW <= first <= SHIFT_WINDOW + DETECTION_BUDGET, first
    # ... and stayed quiet on the stationary control: zero false alarms.
    assert control_violations == []
