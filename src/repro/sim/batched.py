"""``simulate(batch_size=N)``: the decision engine over a whole trace.

The probe → score → replay protocol lives in :mod:`repro.core.engine`;
this module is its simulator driver.  What is the simulator's own: the
trace's four columns go to the engine as they are (no ``Request`` is
touched), the ``on_request`` observer rides the engine's post-decision
tap, and telemetry folds (counter sums, window-roll checkpoints) happen
at lookahead-window edges, so a windowed registry sees live deltas
without anything added to the per-request path.

Engaged for policies whose ``supports_batched_scoring`` is true (a
static model, no periodic rescore).  Policies that retrain mid-stream
(``LFOOnline``) opt out here and are served by :mod:`repro.serve`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from ..obs import get_registry
from ..trace import Trace

if TYPE_CHECKING:  # repro.core imports repro.sim; annotation only.
    from ..core.lfo import LFOCache
    from .runner import _MetricsFolder

__all__ = ["run_batched", "DECISION_LATENCY_BUCKETS"]

#: Bounds for the per-decision latency histogram: 1µs .. 10ms with 1-2-5
#: steps, fine enough that p99/p999 interpolation stays meaningful for a
#: sub-millisecond decision budget (Cold-RL's deployment constraint).
#: Lives here (not runner.py) so both loops share it without a cycle.
DECISION_LATENCY_BUCKETS = (
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2,
)

#: Decisions timed per lookahead window — clustered sampling, same
#: rationale as the scalar loop's per-chunk cluster.
_TIMED_PER_WINDOW = 8


def run_batched(
    trace: Trace,
    policy: "LFOCache",
    batch_size: int,
    hits: np.ndarray,
    on_request: Callable[[int, bool], None] | None = None,
    folder: "_MetricsFolder | None" = None,
) -> None:
    """Drive ``policy`` over ``trace`` in lookahead windows.

    Fills ``hits`` in place with the per-request hit flags; semantics are
    bit-identical to the scalar ``policy.on_request`` loop.
    ``batch_size`` is the lookahead length (rows probed per step).  When
    telemetry is enabled, ``folder`` (built by :func:`repro.sim.simulate`)
    folds counters and offers window-roll checkpoints at window edges,
    and the leading decisions of each window are timed into the
    shared decision-latency histogram.
    """
    from ..core.engine import DecisionEngine  # repro.core imports repro.sim

    registry = get_registry()
    observing = registry.enabled
    engine = DecisionEngine(
        policy,
        batch_size,
        tap=(
            None if on_request is None
            else lambda index, hit, _score: on_request(index, hit)
        ),
        latency=(
            registry.histogram(
                "sim.decision_latency_seconds", DECISION_LATENCY_BUCKETS
            )
            if observing else None
        ),
        timed_per_window=_TIMED_PER_WINDOW,
    )
    if observing:
        rows_hist = registry.histogram("sim.batch_rows")
    times, objs, sizes, costs = (
        trace.times, trace.objs, trace.sizes, trace.costs
    )
    n = len(objs)
    i = 0
    while i < n:
        probed = engine.rows_probed
        i += engine.step(times, objs, sizes, costs, i, hits)
        if observing:
            rows_hist.observe(engine.rows_probed - probed)
        if folder is not None:
            folder.fold(i)
    if observing:
        if engine.n_rescored:
            registry.counter("sim.batch_rescored").inc(engine.n_rescored)
        if engine.n_respeculations:
            registry.counter("sim.batch_respeculations").inc(
                engine.n_respeculations
            )
