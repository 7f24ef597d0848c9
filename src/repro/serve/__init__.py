"""Always-on serving harness: the piece that turns simulator into system.

The paper's deployment note — training must not interfere with request
traffic — is modelled analytically in ``sim/server.py`` and measured in
the interference benchmark; this package *runs* it.  A bounded ingestion
queue feeds speculative batched scoring (the decision engine of
:mod:`repro.core.engine`, polled so it survives live model swaps) over a
continuously retraining :class:`~repro.core.LFOOnline` policy, with warm
model handoff, windowed telemetry, SLO evaluation, and a zero-drop drain
on shutdown.  Surfaced on the command line as ``lfo serve``; operations
runbook in ``docs/serving.md``.
"""

from .drivers import SyntheticArrivalDriver, TraceReplayDriver
from .engine import BatchScorer
from .loop import ServeConfig, ServeReport, ServingLoop

__all__ = [
    "BatchScorer",
    "ServeConfig",
    "ServeReport",
    "ServingLoop",
    "SyntheticArrivalDriver",
    "TraceReplayDriver",
]
