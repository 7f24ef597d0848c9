"""Always-on serving harness: the piece that turns simulator into system.

The paper's deployment note — training must not interfere with request
traffic — is modelled analytically in ``sim/server.py`` and measured in
the interference benchmark; this package *runs* it.  A bounded ingestion
queue feeds speculative batched scoring (the decision engine of
:mod:`repro.core.engine`) over a continuously retraining
:class:`~repro.core.LFOOnline` policy, with warm model handoff at part
edges, windowed telemetry, SLO evaluation, and a zero-drop drain on
shutdown.  Surfaced on the command line as ``lfo serve``; operations
runbook in ``docs/serving.md``.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "drivers": ("SyntheticArrivalDriver", "TraceReplayDriver"),
    "engine": ("BatchScorer",),
    "loop": ("ServeConfig", "ServeReport", "ServingLoop"),
})
