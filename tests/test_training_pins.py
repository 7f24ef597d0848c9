"""What "same labels, same models" means for the training job: the
three 4000-request windows of the perf ledger's ``mix-12000`` trace,
driven through ``LabelFitJob``, digest by digest.

The segmented constants were recorded at the commit before the indexed
heap, the array-built OPT network, the partition score update, batched
percentiles and the splittable-feature inheritance landed (PR 20); the
native SSP kernel and its Python/numpy references must both reproduce
them.  The greedy constants are the library's default labels, recorded
when greedy labels became the default.  Both sets grow every window
(``regrow_every=1``).  The ``_REFIT_*`` constants are the default loop,
which refits ``W[0]``'s trees on ``W[1]``: ``W[0]`` and every window's
labels are the same (OPT reads only the requests), ``W[1]``'s model is
the refit and ``W[2]``'s model grows on rows the refit model served.
"""

from hashlib import blake2b

import numpy as np
import pytest

from repro import _native
from repro.core import LFOOnline, OptLabelConfig
from repro.trace import ContentClass, generate_mixed_trace

#: The ledger's CDN-like mix (``benchmarks/perf/workloads.py``).
_CLASSES = (
    ContentClass("web", 2_000, 1.1, 40, 1.0, 800),
    ContentClass("photo", 15_000, 0.6, 100, 0.8, 2_000),
    ContentClass("software", 150, 0.9, 3_000, 1.0, 30_000),
)
_SHARES = (0.55, 0.35, 0.10)

#: ``benchmarks/perf/pins.json``, key ``mix-12000``.
_TRACE_DIGEST = "0a142d21569885fe"
_LABEL_DIGESTS = ["224b5c937931de75", "492b8665fdfaee19", "c65790b5e14b9956"]
_MODEL_DIGESTS = ["c7db1f0b6aedaf1b", "02500fa71c9eb6c7", "fa784c9b636942f5"]
#: ``OptLabelConfig()``: greedy labels.
_GREEDY_LABEL_DIGESTS = [
    "4e281b4a4dfac811", "767418888af8fdcd", "52ef0ab25395cef2",
]
_GREEDY_MODEL_DIGESTS = [
    "975754102c4163e6", "121df23ef8ec7ec7", "c6edc2415cf23170",
]
#: The default ``regrow_every=2``: grow, refit, grow.
_REFIT_MODEL_DIGESTS = [
    "c7db1f0b6aedaf1b", "9ee77492bf2bdc19", "c8f9c0412abba1ea",
]
_REFIT_GREEDY_MODEL_DIGESTS = [
    "975754102c4163e6", "394baf556bc70aec", "82e2174bfa53fd19",
]


def _digest(blob: bytes) -> str:
    return blake2b(blob, digest_size=8).hexdigest()


@pytest.fixture(scope="module")
def mix_trace():
    trace = generate_mixed_trace(
        _CLASSES, _SHARES, n_requests=12_000, seed=42
    )
    digest = blake2b(digest_size=8)
    for column in (trace.objs, trace.sizes, trace.costs, trace.times):
        digest.update(np.ascontiguousarray(column).tobytes())
    assert digest.hexdigest() == _TRACE_DIGEST
    return trace


def _window_digests(trace, regrow_every=2, **label_config):
    """``(labels, models)``: the digests of every window's labels and
    compiled model, on the scalar online loop with library defaults but
    ``regrow_every`` and ``label_config``."""
    labels, models = [], []

    class Recording(OptLabelConfig):
        def compute(self, window, cache_size):
            found = super().compute(window, cache_size)
            labels.append(_digest(found.tobytes()))
            return found

    policy = LFOOnline(
        trace.footprint() // 10, window=4_000,
        label_config=Recording(**label_config), regrow_every=regrow_every,
    )
    job = policy.trainer.job

    def recording(requests, features, name):
        model = job(requests, features, name)
        models.append(_digest(model.classifier.compiled().to_bytes()))
        return model

    policy.trainer.job = recording
    for req in trace:
        policy.on_request(req)
    return labels, models


@pytest.mark.parametrize("backend", ["native", "python_fallback"])
def test_window_labels_and_models_pinned(request, mix_trace, backend):
    request.getfixturevalue(backend)
    assert _window_digests(mix_trace, regrow_every=1, mode="segmented") == (
        _LABEL_DIGESTS, _MODEL_DIGESTS
    )


@pytest.mark.parametrize("backend", ["native", "python_fallback"])
def test_greedy_default_labels_and_models_pinned(request, mix_trace, backend):
    request.getfixturevalue(backend)
    assert _window_digests(mix_trace, regrow_every=1) == (
        _GREEDY_LABEL_DIGESTS, _GREEDY_MODEL_DIGESTS
    )


@pytest.mark.parametrize("backend", ["native", "python_fallback"])
def test_refit_loop_labels_and_models_pinned(request, mix_trace, backend):
    """The kernel's and the numpy walk's leaf ids refit one model."""
    request.getfixturevalue(backend)
    assert _window_digests(mix_trace, mode="segmented") == (
        _LABEL_DIGESTS, _REFIT_MODEL_DIGESTS
    )
    assert _window_digests(mix_trace) == (
        _GREEDY_LABEL_DIGESTS, _REFIT_GREEDY_MODEL_DIGESTS
    )


@pytest.mark.parametrize("helpers", [0, 1, 3])
def test_pins_hold_at_every_width(monkeypatch, mix_trace, helpers):
    """Segment solves and the fit's binning on 0, 1 or 3 helper threads
    beside the job's own (``_native.fan_out`` / ``start``); without the
    native module every width is the serial loop."""
    monkeypatch.setattr(
        _native.os, "sched_getaffinity", lambda _pid: range(helpers + 1)
    )
    monkeypatch.setattr(_native, "_pool", None)
    try:
        assert _window_digests(mix_trace, regrow_every=1, mode="segmented") == (
            _LABEL_DIGESTS, _MODEL_DIGESTS
        )
    finally:
        if _native._pool is not None:
            _native._pool.shutdown(wait=True)
