"""Section 2.2 claim: feature state costs ~208 B/object naively, and the
sparse representation keeps most of it cheap.

The paper: "The overhead of a naive implementation that tracks all these
features is 208 bytes per object ... in practice, the feature space is very
sparse (a large fraction of CDN objects receives fewer than 5 requests)".

We measure the tracker's accounting on the CDN mix, then what the
unbounded tracker (every object ever recorded keeps its arena row) does
under an adversarial one-touch scan: it tracks every scanned object, and
its slab grows by doubling to hold them.
"""

from __future__ import annotations

from common import cdn_mix_trace, report, table

from repro.features import FeatureTracker
from repro.trace import compute_stats, generate_adversarial_scan

SCAN_OBJECTS = 50_000


def run_measurement(n_requests: int = 20_000):
    trace = cdn_mix_trace(n_requests)
    stats = compute_stats(trace)

    unbounded = FeatureTracker(n_gaps=50)
    for request in trace:
        unbounded.update(request.obj, request.time, request.cost)

    scanned = FeatureTracker(n_gaps=50)
    for request in generate_adversarial_scan(SCAN_OBJECTS, object_size=1_000):
        scanned.update(request.obj, request.time, request.cost)

    return stats, unbounded, scanned


def test_feature_memory(benchmark):
    stats, unbounded, scanned = benchmark.pedantic(
        run_measurement, rounds=1, iterations=1
    )
    per_object = unbounded.memory_bytes_naive() / max(1, unbounded.n_tracked)
    # Rows the slab holds (grown by doubling), not the rows in use.
    slab_rows = len(scanned._seen)
    rows = [
        ["objects in trace", stats.n_objects],
        ["tracked (unbounded)", unbounded.n_tracked],
        ["naive bytes/object", int(per_object)],
        ["naive total bytes", unbounded.memory_bytes_naive()],
        ["tracked after 50K-object scan", scanned.n_tracked],
        ["slab rows after 50K-object scan", slab_rows],
        ["under-5-requests object share", f"{stats.under_five_requests_ratio:.0%}"],
    ]
    report("ablation_feature_memory", table(["metric", "value"], rows))

    # The paper's 208 B/object figure is the naive dense accounting.
    assert per_object == 208
    # The unbounded tracker holds exactly the distinct objects seen ...
    assert unbounded.n_tracked == stats.n_objects
    # ... a scan included: one row per scanned object, none ever freed.
    assert scanned.n_tracked == SCAN_OBJECTS
    assert SCAN_OBJECTS <= slab_rows < 2 * SCAN_OBJECTS
    # The sparsity argument: most objects get <5 requests on a CDN mix.
    assert stats.under_five_requests_ratio > 0.5
