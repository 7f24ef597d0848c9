"""Figure 7: prediction throughput vs number of predictor threads.

Paper's result (44-core Xeon, C++/LightGBM): ~300K predictions/s on one
thread, scaling almost linearly to >11M/s on 44 threads; two threads
suffice for a 40 Gbit/s link at 32KB mean object size, while 500B objects
need all 44 threads.

Here: batch scoring through the flattened
:class:`repro.gbdt.CompiledPredictor` (C kernel when a toolchain is
present, vectorised numpy otherwise) over a worker pool on whatever
cores the host has.  Absolute rates differ from the paper's hardware,
but we reproduce (a) the rate measurement, (b) the worker sweep, and
(c) the Gbit/s arithmetic for 32KB and 500B objects.  Expected shape:
throughput does not degrade as workers are added, and the Gbit/s
conversion shows large objects need far fewer workers than tiny ones.
"""

from __future__ import annotations

import os

from common import report, table

from repro.core import gbits_served, measure_throughput
from repro.viz import line_chart

THREADS = [1, 2, 4]


def run_fig7(acc_report, acc_windows):
    X = acc_windows.test.X
    points = [
        measure_throughput(
            acc_report.model, X, threads=t, batch_size=4_096,
            min_duration=0.6,
        )
        for t in THREADS
    ]
    return points


def test_fig7_throughput(benchmark, acc_report, acc_windows):
    points = benchmark.pedantic(
        run_fig7, args=(acc_report, acc_windows), rounds=1, iterations=1
    )
    rows = [
        [
            p.threads,
            int(p.requests_per_second),
            gbits_served(p.requests_per_second, 32_000),
            gbits_served(p.requests_per_second, 500),
        ]
        for p in points
    ]
    report(
        "fig7_throughput",
        table(
            ["threads", "req/s", "Gbit/s @32KB", "Gbit/s @500B"], rows
        )
        + f"\nhost cores: {os.cpu_count()}\n\n"
        + line_chart(
            THREADS,
            {"throughput": [p.requests_per_second for p in points]},
            x_label="workers", y_label="req/s",
        ),
    )

    rates = {p.threads: p.requests_per_second for p in points}
    # Positive throughput at every worker count.
    assert all(r > 0 for r in rates.values())
    # Adding a second worker must not collapse throughput (workers are
    # processes, so they scale with physical cores); allow generous noise
    # margins on a small shared machine.
    assert rates[2] > 0.8 * rates[1]
    # The paper's bandwidth arithmetic: at equal request rate, 32KB objects
    # fill 64x the bandwidth of 500B objects.
    assert gbits_served(rates[1], 32_000) / gbits_served(rates[1], 500) == 64
