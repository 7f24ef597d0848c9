"""Shared workloads and reporting helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper.  Scales are
reduced relative to the paper's 500M-request production trace (see
DESIGN.md "Scale notes"): windows are 10^4-ish requests and the cache is
sized as a fixed fraction of the trace footprint, which preserves the
hit-ratio regime.

Results are printed *and* appended to ``benchmarks/results/<name>.txt`` so
that ``pytest benchmarks/ --benchmark-only`` leaves a readable record.
"""

from __future__ import annotations

import io
from pathlib import Path

from repro.obs import MetricsRegistry
from repro.trace import (
    ContentClass,
    SyntheticConfig,
    Trace,
    compute_stats,
    generate_mixed_trace,
    generate_trace,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: The canonical CDN-like mix used across benchmarks: hot small web objects,
#: a long tail of rarely re-requested photos (~60% one-hit wonders), and a
#: small set of large software downloads.
WEB = ContentClass("web", 2_000, 1.1, 40, 1.0, 800)
PHOTO = ContentClass("photo", 15_000, 0.6, 100, 0.8, 2_000)
SOFTWARE = ContentClass("software", 150, 0.9, 3_000, 1.0, 30_000)


def cdn_mix_trace(n_requests: int = 30_000, seed: int = 42) -> Trace:
    """The benchmark suite's standard CDN-like mixed workload."""
    return generate_mixed_trace(
        [WEB, PHOTO, SOFTWARE], [0.55, 0.35, 0.10],
        n_requests=n_requests, seed=seed,
    )


def accuracy_trace(n_requests: int = 16_000, seed: int = 42) -> Trace:
    """Workload for the accuracy experiments (Figures 5a-5c, 8).

    Uses the same CDN mix as the hit-ratio benchmarks: its OPT labels are
    both balanced (roughly half the requests are admitted) and learnable
    (~89% eval accuracy with the paper's training configuration, vs the
    paper's 93% on the production trace).
    """
    return cdn_mix_trace(n_requests=n_requests, seed=seed)


def zipf_locality_trace(n_requests: int = 16_000, seed: int = 17) -> Trace:
    """Single-class Zipf trace with temporal locality (secondary workload
    for robustness checks)."""
    return generate_trace(
        SyntheticConfig(
            n_requests=n_requests, n_objects=max(500, n_requests // 5),
            alpha=0.9, size_median=40, size_sigma=1.2, size_max=4_000,
            locality=0.25, seed=seed,
        )
    )


def cache_for(trace: Trace, fraction: int = 10) -> int:
    """Cache sized as footprint / ``fraction`` (the paper's 256GB server
    similarly holds a small fraction of the week's working set)."""
    return compute_stats(trace).footprint_bytes // fraction


def report(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    banner = f"\n=== {name} ===\n{text}\n"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / f"{name}.txt", "w") as handle:
        handle.write(text + "\n")


def stage_table(registry: MetricsRegistry) -> str:
    """Render a registry's span aggregates as a per-stage breakdown table."""
    spans = registry.to_dict()["spans"]
    rows = [
        [
            name,
            stats["count"],
            stats["total_seconds"],
            stats["mean_seconds"],
            stats["max_seconds"],
        ]
        for name, stats in sorted(spans.items())
    ]
    return table(["stage", "calls", "total_s", "mean_s", "max_s"], rows)


def table(header: list[str], rows: list[list]) -> str:
    """Render an aligned text table."""
    widths = [len(h) for h in header]
    rendered_rows = []
    for row in rows:
        rendered = [
            f"{v:.4f}" if isinstance(v, float) else str(v) for v in row
        ]
        widths = [max(w, len(c)) for w, c in zip(widths, rendered)]
        rendered_rows.append(rendered)
    out = io.StringIO()
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)) + "\n")
    for rendered in rendered_rows:
        out.write("  ".join(c.rjust(w) for c, w in zip(rendered, widths)) + "\n")
    return out.getvalue().rstrip()
