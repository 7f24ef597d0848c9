#!/usr/bin/env python
"""Regenerate the metric reference table in ``docs/architecture.md``.

The table between the ``<!-- metric-surface:begin/end -->`` markers is
generated from the code's actual instrument registrations, and the
``xf-metric-surface`` rule of ``lfo lint`` fails CI when regenerating it
would change it.  Run this after adding, renaming or removing a metric::

    python tools/update_metrics_doc.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis import (  # noqa: E402
    ProjectModel,
    collect_metric_surface,
    render_metrics_markdown,
)
from repro.analysis.metrics import splice_doc_table  # noqa: E402

DOC = ROOT / "docs" / "architecture.md"


def main() -> int:
    model = ProjectModel.build(root=ROOT)
    table = render_metrics_markdown(collect_metric_surface(model))
    text = DOC.read_text(encoding="utf-8")
    updated = splice_doc_table(text, table)
    if updated is None:
        print(
            f"error: metric-surface markers not found in {DOC}",
            file=sys.stderr,
        )
        return 2
    if updated == text:
        print("metric reference table up to date")
        return 0
    DOC.write_text(updated, encoding="utf-8")
    print(f"rewrote metric reference table in {DOC}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
