#!/usr/bin/env python3
"""Offline LFO training walkthrough: labels, accuracy, cutoff, importances.

Reproduces the paper's analysis workflow on one train/eval window pair:

1. featurise a trace with live free-bytes observations,
2. compute OPT labels by segmented min-cost flow,
3. train the boosted-tree model (paper defaults: 30 iterations),
4. report prediction error / FP / FN (Fig. 5a's quantities),
5. locate the FP=FN equalising cutoff (~0.65 in the paper),
6. print split-count feature importances (Fig. 8),
7. serialise the model to JSON and restore it.

Run:  python examples/offline_training.py
"""

import json
import tempfile

import numpy as np

from repro import OptLabelConfig, SyntheticConfig, generate_trace
from repro.core import (
    LFOModel,
    cutoff_sweep,
    equal_error_cutoff,
    prepare_windows,
    train_and_evaluate,
)
from repro.gbdt import GBDTClassifier


def main() -> None:
    trace = generate_trace(
        SyntheticConfig(
            n_requests=16_000, n_objects=3_000, alpha=0.9,
            size_median=40, size_sigma=1.2, size_max=4_000,
            locality=0.25, seed=17,
        )
    )
    cache_size = trace.footprint() // 10
    windows = prepare_windows(
        trace, cache_size, train_size=8_000, test_size=8_000,
        label_config=OptLabelConfig(mode="segmented", segment_length=1_000),
    )
    print(f"OPT admits {windows.train.y.mean():.1%} of training requests")

    report = train_and_evaluate(windows)
    print(f"prediction error: {report.prediction_error:.3%} "
          f"(accuracy {report.accuracy:.1%})")
    print(f"false positives:  {report.false_positive_rate:.3%}")
    print(f"false negatives:  {report.false_negative_rate:.3%}")

    eq = equal_error_cutoff(report.likelihoods, report.labels)
    print(f"\nFP = FN at cutoff ~{eq:.2f} (paper: ~0.65)")
    sweep = cutoff_sweep(
        report.likelihoods, report.labels, np.linspace(0.1, 0.9, 9)
    )
    print(f"{'cutoff':>7} {'FP%':>6} {'FN%':>6}")
    for c, fp, fn in zip(sweep.cutoffs, sweep.false_positive, sweep.false_negative):
        print(f"{c:>7.2f} {fp * 100:>6.2f} {fn * 100:>6.2f}")

    print("\nsplit-count feature importances (top 10):")
    fractions = report.model.classifier.feature_importance_fraction()
    order = np.argsort(-fractions)[:10]
    for i in order:
        print(f"  {windows.train.names[i]:<12} {fractions[i]:.1%}")

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(report.model.classifier.to_dict(), f)
        path = f.name
    with open(path) as f:
        restored = GBDTClassifier.from_dict(json.load(f))
    clone = LFOModel(restored.compiled(), report.model.cutoff, restored)
    assert np.allclose(
        clone.likelihood(windows.test.X), report.likelihoods
    )
    print(f"\nmodel serialised to {path} and restored bit-identically")


if __name__ == "__main__":
    main()
