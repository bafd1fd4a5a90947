"""Evaluation metrics: average and tail performance on the target domain.

Classification reports micro-average accuracy plus a worst-10% figure over
the lowest-scoring classes; regression reports MSE and MAE plus a worst-10%
MSE over the largest absolute errors. Tail metrics are what distinguish a
robust method from one that merely wins on average.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ClassificationReport:
    """Micro accuracy, per-class accuracies, and the lowest-classes tail."""

    avg_accuracy: float
    per_class_accuracy: list[float]
    worst10_accuracy: float
    absent_classes: list[int] = field(default_factory=list)


@dataclass
class RegressionReport:
    """Pointwise error summary plus the largest-errors tail."""

    mse: float
    mae: float
    worst10_mse: float


def worst_tail_count(total: int) -> int:
    """Size of the worst-10% bucket: ceil(0.1 * total), at least 1."""
    if total < 1:
        raise ValueError("need at least one item")
    return max(1, int(np.ceil(0.1 * total)))


def eval_classification(predictions, labels, n_classes: int) -> ClassificationReport:
    """Accuracy report over a labeled test set.

    The worst-10% accuracy averages the ceil(0.1 * C) lowest per-class
    accuracies, breaking ties by class index. Classes absent from the test
    set are excluded from the tail and flagged, not scored.
    """
    pred = np.asarray(predictions, dtype=int)
    y = np.asarray(labels, dtype=int)
    if pred.shape != y.shape or y.ndim != 1:
        raise ValueError("predictions and labels must be aligned 1-D arrays")
    if len(y) == 0:
        raise ValueError("empty test set")
    if n_classes < 1:
        raise ValueError("n_classes must be positive")

    avg = float((pred == y).mean())
    per_class: list[float] = []
    absent: list[int] = []
    for c in range(n_classes):
        mask = y == c
        if mask.any():
            per_class.append(float((pred[mask] == c).mean()))
        else:
            per_class.append(float("nan"))
            absent.append(c)

    present = [(acc, c) for c, acc in enumerate(per_class) if c not in absent]
    if not present:
        raise ValueError("no class present in the test set")
    k = worst_tail_count(n_classes)
    # sort by (accuracy, class index): ties resolved toward lower index
    present.sort()
    tail = present[: min(k, len(present))]
    worst10 = float(np.mean([acc for acc, _ in tail]))
    return ClassificationReport(
        avg_accuracy=avg,
        per_class_accuracy=per_class,
        worst10_accuracy=worst10,
        absent_classes=absent,
    )


def eval_regression(predictions, responses) -> RegressionReport:
    """Error report over a real-valued test set.

    The worst-10% MSE averages squared error over the ceil(0.1 * n)
    largest absolute errors.
    """
    pred = np.asarray(predictions, dtype=float)
    z = np.asarray(responses, dtype=float)
    if pred.shape != z.shape or z.ndim != 1:
        raise ValueError("predictions and responses must be aligned 1-D arrays")
    if len(z) == 0:
        raise ValueError("empty test set")
    err = pred - z
    abs_err = np.abs(err)
    k = worst_tail_count(len(z))
    tail = np.sort(abs_err)[-k:]
    return RegressionReport(
        mse=float(np.mean(err**2)),
        mae=float(np.mean(abs_err)),
        worst10_mse=float(np.mean(tail**2)),
    )
