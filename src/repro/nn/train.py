"""Minibatch training loops for matchers and classifiers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.losses import bce_loss_with_logits, ce_loss_with_logits
from repro.nn.model import MatcherModel, Sequential
from repro.nn.optim import Adam
from repro.nn.tensorops import DEFAULT_DTYPE, batch_iter


@dataclass
class TrainReport:
    """Per-epoch metrics from a training run."""

    losses: list = field(default_factory=list)
    accuracies: list = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        return self.accuracies[-1] if self.accuracies else float("nan")


def train_matcher(
    model: MatcherModel,
    observed: np.ndarray,
    expected: np.ndarray,
    labels: np.ndarray,
    epochs: int = 3,
    batch_size: int = 128,
    lr: float = 2e-3,
    seed: int = 0,
    verbose: bool = False,
) -> TrainReport:
    """Train a two-input matcher with BCE on match labels in {0, 1}."""
    if len(observed) != len(expected) or len(observed) != len(labels):
        raise ValueError(
            f"misaligned training arrays: {len(observed)}/{len(expected)}/{len(labels)}"
        )
    optimizer = Adam(model, lr=lr)
    rng = np.random.default_rng(seed)
    y = np.asarray(labels, dtype=DEFAULT_DTYPE).reshape(-1, 1)
    report = TrainReport()
    for epoch in range(epochs):
        epoch_loss = 0.0
        correct = 0
        for idx in batch_iter(len(observed), batch_size, rng):
            logits = model.forward(observed[idx], expected[idx])
            loss, grad = bce_loss_with_logits(logits, y[idx])
            model.backward(grad)
            optimizer.step()
            epoch_loss += loss * len(idx)
            correct += int(np.sum((logits.reshape(-1) > 0) == (y[idx].reshape(-1) > 0.5)))
        report.losses.append(epoch_loss / len(observed))
        report.accuracies.append(correct / len(observed))
        if verbose:  # pragma: no cover - console aid
            print(
                f"epoch {epoch + 1}/{epochs}: loss={report.losses[-1]:.4f} "
                f"acc={report.accuracies[-1]:.4f}"
            )
    return report


def train_classifier(
    model: Sequential,
    x: np.ndarray,
    labels: np.ndarray,
    epochs: int = 3,
    batch_size: int = 128,
    lr: float = 1e-3,
    seed: int = 0,
    verbose: bool = False,
) -> TrainReport:
    """Train a softmax classifier (the reference models of §V-B)."""
    if len(x) != len(labels):
        raise ValueError(f"misaligned training arrays: {len(x)} vs {len(labels)}")
    optimizer = Adam(model, lr=lr)
    rng = np.random.default_rng(seed)
    y = np.asarray(labels, dtype=int)
    report = TrainReport()
    for epoch in range(epochs):
        epoch_loss = 0.0
        correct = 0
        for idx in batch_iter(len(x), batch_size, rng):
            logits = model.forward(x[idx])
            loss, grad = ce_loss_with_logits(logits, y[idx])
            model.backward(grad)
            optimizer.step()
            epoch_loss += loss * len(idx)
            correct += int(np.sum(logits.argmax(axis=1) == y[idx]))
        report.losses.append(epoch_loss / len(x))
        report.accuracies.append(correct / len(x))
        if verbose:  # pragma: no cover - console aid
            print(
                f"epoch {epoch + 1}/{epochs}: loss={report.losses[-1]:.4f} "
                f"acc={report.accuracies[-1]:.4f}"
            )
    return report


def matcher_accuracy(model: MatcherModel, observed, expected, labels, batch_size: int = 256) -> float:
    """Accuracy of a matcher at its configured threshold."""
    y = np.asarray(labels, dtype=DEFAULT_DTYPE).reshape(-1)
    correct = 0
    for start in range(0, len(observed), batch_size):
        sl = slice(start, start + batch_size)
        pred = model.predict(observed[sl], expected[sl])
        correct += int(np.sum(pred == (y[sl] > 0.5)))
    return correct / len(observed)


def classifier_accuracy(model: Sequential, x, labels, batch_size: int = 256) -> float:
    """Top-1 accuracy of a classifier."""
    y = np.asarray(labels, dtype=int)
    correct = 0
    for start in range(0, len(x), batch_size):
        sl = slice(start, start + batch_size)
        correct += int(np.sum(model.predict(x[sl]) == y[sl]))
    return correct / len(x)
