"""From-scratch neural-network library (TensorFlow/Keras substitute).

vWitness's verifiers are small CNNs (Table II): a *text model* comparing a
locally rendered 32x32 character tile against an expected character, and a
*graphics model* comparing a rendered 32x32 sub-region against its expected
appearance.  Both are binary "is this a benign rendering variation of the
expected content?" matchers.

This package implements the pieces needed to train those models and to
attack them with white-box adversarial examples:

* :mod:`repro.nn.layers` — Conv2D (im2col), Dense, ReLU, MaxPool, Flatten
  with full backward passes *including input gradients*.
* :mod:`repro.nn.model` — ``Sequential`` and the two-input
  ``MatcherModel`` topology used by both verifiers.
* :mod:`repro.nn.losses` — numerically stable BCE/CE on logits.
* :mod:`repro.nn.optim` — SGD with momentum and Adam.
* :mod:`repro.nn.train` — minibatch training loop with metrics.
* :mod:`repro.nn.data` — training-corpus generation from the raster
  substrate (the paper's §IV-A data collection process).
* :mod:`repro.nn.zoo` — named pretrained models with a disk cache.
* :mod:`repro.nn.infer` — the frozen inference engine: trained matchers
  compiled into allocation-free, fused float32 forward paths.
"""

from repro.nn.infer import (
    FrozenMatcher,
    FrozenNet,
    FrozenPairMatcher,
    freeze,
    frozen_twin,
    invalidate_frozen,
)
from repro.nn.layers import Conv2D, Dense, Flatten, Layer, MaxPool2D, ReLU
from repro.nn.model import MatcherModel, Sequential
from repro.nn.losses import (
    bce_loss_with_logits,
    ce_loss_with_logits,
    sigmoid,
    softmax,
)
from repro.nn.optim import SGD, Adam
from repro.nn.train import TrainReport, train_classifier, train_matcher
from repro.nn.serialize import load_model, save_model

__all__ = [
    "Layer",
    "Conv2D",
    "Dense",
    "Flatten",
    "MaxPool2D",
    "ReLU",
    "Sequential",
    "MatcherModel",
    "FrozenNet",
    "FrozenMatcher",
    "FrozenPairMatcher",
    "freeze",
    "frozen_twin",
    "invalidate_frozen",
    "sigmoid",
    "softmax",
    "bce_loss_with_logits",
    "ce_loss_with_logits",
    "SGD",
    "Adam",
    "TrainReport",
    "train_matcher",
    "train_classifier",
    "save_model",
    "load_model",
]
