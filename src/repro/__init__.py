"""vWitness reproduction: certifying web page interactions with computer vision.

A from-scratch Python implementation of the system described in
*vWitness: Certifying Web Page Interactions with Computer Vision*
(He Shuang, Lianying Zhao, David Lie — DSN 2023), including every
substrate the paper's prototype depends on: classical vision
(:mod:`repro.vision`), a CNN library with input-gradient backprop
(:mod:`repro.nn`), a text/icon rasterizer with rendering-stack variation
(:mod:`repro.raster`), an untrusted web client (:mod:`repro.web`), the
VSPEC specification model (:mod:`repro.vspec`), server-side scripts
(:mod:`repro.server`), sealing/certificates/signatures
(:mod:`repro.crypto`), and the trusted witness itself
(:mod:`repro.core`).  Adversarial attacks (:mod:`repro.adversarial`),
threat-model attack implementations (:mod:`repro.attacks`), evaluation
datasets (:mod:`repro.datasets`) and baselines (:mod:`repro.baselines`)
reproduce the paper's §V-§VI evaluation.  The scenario-diversity soak
harness (:mod:`repro.scenarios`) generates witnessed sessions across
page archetypes and user scripts and proves every engine combination
computes bit-identical verdicts.

Entry points:

>>> from repro.core.service import WitnessConfig, WitnessService
>>> from repro.server import WebServer, WitnessedSite
>>> from repro.web import Browser, Machine, Page

See README.md: "Quickstart: the WitnessService API" for the entry
points, "Layout" for the package map, and "Performance" for measured
results (one file per paper table under ``benchmarks/results/``).
"""

__version__ = "1.0.0"

#: The paper this package reproduces.
PAPER = (
    "He Shuang, Lianying Zhao, David Lie. "
    "vWitness: Certifying Web Page Interactions with Computer Vision. "
    "DSN 2023 (arXiv:2007.15805)."
)
