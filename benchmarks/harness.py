"""Shared machinery for the evaluation benchmarks (Tables VI-IX, Figs 5-6).

Wraps the paper's two workloads:

* **Jotform first-frame validation** — render a generated form on a
  client rendering stack and validate the first display frame against its
  VSPEC, measuring wall time and model invocations.
* **Interactive sessions** — drive a full vWitness session with the
  honest-user model filling the form (the paper's "recorded interactions
  of filling out a form").
* **Clickbench whole-screen validation** — pseudo-VSPEC validation of a
  screenshot pair with the graphics model only.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass

from repro.core.caches import DigestCache
from repro.core.display import DisplayValidator
from repro.core.verifiers import ImageVerifier, TextVerifier
from repro.crypto import CertificateAuthority
from repro.datasets.forms import jotform_page, sample_user_entries
from repro.nn.model import PREDICT_CHUNK
from repro.raster.stacks import stack_registry
from repro.server import WebServer
from repro.server.generate import build_vspec
from repro.web.browser import Browser
from repro.web.extension import BrowserExtension
from repro.web.hypervisor import Machine
from repro.web.user import HonestUser


@dataclass
class FirstFrameResult:
    """One first-frame validation measurement (incl. plan-size stats)."""

    seed: int
    ok: bool
    seconds: float
    text_invocations: int
    image_invocations: int
    plan_text_units: int = 0
    plan_image_pairs: int = 0
    text_forwards: int = 0
    image_forwards: int = 0

    @property
    def plan_units(self) -> int:
        return self.plan_text_units + self.plan_image_pairs

    @property
    def forwards(self) -> int:
        return self.text_forwards + self.image_forwards


def jotform_first_frame(seed: int, text_model, image_model, batched: bool) -> FirstFrameResult:
    """Validate the first display frame of a generated form."""
    page = jotform_page(seed)
    vspec = build_vspec(copy.deepcopy(page), f"jf-{seed}")
    stack = stack_registry()[seed % len(stack_registry())]
    machine = Machine(640, min(600, vspec.height))
    browser = Browser(machine, copy.deepcopy(page), stack=stack)
    browser.paint()
    frame = machine.sample_framebuffer().pixels
    cache = DigestCache()
    chunk_size = PREDICT_CHUNK if batched else 1
    text_verifier = TextVerifier(text_model, cache=cache.scoped("text"), chunk_size=chunk_size)
    image_verifier = ImageVerifier(image_model, cache=cache.scoped("image"), chunk_size=chunk_size)
    validator = DisplayValidator(vspec, text_verifier, image_verifier)
    t0 = time.perf_counter()
    result = validator.validate(frame)
    seconds = time.perf_counter() - t0
    return FirstFrameResult(
        seed=seed,
        ok=result.ok,
        seconds=seconds,
        text_invocations=result.text_invocations,
        image_invocations=result.image_invocations,
        plan_text_units=result.plan_text_units,
        plan_image_pairs=result.plan_image_pairs,
        text_forwards=result.text_forwards,
        image_forwards=result.image_forwards,
    )


def fill_page_as_user(user: HonestUser, page, entries: dict) -> None:
    """Drive the honest user through every field of a generated form."""
    from repro.scenarios.scripts import fill_elements

    fill_elements(user, page, entries)


def run_interactive_session(
    seed: int,
    text_model,
    image_model,
    batched: bool,
    caching: bool = True,
):
    """A full witnessed session on a generated form with an honest user.

    Runs through the service API: a fresh per-call :class:`WitnessService`
    (it shares the process-wide warm models) vending one session handle.
    Returns ``(decision, report, virtual_session_seconds)``.
    """
    from repro.core.service import WitnessConfig, WitnessService

    ca = CertificateAuthority()
    server = WebServer(ca)
    page_id = f"jf-{seed}"
    server.register_page(page_id, jotform_page(seed))
    client_page = server.serve_page(page_id)
    machine = Machine(640, 600)
    browser = Browser(machine, client_page, stack=stack_registry()[seed % len(stack_registry())])
    service = WitnessService(
        ca,
        WitnessConfig(batched=batched, caching=caching, sampler_seed=seed),
        text_model=text_model,
        image_model=image_model,
    )
    with service:
        with service.open_session(machine) as witness:
            extension = BrowserExtension(browser, server, witness)
            vspec = extension.acquire_vspecs(page_id)
            browser.paint()
            extension.begin_session()
            user = HonestUser(browser, seed=seed)
            entries = sample_user_entries(client_page, seed)
            fill_page_as_user(user, client_page, entries)
            body = dict(client_page.form_values())
            body["session_id"] = vspec.session_id
            session_seconds = machine.clock.now() / 1000.0
            decision = extension.end_session(body)
            return decision, witness.report, session_seconds


def summarize(values) -> dict:
    """mean/max/min/stdev summary used across the timing tables."""
    import numpy as np

    arr = np.asarray(list(values), dtype=float)
    return {
        "mean": float(arr.mean()),
        "max": float(arr.max()),
        "min": float(arr.min()),
        "stdev": float(arr.std()),
    }
