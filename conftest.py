"""Repo-level pytest configuration.

``REPRO_WITNESS_SAN=1`` arms witness-san (the runtime lock-order and
arena-confinement sanitizer, :mod:`repro.analysis.sanitizer`) for the
whole pytest session: every lock ordering and workspace-arena checkout
the run performs is recorded and cross-checked against the static model
at teardown — an inversion, an unmodeled edge, or a cross-thread arena
access fails the session.  The CI ``sanitizer`` job runs the service
and validation-plan suites this way.
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _witness_san():
    if os.environ.get("REPRO_WITNESS_SAN") != "1":
        yield
        return
    from repro.analysis import sanitizer

    state = sanitizer.enable()
    # Build (and cache) the static model up front: doing it at teardown
    # would hide analysis-pass errors until after the whole run.
    model = sanitizer.static_lock_model()
    yield
    sanitizer.disable()
    problems = state.check(model)
    summary = state.summary()
    assert not problems, (
        "witness-san: runtime concurrency violations "
        f"(after {summary['acquires']} acquisitions, "
        f"{summary['pool_checks']} pool checkouts):\n" + "\n".join(problems)
    )

