"""Scenario-diversity soak harness.

Declarative scenario generation (:class:`ScenarioSpec` -> page
archetypes x user scripts) plus the deterministic soak driver
(:func:`run_soak`) that proves both engine combinations — chunked and
per-unit forwards — compute bit-identical decisions, violations and
certified requests across every display condition a guest can produce.
"""

from repro.scenarios.pages import ARCHETYPES, DISPLAYS, archetype_stack, build_archetype_pages
from repro.scenarios.scripts import fill_elements, run_script
from repro.scenarios.soak import (
    ENGINE_COMBOS,
    Crash,
    Divergence,
    EngineCombo,
    ScenarioOutcome,
    SoakResult,
    combo_by_name,
    default_soak_specs,
    run_scenario,
    run_soak,
    session_fingerprint,
)
from repro.scenarios.spec import SCRIPTS, Scenario, ScenarioSpec

__all__ = [
    "ARCHETYPES",
    "DISPLAYS",
    "SCRIPTS",
    "ENGINE_COMBOS",
    "Crash",
    "Divergence",
    "EngineCombo",
    "Scenario",
    "ScenarioOutcome",
    "ScenarioSpec",
    "SoakResult",
    "archetype_stack",
    "build_archetype_pages",
    "combo_by_name",
    "default_soak_specs",
    "fill_elements",
    "run_scenario",
    "run_script",
    "run_soak",
    "session_fingerprint",
]
