"""Tests for the scenario generator and the soak driver.

The cheap structural properties run without models; the driver and
parity tests reuse the session-scoped trained models.
"""

import numpy as np
import pytest

from repro.scenarios import (
    ARCHETYPES,
    DISPLAYS,
    ENGINE_COMBOS,
    SCRIPTS,
    ScenarioSpec,
    combo_by_name,
    default_soak_specs,
    run_soak,
)
from repro.scenarios.soak import _describe_divergence
from repro.web.elements import ScrollableList
from repro.web.layout import layout_page


class TestGenerator:
    def test_every_archetype_builds(self):
        for archetype in ARCHETYPES:
            scenario = ScenarioSpec(archetype, seed=3).build()
            assert scenario.pages
            for _page_id, page in scenario.pages:
                assert page.width == scenario.display[0]
                assert layout_page(page) > 0

    def test_generation_is_deterministic(self):
        for archetype in ARCHETYPES:
            a = ScenarioSpec(archetype, seed=5).build()
            b = ScenarioSpec(archetype, seed=5).build()
            assert a.sampler_seed == b.sampler_seed
            assert a.stack == b.stack
            assert a.entries == b.entries
            for (_ia, pa), (_ib, pb) in zip(a.pages, b.pages):
                assert [type(e).__name__ for e in pa.elements] == [
                    type(e).__name__ for e in pb.elements
                ]
                assert layout_page(pa) == layout_page(pb)

    def test_seeds_vary_the_pages(self):
        kinds = set()
        for seed in range(4):
            scenario = ScenarioSpec("tall-form", seed=seed).build()
            kinds.add(
                tuple(
                    getattr(e, "name", None)
                    for e in scenario.pages[0][1].elements
                )
            )
        assert len(kinds) > 1

    def test_tall_form_scrolls(self):
        scenario = ScenarioSpec("tall-form").build()
        assert layout_page(scenario.pages[0][1]) > scenario.display[1]

    def test_letterbox_page_shorter_than_display(self):
        scenario = ScenarioSpec("letterbox").build()
        assert layout_page(scenario.pages[0][1]) < scenario.display[1]

    def test_wizard_has_multiple_steps(self):
        scenario = ScenarioSpec("wizard").build()
        assert scenario.steps == 3
        assert len({pid for pid, _ in scenario.pages}) == 3
        assert len(scenario.entries) == 3

    def test_nested_scroll_list_below_the_fold(self):
        scenario = ScenarioSpec("nested-scroll").build()
        page = scenario.pages[0][1]
        layout_page(page)
        lists = [e for e in page.elements if isinstance(e, ScrollableList)]
        assert len(lists) == 1
        assert lists[0].rect.y2 > scenario.display[1]  # needs page scroll

    def test_mixed_stack_uses_randomized_stack(self):
        scenario = ScenarioSpec("mixed-stack", seed=2).build()
        assert scenario.stack.name.startswith("random-")

    def test_unknown_archetype_and_script_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec("kiosk")
        with pytest.raises(ValueError):
            ScenarioSpec("tall-form", script="chaotic")

    def test_spec_key_identifies_instance(self):
        spec = ScenarioSpec("dashboard", script="tampered", seed=7)
        assert spec.key == "dashboard/tampered#7"
        assert spec.with_seed(9).key == "dashboard/tampered#9"

    def test_default_matrix_covers_everything(self):
        specs = default_soak_specs()
        assert set(ARCHETYPES) == {s.archetype for s in specs}
        assert set(SCRIPTS) == {s.script for s in specs}


class TestCombos:
    def test_two_combos(self):
        assert [c.name for c in ENGINE_COMBOS] == [
            "batched-inline-frozen",
            "sequential-inline-frozen",
        ]
        for combo in ENGINE_COMBOS:
            assert combo.config().batched == combo.batched

    def test_combo_by_name(self):
        assert combo_by_name("sequential-inline-frozen") is ENGINE_COMBOS[1]
        with pytest.raises(KeyError):
            combo_by_name("batched-quantum-frozen")

    def test_describe_divergence_pinpoints_field(self):
        base = ((("True", "ok"), True, (), True, ((0, 1.0, True, 0, False, (), ()),)),)
        other = ((("True", "ok"), True, (), True, ((0, 1.0, False, 0, False, (), ()),)),)
        detail = _describe_divergence(base, other)
        assert "frame 0" in detail and "ok" in detail
        shorter = (((("True", "ok")), True, (), True, ()),)
        assert "session" in _describe_divergence(base, shorter)


class TestSoakDriver:
    @pytest.fixture(scope="class")
    def tiny_soak(self, text_model, image_model):
        """One cheap archetype, honest + tampered, two engine combos."""
        return run_soak(
            [
                ScenarioSpec("letterbox", script="honest"),
                ScenarioSpec("letterbox", script="tampered"),
                ScenarioSpec("letterbox", script="abandoning"),
            ],
            combos=(ENGINE_COMBOS[0], combo_by_name("sequential-inline-frozen")),
            text_model=text_model,
            image_model=image_model,
        )

    def test_soak_is_clean(self, tiny_soak):
        assert tiny_soak.ok, tiny_soak.summary()

    def test_soak_accounting(self, tiny_soak):
        assert tiny_soak.scenarios == 3
        assert tiny_soak.sessions_total == 6  # 3 scenarios x 2 combos
        assert tiny_soak.certified_total == 2  # honest certifies in each combo
        assert set(tiny_soak.sessions_per_combo) == set(tiny_soak.combos)
        assert tiny_soak.frames_total > 0
        assert tiny_soak.sessions_per_second > 0
        assert "letterbox" in tiny_soak.summary()

    def test_fingerprints_scrub_session_nonces(self, text_model, image_model):
        """Two runs of the same spec under the same combo fingerprint
        identically even though session ids and key material differ."""
        spec = ScenarioSpec("letterbox", script="honest")
        results = [
            run_soak([spec], combos=ENGINE_COMBOS[:1],
                     text_model=text_model, image_model=image_model)
            for _ in range(2)
        ]
        assert results[0].ok and results[1].ok

    def test_baseline_reordering(self, text_model, image_model):
        res = run_soak(
            [ScenarioSpec("letterbox")],
            combos=(ENGINE_COMBOS[0], ENGINE_COMBOS[1]),
            baseline="sequential-inline-frozen",
            text_model=text_model,
            image_model=image_model,
        )
        assert res.baseline == "sequential-inline-frozen"
        assert res.combos[0] == "sequential-inline-frozen"
        assert res.ok, res.summary()


class TestConcurrentFleets:
    def test_threaded_fleet_fingerprints_match_across_combos(self, text_model, image_model):
        """Driving scenario fleets concurrently through one service (shared
        models and digest cache, each session inline on its own thread)
        must not change a fingerprint: both combos run threaded and still
        agree."""
        res = run_soak(
            [
                ScenarioSpec("letterbox", script="honest"),
                ScenarioSpec("letterbox", script="tampered", seed=1),
                ScenarioSpec("letterbox", script="abandoning", seed=2),
            ],
            combos=ENGINE_COMBOS,
            text_model=text_model,
            image_model=image_model,
            threads=3,
        )
        assert res.ok, res.summary()
        assert res.sessions_per_combo == {c.name: 3 for c in ENGINE_COMBOS}


class TestScrollRefocusParity:
    def test_interleaved_scroll_focus_type_parity(self, text_model, image_model):
        """Satellite: a session with interleaved scroll/focus/type events
        (the tall form's fill + scroll-back-and-retype revisit) yields
        identical verdicts batched vs sequential."""
        res = run_soak(
            [ScenarioSpec("tall-form", script="honest", seed=1)],
            combos=ENGINE_COMBOS,
            text_model=text_model,
            image_model=image_model,
        )
        assert res.ok, res.summary()
        assert res.certified_total == 2  # one honest certification per combo


class TestViewportTracking:
    def test_tracked_offsets_equal_exhaustive_search(self, text_model, image_model, monkeypatch):
        """Over the default soak matrix, every frame whose viewport was
        tracked gets the offset and score a fresh exhaustive search of the
        same frame and tracked state reports."""
        from repro.core.display import DisplayValidator

        real = DisplayValidator.locate_viewport
        compared = []

        def checked(self, frame, tracked_inputs=None, unmoved_from=None):
            located = real(self, frame, tracked_inputs, unmoved_from)
            if unmoved_from is not None and located[0] == unmoved_from:
                compared.append((located, real(self, frame, tracked_inputs)))
            return located

        monkeypatch.setattr(DisplayValidator, "locate_viewport", checked)
        res = run_soak(
            default_soak_specs(),
            combos=ENGINE_COMBOS[:1],
            text_model=text_model,
            image_model=image_model,
        )
        assert res.ok, res.summary()
        assert len(compared) > 50
        assert all(located == searched for located, searched in compared)
