"""The service-oriented witness API: WitnessService/WitnessSession/hooks.

Covers the multi-session redesign: one service concurrently witnessing
several guest machines over one warm model set, immutable configuration,
per-session teardown hygiene, event hooks, and the namespaced
cross-session digest cache.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.caches import DigestCache
from repro.core.service import SessionRegistry, WitnessConfig, WitnessService
from repro.crypto import CertificateAuthority
from repro.server import WebServer, WitnessedSite
from repro.web import Browser, HonestUser, Machine
from repro.web.extension import BrowserExtension, InputHint

from tests.conftest import make_transfer_page


def make_site(text_model, image_model, **config_overrides) -> WitnessedSite:
    config = WitnessConfig(batched=True).replace(**config_overrides)
    site = WitnessedSite(config=config, text_model=text_model, image_model=image_model)
    site.register_page("transfer", make_transfer_page())
    return site


class TestMultiSession:
    def test_two_concurrent_sessions_independent(self, text_model, image_model):
        """Two guests through one service: interleaved, independent verdicts."""
        site = make_site(text_model, image_model)
        alice = site.connect("transfer")
        bob = site.connect("transfer")
        assert site.service.registry.stats()["active"] == 2
        assert alice.witness is not bob.witness
        assert alice.vspec.session_id != bob.vspec.session_id

        # Interleave the two guests' activity.
        alice_user = HonestUser(alice.browser)
        bob_user = HonestUser(bob.browser)
        alice_user.fill_text_input("recipient", "ACC-1111")
        bob_user.fill_text_input("recipient", "ACC-2222")
        alice_user.fill_text_input("amount", "10")
        bob_user.fill_text_input("amount", "99")
        alice_user.toggle_checkbox("confirm", True)
        bob_user.toggle_checkbox("confirm", True)

        alice_decision = alice.submit()
        bob_decision = bob.submit()
        assert alice_decision.certified, alice_decision.reason
        assert bob_decision.certified, bob_decision.reason
        assert alice_decision.request.body["recipient"] == "ACC-1111"
        assert bob_decision.request.body["recipient"] == "ACC-2222"
        assert alice.witness.report is not bob.witness.report
        assert site.verify(alice_decision).ok
        assert site.verify(bob_decision).ok
        assert site.service.registry.stats()["active"] == 0

    def test_violation_in_one_session_does_not_leak(self, text_model, image_model):
        """A tampering guest fails alone; a concurrent honest guest certifies."""
        from repro.attacks.tamper import swap_text_on_display

        site = make_site(text_model, image_model)
        honest = site.connect("transfer")
        victim = site.connect("transfer")
        HonestUser(honest.browser).fill_text_input("recipient", "ACC-OK")
        swap_text_on_display(victim.machine, 24, 44, "Totally different text", size=16)
        victim.machine.clock.advance(1500)
        user = HonestUser(honest.browser)
        user.fill_text_input("amount", "5")
        user.toggle_checkbox("confirm", True)

        assert not victim.submit().certified
        decision = honest.submit()
        assert decision.certified, decision.reason

    def test_eight_concurrent_sessions_share_one_warm_model_set(
        self, text_model, image_model
    ):
        from repro.nn import zoo

        before = zoo.model_registry_stats()
        site = make_site(text_model, image_model)
        clients = [site.connect("transfer") for _ in range(8)]
        assert site.service.registry.stats()["peak_active"] == 8
        assert site.service.registry.stats()["active"] == 8

        def drive(pair):
            index, client = pair
            user = HonestUser(client.browser)
            user.fill_text_input("recipient", f"ACC-{index}")
            user.fill_text_input("amount", str(10 + index))
            user.toggle_checkbox("confirm", True)
            return client.submit()

        with ThreadPoolExecutor(max_workers=8) as pool:
            decisions = list(pool.map(drive, enumerate(clients)))

        assert all(d.certified for d in decisions), [d.reason for d in decisions]
        bodies = [d.request.body["recipient"] for d in decisions]
        assert bodies == [f"ACC-{i}" for i in range(8)]
        tracked = sum(c.witness.report.frames_tracked for c in clients)
        assert site.service.registry.stats()["frames_tracked"] == tracked > 0
        # One warm model set: no additional training (or even reloading)
        # happened to serve eight guests.
        after = zoo.model_registry_stats()
        assert after["trains"] == before["trains"]
        assert after["loads"] == before["loads"]
        # Every session's verifiers wrapped the very same model objects.
        assert site.service.text_model is text_model
        assert site.service.image_model is image_model

    def test_second_service_does_not_retrain(self, text_model, image_model):
        from repro.nn import zoo

        first = zoo.get_text_model("base")
        before = zoo.model_registry_stats()
        ca = CertificateAuthority()
        service = WitnessService(ca)  # no models passed: resolves via the zoo
        after = zoo.model_registry_stats()
        assert service.text_model is first
        assert after["trains"] == before["trains"]
        assert after["loads"] == before["loads"]
        assert after["hits"] > before["hits"]


class TestConfig:
    def test_config_is_immutable(self):
        config = WitnessConfig()
        with pytest.raises(Exception):
            config.batched = True

    def test_replace_derives_new_config(self):
        config = WitnessConfig(batched=True)
        derived = config.replace(sampler_seed=7)
        assert derived.sampler_seed == 7
        assert derived.batched is True
        assert config.sampler_seed == 0
        assert derived is not config

    def test_pinned_sampler_seed_honored(self, text_model, image_model):
        """Auto-offsetting applies only when the caller pinned nothing."""
        ca = CertificateAuthority()
        config = WitnessConfig(sampler_seed=3)
        service = WitnessService(ca, config, text_model=text_model, image_model=image_model)
        from repro.core.service import _SEED_STRIDE

        first = service.open_session(Machine(640, 480))
        second = service.open_session(Machine(640, 480))
        assert first.sampler_seed == 3
        assert second.sampler_seed == 3 + _SEED_STRIDE  # distinct by default
        pinned = service.open_session(Machine(640, 480), sampler_seed=7)
        assert pinned.sampler_seed == 7


class TestHooks:
    def test_frame_and_decision_hooks_fire(self, text_model, image_model):
        site = make_site(text_model, image_model)
        frames, decisions = [], []
        site.service.on_frame(lambda session, outcome: frames.append(outcome))
        site.service.on_decision(lambda session, decision: decisions.append(decision))
        client = site.connect("transfer")
        user = HonestUser(client.browser)
        user.fill_text_input("recipient", "ACC-1")
        user.fill_text_input("amount", "3")
        user.toggle_checkbox("confirm", True)
        decision = client.submit()
        assert decisions == [decision]
        assert len(frames) == client.witness.report.frames_sampled
        assert [f.index for f in frames] == list(range(len(frames)))
        assert frames[0].sampled_at_ms <= frames[-1].sampled_at_ms

    def test_violation_hook_fires_on_forged_hint(self, text_model, image_model):
        site = make_site(text_model, image_model)
        violations = []
        site.service.on_violation(lambda session, violation: violations.append(violation))
        client = site.connect("transfer")
        field = client.browser.page.find_input("recipient")
        # A dishonest extension hints a value never shown on the display.
        client.witness.receive_hint(
            InputHint(
                timestamp=client.machine.clock.now(),
                input_name="recipient",
                rect=field.rect.as_tuple(),
                value="attacker-account",
            )
        )
        client.machine.clock.advance(1200)
        decision = client.submit()
        assert not decision.certified
        assert violations, "hint-mismatch violation should have reached the hook"

    def test_clean_start_violation_lands_on_frame_zero_outcome(
        self, text_model, image_model
    ):
        """Hooks must see the clean-start violation on the very first frame."""
        from repro.web.elements import Button, Page, TextBlock, TextInput

        ca = CertificateAuthority()
        server = WebServer(ca)
        server.register_page(
            "long",
            Page(
                title="Long Form",
                width=640,
                elements=[TextBlock(f"Section {i} text", 14) for i in range(8)]
                + [TextInput("late", label="Late field"), Button("Send")],
            ),
        )
        service = WitnessService(
            ca, WitnessConfig(batched=True), text_model=text_model, image_model=image_model
        )
        machine = Machine(640, 300)
        browser = Browser(machine, server.serve_page("long"))
        witness = service.open_session(machine)
        extension = BrowserExtension(browser, server, witness)
        extension.acquire_vspecs("long")
        browser.scroll(200)  # guest starts mid-page: not a clean start
        browser.paint()
        outcomes = []
        service.on_frame(lambda session, outcome: outcomes.append(outcome))
        extension.begin_session()
        first = outcomes[0]
        assert any(v.rule == "clean-start" for v in first.new_violations)
        assert not first.clean
        assert witness.report.outcomes[0] is first

    def test_service_hooks_filter_on_session(self, text_model, image_model):
        """Service hooks see every session; filtering on ``session`` keeps
        one guest's frames, and each frame reaches the hook once."""
        site = make_site(text_model, image_model)
        one = site.connect("transfer")
        two = site.connect("transfer")
        seen = []
        site.service.on_frame(lambda session, outcome: seen.append((session, outcome)))
        two.machine.clock.advance(1000)  # drives only session two's sampling
        assert seen and {session for session, _ in seen} == {two.witness}
        mine = [outcome for session, outcome in seen if session is one.witness]
        assert mine == []
        one.machine.clock.advance(1000)
        mine = [outcome for session, outcome in seen if session is one.witness]
        assert mine == one.witness.report.outcomes[1:]
        theirs = [outcome for session, outcome in seen if session is two.witness]
        assert theirs == two.witness.report.outcomes[1:]
        one.submit()
        two.submit()


class TestLifecycle:
    def test_session_is_single_use(self, text_model, image_model):
        site = make_site(text_model, image_model)
        client = site.connect("transfer")
        HonestUser(client.browser).toggle_checkbox("confirm", True)
        client.submit()
        witness = client.witness
        assert witness.state == "ended"
        with pytest.raises(RuntimeError, match="already ended"):
            witness.end_session({})
        with pytest.raises(RuntimeError, match="open a new session"):
            witness.begin_session(client.vspec)
        with pytest.raises(RuntimeError, match="no active session"):
            witness.receive_hint(None)

    def test_teardown_drops_per_session_state(self, text_model, image_model):
        site = make_site(text_model, image_model)
        client = site.connect("transfer")
        witness = client.witness
        assert witness._sampler is not None and witness._tracker is not None
        report = witness.report
        frames_before_end = report.frames_sampled
        client.submit()
        assert witness._sampler is None
        assert witness._tracker is None
        assert witness._display is None
        # The report survives teardown for inspection.
        assert witness.report is report
        assert witness.report.frames_sampled >= frames_before_end
        # The machine's clock no longer drives this session.
        client.machine.clock.advance(2000)
        assert witness.report.frames_sampled == report.frames_sampled

    def test_context_manager_closes_abandoned_session(self, text_model, image_model):
        ca = CertificateAuthority()
        server = WebServer(ca)
        server.register_page("transfer", make_transfer_page())
        service = WitnessService(
            ca, WitnessConfig(batched=True), text_model=text_model, image_model=image_model
        )
        machine = Machine(640, 480)
        browser = Browser(machine, server.serve_page("transfer"))
        with service.open_session(machine) as witness:
            extension = BrowserExtension(browser, server, witness)
            extension.acquire_vspecs("transfer")
            browser.paint()
            extension.begin_session()
            assert service.registry.stats()["active"] == 1
        # Abandoned without end_session: closed, unregistered, detached.
        assert witness.state == "closed"
        assert service.registry.stats()["active"] == 0
        machine.clock.advance(2000)  # no observer left to fire
        with pytest.raises(RuntimeError):
            witness.end_session({})

    def test_abandoned_client_connection_does_not_leak(self, text_model, image_model):
        """A guest that never submits must not stay registered forever."""
        site = make_site(text_model, image_model)
        with site.connect("transfer") as client:
            assert site.service.registry.stats()["active"] == 1
        assert site.service.registry.stats()["active"] == 0
        assert client.witness.state == "closed"
        explicit = site.connect("transfer")
        explicit.close()
        explicit.close()  # idempotent
        assert site.service.registry.stats()["active"] == 0

    def test_finished_guests_need_no_cycle_collection(self, text_model, image_model):
        """Reference counting alone frees a finished guest: its frames and
        arrays never wait for a full cyclic collection.  One guest types
        and submits; the other leaves after frame 0 and has a clock
        observer that reaches back to its session, as a timing probe's
        does."""
        import gc

        site = make_site(text_model, image_model)

        def typing_guest():
            client = site.connect("transfer")
            HonestUser(client.browser).fill_text_input("recipient", "ACC-1234")
            assert client.submit().certified

        def frame_zero_guest():
            machine = Machine(640, 480)
            browser = Browser(machine, site.server.serve_page("transfer"))
            witness = site.service.open_session(machine)
            machine.clock.add_observer(lambda now_ms: witness.report)
            extension = BrowserExtension(browser, site.server, witness)
            extension.acquire_vspecs("transfer")
            browser.paint()
            extension.begin_session()
            witness.close()

        typing_guest()  # builds the service's lazily built state
        gc.collect()
        gc.disable()
        try:
            typing_guest()
            frame_zero_guest()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_hook_exception_leaves_report_consistent(self, text_model, image_model):
        """A raising hook surfaces to the driver but never half-records a frame."""
        site = make_site(text_model, image_model)
        client = site.connect("transfer")

        @site.service.on_frame
        def _explode(session, outcome):
            raise ValueError("observer bug")

        with pytest.raises(ValueError, match="observer bug"):
            client.machine.clock.advance(1000)
        report = client.witness.report
        assert len(report.frame_results) == report.frames_sampled
        assert len(report.timing.frame_times) == report.frames_sampled
        assert len(report.outcomes) == report.frames_sampled
        client.close()

    def test_registry_counts(self, text_model, image_model):
        site = make_site(text_model, image_model)
        registry = site.service.registry
        assert registry.stats()["total_opened"] == 0
        a = site.connect("transfer")
        b = site.connect("transfer")
        snap = registry.stats()
        assert (snap["active"], snap["total_opened"], snap["peak_active"]) == (2, 2, 2)
        HonestUser(a.browser).toggle_checkbox("confirm", True)
        a.submit()
        assert registry.stats()["active"] == 1
        assert registry.active() == [b.witness]
        b.submit()
        snap = registry.stats()
        assert (snap["active"], snap["total_opened"], snap["peak_active"]) == (0, 2, 2)
        assert site.service.telemetry()["sessions"] == snap


class TestCacheNamespacing:
    def test_scoped_views_are_disjoint(self):
        cache = DigestCache()
        text = cache.scoped("text")
        image = cache.scoped("image")
        text.put("digest-123", True)
        assert text.get("digest-123") is True
        assert image.get("digest-123") is None
        image.put("digest-123", False)
        assert text.get("digest-123") is True
        assert image.get("digest-123") is False
        assert len(cache) == 2
        assert len(text) == 1 and len(image) == 1

    def test_scoped_stats_aggregate_on_parent(self):
        cache = DigestCache()
        text = cache.scoped("text")
        text.get("missing")
        text.put("k", True)
        text.get("k")
        assert cache.misses == 1 and cache.hits == 1
        assert text.hit_rate == cache.hit_rate == 0.5

    def test_sessions_share_one_namespaced_cache(self, text_model, image_model):
        """Both verifier kinds sit over one store, in disjoint namespaces."""
        site = make_site(text_model, image_model)
        client = site.connect("transfer")
        shared = site.service.shared_cache
        assert client.witness._text_verifier.cache.parent is shared
        assert client.witness._image_verifier.cache.parent is shared
        assert client.witness._text_verifier.cache.namespace == "text"
        assert client.witness._image_verifier.cache.namespace == "image"
        HonestUser(client.browser).toggle_checkbox("confirm", True)
        client.submit()
        assert len(shared) > 0
        # A second guest warm-starts from the first guest's verdicts.
        hits_before = shared.hits
        second = site.connect("transfer")
        HonestUser(second.browser).toggle_checkbox("confirm", True)
        second.submit()
        assert shared.hits > hits_before


class TestRegistryStats:
    def test_stats_snapshot_is_consistent_under_churn(self):
        registry = SessionRegistry()
        errors = []

        class StubSession:
            id = 0

        def churn():
            for i in range(200):
                session = StubSession()
                session.id = registry.register(session)
                registry.note_tracked()
                if i % 2:
                    registry.note_quarantine()
                snap = registry.stats()
                # A snapshot can never tear: every opened session is
                # either active or was active before this peak, and each
                # session is opened before its tracked frame is counted,
                # and that before its quarantine.
                if not (
                    snap["peak_active"] >= snap["active"]
                    and snap["total_opened"] >= snap["active"]
                    and snap["total_opened"] >= snap["frames_tracked"] >= snap["quarantined"]
                ):
                    errors.append(snap)
                registry.unregister(session)

        threads = [threading.Thread(target=churn) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert errors == []
        final = registry.stats()
        assert final == {
            "active": 0,
            "total_opened": 800,
            "peak_active": final["peak_active"],
            "frames_tracked": 800,
            "quarantined": 400,
        }
        assert 1 <= final["peak_active"] <= 4


class TestViewportTracking:
    """Frames whose changes all lie inside input boxes reuse the last
    located offset; everything else searches."""

    def _typing_client(self, text_model, image_model):
        site = make_site(text_model, image_model)
        client = site.connect("transfer", display=(640, 240))
        user = HonestUser(client.browser)
        user.fill_text_input("recipient", "ACC-1234")
        report = client.witness.report
        assert report.frames_tracked > 0
        return site, client, user

    def test_typing_frames_are_tracked_and_counted(self, text_model, image_model):
        site, client, _user = self._typing_client(text_model, image_model)
        decision = client.submit()
        assert decision.certified, decision.reason
        report = client.witness.report
        assert sum(o.viewport_tracked for o in report.outcomes) == report.frames_tracked
        assert site.service.registry.stats()["frames_tracked"] == report.frames_tracked

    def test_small_scrolls_are_never_tracked(self, text_model, image_model):
        _site, client, _user = self._typing_client(text_model, image_model)
        outcomes = client.witness.report.outcomes
        for rows in (1, 2, 3, 4, 1):
            seen = len(outcomes)
            client.browser.scroll(rows)
            client.machine.clock.advance(1200)
            validated = [o for o in outcomes[seen:] if not o.skipped_unchanged]
            assert validated, rows
            assert not validated[0].viewport_tracked, rows
            assert validated[0].offset_y == client.browser.scroll_y, rows
        assert client.submit().certified

    def test_tamper_inside_input_box_on_tracked_frame_refused(self, text_model, image_model):
        from repro.attacks.tamper import swap_text_on_display
        from repro.web import layout as lay

        _site, client, _user = self._typing_client(text_model, image_model)
        outcomes = client.witness.report.outcomes
        seen = len(outcomes)
        field = client.browser.page.find_input("recipient")
        ox, oy = lay.text_origin_in_input(field)
        swap_text_on_display(
            client.machine, ox, oy - client.browser.scroll_y, "ACC-6666",
            size=field.text_size, background=252.0,
        )
        client.machine.clock.advance(1200)
        tampered = [o for o in outcomes[seen:] if not o.skipped_unchanged][0]
        assert tampered.viewport_tracked
        assert not tampered.ok
        assert not client.submit().certified

    def test_tracked_frame_counter_loses_no_update(self, text_model, image_model):
        """Sessions on many threads bump one service-wide counter."""
        import sys

        service = make_site(text_model, image_model).service
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda: [service.registry.note_tracked() for _ in range(2000)]
                )
                for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert service.registry.stats()["frames_tracked"] == 16000
