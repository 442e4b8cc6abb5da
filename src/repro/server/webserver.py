"""The protected web server: VSPEC issuance and request verification.

Implements the server side of the workflow (paper §III-B): serving VSPECs
tailored to the client width with fresh session IDs, and — on receiving a
certified request — verifying the certificate chain, the signature, the
VSPEC echo and session freshness (replay defense).

:class:`WitnessedSite` couples a :class:`WebServer` with a
:class:`~repro.core.service.WitnessService`: one long-lived deployment
that provisions the witness once and connects any number of concurrent
guest clients, each getting its own machine, browser, extension and
witness session handle.
"""

from __future__ import annotations

import copy
import secrets
from dataclasses import dataclass

from repro.core.service import WitnessConfig, WitnessService, WitnessSession
from repro.crypto.ca import CertificateAuthority, CertificateError
from repro.crypto.signing import CertifiedRequest, SignatureError, verify_request
from repro.server.generate import build_vspec
from repro.vspec.serialize import vspec_digest
from repro.vspec.spec import VSpec
from repro.web.elements import Page


@dataclass(frozen=True)
class VerificationResult:
    """The server's verdict on a certified request."""

    ok: bool
    reason: str

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


class WebServer:
    """A server hosting vWitness-protected pages."""

    def __init__(self, ca: CertificateAuthority) -> None:
        self.ca = ca
        self._pages: dict = {}
        self._validations: dict = {}
        self._issued: dict = {}  # session_id -> vspec digest
        self._used_sessions: set = set()

    # -- setup ------------------------------------------------------------

    def register_page(self, page_id: str, page: Page, validation=None) -> None:
        """One-time page registration.

        The server keeps its own pristine copy: whatever a client later
        does to its served page cannot leak into issued VSPECs, which
        :meth:`vspec_for` builds from it for every guest.
        """
        if page_id in self._pages:
            raise ValueError(f"page {page_id!r} already registered")
        self._pages[page_id] = copy.deepcopy(page)
        self._validations[page_id] = validation

    def page(self, page_id: str) -> Page:
        """The server's canonical (pristine) page object."""
        return self._pages[page_id]

    def serve_page(self, page_id: str) -> Page:
        """A fresh page copy for a client (what an HTTP response delivers)."""
        return copy.deepcopy(self._pages[page_id])

    # -- VSPEC issuance --------------------------------------------------------

    def vspec_for(self, page_id: str, client_width: int) -> VSpec:
        """Issue a fresh-session VSPEC for a client at ``client_width``.

        The expected appearance is a function of the client width; a width
        the page was not designed for is a client-side incompatibility the
        extension must resolve (our pages are fixed-width, so a mismatch
        is rejected here — the viewport detector would fail anyway).
        """
        if page_id not in self._pages:
            raise KeyError(f"unknown page {page_id!r}")
        page = self._pages[page_id]
        if client_width != page.width:
            raise ValueError(
                f"client width {client_width} unsupported for page {page_id!r} "
                f"(expected {page.width})"
            )
        session_id = secrets.token_hex(16)
        vspec = build_vspec(
            page,
            page_id,
            validation=self._validations[page_id],
            session_id=session_id,
            extra_fields={"session_id": session_id},
        )
        self._issued[session_id] = vspec_digest(vspec)
        return vspec

    # -- request verification -----------------------------------------------------

    def verify(self, request: CertifiedRequest) -> VerificationResult:
        """Steps 1-3 of the server-side workflow plus freshness."""
        try:
            verify_request(request, self.ca)
        except CertificateError as exc:
            return VerificationResult(False, f"certificate: {exc}")
        except SignatureError as exc:
            return VerificationResult(False, f"signature: {exc}")

        session_id = str(request.body.get("session_id", ""))
        if session_id not in self._issued:
            return VerificationResult(False, "unknown session id (no VSPEC issued)")
        if session_id in self._used_sessions:
            return VerificationResult(False, "replayed session id")
        if request.vspec_digest != self._issued[session_id]:
            return VerificationResult(False, "VSPEC echo does not match the issued VSPEC")
        self._used_sessions.add(session_id)
        return VerificationResult(True, "request certified with interaction integrity")

    def accept_uncertified(self, body: dict) -> VerificationResult:
        """What happens to a bare request: rejected for missing certification."""
        return VerificationResult(False, "request lacks vWitness certification")


@dataclass
class ClientConnection:
    """One guest client wired into a :class:`WitnessedSite` deployment.

    Every connection must end in :meth:`submit` or :meth:`close` —
    otherwise its witness session stays registered with the long-lived
    service forever.  Use it as a context manager to guarantee that.
    """

    machine: object
    browser: object
    extension: object
    witness: WitnessSession
    vspec: VSpec

    def submit_body(self, **overrides) -> dict:
        """The request body the page would build, plus ``overrides``."""
        body = dict(self.browser.page.form_values())
        body["session_id"] = self.vspec.session_id
        body.update(overrides)
        return body

    def submit(self, body: dict | None = None, **overrides):
        """End the witness session over ``body`` (default: the page's own)."""
        return self.extension.end_session(
            body if body is not None else self.submit_body(**overrides)
        )

    def close(self) -> None:
        """Abandon the connection without certifying (idempotent)."""
        self.witness.close()

    def __enter__(self) -> "ClientConnection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def connect_guest(
    server: WebServer,
    service: WitnessService,
    page_id: str,
    *,
    display=(640, 480),
    stack=None,
    sampler_seed: int | None = None,
) -> ClientConnection:
    """Wire up one guest client against any server/service pair.

    The single implementation of the machine/browser/extension/session
    boilerplate: :meth:`WitnessedSite.connect` and the scenario soak both
    delegate here.  ``sampler_seed`` pins the witness sampling schedule
    (deterministic replay); ``None`` keeps the service's derived seeds.
    """
    from repro.web.browser import Browser
    from repro.web.extension import BrowserExtension
    from repro.web.hypervisor import Machine

    machine = Machine(*display)
    kwargs = {"stack": stack} if stack is not None else {}
    browser = Browser(machine, server.serve_page(page_id), **kwargs)
    witness = service.open_session(machine, sampler_seed=sampler_seed)
    try:
        extension = BrowserExtension(browser, server, witness)
        vspec = extension.acquire_vspecs(page_id)
        browser.paint()
        extension.begin_session()
    except BaseException:
        # Wiring failed mid-way (e.g. a raising frame-0 hook): the
        # caller never gets a handle, so release the session here.
        witness.close()
        raise
    return ClientConnection(machine, browser, extension, witness, vspec)


class WitnessedSite:
    """A protected deployment: one web server plus one witness service.

    Owns the CA, the :class:`WebServer` and the
    :class:`~repro.core.service.WitnessService` (provisioned once —
    models, sealed key, certificate, shared cache) and vends fully wired
    client connections via :meth:`connect`, so examples and benchmarks
    need none of the machine/browser/extension boilerplate.
    """

    def __init__(
        self,
        ca: CertificateAuthority | None = None,
        config: WitnessConfig | None = None,
        *,
        text_model=None,
        image_model=None,
    ) -> None:
        self.ca = ca or CertificateAuthority()
        self.server = WebServer(self.ca)
        self.service = WitnessService(
            self.ca, config, text_model=text_model, image_model=image_model
        )

    def register_page(self, page_id: str, page: Page, validation=None) -> None:
        self.server.register_page(page_id, page, validation)

    def connect(self, page_id: str, display=(640, 480), stack=None) -> ClientConnection:
        """Wire up one guest client and begin its witnessed session.

        End every connection with ``submit()`` or ``close()`` (or use it
        as a context manager) so the service drops the session handle.
        """
        return connect_guest(self.server, self.service, page_id, display=display, stack=stack)

    def verify(self, decision) -> VerificationResult:
        """Server-side verification of a certified decision's request."""
        if decision.request is None:
            return VerificationResult(False, "request was not certified by the witness")
        return self.server.verify(decision.request)
