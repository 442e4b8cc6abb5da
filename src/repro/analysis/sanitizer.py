"""witness-san: the runtime twin of the static concurrency checkers.

The callgraph pass (:mod:`repro.analysis.callgraph`) is deliberately
conservative: calls through untyped callables resolve to nothing, lock
objects handed across constructors alias invisibly, and dynamic
dispatch hides nesting entirely.  This module closes that gap from the
other side — it *observes* the concurrency the process actually
performs and cross-checks it against the static model:

* ``threading.Lock`` / ``RLock`` / ``Condition`` are monkeypatched with
  wrapper factories while enabled.  Only locks created by modules under
  the tracked prefixes (``repro.*``) are wrapped — stdlib internals
  (``queue``, ``concurrent.futures``, ``logging``) get real locks, so
  instrumentation never changes their behavior.  Each wrapped lock
  resolves its own stable node id lazily (scan the creating ``self``'s
  attributes, else the creating module's globals), producing exactly
  the ids the callgraph uses: ``module.Class.attr`` / ``module.NAME``.
* every acquisition records the ``held -> new`` ordering pairs for the
  acquiring thread (a per-thread stack with reentrancy depths;
  ``Condition.wait`` keeps the stack unchanged — the wait atomically
  releases and reacquires the same condition).
* frozen-engine workspace checkouts are ownership-tagged:
  ``_Arena.workspace`` calls :meth:`SanitizerState.note_pool_use`
  through the module-global ``_SAN`` seam of :mod:`repro.nn.infer`
  (``None`` when disabled — the ``NULL_SPAN`` / ``FaultInjector``
  disarmed pattern, one ``is None`` test of overhead).  An arena is
  pinned to its thread at creation (an untagged one is claimed by its
  first checkout); any checkout from another thread is a confinement
  violation, however the reference traveled.

:meth:`SanitizerState.check` then fails on

* **inversions** — both ``(A, B)`` and ``(B, A)`` observed at runtime
  (a deadlock needs only unlucky timing);
* **unmodeled edges** — a runtime ordering outside the transitive
  closure of the static graph (inferred edges plus the declared ledger
  in ``AnalysisConfig.declared_lock_order``): either the nesting is new
  and must join the ledger, or the static pass has a blind spot worth
  recording;
* **pool violations** — cross-thread workspace-arena use.

Module-level locks created at import time (``infer._TWIN_LOCK``,
``zoo._REGISTRY_LOCK``) predate :func:`enable` and stay real: the
sanitizer observes orderings among locks created while armed, which in
practice means every per-object runtime lock.  Zero cost when off:
nothing is patched and the arena seam is a ``None`` check.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import weakref

#: Only locks created by these module prefixes are wrapped.
TRACKED_PREFIXES = ("repro",)


def _creator_context():
    """(module name, weakref to creating ``self``) of a factory call."""
    frame = sys._getframe(2)  # factory -> caller
    module = frame.f_globals.get("__name__", "")
    owner = frame.f_locals.get("self")
    ref = None
    if owner is not None:
        try:
            ref = weakref.ref(owner)
        except TypeError:
            ref = None
    return module, ref


class _Tracked:
    """Shared wrapper behavior: delegation plus lazy node-id naming."""

    __slots__ = ("_state", "_real", "_san_module", "_san_owner", "_san_seq", "_san_name", "__weakref__")

    def __init__(self, state, real, module, owner_ref, seq) -> None:
        self._state = state
        self._real = real
        self._san_module = module
        self._san_owner = owner_ref
        self._san_seq = seq
        self._san_name = None

    # -- naming --------------------------------------------------------------

    def san_name(self) -> str:
        """This lock's node id (callgraph format), resolved once.

        Resolution order mirrors how repro code creates locks: an
        attribute on the object whose ``__init__`` ran the factory
        (``self._lock = threading.Lock()`` — including locks *handed on*
        to other objects, which keep their creator's name, exactly the
        aliasing the declared ledger documents), else a global of the
        creating module, else a stable per-creation fallback.
        """
        if self._san_name is None:
            self._san_name = self._resolve_name()
        return self._san_name

    def _resolve_name(self) -> str:
        owner = self._san_owner() if self._san_owner is not None else None
        if owner is not None:
            attrs = getattr(owner, "__dict__", None) or {}
            for attr, value in attrs.items():
                if value is self:
                    cls = type(owner)
                    return f"{cls.__module__}.{cls.__qualname__}.{attr}"
        mod = sys.modules.get(self._san_module)
        if mod is not None:
            for name, value in vars(mod).items():
                if value is self:
                    return f"{self._san_module}.{name}"
        return f"{self._san_module}.<lock#{self._san_seq}>"

    # -- lock protocol -------------------------------------------------------

    def acquire(self, *args, **kwargs):
        got = self._real.acquire(*args, **kwargs)
        if got:
            self._state.note_acquire(self)
        return got

    def release(self):
        self._state.note_release(self)
        self._real.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False


class _SanLock(_Tracked):
    """Wrapped ``Lock``/``RLock`` (the real lock keeps the semantics)."""

    __slots__ = ()

    def locked(self):
        return self._real.locked()


class _SanCondition(_Tracked):
    """Wrapped ``Condition``.

    ``wait``/``wait_for`` delegate with the per-thread stack unchanged:
    the real condition atomically releases and reacquires its own lock,
    so from an ordering standpoint the thread still "holds" it for the
    whole critical section (and acquires nothing while parked).
    """

    __slots__ = ()

    def wait(self, timeout=None):
        return self._real.wait(timeout)

    def wait_for(self, predicate, timeout=None):
        return self._real.wait_for(predicate, timeout)

    def notify(self, n=1):
        return self._real.notify(n)

    def notify_all(self):
        return self._real.notify_all()


class SanitizerState:
    """Everything one armed session records, plus the cross-check."""

    def __init__(self, prefixes=TRACKED_PREFIXES) -> None:
        self.prefixes = tuple(prefixes)
        self._orig = None  # (Lock, RLock, Condition) while installed
        self._tls = threading.local()
        # Internal bookkeeping uses a *real* lock, held only as a leaf
        # around dict updates — it is invisible to its own tracking.
        self._book = threading.Lock()
        self.pairs: dict = {}  # (src, dst) node ids -> first site seen
        self.violations: list = []
        self.acquires = 0
        self.pool_checks = 0
        self._seq = 0

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._orig is not None:
            return
        self._orig = (threading.Lock, threading.RLock, threading.Condition)
        orig_lock, orig_rlock, orig_cond = self._orig
        state = self

        def make_lock(orig):
            def factory():
                module, owner_ref = _creator_context()
                if not module.startswith(state.prefixes):
                    return orig()
                return _SanLock(state, orig(), module, owner_ref, state._next_seq())

            return factory

        def condition_factory(lock=None):
            module, owner_ref = _creator_context()
            inner = lock._real if isinstance(lock, _Tracked) else lock
            if not module.startswith(state.prefixes):
                return orig_cond(inner) if inner is not None else orig_cond()
            real = orig_cond(inner) if inner is not None else orig_cond()
            return _SanCondition(state, real, module, owner_ref, state._next_seq())

        threading.Lock = make_lock(orig_lock)
        threading.RLock = make_lock(orig_rlock)
        threading.Condition = condition_factory
        self._set_seams(self)

    def uninstall(self) -> None:
        if self._orig is None:
            return
        threading.Lock, threading.RLock, threading.Condition = self._orig
        self._orig = None
        self._set_seams(None)

    @staticmethod
    def _set_seams(value) -> None:
        from repro.nn import infer

        infer._SAN = value

    def _next_seq(self) -> int:
        with self._book:
            self._seq += 1
            return self._seq

    # -- event recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def note_acquire(self, wrapper) -> None:
        stack = self._stack()
        for entry in stack:
            if entry[0] is wrapper:  # RLock reentry: no new ordering
                entry[1] += 1
                return
        if stack:
            dst = wrapper.san_name()
            # Anonymous locks never join ordering pairs: a name that
            # resolves to neither an owner attribute nor a module global
            # is almost always a lock created *through* repro code by a
            # C-level callee (numpy's Generator lock under
            # ``default_rng``) — C calls push no Python frame, so the
            # creator filter sees the repro caller.  Such locks have no
            # static node to check against; repro's own locks all
            # resolve (every one is ``self.<attr>`` or a module global).
            if "<lock#" not in dst:
                for held, _depth in stack:
                    src = held.san_name()
                    if src != dst and "<lock#" not in src:
                        self._record_pair(src, dst)
        stack.append([wrapper, 1])
        self.acquires += 1

    def note_release(self, wrapper) -> None:
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i][0] is wrapper:
                stack[i][1] -= 1
                if stack[i][1] == 0:
                    del stack[i]
                return

    def _record_pair(self, src: str, dst: str) -> None:
        key = (src, dst)
        if key in self.pairs:  # racy pre-check; setdefault settles it
            return
        site = f"{_caller_site()} [{threading.current_thread().name}]"
        with self._book:
            self.pairs.setdefault(key, site)

    def note_pool_use(self, pool, kind: str) -> None:
        """Ownership check for one pooled checkout (see module doc)."""
        self.pool_checks += 1
        ident = threading.get_ident()
        owner = pool.owner_ident
        if owner is None:
            pool.owner_ident = ident
            return
        if owner != ident:
            thread = threading.current_thread().name
            with self._book:
                self.violations.append(
                    f"cross-thread {kind} access: pool owned by thread id "
                    f"{owner} used from {thread!r} at {_caller_site()} — "
                    "pooled buffers are thread-confined (reserve from the "
                    "receiving thread's own pool, or .copy() the data)"
                )

    # -- the cross-check ------------------------------------------------------

    def check(self, model=None) -> list:
        """Problem strings: inversions, unmodeled edges, pool violations."""
        with self._book:
            pairs = dict(self.pairs)
            problems = list(self.violations)
        for (a, b), site in sorted(pairs.items()):
            if a < b and (b, a) in pairs:
                problems.append(
                    f"lock-order inversion: {a} <-> {b} "
                    f"({site} vs {pairs[(b, a)]})"
                )
        if model is None:
            model = static_lock_model()
        for (a, b), site in sorted(pairs.items()):
            if (a, b) not in model:
                problems.append(
                    f"unmodeled lock-order edge {a} -> {b} at {site}: add "
                    "it to AnalysisConfig.declared_lock_order (the static "
                    "pass cannot see this nesting) or fix the nesting"
                )
        return problems

    def summary(self) -> dict:
        with self._book:
            return {
                "acquires": self.acquires,
                "pairs": len(self.pairs),
                "pool_checks": self.pool_checks,
                "violations": len(self.violations),
            }


def _caller_site() -> str:
    """First frame outside this module and ``threading`` (the real site)."""
    frame = sys._getframe(1)
    here = __name__
    while frame is not None:
        mod = frame.f_globals.get("__name__", "")
        if mod != here and mod != "threading":
            return f"{frame.f_code.co_filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


# ---------------------------------------------------------------------------
# The static model (computed lazily; the check's reference truth)
# ---------------------------------------------------------------------------

_MODEL_CACHE = None


def static_lock_model(paths=None, refresh: bool = False) -> frozenset:
    """Transitive closure of the static lock-order graph over ``paths``
    (default: the installed ``repro`` sources) — inferred edges plus the
    declared ledger.  Runtime orderings must stay inside this set.
    """
    global _MODEL_CACHE
    if _MODEL_CACHE is not None and not refresh and paths is None:
        return _MODEL_CACHE
    from repro.analysis import callgraph
    from repro.analysis.cli import default_target
    from repro.analysis.core import AnalysisConfig
    from repro.analysis.resolve import Project

    project = Project.from_paths(list(paths) if paths is not None else [default_target()])
    graph = callgraph.get(project, AnalysisConfig())
    model = callgraph.transitive_closure(graph.edge_pairs())
    if paths is None:
        _MODEL_CACHE = model
    return model


# ---------------------------------------------------------------------------
# Arming
# ---------------------------------------------------------------------------

_STATE: SanitizerState | None = None


def enable(prefixes=TRACKED_PREFIXES) -> SanitizerState:
    """Arm the sanitizer (idempotent); returns the active state."""
    global _STATE
    if _STATE is None:
        _STATE = SanitizerState(prefixes)
        _STATE.install()
    return _STATE


def disable() -> SanitizerState | None:
    """Disarm and return the final state (None if never armed)."""
    global _STATE
    state, _STATE = _STATE, None
    if state is not None:
        state.uninstall()
    return state


def current() -> SanitizerState | None:
    return _STATE


@contextlib.contextmanager
def sanitized(prefixes=TRACKED_PREFIXES):
    """``with sanitized() as state:`` — armed for the block's duration."""
    state = enable(prefixes)
    try:
        yield state
    finally:
        disable()
