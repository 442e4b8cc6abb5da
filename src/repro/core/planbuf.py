"""Pooled plan-transport buffers: zero-copy from collect to forward.

PR 4's frozen engine made the *forward* allocation-free via per-shape
:class:`~repro.nn.infer.Workspace` arenas, but everything upstream still
materialized a fresh ndarray per unit input: the collect pass built
Python lists of per-cell crops and the verifiers re-stacked them per
chunk.  This module extends the same arena discipline upstream of the forward:

* :class:`PlanBuffers` is one owner's pool of capacity-grown transport
  buffers keyed by role (``"text-tiles"``, ``"image-obs"``, pending
  gathers, retry rings).  A buffer is allocated once, grows
  geometrically when a frame needs more rows, and is reused verbatim for
  every subsequent frame — steady-state validation writes crops straight
  into resident memory.
* Pools are **thread-confined by ownership**, exactly like the frozen
  engine's arenas: a :class:`~repro.core.verifiers.ValidationPlan` owns
  the pool its session thread collects into, while execute-side scratch
  (pending gathers, one-hot rows, retry rings) comes from
  :func:`thread_pool` — a thread-local pool, so each session thread
  writes into its own memory and no buffer is ever shared across
  concurrently-running threads.
* Pools are **LRU-bounded** by distinct buffer key (``max_shapes``,
  mirroring :data:`repro.nn.infer.DEFAULT_MAX_SHAPES` semantics), so a
  long-lived thread that sees many one-off shapes cannot accumulate
  unbounded buffer memory.

The zero-copy guarantee is enforced statically: witness-lint's
``hot-alloc`` rule pins the buffer-writing collect functions
(see ``AnalysisConfig.hot_functions``), and :meth:`PlanBuffers.reserve`
is their designated allocation point.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

#: Canonical transport dtype: unit inputs are written as float32 at
#: extraction time so the verifier's normalization boundary is a pure
#: in-place divide and the frozen engine ingests views without a cast.
PLAN_DTYPE = np.float32

#: Default LRU bound on distinct buffer keys per pool.  Transport uses a
#: handful of stable roles, so this is generous; it exists to bound
#: memory if a caller keys buffers by a high-cardinality attribute.
DEFAULT_MAX_SHAPES = 16

#: witness-san seam: :func:`repro.analysis.sanitizer.enable` swaps the
#: active :class:`~repro.analysis.sanitizer.SanitizerState` in here so
#: ``reserve`` can ownership-check pooled checkouts.  ``None`` when
#: disarmed — one ``is None`` test on the hot path, the same pattern as
#: ``obs.NULL_SPAN`` and the fault injector's disarmed seams.
_SAN = None


class PlanBuffers:
    """One owner's pool of capacity-grown, reusable transport buffers.

    A pool belongs to exactly one owner — a :class:`ValidationPlan` (and
    therefore the session thread driving it) or one executing thread via
    :func:`thread_pool` — so no reservation ever races.  ``reserve``
    returns the *backing* array for a key; callers slice ``[:n]`` and
    write rows in place.
    """

    __slots__ = ("max_shapes", "_buffers", "hits", "allocations", "evictions", "thread", "owner_ident")

    def __init__(self, max_shapes: int = DEFAULT_MAX_SHAPES) -> None:
        if max_shapes < 1:
            raise ValueError(f"max_shapes must be >= 1, got {max_shapes}")
        self.max_shapes = max_shapes
        self._buffers: OrderedDict = OrderedDict()
        self.hits = 0
        self.allocations = 0
        self.evictions = 0
        self.thread = threading.current_thread().name
        #: witness-san ownership tag: thread id of the first reserving
        #: thread (claimed lazily — a plan's pool belongs to the session
        #: thread *driving* it, which may not be the creating thread).
        self.owner_ident = None

    def reserve(self, key, n: int, trailing: tuple = (), dtype=PLAN_DTYPE) -> np.ndarray:
        """The backing array for ``key``: shape ``(capacity, *trailing)``
        with ``capacity >= n``, allocated once and grown geometrically.

        Rows already written are preserved across growth (collect appends
        entry by entry, so earlier entries' crops must survive a
        mid-frame grow).  Changing ``trailing`` or ``dtype`` under the
        same key replaces the buffer.  Reservation counts as use for the
        LRU bound.
        """
        if _SAN is not None:
            _SAN.note_pool_use(self, "planbuf")
        trailing = tuple(trailing)
        buf = self._buffers.get(key)
        if buf is not None and buf.shape[1:] == trailing and buf.dtype == dtype:
            self._buffers.move_to_end(key)
            if buf.shape[0] >= n:
                self.hits += 1
                return buf
            grown = np.zeros((max(n, 2 * buf.shape[0]),) + trailing, dtype=dtype)
            grown[: buf.shape[0]] = buf
            self._buffers[key] = grown
            self.allocations += 1
            return grown
        fresh = np.zeros((max(n, 1),) + trailing, dtype=dtype)
        self._buffers[key] = fresh
        self._buffers.move_to_end(key)
        self.allocations += 1
        if len(self._buffers) > self.max_shapes:
            self._buffers.popitem(last=False)
            self.evictions += 1
        return fresh

    def release_ownership(self) -> None:
        """witness-san frame boundary: un-claim this pool.

        A plan-owned pool legitimately *migrates* between threads frame
        to frame (a session set up on one thread may be driven by
        another), but must never be used by two threads within one
        frame.  ``ValidationPlan.reset`` calls this at every frame
        start, so the frame's driving thread re-claims the pool on its
        first reservation and any other thread reserving mid-frame is a
        confinement violation.  ``thread_pool()`` pools are pinned at
        creation instead and never released — for them *any* foreign
        reservation is a violation.
        """
        self.owner_ident = None

    def peek(self, key) -> np.ndarray | None:
        """The current backing for ``key`` (no LRU touch); None if absent."""
        return self._buffers.get(key)

    def stats(self) -> dict:
        return {
            "thread": self.thread,
            "keys": len(self._buffers),
            "hits": self.hits,
            "allocations": self.allocations,
            "evictions": self.evictions,
            "nbytes": sum(buf.nbytes for buf in self._buffers.values()),
        }


class _PoolSet:
    """Thread-local pools plus a registry so stats can see all threads.

    Mirrors :class:`repro.nn.infer._ArenaSet`: registry entries pair each
    pool with its owning thread, and dead threads' entries are pruned
    whenever a new thread registers, so thread churn (short-lived fleet
    workers) does not accumulate buffer memory.
    """

    def __init__(self, max_shapes: int) -> None:
        self.max_shapes = max_shapes
        self._tls = threading.local()
        self._entries: list = []  # (thread, pool)
        self._lock = threading.Lock()

    def pool(self) -> PlanBuffers:
        pool = getattr(self._tls, "pool", None)
        if pool is None:
            pool = PlanBuffers(self.max_shapes)
            # Thread-local by construction, so pin ownership for good:
            # witness-san treats any foreign reservation as a violation
            # (unlike plan-owned pools, which migrate at frame bounds).
            pool.owner_ident = threading.get_ident()
            self._tls.pool = pool
            with self._lock:
                self._entries = [(t, p) for t, p in self._entries if t.is_alive()]
                self._entries.append((threading.current_thread(), pool))
        return pool

    def stats(self) -> list:
        with self._lock:
            return [pool.stats() for _thread, pool in self._entries]


#: The process-wide execute-side pool set (verifier pending gathers,
#: retry rings, flush buffers).  Collect-side pools are owned per plan.
_EXEC_POOLS = _PoolSet(DEFAULT_MAX_SHAPES)


def thread_pool() -> PlanBuffers:
    """The calling thread's execute-side :class:`PlanBuffers` pool."""
    return _EXEC_POOLS.pool()


def pool_stats() -> list:
    """Per-thread stats for every live execute-side pool."""
    return _EXEC_POOLS.stats()


def pool_totals() -> dict:
    """Execute-side pool stats aggregated across live threads.

    The telemetry hub's summary view of :func:`pool_stats` (the
    per-thread breakdown stays available for capacity debugging).
    """
    stats = pool_stats()
    totals = {"pools": len(stats), "keys": 0, "hits": 0, "allocations": 0, "evictions": 0, "nbytes": 0}
    for entry in stats:
        for key in ("keys", "hits", "allocations", "evictions", "nbytes"):
            totals[key] += entry[key]
    return totals
