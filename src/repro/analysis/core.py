"""Data model of witness-lint: rules, findings, configuration.

A *rule* is one named invariant (``dtype-float64``, ``lock-guard``, …)
with the historical incident it descends from; a *checker* owns a group
of related rules and implements the AST walk that enforces them; a
*finding* is one concrete violation at a file:line.  Scoping is
config-driven: each rule applies to a set of module prefixes (the
fingerprint-feeding modules for determinism, the raster/vision/nn
numeric stack for dtype discipline), so the same checkers run unchanged
over the real tree and over test fixture trees.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Rule:
    """One named invariant with its lineage and remediation hint."""

    id: str
    summary: str
    #: The historical bug this rule descends from (PR 3/4/5 incidents) —
    #: surfaces in ``--list-rules`` and the README catalog so a finding
    #: always answers "why does this matter here?".
    incident: str
    hint: str


@dataclass(frozen=True)
class Finding:
    """One rule violation at a concrete source location."""

    rule: str
    path: str  # path as scanned (normally repo-relative)
    line: int  # 1-indexed
    col: int  # 0-indexed (ast convention)
    message: str
    #: Dotted name of the enclosing scope (``Class.method`` or function
    #: name), ``"<module>"`` at module level.
    context: str = "<module>"
    #: The stripped source line, for reports.
    line_text: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)


class Checker:
    """Base class: one checker enforces one family of rules.

    Subclasses define ``name``, ``rules`` (the :class:`Rule` objects they
    may emit) and implement :meth:`check` over one resolved module.
    Scoping is handled by the runner: ``check`` is only called for
    modules matching the checker's configured scope, so checkers contain
    pure detection logic.
    """

    name: str = "checker"
    rules: tuple = ()

    def __init__(self, config: "AnalysisConfig") -> None:
        self.config = config

    def check(self, module, project) -> list:
        """Return :class:`Finding` objects for ``module``.

        ``module`` is a :class:`repro.analysis.resolve.ModuleInfo`;
        ``project`` the :class:`repro.analysis.resolve.Project` holding
        every resolved module of the run.
        """
        raise NotImplementedError


#: Module prefixes whose numeric code must stay float32-clean: the
#: raster/vision/nn stack feeding model inputs (PR 4's float64 leaks all
#: lived here), plus the core validation layer, which casts unit inputs
#: to float32 at the model boundary.
DTYPE_SCOPE = ("repro.core", "repro.nn", "repro.vision", "repro.raster")

#: Modules feeding the soak's engine-independent session fingerprint
#: (decision, server verification, per-frame verdicts): nondeterminism
#: anywhere here shows up as a cross-engine divergence.  Attack tooling,
#: datasets and crypto (the session nonce is *supposed* to be entropy)
#: stay out of scope.
DETERMINISM_SCOPE = (
    "repro.core",
    "repro.faults",
    "repro.nn",
    "repro.raster",
    "repro.scenarios",
    "repro.server",
    "repro.vision",
    "repro.vspec",
    "repro.web",
)

#: Lock discipline applies tree-wide: any class that owns a lock is
#: claiming its shared state is guarded.
LOCK_SCOPE = ("repro",)

#: Hot-path allocation discipline: the frozen engine, whose grow-only
#: workspaces promise an allocation-free steady state, and any function
#: decorated ``@hot_path`` in the core and vision layers.
#: ``repro.obs`` joins for the tracer fast path: ``maybe_span`` and
#: ``SpanTracer.span`` sit inside every frame, so disabled tracing must
#: stay statically allocation-free (obs stays OUT of the determinism
#: scope — spans read wall-clock by design, never into a verdict).
#: ``repro.faults`` joins for the injector's ``decide`` fast-miss: a
#: disarmed seam sits inside every frame and must stay allocation-free.
HOTPATH_SCOPE = (
    "repro.core",
    "repro.faults",
    "repro.nn",
    "repro.obs",
    "repro.vision",
)

#: Frozen-lifecycle discipline applies tree-wide (a frozen net pickled
#: from *anywhere* resurrects stale weights).
LIFECYCLE_SCOPE = ("repro",)

#: Thread-confinement escape discipline: everywhere frozen-engine
#: workspace buffers may circulate.
ESCAPE_SCOPE = ("repro.core", "repro.nn", "repro.vision")

#: The audited lock-order ledger (CONTRIBUTING "Lock discipline"): every
#: ``(outer, inner)`` pair of locks allowed to nest.  The ``lock-order``
#: rule fires on a lexical nesting missing from it; a nesting realized
#: through a call (both entries below) is declared here by hand.  Node
#: ids are ``module.Class.attr`` for lock attributes and ``module.NAME``
#: for lock globals.
DECLARED_LOCK_ORDER = (
    # Span histograms: registration takes _registry_lock, the histogram
    # write takes the shared _data_lock.  Audited one-way.
    ("repro.obs.metrics.MetricsRegistry._registry_lock", "repro.obs.metrics.MetricsRegistry._data_lock"),
    # The zoo builds each model exactly once under its registry lock;
    # vending the frozen twin nests the twin-memo lock inside it.
    ("repro.nn.zoo._REGISTRY_LOCK", "repro.nn.infer._TWIN_LOCK"),
)


@dataclass(frozen=True)
class AnalysisConfig:
    """Which modules each rule family applies to, plus hot-path pins.

    ``hot_functions`` names functions that are hot paths even without a
    ``@hot_path`` decorator, as ``"module.path:Qual.name"`` entries —
    the frozen engine's stage executors are pinned here so the guarantee
    holds even if a refactor drops the decorator.
    """

    dtype_scope: tuple = DTYPE_SCOPE
    determinism_scope: tuple = DETERMINISM_SCOPE
    lock_scope: tuple = LOCK_SCOPE
    hotpath_scope: tuple = HOTPATH_SCOPE
    lifecycle_scope: tuple = LIFECYCLE_SCOPE
    escape_scope: tuple = ESCAPE_SCOPE
    declared_lock_order: tuple = DECLARED_LOCK_ORDER
    hot_functions: tuple = (
        "repro.nn.infer:_ConvStage.run",
        "repro.nn.infer:_PoolStage.run",
        "repro.nn.infer:_FlattenStage.run",
        "repro.nn.infer:_DenseStage.run",
        "repro.nn.infer:_ReLUStage.run",
        "repro.nn.infer:FrozenNet._run",
    )

    def scoped_to(self, prefix: str) -> "AnalysisConfig":
        """The same config re-rooted onto ``prefix`` (fixture trees)."""
        def remap(scope: tuple) -> tuple:
            return tuple(
                s.replace("repro", prefix, 1) if s == "repro" or s.startswith("repro.") else s
                for s in scope
            )

        def remap_name(name: str) -> str:
            return name.replace("repro", prefix, 1) if name.startswith("repro.") else name

        return replace(
            self,
            dtype_scope=remap(self.dtype_scope),
            determinism_scope=remap(self.determinism_scope),
            lock_scope=remap(self.lock_scope),
            hotpath_scope=remap(self.hotpath_scope),
            lifecycle_scope=remap(self.lifecycle_scope),
            escape_scope=remap(self.escape_scope),
            declared_lock_order=tuple(
                (remap_name(a), remap_name(b)) for a, b in self.declared_lock_order
            ),
            hot_functions=tuple(
                f.replace("repro", prefix, 1) for f in self.hot_functions
            ),
        )


def in_scope(module_name: str, scope: tuple) -> bool:
    """Whether dotted ``module_name`` falls under any prefix in ``scope``."""
    for prefix in scope:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return True
    return False
