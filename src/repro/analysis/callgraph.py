"""Interprocedural call graph with lock-acquisition and blocking summaries.

The second shared pass (layered on :mod:`repro.analysis.resolve`): where
``resolve`` answers *what is this name*, this module answers *what does
calling this function do to the concurrency state*.  One build per
:class:`~repro.analysis.resolve.Project` produces:

* a conservative **call graph** over the scanned tree — self-methods,
  module functions, imported aliases, plus one level of attribute-type
  inference (``self.gate = AdmissionGate(...)`` in any method types
  ``self.gate.acquire(...)``; dict-of-constructors values type
  ``self._batchers[kind].submit(...)``);
* per-function **lock summaries** — which locks a function may acquire
  (directly via ``with self._lock:`` / module-global ``with _TWIN_LOCK:``
  nesting, or transitively through any resolvable call) and which
  blocking operations it may reach (``Condition.wait``, typed
  ``Thread.join``/``Queue`` ops, model forwards, ``time.sleep``),
  propagated to a fixpoint;
* the project-wide **lock-order graph**: an edge ``A -> B`` for every
  site that acquires ``B`` while ``A`` is held, including edges realized
  only through calls, each edge carrying its source location and call
  chain.  ``AnalysisConfig.declared_lock_order`` joins the graph as the
  audited, hand-declared ordering (the CONTRIBUTING lock ledger), so
  orderings the resolver cannot see — lock objects aliased across
  classes, calls through stored callables — are part of the model
  instead of invisible to it.

The model is deliberately conservative in both directions and says so:
calls through untyped callables resolve to nothing (no edge — the
runtime sanitizer twin in :mod:`repro.analysis.sanitizer` exists to
catch what static resolution misses), and an edge means "this ordering
can occur", not "these two locks are ever contended".

Lock node ids are stable strings shared with the sanitizer:
``module.Class.attr`` for instance locks, ``module.NAME`` for
module-level locks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: Method names that are model forwards wherever they appear: a CNN
#: forward under a lock serializes every session behind one matrix
#: multiply (and deadlocks outright if the forward path re-enters the
#: runtime).  Name-based on purpose — the receiver is usually an
#: untypeable stored callable.
MODEL_FORWARD_METHODS = ("predict", "match_probability", "forward")

#: Fully-resolved call targets that block the calling thread outright.
BLOCKING_CALLS = ("time.sleep",)

#: Attribute-call blocking ops needing a *typed* receiver (``" ".join``
#: must never count).  ``wait``/``wait_for`` block on any receiver —
#: Condition/Event semantics make the name unambiguous.
TYPED_BLOCKING_METHODS = {
    "join": ("threading.Thread",),
    "get": ("queue.Queue", "queue.SimpleQueue", "multiprocessing.Queue"),
    "put": ("queue.Queue", "queue.SimpleQueue", "multiprocessing.Queue"),
}

#: ``with self.<attr>:`` counts as a lock acquisition when the attr is
#: factory-indexed on the class, or failing that when its name says so
#: (``Counter._lock`` is a lock handed in by its registry — no factory
#: assignment to index).
_LOCKISH_MARKERS = ("lock", "cond", "mutex")


@dataclass
class Acquisition:
    """One ``with <lock>:`` site and the locks already held there."""

    lock: str
    line: int
    col: int
    held: tuple


@dataclass
class BlockingOp:
    """One direct blocking operation site.

    ``releases`` is the lock id a ``Condition.wait`` releases while
    waiting (waiting on the condition you hold is the canonical pattern,
    not a finding) — ``None`` for every other blocking shape.
    """

    desc: str
    line: int
    col: int
    held: tuple
    releases: str | None = None


@dataclass
class CallSite:
    """One resolved intra-project call and the locks held around it."""

    callee: str
    line: int
    col: int
    held: tuple


@dataclass
class FunctionNode:
    """One function's direct facts plus its fixpoint summaries."""

    key: str
    module: object  # ModuleInfo
    info: object  # FunctionInfo
    cls_key: str | None
    acquisitions: list = field(default_factory=list)
    blocking: list = field(default_factory=list)
    calls: list = field(default_factory=list)
    #: lock id -> call chain (this function first) that reaches it.
    may_acquire: dict = field(default_factory=dict)
    #: blocking desc -> (call chain, released lock id or None).
    may_block: dict = field(default_factory=dict)


@dataclass
class LockEdge:
    """``src`` held while ``dst`` acquired, at a concrete site."""

    src: str
    dst: str
    module: object  # ModuleInfo owning the site
    line: int
    col: int
    func: str  # enclosing function key
    via: tuple = ()  # callee chain for edges realized through calls


class CallGraph:
    """The built graph; obtain via :func:`get` (memoized per project)."""

    def __init__(self, project, config) -> None:
        self.project = project
        self.config = config
        self.functions: dict = {}  # key -> FunctionNode
        self.class_modules: dict = {}  # cls_key -> ModuleInfo
        self.attr_types: dict = {}  # cls_key -> {attr: type key}
        self.attr_value_types: dict = {}  # cls_key -> {attr: container value type}
        self.attr_funcs: dict = {}  # cls_key -> {attr: stored function key}
        self.edges: list = []
        self._cycle_pairs: set | None = None
        self._build()

    # -- public queries ------------------------------------------------------

    def edge_pairs(self) -> set:
        """Inferred ∪ declared ``(src, dst)`` lock-order pairs."""
        pairs = {(e.src, e.dst) for e in self.edges}
        pairs.update(tuple(pair) for pair in self.config.declared_lock_order)
        return pairs

    def cycle_pairs(self) -> set:
        """Edge pairs participating in any lock-order cycle."""
        if self._cycle_pairs is None:
            self._cycle_pairs = _pairs_in_cycles(self.edge_pairs())
        return self._cycle_pairs

    def functions_of(self, module) -> list:
        return [fn for fn in self.functions.values() if fn.module is module]

    def stored_function(self, cls_key: str | None, attr: str) -> str | None:
        """The function key ``self.<attr>`` was assigned, if any."""
        if cls_key is None:
            return None
        return self.attr_funcs.get(cls_key, {}).get(attr)

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        for module in self.project.modules:
            for qual, cls in module.classes.items():
                self.class_modules[f"{module.module}.{qual}"] = module
            for fn_info in module.functions.values():
                key = f"{module.module}.{fn_info.qualname}"
                self.functions[key] = FunctionNode(
                    key=key,
                    module=module,
                    info=fn_info,
                    cls_key=self._owner_class(module, fn_info.qualname),
                )
        self._infer_attr_types()
        for fn in self.functions.values():
            self._collect_facts(fn)
        self._fixpoint()
        self._build_edges()

    def _owner_class(self, module, qualname: str) -> str | None:
        if "." not in qualname:
            return None
        prefix = qualname.rsplit(".", 1)[0]
        if prefix in module.classes:
            return f"{module.module}.{prefix}"
        return None

    def _type_of_value(self, module, value) -> str | None:
        """Resolved constructor type of an ``self.x = <value>`` RHS."""
        if isinstance(value, ast.BoolOp):  # `metrics or MetricsRegistry()`
            for operand in value.values:
                t = self._type_of_value(module, operand)
                if t is not None:
                    return t
            return None
        if not isinstance(value, ast.Call):
            return None
        resolved = module.resolve_call(value)
        if not resolved:
            return None
        if resolved in self.class_modules:
            return resolved
        local = f"{module.module}.{resolved}"
        if "." not in resolved and local in self.class_modules:
            return local
        # External classes keep their dotted name (threading.Thread,
        # queue.Queue) so typed blocking ops can match them.
        return resolved if "." in resolved else None

    def _infer_attr_types(self) -> None:
        for module in self.project.modules:
            for qual, cls in module.classes.items():
                cls_key = f"{module.module}.{qual}"
                types, value_types, funcs = {}, {}, {}
                for node in ast.walk(cls.node):
                    if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                        continue
                    target = node.targets[0]
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    attr, value = target.attr, node.value
                    t = self._type_of_value(module, value)
                    if t is not None:
                        types.setdefault(attr, t)
                        continue
                    if isinstance(value, ast.Dict):
                        for v in value.values:
                            vt = self._type_of_value(module, v)
                            if vt is not None:
                                value_types.setdefault(attr, vt)
                                break
                    elif isinstance(value, ast.DictComp):
                        vt = self._type_of_value(module, value.value)
                        if vt is not None:
                            value_types.setdefault(attr, vt)
                    elif isinstance(value, (ast.Name, ast.Attribute)):
                        resolved = module.resolve_name(value)
                        if resolved:
                            for candidate in (resolved, f"{module.module}.{resolved}"):
                                if candidate in self.functions:
                                    funcs.setdefault(attr, candidate)
                                    break
                if types:
                    self.attr_types[cls_key] = types
                if value_types:
                    self.attr_value_types[cls_key] = value_types
                if funcs:
                    self.attr_funcs[cls_key] = funcs

    # -- lock identity -------------------------------------------------------

    def _lock_id(self, module, cls_key: str | None, expr) -> str | None:
        """Lock node id of a ``with`` item / wait receiver, or ``None``."""
        if isinstance(expr, ast.Name):
            if expr.id in module.lock_globals:
                return f"{module.module}.{expr.id}"
            return None
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and cls_key is not None
        ):
            attr = expr.attr
            cls = self._class_info(cls_key)
            if cls is not None and attr in cls.lock_attrs:
                return f"{cls_key}.{attr}"
            lowered = attr.lower()
            if any(marker in lowered for marker in _LOCKISH_MARKERS):
                return f"{cls_key}.{attr}"
        return None

    def _class_info(self, cls_key: str):
        module = self.class_modules.get(cls_key)
        if module is None:
            return None
        qual = cls_key[len(module.module) + 1 :]
        return module.classes.get(qual)

    # -- receiver typing and call resolution ---------------------------------

    def _receiver_type(self, module, cls_key, expr, locals_) -> str | None:
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return cls_key
            return locals_.get(expr.id)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and cls_key is not None
        ):
            return self.attr_types.get(cls_key, {}).get(expr.attr)
        if isinstance(expr, ast.Subscript):
            base = expr.value
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and cls_key is not None
            ):
                return self.attr_value_types.get(cls_key, {}).get(base.attr)
        return None

    def resolve_target(self, module, cls_key, call, locals_=None) -> str | None:
        """Function key a call resolves to, or ``None`` (conservative)."""
        locals_ = locals_ if locals_ is not None else {}
        func = call.func
        resolved = module.resolve_name(func)
        if resolved:
            if resolved in self.functions:
                return resolved
            local = f"{module.module}.{resolved}"
            if "." not in resolved and local in self.functions:
                return local
            for candidate in (resolved, local if "." not in resolved else None):
                if candidate and candidate in self.class_modules:
                    init = f"{candidate}.__init__"
                    return init if init in self.functions else None
        if isinstance(func, ast.Attribute):
            recv_type = self._receiver_type(module, cls_key, func.value, locals_)
            if recv_type is not None:
                key = f"{recv_type}.{func.attr}"
                if key in self.functions:
                    return key
                stored = self.stored_function(recv_type, func.attr)
                if stored is not None:
                    return stored
        return None

    def _local_type(self, module, cls_key, value, locals_) -> str | None:
        if isinstance(value, ast.Call):
            return self._type_of_value(module, value)
        if isinstance(value, (ast.Name, ast.Attribute, ast.Subscript)):
            return self._receiver_type(module, cls_key, value, locals_)
        return None

    # -- per-function fact collection ----------------------------------------

    def _collect_facts(self, fn: FunctionNode) -> None:
        module, cls_key = fn.module, fn.cls_key
        locals_: dict = {}

        def handle_call(call: ast.Call, held: tuple) -> None:
            resolved = module.resolve_call(call)
            if resolved in BLOCKING_CALLS:
                fn.blocking.append(
                    BlockingOp(resolved, call.lineno, call.col_offset, held)
                )
            elif isinstance(call.func, ast.Attribute):
                meth = call.func.attr
                if meth in ("wait", "wait_for"):
                    receiver = self._lock_id(module, cls_key, call.func.value)
                    label = receiver or module.resolve_name(call.func.value) or "<expr>"
                    fn.blocking.append(
                        BlockingOp(
                            f"{label}.{meth}()",
                            call.lineno,
                            call.col_offset,
                            held,
                            releases=receiver,
                        )
                    )
                elif meth in MODEL_FORWARD_METHODS:
                    fn.blocking.append(
                        BlockingOp(
                            f"model forward .{meth}()",
                            call.lineno,
                            call.col_offset,
                            held,
                        )
                    )
                elif meth in TYPED_BLOCKING_METHODS:
                    recv_type = self._receiver_type(
                        module, cls_key, call.func.value, locals_
                    )
                    if recv_type in TYPED_BLOCKING_METHODS[meth]:
                        fn.blocking.append(
                            BlockingOp(
                                f"{recv_type}.{meth}()",
                                call.lineno,
                                call.col_offset,
                                held,
                            )
                        )
            target = self.resolve_target(module, cls_key, call, locals_)
            if target is not None and target != fn.key:
                fn.calls.append(
                    CallSite(target, call.lineno, call.col_offset, held)
                )

        def visit(node, held: tuple) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = list(held)
                for item in node.items:
                    visit(item.context_expr, tuple(inner))
                    lock = self._lock_id(module, cls_key, item.context_expr)
                    if lock is not None:
                        fn.acquisitions.append(
                            Acquisition(
                                lock,
                                item.context_expr.lineno,
                                item.context_expr.col_offset,
                                tuple(inner),
                            )
                        )
                        if lock not in inner:
                            inner.append(lock)
                for stmt in node.body:
                    visit(stmt, tuple(inner))
                return
            if isinstance(node, ast.Call):
                handle_call(node, held)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    t = self._local_type(module, cls_key, node.value, locals_)
                    if t is not None:
                        locals_[target.id] = t
                    else:
                        locals_.pop(target.id, None)
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
                ):
                    continue  # separate unit; not executed at def site
                visit(child, held)

        for stmt in fn.info.node.body:
            visit(stmt, ())

    # -- summaries and edges -------------------------------------------------

    def _fixpoint(self) -> None:
        ordered = [self.functions[k] for k in sorted(self.functions)]
        for fn in ordered:
            for acq in fn.acquisitions:
                fn.may_acquire.setdefault(acq.lock, (fn.key,))
            for op in fn.blocking:
                fn.may_block.setdefault(op.desc, ((fn.key,), op.releases))
        changed = True
        while changed:
            changed = False
            for fn in ordered:
                for site in fn.calls:
                    callee = self.functions.get(site.callee)
                    if callee is None:
                        continue
                    for lock, chain in callee.may_acquire.items():
                        if lock not in fn.may_acquire:
                            fn.may_acquire[lock] = (fn.key,) + chain
                            changed = True
                    for desc, (chain, releases) in callee.may_block.items():
                        if desc not in fn.may_block:
                            fn.may_block[desc] = ((fn.key,) + chain, releases)
                            changed = True

    def _build_edges(self) -> None:
        for key in sorted(self.functions):
            fn = self.functions[key]
            for acq in fn.acquisitions:
                for held in acq.held:
                    if held != acq.lock:
                        self.edges.append(
                            LockEdge(
                                held,
                                acq.lock,
                                fn.module,
                                acq.line,
                                acq.col,
                                fn.key,
                            )
                        )
            for site in fn.calls:
                if not site.held:
                    continue
                callee = self.functions.get(site.callee)
                if callee is None:
                    continue
                for lock, chain in callee.may_acquire.items():
                    for held in site.held:
                        if held != lock:
                            self.edges.append(
                                LockEdge(
                                    held,
                                    lock,
                                    fn.module,
                                    site.line,
                                    site.col,
                                    fn.key,
                                    via=chain,
                                )
                            )


def _pairs_in_cycles(pairs: set) -> set:
    """The subset of ``(src, dst)`` pairs lying inside any cycle.

    A pair is cyclic iff ``dst`` can reach ``src``; computed over the
    whole graph (declared edges included) so a declared ordering closing
    a loop against an inferred one is caught.
    """
    adj: dict = {}
    for src, dst in pairs:
        adj.setdefault(src, set()).add(dst)

    reach_cache: dict = {}

    def reachable(start: str) -> set:
        if start in reach_cache:
            return reach_cache[start]
        seen: set = set()
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in adj.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach_cache[start] = seen
        return seen

    return {(src, dst) for src, dst in pairs if src in reachable(dst)}


def transitive_closure(pairs) -> frozenset:
    """All ordering pairs implied by ``pairs`` (the sanitizer's model)."""
    adj: dict = {}
    for src, dst in pairs:
        adj.setdefault(src, set()).add(dst)
    closed = set()
    for start in list(adj):
        seen: set = set()
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in adj.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        closed.update((start, dst) for dst in seen)
    return frozenset(closed)


def get(project, config) -> CallGraph:
    """The memoized :class:`CallGraph` for ``(project, config)``.

    Checkers run per module but the graph is project-global; caching on
    the project object keeps one build per analysis run.
    """
    cache = getattr(project, "_callgraph_cache", None)
    if cache is None:
        cache = {}
        project._callgraph_cache = cache
    key = id(config)
    graph = cache.get(key)
    if graph is None:
        graph = CallGraph(project, config)
        cache[key] = graph
    return graph
