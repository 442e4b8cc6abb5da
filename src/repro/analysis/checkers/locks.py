"""Lock discipline: guarded writes and a declared acquisition order.

PR 3's ``SessionRegistry`` race was exactly this shape: the class owned
``self._lock``, ``register()`` updated ``self._total_opened`` and
``self._peak_active`` under it, but the stats readers (and one writer
path) touched the bare attributes — torn pairs under concurrency, found
by hand.  The ``lock-guard`` rule makes the contract mechanical:

    In any class that assigns ``self.<x> = threading.Lock()`` (or
    ``RLock``/``Condition``), every write to a ``self._``-prefixed
    attribute outside ``__init__``/``__new__`` must sit lexically inside
    a ``with self.<x>:`` block.

Caller-holds-lock protocols (the matchers' ``infer_lock``) are real and
legitimate — they carry an ``allow[lock-guard]`` pragma naming the
protocol, so the exception is visible and audited rather than silent.

The ``lock-order`` rule keeps the lock hierarchy declared:

    When one function acquires lock B lexically inside ``with A:``
    (``with A, B:`` included), the pair ``(A, B)`` must be in
    ``AnalysisConfig.declared_lock_order``.

A lock is a lock attribute of ``self`` (``ClassInfo.lock_attrs``) or a
lock global of the same module (``ModuleInfo.lock_globals``), named by
the ledger's node ids (``module.Class.attr`` / ``module.NAME``).  The
rule is intraprocedural: a nesting realized through a call is declared
in the ledger by hand (CONTRIBUTING "Lock discipline").
"""

from __future__ import annotations

import ast

from repro.analysis.core import Checker, Finding, Rule

#: Methods whose writes establish, rather than mutate, the guarded state.
CONSTRUCTOR_METHODS = {"__init__", "__new__", "__post_init__"}


def _write_targets(node):
    """Yield the target expressions a statement writes to."""
    if isinstance(node, ast.Assign):
        yield from node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        if isinstance(node, ast.AnnAssign) and node.value is None:
            return
        yield node.target
    elif isinstance(node, ast.Delete):
        yield from node.targets


def _self_private_attr(target) -> str | None:
    """``_name`` if ``target`` writes ``self._name`` (or ``self._d[k]``)."""
    if isinstance(target, ast.Tuple):
        for elt in target.elts:
            attr = _self_private_attr(elt)
            if attr is not None:
                return attr
        return None
    if isinstance(target, ast.Subscript):
        target = target.value
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
        and target.attr.startswith("_")
        and not target.attr.startswith("__")
    ):
        return target.attr
    return None


def _locks_held(module, node, lock_attrs) -> bool:
    """Whether ``node`` sits inside a ``with self.<lock>:`` block."""
    for anc in module.ancestors(node):
        if isinstance(anc, (ast.With, ast.AsyncWith)):
            for item in anc.items:
                expr = item.context_expr
                # accept `with self._lock:` and `with self._cond:` plus
                # explicit `with self._lock.acquire_timeout(...)` shapes.
                if isinstance(expr, ast.Call):
                    expr = expr.func
                while isinstance(expr, ast.Attribute) and expr.attr not in lock_attrs:
                    expr = expr.value
                if (
                    isinstance(expr, ast.Attribute)
                    and expr.attr in lock_attrs
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                ):
                    return True
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            break
    return False


class LockChecker(Checker):
    name = "locks"
    rules = (
        Rule(
            id="lock-guard",
            summary="write to self._<attr> outside the owning class's lock",
            incident=(
                "PR 3: SessionRegistry.total_opened/peak_active were written "
                "under the registry lock but exposed as bare attributes — a "
                "torn-pair stats race fixed by hand; this rule catches the "
                "shape at commit time"
            ),
            hint=(
                "wrap the write in `with self._lock:`; for caller-holds-lock "
                "protocols add # witness-lint: allow[lock-guard] -- <protocol>"
            ),
        ),
        Rule(
            id="lock-order",
            summary="lock nested lexically inside another without a ledger entry",
            incident=(
                "the retired cross-thread runtime nested its batcher condition "
                "over registry and metrics locks; one function taking the same "
                "two locks the other way round is an AB/BA deadlock under load"
            ),
            hint=(
                "narrow one critical section so the locks no longer nest, or "
                "audit the order and add the pair to "
                "AnalysisConfig.declared_lock_order (see CONTRIBUTING)"
            ),
        ),
    )

    def check(self, module, project) -> list:
        findings = []
        for class_info in module.classes.values():
            if not class_info.lock_attrs:
                continue
            findings.extend(self._check_class(module, class_info))
        findings.extend(self._check_order(module))
        return findings

    # -- lock-order ------------------------------------------------------------

    def _check_order(self, module) -> list:
        declared = set(self.config.declared_lock_order)
        findings = []
        for fn in module.functions.values():
            class_info = module.enclosing_class(fn.node)

            def lock_id(expr):
                if isinstance(expr, ast.Name) and expr.id in module.lock_globals:
                    return f"{module.module}.{expr.id}"
                if (
                    class_info is not None
                    and isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                    and expr.attr in class_info.lock_attrs
                ):
                    return f"{module.module}.{class_info.qualname}.{expr.attr}"
                return None

            def visit(node, held: tuple) -> None:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
                ):
                    return  # its own scope, walked on its own turn
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        lock = lock_id(item.context_expr)
                        if lock is None:
                            continue
                        outer = [h for h in held if h != lock and (h, lock) not in declared]
                        if outer:
                            findings.append(
                                Finding(
                                    rule="lock-order",
                                    path=module.path,
                                    line=item.context_expr.lineno,
                                    col=item.context_expr.col_offset,
                                    message=(
                                        f"acquires {lock} while holding "
                                        f"{', '.join(outer)} — an order the "
                                        "declared lock ledger does not list"
                                    ),
                                    context=fn.qualname,
                                    line_text=module.line_text(item.context_expr.lineno),
                                )
                            )
                        held = held + (lock,)
                    for stmt in node.body:
                        visit(stmt, held)
                    return
                for child in ast.iter_child_nodes(node):
                    visit(child, held)

            for stmt in fn.node.body:
                visit(stmt, ())
        return findings

    def _check_class(self, module, class_info) -> list:
        findings = []
        lock_attrs = set(class_info.lock_attrs)
        for node in ast.walk(class_info.node):
            if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                continue
            fn = module.enclosing_function(node)
            if fn is None or fn.qualname.split(".")[-1] in CONSTRUCTOR_METHODS:
                continue
            # Only police writes belonging to *this* class's methods (a
            # nested class with its own lock is checked on its own turn).
            owner = module.enclosing_class(node)
            if owner is not class_info:
                continue
            for target in _write_targets(node):
                attr = _self_private_attr(target)
                if attr is None or attr in lock_attrs:
                    continue
                if _locks_held(module, node, lock_attrs):
                    continue
                findings.append(
                    Finding(
                        rule="lock-guard",
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"{class_info.name} owns {sorted(lock_attrs)} but "
                            f"writes self.{attr} outside any `with self.<lock>:` block"
                        ),
                        context=module.context_of(node),
                        line_text=module.line_text(node.lineno),
                    )
                )
        return findings
