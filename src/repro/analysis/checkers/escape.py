"""Thread-confinement escape analysis for workspace buffers.

A frozen net's ``infer.Workspace`` (one per net and thread, grow-only)
hands out *views into thread-owned resident memory*: a reserved buffer
is valid for the current forward on the current thread and is
overwritten by the next forward on that thread.  CONTRIBUTING states
the rule in prose ("workspace buffers are thread-confined, no
cross-call refs"); ``conc-escape`` makes the two statically-decidable
shapes mechanical:

* a pooled row (or a view of one) **stashed on** ``self`` — the object
  outlives the frame, so the stashed array silently mutates under it on
  the next reservation;
* a pooled row **crossing a thread boundary** — passed to
  ``executor.submit(...)`` / ``threading.Thread(...)`` directly or
  captured by a closure that is, violating pool ownership.

Taint starts at ``Workspace.buf`` reservations and follows views
(subscripts/slices, ``reshape``/``view``); ``.copy()`` launders it,
which is exactly the documented way to keep a row.  Plain returns are
*not* findings — returning a workspace view to a same-thread caller is
how stages compose (``FrozenNet.forward(copy=False)``).  At run time
``Workspace.buf`` raises when called from any thread but the
workspace's creator, so a whole workspace cannot change threads either.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Checker, Finding, Rule

#: Methods whose result is a view of (and as pooled as) their receiver.
_VIEW_METHODS = ("reshape", "view", "ravel", "squeeze")

#: Call attr names that hand work (and captured references) to another
#: thread: executor submissions and thread constructors.
_SUBMIT_METHODS = ("submit",)
_THREAD_FACTORIES = ("threading.Thread", "concurrent.futures.ThreadPoolExecutor")


class EscapeChecker(Checker):
    name = "escape"
    rules = (
        Rule(
            id="conc-escape",
            summary="pooled buffer row escapes its owning frame or thread",
            incident=(
                "PR 4's frozen-engine workspaces reuse backing memory every "
                "forward; the confinement rule ('no cross-call refs, "
                "workspaces are thread-confined') lived only in CONTRIBUTING "
                "prose — one stashed buffer means results computed over "
                "a later forward's activations"
            ),
            hint=(
                "don't keep workspace buffers: .copy() the data if it "
                "must outlive the call, and never hand a workspace view "
                "to another thread (reserve from the receiving thread's "
                "own workspace instead)"
            ),
        ),
    )

    def check(self, module, project) -> list:
        findings = []
        for fn in module.functions.values():
            findings.extend(self._check_function(module, fn))
        return findings

    # -- taint ----------------------------------------------------------------

    def _taint_of(self, expr, tainted: dict) -> str | None:
        """``"row"`` if ``expr`` is a workspace buffer or a view of one."""
        if isinstance(expr, ast.Name):
            return tainted.get(expr.id)
        if isinstance(expr, ast.Subscript):
            return self._taint_of(expr.value, tainted)
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            func = expr.func
            if func.attr == "buf":
                return "row"  # Workspace.buf — the workspace reservation
            if func.attr in _VIEW_METHODS:
                return self._taint_of(func.value, tainted)
        return None

    def _tainted_names_in(self, node, tainted: dict) -> list:
        names = []
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)
                and tainted.get(sub.id) == "row"
            ):
                names.append(sub.id)
        return names

    # -- per-function walk ----------------------------------------------------

    def _check_function(self, module, fn) -> list:
        findings = []
        tainted: dict = {}

        def finding(node, message: str) -> None:
            findings.append(
                Finding(
                    rule="conc-escape",
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=message,
                    context=fn.qualname,
                    line_text=module.line_text(node.lineno),
                )
            )

        def is_self_store(target) -> str | None:
            base = target
            if isinstance(base, ast.Subscript):
                base = base.value
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
            ):
                return base.attr
            return None

        def check_thread_handoff(call: ast.Call) -> None:
            func = call.func
            crosses = (
                isinstance(func, ast.Attribute) and func.attr in _SUBMIT_METHODS
            ) or (module.resolve_call(call) in _THREAD_FACTORIES)
            if not crosses:
                return
            for arg in [*call.args, *[kw.value for kw in call.keywords]]:
                if isinstance(arg, ast.Lambda):
                    caught = self._tainted_names_in(arg.body, tainted)
                    if caught:
                        finding(
                            call,
                            f"closure passed across a thread boundary captures "
                            f"pooled row(s) {sorted(set(caught))} — the worker "
                            "thread reads memory owned by this thread's pool",
                        )
                        return
                    continue
                if isinstance(arg, ast.Name) and arg.id in closures:
                    caught = closures[arg.id]
                    if caught:
                        finding(
                            call,
                            f"closure {arg.id!r} passed across a thread "
                            f"boundary captures pooled row(s) {sorted(set(caught))}",
                        )
                        return
                    continue
                caught = self._tainted_names_in(arg, tainted)
                taint = self._taint_of(arg, tainted)
                if caught or taint == "row":
                    finding(
                        call,
                        "pooled row passed across a thread boundary — the "
                        "receiving thread must reserve from its own pool",
                    )
                    return

        closures: dict = {}  # nested def name -> captured tainted names

        def visit(node) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not fn.node:
                    closures[node.name] = self._tainted_names_in(node, tainted)
                    return
            if isinstance(node, ast.Assign):
                taint = self._taint_of(node.value, tainted)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if taint is not None:
                            tainted[target.id] = taint
                        else:
                            tainted.pop(target.id, None)
                        continue
                    attr = is_self_store(target)
                    if attr is not None and taint == "row":
                        finding(
                            node,
                            f"pooled row stored on self.{attr} outlives the "
                            "frame — the backing buffer is rewritten by the "
                            "next reservation (copy the data instead)",
                        )
            elif isinstance(node, ast.Call):
                check_thread_handoff(node)
            for child in ast.iter_child_nodes(node):
                visit(child)

        for stmt in fn.node.body:
            visit(stmt)
        return findings
