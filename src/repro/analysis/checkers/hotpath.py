"""Hot-path allocation discipline: frozen forwards allocate nothing.

PR 4's frozen engine gets its speed from reused scratch: each net keeps
one grow-only :class:`Workspace` per thread, so once a thread has
forwarded its largest batch every later forward reuses the same buffers.
That guarantee decays one convenience ``np.zeros`` at a time, and
nothing at runtime notices (the forward still returns the right
numbers, just slower and GC-churnier).  The ``hot-alloc`` rule pins it:

    Inside any function carrying ``@repro.analysis.hot_path`` (or pinned
    by config — the frozen stage executors and the resampler),
    no array-allocating call is allowed: constructors (``np.zeros`` &
    co), copying converters (``ascontiguousarray``, ``.copy()``,
    ``.astype()``), concatenation builders, and whole-array ufunc-style
    ops *without* an ``out=`` target.

The designated allocation points are ``Workspace.buf`` (not a hot path:
it allocates only when a batch outgrows its buffer) and the single
documented result copy of a forward, which carries an
``allow[hot-alloc]`` pragma naming its justification.
"""

from __future__ import annotations

import ast
import fnmatch

from repro.analysis.core import Checker, Finding, Rule, in_scope

#: Calls that always allocate a fresh array.
ALLOCATING_CALLS = {
    "numpy.zeros",
    "numpy.empty",
    "numpy.ones",
    "numpy.full",
    "numpy.array",
    "numpy.ascontiguousarray",
    "numpy.copy",
    "numpy.concatenate",
    "numpy.stack",
    "numpy.vstack",
    "numpy.hstack",
    "numpy.dstack",
    "numpy.tile",
    "numpy.repeat",
    "numpy.pad",
    "numpy.arange",
    "numpy.linspace",
    "numpy.meshgrid",
    "numpy.zeros_like",
    "numpy.empty_like",
    "numpy.ones_like",
    "numpy.full_like",
    "numpy.where",
}

#: Ufunc-style ops that allocate their result unless told where to write.
OUT_PARAM_CALLS = {
    "numpy.matmul",
    "numpy.dot",
    "numpy.add",
    "numpy.subtract",
    "numpy.multiply",
    "numpy.divide",
    "numpy.maximum",
    "numpy.minimum",
    "numpy.exp",
    "numpy.log",
    "numpy.clip",
}

#: Allocating array methods (``x.copy()``, ``x.astype(...)``).
ALLOCATING_METHODS = {"copy", "astype", "flatten", "tolist"}

#: The decorator spellings that mark a hot path.
HOT_DECORATORS = {"repro.analysis.hot_path", "analysis.hot_path", "hot_path"}


def _is_hot(module, fn_info, config) -> bool:
    if fn_info is None:
        return False
    for dec in fn_info.decorators:
        if dec in HOT_DECORATORS or dec.endswith(".hot_path"):
            return True
    pinned = f"{module.module}:{fn_info.qualname}"
    return any(fnmatch.fnmatch(pinned, pattern) for pattern in config.hot_functions)


class HotPathChecker(Checker):
    name = "hotpath"
    rules = (
        Rule(
            id="hot-alloc",
            summary="array allocation inside an allocation-free hot path",
            incident=(
                "PR 4: frozen forwards are allocation-free via grow-only "
                "Workspace buffers; a stray constructor silently re-introduces "
                "per-call allocation and GC churn on the hottest loop"
            ),
            hint=(
                "write into a Workspace buffer (ws.buf) or pass out=; the "
                "designated allocation point carries allow[hot-alloc]"
            ),
        ),
    )

    def check(self, module, project) -> list:
        findings = []
        for fn_id, fn_info in module.functions.items():
            if not _is_hot(module, fn_info, self.config):
                continue
            findings.extend(self._check_function(module, fn_info))
        return findings

    def _check_function(self, module, fn_info) -> list:
        findings = []
        for node in ast.walk(fn_info.node):
            if not isinstance(node, ast.Call):
                continue
            # Nested functions are their own (non-hot unless marked) scope.
            if module.enclosing_function(node).node is not fn_info.node:
                continue
            message = self._allocation_message(module, node)
            if message is None:
                continue
            findings.append(
                Finding(
                    rule="hot-alloc",
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=f"{message} inside hot path {fn_info.qualname}",
                    context=fn_info.qualname,
                    line_text=module.line_text(node.lineno),
                )
            )
        return findings

    def _allocation_message(self, module, call: ast.Call) -> str | None:
        resolved = module.resolve_call(call)
        short = (resolved or "").replace("numpy", "np")
        if resolved in ALLOCATING_CALLS:
            return f"allocating call {short}(...)"
        if resolved in OUT_PARAM_CALLS:
            if not any(kw.arg == "out" for kw in call.keywords):
                return f"{short}(...) without out= allocates its result"
            return None
        if isinstance(call.func, ast.Attribute) and call.func.attr in ALLOCATING_METHODS:
            # `.copy()` / `.flatten()` / `.tolist()` with no args, or any
            # `.astype(...)`: all produce a fresh array (or list).
            if call.func.attr == "astype" or (not call.args and not call.keywords):
                return f"allocating method .{call.func.attr}()"
        return None
