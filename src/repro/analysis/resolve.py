"""The shared resolution pass every checker builds on.

One parse of the tree produces, per module:

* the AST with a parent map (checkers ask "is this ``id()`` call inside
  a subscript?") and 1-indexed source lines;
* the *import alias table* — ``np`` → ``numpy``, ``rnd`` → ``random`` —
  so checkers match fully-qualified call targets instead of guessing at
  surface spellings;
* the *class index* — which classes own a lock (``self._lock =
  threading.Lock()`` in any method), which are frozen-net types
  (``is_frozen = True``), which are frozen dataclasses;
* the *function index* — qualnames and resolved decorators (how
  ``@hot_path`` marking is discovered);
* the *suppression pragmas* — ``# witness-lint: allow[rule]`` comments,
  extracted with :mod:`tokenize` so a ``#`` inside a string can never be
  misread as a pragma.

Module names are derived from the package structure on disk (walking up
while ``__init__.py`` exists), so the same machinery resolves the real
``repro`` tree and the fixture trees under ``tests/analysis_fixtures``.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field

#: ``# witness-lint: allow[rule-a,rule-b] -- optional justification``
PRAGMA_RE = re.compile(
    r"#\s*witness-lint:\s*allow\[([A-Za-z0-9_\-, ]+)\]\s*(?:--\s*(?P<why>.*))?"
)

#: Lock-like constructors: owning one of these is a claim that the
#: class's shared state is guarded (a Condition wraps a lock).
LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
}


@dataclass
class Pragma:
    """One ``allow[...]`` pragma: which rules it suppresses on which line."""

    line: int  # the line whose findings are suppressed
    rules: tuple
    justification: str = ""
    used: bool = False


@dataclass
class ClassInfo:
    name: str
    qualname: str
    node: ast.ClassDef
    #: ``self.<attr>`` names assigned a lock factory in any method.
    lock_attrs: tuple = ()
    #: Carries ``is_frozen = True`` (frozen-net executables).
    is_frozen_net: bool = False
    #: Declared ``@dataclass(frozen=True)``.
    is_frozen_dataclass: bool = False


@dataclass
class FunctionInfo:
    qualname: str
    node: object
    #: Resolved dotted decorator names (``repro.analysis.hot_path``).
    decorators: tuple = ()


@dataclass
class ModuleInfo:
    """Everything checkers need to know about one source file."""

    path: str
    module: str
    tree: ast.Module
    source_lines: list
    imports: dict = field(default_factory=dict)
    classes: dict = field(default_factory=dict)  # qualname -> ClassInfo
    functions: dict = field(default_factory=dict)  # id(node) -> FunctionInfo
    pragmas: list = field(default_factory=list)
    #: Module-level names assigned a lock factory (``_TWIN_LOCK =
    #: threading.Lock()``) — lock-graph nodes just like ``self._lock``.
    lock_globals: tuple = ()
    _parents: dict = field(default_factory=dict)

    # -- navigation --------------------------------------------------------

    def parent(self, node):
        return self._parents.get(id(node))

    def ancestors(self, node):
        """Yield ``node``'s ancestors, innermost first."""
        cur = self.parent(node)
        while cur is not None:
            yield cur
            cur = self.parent(cur)

    def enclosing_function(self, node):
        """The innermost enclosing function's :class:`FunctionInfo`."""
        for anc in [node, *self.ancestors(node)]:
            info = self.functions.get(id(anc))
            if info is not None:
                return info
        return None

    def enclosing_class(self, node):
        """The innermost enclosing class's :class:`ClassInfo`."""
        for anc in self.ancestors(node):
            if isinstance(anc, ast.ClassDef):
                for info in self.classes.values():
                    if info.node is anc:
                        return info
        return None

    def context_of(self, node) -> str:
        """Human-readable enclosing scope for a finding."""
        fn = self.enclosing_function(node)
        if fn is not None:
            return fn.qualname
        cls = self.enclosing_class(node)
        if cls is not None:
            return cls.qualname
        return "<module>"

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.source_lines):
            return self.source_lines[line - 1].strip()
        return ""

    # -- name resolution ---------------------------------------------------

    def resolve_name(self, node) -> str | None:
        """Dotted fully-qualified name of a Name/Attribute expression.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` through the import table; a name
        with no import mapping resolves to itself (locally defined).
        """
        parts = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        parts.append(self.imports.get(cur.id, cur.id))
        return ".".join(reversed(parts))

    def resolve_call(self, call: ast.Call) -> str | None:
        """Fully-qualified dotted name of a call's target, or ``None``."""
        return self.resolve_name(call.func)


def _module_name_for(path: str) -> str:
    """Dotted module name of ``path`` from the package layout on disk."""
    path = os.path.abspath(path)
    directory = os.path.dirname(path)
    parts = [os.path.splitext(os.path.basename(path))[0]]
    while os.path.exists(os.path.join(directory, "__init__.py")):
        parts.append(os.path.basename(directory))
        parent = os.path.dirname(directory)
        if parent == directory:
            break
        directory = parent
    if parts[0] == "__init__":
        parts = parts[1:] or [os.path.basename(os.path.dirname(path))]
    return ".".join(reversed(parts))


def _extract_pragmas(source: str) -> list:
    """All ``allow[...]`` pragmas with the line each one suppresses.

    A pragma trailing code suppresses that line; a pragma standing alone
    on its own line suppresses the next line (so a long offending line
    can carry its justification above itself).
    """
    pragmas = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return pragmas
    code_lines = set()
    comments = []  # (line, col, text)
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            comments.append((tok.start[0], tok.start[1], tok.string))
        elif tok.type not in (
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
            tokenize.ENCODING,
        ):
            code_lines.add(tok.start[0])
    for line, _col, text in comments:
        match = PRAGMA_RE.search(text)
        if not match:
            continue
        rules = tuple(r.strip() for r in match.group(1).split(",") if r.strip())
        target = line if line in code_lines else line + 1
        pragmas.append(
            Pragma(line=target, rules=rules, justification=(match.group("why") or "").strip())
        )
    return pragmas


def _decorator_names(module: ModuleInfo, node) -> tuple:
    names = []
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        resolved = module.resolve_name(target)
        if resolved:
            names.append(resolved)
    return tuple(names)


def _index_imports(module: ModuleInfo) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module.imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    module.imports[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                # Relative imports: qualify against this module's package.
                package = module.module.rsplit(".", max(node.level, 1))[0]
                base = f"{package}.{node.module}" if node.module else package
            else:
                base = node.module
            for alias in node.names:
                module.imports[alias.asname or alias.name] = f"{base}.{alias.name}"


def _is_lock_factory_call(module: ModuleInfo, value) -> bool:
    if not isinstance(value, ast.Call):
        return False
    resolved = module.resolve_call(value)
    return resolved in LOCK_FACTORIES


def _index_classes_and_functions(module: ModuleInfo) -> None:
    def visit(node, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qual = f"{prefix}{child.name}"
                lock_attrs = []
                is_frozen_net = False
                is_frozen_dc = False
                for dec in child.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if module.resolve_name(target) in (
                        "dataclasses.dataclass",
                        "dataclass",
                    ) and isinstance(dec, ast.Call):
                        for kw in dec.keywords:
                            if (
                                kw.arg == "frozen"
                                and isinstance(kw.value, ast.Constant)
                                and kw.value.value is True
                            ):
                                is_frozen_dc = True
                for sub in ast.walk(child):
                    if isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                                and _is_lock_factory_call(module, sub.value)
                            ):
                                lock_attrs.append(target.attr)
                            if (
                                isinstance(target, ast.Name)
                                and target.id == "is_frozen"
                                and isinstance(sub.value, ast.Constant)
                                and sub.value.value is True
                            ):
                                is_frozen_net = True
                module.classes[qual] = ClassInfo(
                    name=child.name,
                    qualname=qual,
                    node=child,
                    lock_attrs=tuple(dict.fromkeys(lock_attrs)),
                    is_frozen_net=is_frozen_net,
                    is_frozen_dataclass=is_frozen_dc,
                )
                visit(child, f"{qual}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                module.functions[id(child)] = FunctionInfo(
                    qualname=qual,
                    node=child,
                    decorators=_decorator_names(module, child),
                )
                visit(child, f"{qual}.")
            else:
                visit(child, prefix)

    visit(module.tree, "")


def resolve_module(path: str, display_path: str | None = None) -> ModuleInfo:
    """Parse and fully index one source file."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=path)
    module = ModuleInfo(
        path=display_path or path,
        module=_module_name_for(path),
        tree=tree,
        source_lines=source.splitlines(),
    )
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            module._parents[id(child)] = parent
    _index_imports(module)
    _index_classes_and_functions(module)
    lock_globals = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_lock_factory_call(module, node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    lock_globals.append(target.id)
    module.lock_globals = tuple(dict.fromkeys(lock_globals))
    module.pragmas = _extract_pragmas(source)
    return module


@dataclass
class Project:
    """All resolved modules of one analysis run."""

    modules: list
    root: str

    @classmethod
    def from_paths(cls, paths) -> "Project":
        """Resolve every ``.py`` file under ``paths`` (files or trees)."""
        files = []
        roots = []
        for target in paths:
            target = os.path.abspath(target)
            roots.append(target if os.path.isdir(target) else os.path.dirname(target))
            if os.path.isdir(target):
                for dirpath, dirnames, filenames in os.walk(target):
                    dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
                    for name in sorted(filenames):
                        if name.endswith(".py"):
                            files.append(os.path.join(dirpath, name))
            elif target.endswith(".py"):
                files.append(target)
            else:
                raise ValueError(f"not a Python file or directory: {target}")
        root = os.path.commonpath(roots) if roots else os.getcwd()
        cwd = os.getcwd()
        modules = []
        for path in files:
            try:
                display = os.path.relpath(path, cwd)
            except ValueError:  # different drive (windows)
                display = path
            if display.startswith(".."):
                display = path
            modules.append(resolve_module(path, display_path=display))
        return cls(modules=modules, root=root)
