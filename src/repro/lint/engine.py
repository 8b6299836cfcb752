"""Single-pass AST lint engine: file walker, dispatcher, suppressions.

One :func:`lint_source` call parses a module once, runs one recursive walk
over the tree, and dispatches each node to the rules registered for its
node type.  The walker maintains the structural context rules need to stay
cheap and precise -- function nesting depth, the class stack, and whether
the current statement is *import-guarded* (inside a ``try`` whose handlers
catch ``ImportError``/``ModuleNotFoundError``, or an ``if TYPE_CHECKING:``
body) -- so a rule never re-walks ancestors.

Suppressions are real comments only: ``# replint: disable=REP101`` (or a
comma-separated list) on the offending line drops matching findings on
that line.  Comments are found with :mod:`tokenize`, not a line regex, so
a suppression *inside a string literal* (for example a lint-test fixture
snippet) is never honoured.  A suppression that suppressed nothing is
itself reported as ``REP000`` -- stale escapes must not outlive the
violation they were written for.

Engine pseudo-codes (not subclassing :class:`~repro.lint.registry.Rule`):

* ``REP000`` ``unused-suppression`` -- a ``replint: disable`` comment that
  matched no finding on its line.
* ``REP002`` ``syntax-error`` -- the file does not parse; nothing else can
  be checked.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules, resolve_rules

__all__ = [
    "ModuleContext",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
    "UNUSED_SUPPRESSION_CODE",
    "SYNTAX_ERROR_CODE",
    "ENGINE_CODES",
]

UNUSED_SUPPRESSION_CODE = "REP000"
SYNTAX_ERROR_CODE = "REP002"

#: Engine-emitted pseudo-rules, shown by ``--list-rules`` next to the real ones.
ENGINE_CODES = {
    UNUSED_SUPPRESSION_CODE: (
        "unused-suppression",
        "a `# replint: disable=...` comment that suppressed nothing",
    ),
    SYNTAX_ERROR_CODE: ("syntax-error", "the file does not parse"),
}

_SUPPRESS_RE = re.compile(r"#\s*replint:\s*disable=([A-Za-z0-9_,\s]+)")

#: Literal kinds the module-constant prepass records (REP101/REP103 resolve
#: names like ``_INF = math.inf`` or ``ENV_VAR = "REPRO_ENGINE"`` through it).
_CONST_TYPES = (str, int, float)


class ModuleContext:
    """Everything rules may ask about the module being linted.

    The walker mutates the ``function_depth`` / ``class_stack`` /
    ``guard_depth`` fields as it recurses; rules read them at visit time.
    """

    def __init__(self, source: str, path: Path, display_path: str) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines = source.splitlines()
        #: Dotted module name (``repro.core.naive``) when the path sits under
        #: a ``src`` directory, else ``None`` -- rule allowlists match on it.
        self.module = _module_name(path)
        #: ``True`` for library code (under a ``src`` path component).
        self.is_src = "src" in path.parts
        #: Module-level ``NAME = <literal>`` constants (str/int/float, with
        #: ``math.inf`` / ``math.nan`` resolved to their float values).
        self.constants: Dict[str, object] = {}
        #: Root names of every module imported anywhere in the file.
        self.imported_roots: Set[str] = set()
        # --- walker-maintained state ---
        self.function_depth = 0
        self.class_stack: List[str] = []
        self.guard_depth = 0

    # ------------------------------------------------------------------ #
    @property
    def in_function(self) -> bool:
        return self.function_depth > 0

    @property
    def import_guarded(self) -> bool:
        """Inside a ``try ... except ImportError`` body or ``if TYPE_CHECKING``."""
        return self.guard_depth > 0

    def resolve_str(self, node: ast.AST) -> Optional[str]:
        """A string literal or a name bound to a module-level string constant."""
        value = self.resolve_constant(node)
        return value if isinstance(value, str) else None

    def resolve_constant(self, node: ast.AST) -> Optional[object]:
        if isinstance(node, ast.Constant) and isinstance(node.value, _CONST_TYPES):
            return node.value
        if isinstance(node, ast.Name):
            return self.constants.get(node.id)
        return None


def _module_name(path: Path) -> Optional[str]:
    """Dotted module path for files under a ``src`` tree, else ``None``."""
    parts = path.parts
    if "src" not in parts:
        return None
    rel = parts[len(parts) - parts[::-1].index("src"):]
    if not rel or not rel[-1].endswith(".py"):
        return None
    rel = rel[:-1] + (rel[-1][: -len(".py")],)
    if rel and rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel) if rel else None


def _collect_constants(tree: ast.Module) -> Dict[str, object]:
    """Module-level literal assignments (``_INF = math.inf``, env-var names)."""
    constants: Dict[str, object] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        resolved = _literal_value(value)
        if resolved is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                constants[target.id] = resolved
    return constants


def _literal_value(node: ast.AST) -> Optional[object]:
    if isinstance(node, ast.Constant) and isinstance(node.value, _CONST_TYPES):
        return node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "math"
        and node.attr in ("inf", "nan")
    ):
        return float(node.attr)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _literal_value(node.operand)
        if isinstance(inner, (int, float)) and not isinstance(inner, bool):
            return -inner
    return None


def _collect_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> suppressed codes, from *real* comment tokens only."""
    suppressions: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            codes = {code.strip() for code in match.group(1).split(",") if code.strip()}
            if codes:
                suppressions.setdefault(token.start[0], set()).update(codes)
    except tokenize.TokenError:
        # Unterminated constructs etc.: ast.parse will report the real
        # problem; run without suppressions rather than crash.
        pass
    return suppressions


def _catches_import_error(handler: ast.ExceptHandler) -> bool:
    def _names(node: Optional[ast.AST]) -> Iterable[str]:
        if node is None:
            # A bare ``except:`` catches ImportError too.
            return ("ImportError",)
        if isinstance(node, ast.Tuple):
            out: List[str] = []
            for elt in node.elts:
                out.extend(_names(elt))
            return out
        if isinstance(node, ast.Name):
            return (node.id,)
        if isinstance(node, ast.Attribute):
            return (node.attr,)
        return ()

    return any(
        name in ("ImportError", "ModuleNotFoundError", "Exception", "BaseException")
        for name in _names(handler.type)
    )


def _is_type_checking_test(test: ast.AST) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


class _Walker:
    """The single recursive pass dispatching nodes to per-module rule instances."""

    def __init__(self, ctx: ModuleContext, rules: Sequence[Rule]) -> None:
        self.ctx = ctx
        self.findings: List[Finding] = []
        self.dispatch: Dict[type, List[Rule]] = {}
        for rule in rules:
            for node_type in rule.node_types:
                self.dispatch.setdefault(node_type, []).append(rule)
        self.rules = rules

    def run(self, tree: ast.Module) -> List[Finding]:
        self._walk(tree)
        for rule in self.rules:
            self.findings.extend(rule.finish())
        return self.findings

    # ------------------------------------------------------------------ #
    def _emit(self, node: ast.AST) -> None:
        for rule in self.dispatch.get(type(node), ()):
            self.findings.extend(rule.visit(node))

    def _walk(self, node: ast.AST) -> None:
        ctx = self.ctx
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    ctx.imported_roots.add(alias.name.split(".")[0])
            elif node.module and node.level == 0:
                ctx.imported_roots.add(node.module.split(".")[0])
            self._emit(node)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._emit(node)
            ctx.function_depth += 1
            try:
                self._walk_children(node)
            finally:
                ctx.function_depth -= 1
            return
        if isinstance(node, ast.ClassDef):
            self._emit(node)
            ctx.class_stack.append(node.name)
            try:
                self._walk_children(node)
            finally:
                ctx.class_stack.pop()
            return
        if isinstance(node, ast.Try) and any(
            _catches_import_error(handler) for handler in node.handlers
        ):
            self._emit(node)
            ctx.guard_depth += 1
            try:
                for stmt in node.body:
                    self._walk(stmt)
            finally:
                ctx.guard_depth -= 1
            for child in (*node.handlers, *node.orelse, *node.finalbody):
                self._walk(child)
            return
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            self._emit(node)
            ctx.guard_depth += 1
            try:
                for stmt in node.body:
                    self._walk(stmt)
            finally:
                ctx.guard_depth -= 1
            for stmt in node.orelse:
                self._walk(stmt)
            return
        self._emit(node)
        self._walk_children(node)

    def _walk_children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self._walk(child)


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #
def lint_source(
    source: str,
    path: Path,
    rule_classes: Optional[Sequence[Type[Rule]]] = None,
    display_path: Optional[str] = None,
) -> List[Finding]:
    """Lint one module's source text; the core of every other entry point."""
    if rule_classes is None:
        rule_classes = resolve_rules()
    display = display_path if display_path is not None else str(path)
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        name, _ = ENGINE_CODES[SYNTAX_ERROR_CODE]
        return [
            Finding(
                path=display,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code=SYNTAX_ERROR_CODE,
                rule=name,
                message=f"file does not parse: {exc.msg}",
            )
        ]

    ctx = ModuleContext(source, path, display)
    ctx.constants = _collect_constants(tree)
    applicable = [
        cls(ctx) for cls in rule_classes if cls.scope == "all" or ctx.is_src
    ]
    raw = _Walker(ctx, applicable).run(tree)

    suppressions = _collect_suppressions(source)
    if not suppressions:
        return sorted(raw, key=Finding.sort_key)

    kept: List[Finding] = []
    used: Set[Tuple[int, str]] = set()
    for finding in raw:
        codes = suppressions.get(finding.line, ())
        if finding.code in codes:
            used.add((finding.line, finding.code))
        else:
            kept.append(finding)
    unused_name, _ = ENGINE_CODES[UNUSED_SUPPRESSION_CODE]
    # Codes actually checked on *this file* (scope-filtered): a suppression
    # for a rule this run did not check (e.g. a --select REP101 pass over a
    # file carrying a REP103 escape, or a src-only rule in a test file) is
    # not "unused" -- the full run is the arbiter of staleness.  A code no
    # rule ever registered is always flagged: it is a typo that would never
    # suppress anything.
    checked_codes = {rule.code for rule in applicable}
    known_codes = {cls.code for cls in all_rules()} | set(ENGINE_CODES)
    for line in sorted(suppressions):
        for code in sorted(suppressions[line]):
            if (line, code) in used:
                continue
            if code in known_codes and code not in checked_codes:
                continue
            if code in checked_codes:
                message = f"suppression for {code} matches no finding on this line"
            else:
                message = f"suppression names unknown rule code {code!r}"
            kept.append(
                Finding(
                    path=display,
                    line=line,
                    col=0,
                    code=UNUSED_SUPPRESSION_CODE,
                    rule=unused_name,
                    message=message,
                )
            )
    return sorted(kept, key=Finding.sort_key)


def lint_file(
    path: Path, rule_classes: Optional[Sequence[Type[Rule]]] = None
) -> List[Finding]:
    source = path.read_text(encoding="utf-8")
    return lint_source(source, path, rule_classes)


_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "build", "dist"}


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into the sorted list of ``*.py`` files."""
    found: List[Path] = []
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                found.append(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = candidate.parts
                if any(part in _SKIP_DIRS or part.startswith(".") for part in parts):
                    continue
                found.append(candidate)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return found


def lint_paths(
    paths: Sequence,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint every ``*.py`` file under ``paths``; the programmatic entry point."""
    rule_classes = resolve_rules(select=select, ignore=ignore)
    findings: List[Finding] = []
    for file_path in iter_python_files([Path(p) for p in paths]):
        findings.extend(lint_file(file_path, rule_classes))
    return sorted(findings, key=Finding.sort_key)
