"""Single-pass lint engine: parse once, dispatch nodes to every rule.

:func:`lint_source` parses one module, builds the import-alias table and
the inline-suppression map, then walks the AST exactly once; each node
is dispatched to the rules that registered interest in its type.  Rules
never re-walk the tree, so the cost of a lint run is one ``ast.parse``
per file (plus one ``tokenize`` pass for the few files that carry a
suppression comment) regardless of how many rules are registered.

:func:`lint_paths` layers the **project pass** on top: the same parsed
trees are handed to :class:`~repro.lint.graph.ProjectIndex` and the
interprocedural rules (REP008–REP012) run once over the whole file set.
Their findings flow through :class:`ProjectReporter`, which applies the
same inline suppressions and per-rule path exclusions as the local
pass — a ``# repro-lint: disable=REP012`` works identically whether the
rule saw one file or all of them.

Inline suppressions::

    x = time.time()  # repro-lint: disable=REP003 -- wall clock is the point
    y = risky()      # repro-lint: disable           (all rules, this line)
    # repro-lint: disable-file=REP005               (whole file, that rule)
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.concurrency import CONCURRENCY_RULES
from repro.lint.config import LintConfig
from repro.lint.findings import Finding, Severity
from repro.lint.graph import ImportTable, ProjectIndex
from repro.lint.rules import ALL_RULES, PROJECT_CODES, ProjectRule, Rule
from repro.lint.taint import TAINT_RULES

__all__ = [
    "ImportTable",
    "ModuleContext",
    "PARSE_ERROR_CODE",
    "PROJECT_RULES",
    "ParsedFile",
    "ProjectReporter",
    "build_project_index",
    "collect_suppressions",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "parse_paths",
    "run_project_rules",
]

#: Pseudo-rule code for files the parser rejects; not configurable.
PARSE_ERROR_CODE = "REP000"

#: Sentinel inside a suppression set meaning "every rule".
_ALL_CODES = "*"

#: The interprocedural rules, run once per ``lint_paths`` call.
PROJECT_RULES: Tuple[ProjectRule, ...] = (*TAINT_RULES, *CONCURRENCY_RULES)
assert {rule.code for rule in PROJECT_RULES} == PROJECT_CODES

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable-file|disable)\s*(?:=\s*(?P<codes>[A-Za-z0-9_,\s]+))?"
)


def collect_suppressions(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Parse inline suppression comments out of *source*.

    Returns ``(per_line, per_file)`` where ``per_line`` maps a physical
    line number to the codes suppressed on that line and ``per_file`` is
    the set suppressed everywhere; either set may contain the ``"*"``
    sentinel meaning all rules.  Uses :mod:`tokenize` so suppression
    text inside string literals is ignored; a source that never spells
    ``repro-lint`` has no suppression and is not tokenized.
    """
    per_line: Dict[int, Set[str]] = {}
    per_file: Set[str] = set()
    if "repro-lint" not in source:
        return per_line, per_file
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return per_line, per_file
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        raw = match.group("codes")
        codes = (
            {code.strip() for code in raw.split(",") if code.strip()}
            if raw is not None
            else {_ALL_CODES}
        )
        if match.group("kind") == "disable-file":
            per_file.update(codes)
        else:
            per_line.setdefault(token.start[0], set()).update(codes)
    return per_line, per_file


@dataclass
class _SourceInfo:
    path: str
    imports: ImportTable
    line_suppressions: Dict[int, Set[str]]
    file_suppressions: Set[str]


@dataclass
class ParsedFile:
    """One successfully parsed module, reused by both lint passes."""

    path: Path
    source: str
    tree: ast.Module
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    file_suppressions: Set[str] = field(default_factory=set)

    def suppressed(self, code: str, line: int) -> bool:
        for codes in (self.file_suppressions, self.line_suppressions.get(line, set())):
            if _ALL_CODES in codes or code in codes:
                return True
        return False


class ModuleContext:
    """Per-module state shared by all rules during one walk."""

    def __init__(self, info: _SourceInfo) -> None:
        self._info = info
        self.findings: List[Finding] = []
        #: The enclosing function definitions, outermost first.
        self._function_stack: List[ast.AST] = []
        self._assert_depth = 0

    # -- queries used by rules ---------------------------------------------

    def resolve(self, node: ast.expr) -> Optional[str]:
        return self._info.imports.resolve(node)

    @property
    def in_assert(self) -> bool:
        return self._assert_depth > 0

    def is_nested_def(self, name: str) -> bool:
        """True when *name* is a function defined inside an enclosing
        function (i.e. referencing it builds a closure)."""
        return any(
            isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not scope
            and child.name == name
            for scope in self._function_stack
            for child in ast.walk(scope)
        )

    # -- reporting ----------------------------------------------------------

    def _suppressed(self, code: str, line: int) -> bool:
        for codes in (self._info.file_suppressions, self._info.line_suppressions.get(line, set())):
            if _ALL_CODES in codes or code in codes:
                return True
        return False

    def report(self, node: ast.AST, rule: Rule, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if self._suppressed(rule.code, line):
            return
        self.findings.append(
            Finding(
                path=self._info.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                code=rule.code,
                severity=rule.severity,
                message=message,
            )
        )


class ProjectReporter:
    """Finding sink for the interprocedural rules.

    Applies the same inline suppressions as the local pass plus the
    config's per-rule path exclusions at *report* time — a project rule
    analyzes every file (an excluded module still contributes call
    edges) but findings only land where the rule applies.
    """

    def __init__(self, files: Sequence[ParsedFile], config: LintConfig) -> None:
        self._by_path: Dict[str, ParsedFile] = {str(f.path): f for f in files}
        self._config = config
        self.findings: List[Finding] = []
        self._seen: Set[Tuple[str, int, int, str]] = set()

    def report(self, path: str, node: ast.AST, rule: ProjectRule, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        parsed = self._by_path.get(path)
        if parsed is not None and parsed.suppressed(rule.code, line):
            return
        if not self._config.rule_applies(rule.code, Path(path)):
            return
        key = (path, line, col, rule.code)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Finding(
                path=path,
                line=line,
                col=col,
                code=rule.code,
                severity=rule.severity,
                message=message,
            )
        )


class _Walker(ast.NodeVisitor):
    """One tree walk that feeds every rule and tracks lexical context."""

    def __init__(self, ctx: ModuleContext, rules: Sequence[Rule]) -> None:
        self._ctx = ctx
        self._dispatch: Dict[type, List[Rule]] = {}
        for rule in rules:
            for node_type in rule.node_types:
                self._dispatch.setdefault(node_type, []).append(rule)

    def visit(self, node: ast.AST) -> None:
        for rule in self._dispatch.get(type(node), ()):
            rule.visit(self._ctx, node)
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            method(node)
        else:
            self.generic_visit(node)

    # -- context bookkeeping (imports, scopes, asserts) ---------------------

    def visit_Import(self, node: ast.Import) -> None:
        self._ctx._info.imports.add_import(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._ctx._info.imports.add_import_from(node)

    def _visit_function(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        self._ctx._function_stack.append(node)
        try:
            self.generic_visit(node)
        finally:
            self._ctx._function_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Assert(self, node: ast.Assert) -> None:
        self._ctx._assert_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._ctx._assert_depth -= 1


def _parse_error_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        code=PARSE_ERROR_CODE,
        severity=Severity.ERROR,
        message=f"file does not parse: {exc.msg}",
    )


def _lint_tree(
    tree: ast.Module,
    *,
    path: str,
    per_line: Dict[int, Set[str]],
    per_file: Set[str],
    rules: Sequence[Rule],
) -> List[Finding]:
    info = _SourceInfo(
        path=path,
        imports=ImportTable(),
        line_suppressions=per_line,
        file_suppressions=per_file,
    )
    ctx = ModuleContext(info)
    _Walker(ctx, rules).visit(tree)
    return sorted(ctx.findings)


def lint_source(
    source: str,
    *,
    path: str = "<string>",
    rules: Sequence[Rule] = ALL_RULES,
) -> List[Finding]:
    """Lint one module's *source* with *rules*; returns sorted findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [_parse_error_finding(path, exc)]
    per_line, per_file = collect_suppressions(source)
    return _lint_tree(tree, path=path, per_line=per_line, per_file=per_file, rules=rules)


def iter_python_files(paths: Sequence[Union[str, Path]]) -> Iterator[Path]:
    """All ``*.py`` files under *paths* (files or directories), deduplicated
    and in sorted order; raises ``FileNotFoundError`` for missing paths."""
    seen: Set[Path] = set()
    collected: List[Path] = []
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            candidates = sorted(root.rglob("*.py"))
        elif root.is_file():
            candidates = [root]
        else:
            raise FileNotFoundError(f"no such file or directory: {root}")
        for candidate in candidates:
            if not candidate.is_file():  # a directory named *.py
                continue
            key = candidate.resolve()
            if key not in seen:
                seen.add(key)
                collected.append(candidate)
    return iter(collected)


def parse_paths(
    paths: Sequence[Union[str, Path]], config: LintConfig
) -> Tuple[List[ParsedFile], List[Finding], int]:
    """Read and parse every Python file under *paths* that *config* does
    not exclude.

    Returns ``(parsed, findings, files_scanned)``: *findings* holds one
    ``REP000`` per file that cannot be read or parsed.
    """
    parsed: List[ParsedFile] = []
    findings: List[Finding] = []
    scanned = 0
    for path in iter_python_files(paths):
        if config.file_excluded(path):
            continue
        scanned += 1
        try:
            source = path.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            findings.append(
                Finding(
                    path=str(path),
                    line=1,
                    col=0,
                    code=PARSE_ERROR_CODE,
                    severity=Severity.ERROR,
                    message=f"file is unreadable: {exc}",
                )
            )
            continue
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            findings.append(_parse_error_finding(str(path), exc))
            continue
        per_line, per_file = collect_suppressions(source)
        parsed.append(
            ParsedFile(
                path=path,
                source=source,
                tree=tree,
                line_suppressions=per_line,
                file_suppressions=per_file,
            )
        )
    return parsed, findings, scanned


def build_project_index(parsed: Sequence[ParsedFile]) -> ProjectIndex:
    """The whole-program index over *parsed* files (``lint-graph`` entry)."""
    return ProjectIndex.build([(str(f.path), f.tree) for f in parsed])


def run_project_rules(
    parsed: Sequence[ParsedFile],
    *,
    config: LintConfig,
    rules: Sequence[ProjectRule] = PROJECT_RULES,
) -> List[Finding]:
    """Run the interprocedural rules over *parsed* and return their findings."""
    enabled = [rule for rule in rules if config.rule_enabled(rule.code)]
    if not enabled or not parsed:
        return []
    index = build_project_index(parsed)
    reporter = ProjectReporter(parsed, config)
    for rule in enabled:
        rule.check(index, reporter)
    return sorted(reporter.findings)


def lint_paths(
    paths: Sequence[Union[str, Path]],
    *,
    config: Optional[LintConfig] = None,
    rules: Sequence[Rule] = ALL_RULES,
    project_rules: Sequence[ProjectRule] = PROJECT_RULES,
) -> Tuple[List[Finding], int]:
    """Lint every Python file under *paths*, local pass then project pass.

    Returns ``(findings, files_scanned)``; excluded files are neither
    linted nor counted.
    """
    cfg = config if config is not None else LintConfig()
    parsed, findings, scanned = parse_paths(paths, cfg)
    for f in parsed:
        applicable = [rule for rule in rules if cfg.rule_applies(rule.code, f.path)]
        findings.extend(
            _lint_tree(
                f.tree,
                path=str(f.path),
                per_line=f.line_suppressions,
                per_file=f.file_suppressions,
                rules=applicable,
            )
        )
    findings.extend(run_project_rules(parsed, config=cfg, rules=project_rules))
    return sorted(findings), scanned
