"""repro.lint — AST-based determinism and cache-safety analyzer.

Static checks that keep the reproduction honest: every figure and table
this repository emits assumes experiments are pure, explicitly seeded
functions of their kwargs (that is what the content-addressed result
cache fingerprints).  These rules enforce that contract at CI time
instead of letting it fail as an irreproducible number.

Run it with ``python -m repro.lint [paths]``; see ``docs/LINT.md`` for
the rule catalog, configuration and suppression syntax.
"""

from repro.lint.config import LintConfig, LintConfigError, find_pyproject, load_config
from repro.lint.engine import (
    PARSE_ERROR_CODE,
    PROJECT_RULES,
    build_project_index,
    lint_paths,
    lint_source,
)
from repro.lint.findings import Finding, Severity
from repro.lint.graph import ProjectIndex
from repro.lint.rules import (
    ALL_RULES,
    KNOWN_CODES,
    PROJECT_CODES,
    RULES_BY_CODE,
    ProjectRule,
    Rule,
)

__all__ = [
    "ALL_RULES",
    "Finding",
    "KNOWN_CODES",
    "LintConfig",
    "LintConfigError",
    "PARSE_ERROR_CODE",
    "PROJECT_CODES",
    "PROJECT_RULES",
    "ProjectIndex",
    "ProjectRule",
    "RULES_BY_CODE",
    "Rule",
    "Severity",
    "build_project_index",
    "find_pyproject",
    "lint_paths",
    "lint_source",
    "load_config",
]
