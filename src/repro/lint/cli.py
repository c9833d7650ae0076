"""Command-line interface: ``python -m repro.lint [paths]``.

Exit codes: 0 = clean, 1 = findings, 2 = usage/config error.  ``--format
json`` emits a machine-readable report (archived as a CI artifact so
lint trends stay observable across PRs); ``--format sarif`` emits a
SARIF 2.1.0 document for GitHub code scanning; ``--output`` writes the
report to a file while a one-line summary still goes to stderr.
``--dump-graph FILE`` writes the whole-program call graph the
interprocedural rules ran over (the ``lint-graph`` debugging artifact).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.lint.config import LintConfig, LintConfigError, find_pyproject, load_config
from repro.lint.engine import PROJECT_RULES, build_project_index, lint_paths, parse_paths
from repro.lint.findings import Finding
from repro.lint.rules import ALL_RULES, KNOWN_CODES
from repro.lint.sarif import render_sarif
from repro.util.atomicio import atomic_write_text

__all__ = ["main"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

#: Schema version of the JSON report.
REPORT_VERSION = 1


def _parse_codes(raw: Optional[str], flag: str) -> Optional[frozenset]:
    if raw is None:
        return None
    codes = frozenset(code.strip() for code in raw.split(",") if code.strip())
    unknown = sorted(codes - KNOWN_CODES)
    if unknown:
        raise LintConfigError(f"{flag} names unknown rule(s): {', '.join(unknown)}")
    return codes


def _render_json(findings: List[Finding], scanned: int) -> str:
    by_code: Dict[str, int] = {}
    for finding in findings:
        by_code[finding.code] = by_code.get(finding.code, 0) + 1
    report = {
        "version": REPORT_VERSION,
        "files_scanned": scanned,
        "findings": [finding.as_dict() for finding in findings],
        "summary": {"total": len(findings), "by_code": dict(sorted(by_code.items()))},
    }
    return json.dumps(report, indent=2, sort_keys=True)


def _render_text(findings: List[Finding], scanned: int) -> str:
    lines = [finding.render() for finding in findings]
    lines.append(_summary_line(findings, scanned))
    return "\n".join(lines)


def _render_sarif(findings: List[Finding], scanned: int) -> str:
    del scanned  # not representable in SARIF
    return render_sarif(findings, rule_catalog=[*ALL_RULES, *PROJECT_RULES])


def _summary_line(findings: List[Finding], scanned: int) -> str:
    if not findings:
        return f"repro-lint: clean ({scanned} file(s) scanned)"
    return f"repro-lint: {len(findings)} finding(s) in {scanned} file(s) scanned"


def _list_rules() -> str:
    lines = ["Registered rules:"]
    for rule in ALL_RULES:
        lines.append(f"  {rule.code}  {rule.name:<22} [{rule.severity.value}] {rule.rationale}")
    lines.append("Project-wide (interprocedural) rules:")
    for rule in PROJECT_RULES:
        lines.append(f"  {rule.code}  {rule.name:<22} [{rule.severity.value}] {rule.rationale}")
    return "\n".join(lines)


def _dump_graph(paths: List[str], config: LintConfig, out: Path) -> int:
    """Write the whole-program call graph as JSON (``lint-graph`` target)."""
    parsed, _unparsed, _scanned = parse_paths(paths, config)
    index = build_project_index(parsed)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out, index.to_json() + "\n")
    print(
        f"repro-lint: call graph over {len(parsed)} file(s) -> {out}",
        file=sys.stderr,
    )
    return EXIT_CLEAN


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based determinism and cache-safety analyzer for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["."],
        metavar="PATH",
        help="files or directories to lint (default: current directory)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--output", metavar="FILE", help="write the report to FILE instead of stdout"
    )
    parser.add_argument(
        "--select", metavar="CODES", help="comma-separated rule codes to run (overrides config)"
    )
    parser.add_argument(
        "--ignore", metavar="CODES", help="comma-separated rule codes to skip (overrides config)"
    )
    parser.add_argument(
        "--config", metavar="PYPROJECT", help="explicit pyproject.toml (default: discovered)"
    )
    parser.add_argument(
        "--no-config", action="store_true", help="ignore pyproject.toml, use built-in defaults"
    )
    parser.add_argument(
        "--dump-graph",
        metavar="FILE",
        help="write the whole-program call graph as JSON and exit",
    )
    parser.add_argument("--list-rules", action="store_true", help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return EXIT_CLEAN

    try:
        if args.no_config:
            config = LintConfig()
        elif args.config is not None:
            config = load_config(Path(args.config), known_codes=KNOWN_CODES)
        else:
            # Discover from the first linted path so behaviour does not
            # depend on the caller's working directory.
            config = load_config(find_pyproject(Path(args.paths[0])), known_codes=KNOWN_CODES)
        select = _parse_codes(args.select, "--select")
        ignore = _parse_codes(args.ignore, "--ignore")
        if select is not None or ignore is not None:
            config = LintConfig(
                root=config.root,
                enable=select if select is not None else config.enable,
                disable=ignore if ignore is not None else config.disable,
                exclude=config.exclude,
                per_rule_exclude=config.per_rule_exclude,
            )
    except LintConfigError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.dump_graph is not None:
        try:
            return _dump_graph(args.paths, config, Path(args.dump_graph))
        except FileNotFoundError as exc:
            print(f"repro-lint: error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    try:
        findings, scanned = lint_paths(args.paths, config=config)
    except FileNotFoundError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    renderers = {"json": _render_json, "sarif": _render_sarif, "text": _render_text}
    report = renderers[args.format](findings, scanned)
    if args.output is not None:
        out = Path(args.output)
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out, report + "\n")
        print(_summary_line(findings, scanned), file=sys.stderr)
    else:
        print(report)

    return EXIT_FINDINGS if findings else EXIT_CLEAN
