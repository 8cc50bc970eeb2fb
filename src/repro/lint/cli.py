"""Command-line front-end for the linter, deps viewer and trace matrix.

Used both standalone (``python -m repro.lint``) and as the ``repro
lint`` / ``repro deps`` / ``repro trace`` subcommands of the main CLI.  Exit codes follow
convention:

* 0 — no findings (or none that ``--fail-on`` gates on)
* 1 — gating findings reported
* 2 — the linter itself could not run (bad path, bad config, bad baseline)
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Sequence
from pathlib import Path
from ..exceptions import LintError

from .config import LintConfig, load_config, merge_cli_options
from .engine import ParseCache, lint_paths, registered_rules
from .findings import Finding, render_json, render_text
from .interproc import load_module_graph
from .modgraph import render_deps_dot, render_deps_json, render_deps_tree

__all__ = [
    "add_lint_arguments",
    "add_deps_arguments",
    "add_trace_arguments",
    "add_errors_arguments",
    "render_rule_index_markdown",
    "run_lint",
    "run_deps",
    "run_trace",
    "run_errors",
    "main",
]

#: ``--fail-on r1xx-only`` gates the exit code on these rule ids.
_GRAPH_RULE_PATTERN = re.compile(r"^R1\d\d$")


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``lint`` options to *parser*."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="output format (json is stable and machine-readable)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="PYPROJECT",
        help="explicit pyproject.toml to read [tool.repro-lint] from "
        "(default: nearest one above the first path)",
    )
    parser.add_argument(
        "--whole-program",
        action="store_true",
        help="also run the graph-level R100-series rules (layering, "
        "cycles, validation flow, exception escape, dead exports)",
    )
    parser.add_argument(
        "--dataflow",
        action="store_true",
        help="also run the R200-series dataflow and contract rules "
        "(call-site shape/dtype contracts, unbound locals, simplex "
        "invariants, oracle pairing, paper traceability)",
    )
    parser.add_argument(
        "--effects",
        action="store_true",
        help="also run the R400-series effect/concurrency-safety rules "
        "(effect-declaration checks, pure-function writes, ambient RNG "
        "on solver entry points, pool picklability, telemetry scoping)",
    )
    parser.add_argument(
        "--certificate",
        default=None,
        metavar="OUT",
        help="write the JSON parallel-safety certificate (every solver "
        "entry point with its inferred effect set) to OUT; implies "
        "--effects",
    )
    parser.add_argument(
        "--errors",
        action="store_true",
        help="also run the R600-series exception-flow and "
        "resource-safety rules (escape sets vs @raises declarations, "
        "resource leaks on exceptional paths, broad handlers on hot "
        "paths, non-ReproError entry-point escapes, unclosed scopes)",
    )
    parser.add_argument(
        "--error-contract",
        default=None,
        metavar="OUT",
        dest="error_contract",
        help="write the JSON error-contract certificate (every solver "
        "entry point with its inferred escape set and declared "
        "transient failures) to OUT; implies --errors",
    )
    parser.add_argument(
        "--sarif",
        default=None,
        metavar="OUT",
        help="additionally write the findings (including in-source "
        "suppressed ones) as a SARIF 2.1.0 document to OUT",
    )
    parser.add_argument(
        "--fail-on",
        choices=("any", "r1xx-only"),
        default="any",
        dest="fail_on",
        help="which findings set a non-zero exit code: every finding "
        "(default) or only the whole-program R100-series",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="REPORT",
        help="a previous `--format json` report; findings it already "
        "contains (same path, rule and message) are filtered out",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="with --list-rules, render the rule index as the markdown "
        "table embedded in docs/static_analysis.md",
    )


def add_deps_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``deps`` options to *parser*."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to graph (default: src)",
    )
    rendering = parser.add_mutually_exclusive_group()
    rendering.add_argument(
        "--dot",
        action="store_true",
        help="emit Graphviz dot (lazy imports dashed, one rank per layer)",
    )
    rendering.add_argument(
        "--json",
        action="store_true",
        dest="json_output",
        help="emit the stable machine-readable graph document",
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="PYPROJECT",
        help="explicit pyproject.toml to read [tool.repro-lint] from "
        "(default: nearest one above the first path)",
    )


def _split_rules(raw: str | None) -> frozenset[str] | None:
    if raw is None:
        return None
    return frozenset(part.strip().upper() for part in raw.split(",") if part.strip())


def _base_config(args: argparse.Namespace) -> LintConfig:
    explicit = Path(args.config) if args.config is not None else None
    search_from = Path(args.paths[0]) if args.paths else Path(".")
    return load_config(explicit, search_from=search_from)


def _resolve_config(args: argparse.Namespace) -> LintConfig:
    return merge_cli_options(
        _base_config(args),
        select=_split_rules(args.select),
        ignore=_split_rules(args.ignore),
    )


def _load_baseline(path: str) -> frozenset[tuple[str, str, str]]:
    """Finding keys of a previous ``--format json`` report.

    Findings match on ``(path, rule id, message)``; lines and columns
    are deliberately ignored so unrelated edits do not resurrect
    baselined findings.
    """
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise LintError(f"cannot read baseline {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LintError(f"baseline {path!r} is not valid JSON: {exc}") from exc
    entries = document.get("findings") if isinstance(document, dict) else None
    if not isinstance(entries, list):
        raise LintError(
            f"baseline {path!r} is not a repro-lint JSON report "
            "(expected a 'findings' array)"
        )
    keys: set[tuple[str, str, str]] = set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise LintError(f"baseline {path!r} contains a malformed finding")
        keys.add(
            (
                str(entry.get("path", "")),
                str(entry.get("rule_id", "")),
                str(entry.get("message", "")),
            )
        )
    return frozenset(keys)


def _gates_exit(finding: Finding, fail_on: str) -> bool:
    if fail_on == "r1xx-only":
        return _GRAPH_RULE_PATTERN.match(finding.rule_id) is not None
    return True


#: Rule-id series -> the lint tier (and flag) that runs it.
_TIER_BY_SERIES = {
    "R0": "per-file",
    "R1": "whole-program (`--whole-program`)",
    "R2": "dataflow (`--dataflow`)",
    "R3": "per-file",
    "R4": "effects (`--effects`)",
    "R6": "errors (`--errors`)",
}


def render_rule_index_markdown() -> str:
    """The registered-rule index as the markdown table embedded in
    ``docs/static_analysis.md`` (``repro lint --list-rules --markdown``;
    a drift test keeps the doc in sync with the registry)."""
    lines = [
        "| Rule | Name | Tier | Checks |",
        "| --- | --- | --- | --- |",
    ]
    for rule_id, rule in sorted(registered_rules().items()):
        tier = _TIER_BY_SERIES.get(rule_id[:2], "per-file")
        lines.append(
            f"| {rule_id} | `{rule.name}` | {tier} | {rule.summary} |"
        )
    return "\n".join(lines) + "\n"


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed ``lint`` invocation; returns the exit code."""
    if args.list_rules:
        if getattr(args, "markdown", False):
            print(render_rule_index_markdown(), end="")
            return 0
        for rule_id, rule in sorted(registered_rules().items()):
            print(f"{rule_id} {rule.name}: {rule.summary}")
        return 0
    config = _resolve_config(args)
    certificate_path = getattr(args, "certificate", None)
    wants_effects = bool(getattr(args, "effects", False)) or (
        certificate_path is not None
    )
    contract_path = getattr(args, "error_contract", None)
    wants_errors = bool(getattr(args, "errors", False)) or (
        contract_path is not None
    )
    sarif_path = getattr(args, "sarif", None)
    suppressed: list[Finding] | None = (
        [] if sarif_path is not None else None
    )
    cache = ParseCache()
    findings = lint_paths(
        args.paths,
        config,
        whole_program=bool(getattr(args, "whole_program", False)),
        dataflow=bool(getattr(args, "dataflow", False)),
        effects=wants_effects,
        errors=wants_errors,
        cache=cache,
        suppressed_sink=suppressed,
    )
    if certificate_path is not None:
        # The shared cache keeps this a zero-reparse pass over the same
        # files the lint run just analyzed.
        from .effects import build_certificate_for_paths, render_certificate

        document = build_certificate_for_paths(
            args.paths, config, cache=cache
        )
        try:
            Path(certificate_path).write_text(
                render_certificate(document), encoding="utf-8"
            )
        except OSError as exc:
            raise LintError(
                f"cannot write certificate {certificate_path!r}: {exc}"
            ) from exc
    if contract_path is not None:
        from .excflow import build_error_contract_for_paths, render_error_contract

        contract = build_error_contract_for_paths(
            args.paths, config, cache=cache
        )
        try:
            Path(contract_path).write_text(
                render_error_contract(contract), encoding="utf-8"
            )
        except OSError as exc:
            raise LintError(
                f"cannot write error contract {contract_path!r}: {exc}"
            ) from exc
    baseline_path = getattr(args, "baseline", None)
    if baseline_path is not None:
        known = _load_baseline(baseline_path)
        findings = [
            finding
            for finding in findings
            if (finding.path, finding.rule_id, finding.message) not in known
        ]
    if sarif_path is not None:
        from .sarif import render_sarif

        try:
            Path(sarif_path).write_text(
                render_sarif(findings, suppressed=suppressed or ()),
                encoding="utf-8",
            )
        except OSError as exc:
            raise LintError(
                f"cannot write SARIF report {sarif_path!r}: {exc}"
            ) from exc
    if args.output_format == "json":
        print(render_json(findings))
    elif findings:
        print(render_text(findings))
    else:
        print("clean: no findings")
    fail_on = getattr(args, "fail_on", "any")
    return 1 if any(_gates_exit(f, fail_on) for f in findings) else 0


def add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``trace`` options to *parser*."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="implementation files or directories to scan (default: src)",
    )
    rendering = parser.add_mutually_exclusive_group()
    rendering.add_argument(
        "--json",
        action="store_true",
        dest="json_output",
        help="emit the stable machine-readable coverage document",
    )
    rendering.add_argument(
        "--markdown",
        action="store_true",
        help="emit a markdown table suitable for embedding in README",
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="PYPROJECT",
        help="explicit pyproject.toml to read [tool.repro-lint] from "
        "(default: nearest one above the first path)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless every theorem row is covered on both sides "
        "and no unknown anchors exist",
    )


def run_trace(args: argparse.Namespace) -> int:
    """Execute a parsed ``trace`` invocation; returns the exit code."""
    # Runtime import: trace shares the parse/dataflow substrate, but the
    # deps-only code path must not pay for it.
    from .dataflow_rules import build_dataflow_context
    from .engine import ParseCache, iter_python_files
    from .interproc import build_program_context
    from .trace import render_matrix_json, render_matrix_markdown, render_matrix_text

    config = _base_config(args)
    cache = ParseCache()
    parsed = [cache.parsed(path) for path in iter_python_files(args.paths, config)]
    program = build_program_context(parsed, config, cache=cache)
    matrix = build_dataflow_context(program, cache=cache).trace_matrix()
    if args.json_output:
        print(render_matrix_json(matrix))
    elif args.markdown:
        print(render_matrix_markdown(matrix))
    else:
        print(render_matrix_text(matrix))
    if args.check:
        covered, total = matrix.coverage_counts()
        if covered < total or matrix.unknown:
            return 1
    return 0


def add_errors_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``errors`` options to *parser*."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="implementation files or directories to analyze (default: src)",
    )
    rendering = parser.add_mutually_exclusive_group()
    rendering.add_argument(
        "--json",
        action="store_true",
        dest="json_output",
        help="emit the stable machine-readable error-table document",
    )
    rendering.add_argument(
        "--markdown",
        action="store_true",
        help="emit a markdown table suitable for embedding in README",
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="PYPROJECT",
        help="explicit pyproject.toml to read [tool.repro-lint] from "
        "(default: nearest one above the first path)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless every solver entry point declares @raises, "
        "every declaration covers its inferred escape set, and no "
        "declaration is malformed",
    )


def run_errors(args: argparse.Namespace) -> int:
    """Execute a parsed ``errors`` invocation; returns the exit code."""
    # Runtime import: the error table shares the parse substrate, but
    # the deps-only code path must not pay for it.
    from .engine import iter_python_files
    from .excflow import (
        analyze_errors,
        build_error_table,
        build_exception_hierarchy,
        render_error_table_markdown,
        render_error_table_text,
    )
    from .interproc import build_program_context

    config = _base_config(args)
    cache = ParseCache()
    parsed = [cache.parsed(path) for path in iter_python_files(args.paths, config)]
    program = build_program_context(parsed, config, cache=cache)
    hierarchy = build_exception_hierarchy(program)
    errors_map = analyze_errors(program, hierarchy)
    document = build_error_table(program, errors_map, hierarchy)
    if args.json_output:
        print(json.dumps(document, indent=2, sort_keys=True))
    elif args.markdown:
        print(render_error_table_markdown(document))
    else:
        print(render_error_table_text(document))
    if args.check:
        functions = document["functions"]
        assert isinstance(functions, dict)
        for entry in functions.values():
            assert isinstance(entry, dict)
            if entry.get("problems") or entry.get("uncovered"):
                return 1
            if entry.get("entry_point") and entry.get("declared") is None:
                return 1
    return 0


def run_deps(args: argparse.Namespace) -> int:
    """Execute a parsed ``deps`` invocation; returns the exit code."""
    graph = load_module_graph(args.paths, _base_config(args))
    if args.dot:
        print(render_deps_dot(graph))
    elif args.json_output:
        print(render_deps_json(graph))
    else:
        print(render_deps_tree(graph))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant linter for the repro library",
    )
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    try:
        return run_lint(args)
    except LintError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
