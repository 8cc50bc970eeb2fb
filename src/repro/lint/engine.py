"""The rule engine: registry, parse cache, per-file and whole-program dispatch.

Rules come in two shapes.  *File rules* (:class:`Rule`) get the parsed
:class:`ModuleContext` for one file and yield
:class:`~repro.lint.findings.Finding` objects.  *Program rules*
(:class:`ProgramRule`, the R100 series) see the whole package at once —
import graph, call graph, usage roots — through a
:class:`~repro.lint.interproc.ProgramContext`.

The engine owns everything rules should not care about: file discovery,
module-name derivation, config/select filtering, suppression comments,
and the parse-error finding (``E001``) for files that are not valid
Python.  All parsing funnels through one :class:`ParseCache`, so a
``lint --whole-program`` run (file rules + graph passes) reads and
parses each source file exactly once — asserted by the test suite.
"""

from __future__ import annotations

import ast
import fnmatch
import re
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..exceptions import LintError
from .config import LintConfig
from .findings import Finding, sort_findings
from .suppressions import ALL_RULES, SuppressionTable, collect_suppressions

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .dataflow_rules import DataflowContext
    from .effect_rules import EffectContext
    from .error_rules import ErrorContext
    from .interproc import ProgramContext

__all__ = [
    "DataflowRule",
    "EffectRule",
    "ErrorRule",
    "ModuleContext",
    "ParseCache",
    "ParsedFile",
    "ProgramRule",
    "Rule",
    "register_rule",
    "registered_rules",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
    "module_name_for",
]

#: Rule id for files that fail to parse — always reported, never selectable off.
PARSE_ERROR_ID = "E001"
#: Rule id for suppression comments naming an unknown rule code — a typo
#: there silently suppresses nothing, so it is always reported, like E001.
SUPPRESSION_ERROR_ID = "E002"

_RULE_ID_PATTERN = re.compile(r"^[A-Z]\d{3}$")


@dataclass(frozen=True)
class ModuleContext:
    """Everything a file rule may inspect about one source file."""

    #: Path as given by the caller (kept for finding output).
    path: str
    #: Dotted module name (``repro.core.qpp``), or the bare stem for
    #: files outside any package.
    module: str
    #: Raw source text.
    source: str
    #: Parsed module body.
    tree: ast.Module
    #: Active configuration.
    config: LintConfig
    #: Parsed inline suppressions (consulted by the engine, not rules).
    suppressions: SuppressionTable = field(default_factory=SuppressionTable)

    def in_packages(self, prefixes: Sequence[str]) -> bool:
        """Whether this module falls under any dotted *prefixes*."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )

    def finding(self, node: ast.AST, rule_id: str, message: str) -> Finding:
        """Build a finding anchored at *node* in this file."""
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0) + 1
        return Finding(
            path=self.path, line=line, column=column, rule_id=rule_id, message=message
        )


@dataclass(frozen=True)
class ParsedFile:
    """One cached parse: source text, AST (or the parse error), suppressions."""

    #: Path as given by the caller at first parse (kept for finding output).
    path: str
    #: Resolved filesystem path (the cache key).
    resolved: Path
    #: Dotted module name derived from ``__init__.py`` markers.
    module: str
    #: Whether this file is a package ``__init__.py``.
    is_package: bool
    #: Raw source text.
    source: str
    #: Parsed module body, or ``None`` when the file does not parse.
    tree: ast.Module | None
    #: The ``E001`` finding when the file does not parse.
    parse_error: Finding | None
    #: Parsed inline suppressions.
    suppressions: SuppressionTable
    #: Modification time captured at parse (cache-invalidation key).
    mtime_ns: int

    def context(self, config: LintConfig) -> ModuleContext:
        """A :class:`ModuleContext` view of this parse under *config*."""
        if self.tree is None:
            raise LintError(f"{self.path!r} failed to parse; no context available")
        return ModuleContext(
            path=self.path,
            module=self.module,
            source=self.source,
            tree=self.tree,
            config=config,
            suppressions=self.suppressions,
        )


class ParseCache:
    """Parse each source file exactly once per ``(path, mtime)``.

    Shared by the per-file rules, the whole-program graph passes, and
    ``repro deps``; pass one instance through a run and every file is
    read and parsed a single time.  A changed modification time
    invalidates the entry, so long-lived caches stay correct across
    edits.
    """

    def __init__(self) -> None:
        self._entries: dict[Path, ParsedFile] = {}
        #: How many times each file was actually parsed (test hook for the
        #: parse-exactly-once contract).
        self.parse_counts: dict[Path, int] = {}

    @property
    def parse_count(self) -> int:
        """Total number of ``ast.parse`` invocations performed."""
        return sum(self.parse_counts.values())

    def parsed(self, path: Path | str) -> ParsedFile:
        """The cached parse of *path*, re-parsing only when it changed."""
        display = str(path)
        resolved = Path(path).resolve()
        try:
            mtime_ns = resolved.stat().st_mtime_ns
        except OSError as exc:
            raise LintError(f"cannot stat {display!r}: {exc}") from exc
        entry = self._entries.get(resolved)
        if entry is not None and entry.mtime_ns == mtime_ns:
            return entry
        try:
            source = resolved.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"cannot read {display!r}: {exc}") from exc
        entry = _parse_file(
            source,
            display=display,
            resolved=resolved,
            module=module_name_for(resolved),
            is_package=resolved.name == "__init__.py",
            mtime_ns=mtime_ns,
        )
        self._entries[resolved] = entry
        self.parse_counts[resolved] = self.parse_counts.get(resolved, 0) + 1
        return entry


def _parse_file(
    source: str,
    *,
    display: str,
    resolved: Path,
    module: str,
    is_package: bool,
    mtime_ns: int,
) -> ParsedFile:
    tree: ast.Module | None
    error: Finding | None
    try:
        tree = ast.parse(source)
        error = None
    except SyntaxError as exc:
        tree = None
        line = exc.lineno if exc.lineno is not None else 1
        column = (exc.offset if exc.offset is not None else 1) or 1
        error = Finding(
            path=display,
            line=line,
            column=column,
            rule_id=PARSE_ERROR_ID,
            message=f"file does not parse: {exc.msg}",
        )
    return ParsedFile(
        path=display,
        resolved=resolved,
        module=module,
        is_package=is_package,
        source=source,
        tree=tree,
        parse_error=error,
        suppressions=collect_suppressions(source),
        mtime_ns=mtime_ns,
    )


class Rule(ABC):
    """One per-file invariant check.  Subclasses set ``id``/``name``/``summary``."""

    id: str
    name: str
    summary: str

    @abstractmethod
    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        """Yield findings for *ctx*; must not mutate it."""


class ProgramRule(ABC):
    """One whole-program invariant; sees every module plus the graphs.

    Program rules run only under ``lint --whole-program`` and receive a
    :class:`~repro.lint.interproc.ProgramContext` holding the shared
    parsed files, the module import graph, and the call graph.
    """

    id: str
    name: str
    summary: str

    @abstractmethod
    def check_program(self, program: "ProgramContext") -> Iterable[Finding]:
        """Yield findings for the whole program; must not mutate it."""


class DataflowRule(ABC):
    """One dataflow/contract invariant (the R200 series).

    Deliberately *not* a :class:`ProgramRule` subclass: the whole-program
    dispatch must not pick these up, because they additionally need the
    CFG/abstract-interpretation substrate, which only ``lint
    --dataflow`` builds (on top of the same
    :class:`~repro.lint.interproc.ProgramContext`).
    """

    id: str
    name: str
    summary: str

    @abstractmethod
    def check_dataflow(self, context: "DataflowContext") -> Iterable[Finding]:
        """Yield findings for the analyzed program; must not mutate it."""


class EffectRule(ABC):
    """One effect/concurrency-safety invariant (the R400 series).

    Like :class:`DataflowRule`, deliberately not a :class:`ProgramRule`
    subclass: these rules additionally need the globals census and the
    interprocedural effect fixpoint, which only ``lint --effects``
    builds (on top of the same
    :class:`~repro.lint.interproc.ProgramContext`).
    """

    id: str
    name: str
    summary: str

    @abstractmethod
    def check_effects(self, context: "EffectContext") -> Iterable[Finding]:
        """Yield findings for the analyzed program; must not mutate it."""


class ErrorRule(ABC):
    """One exception-flow / resource-safety invariant (the R600 series).

    Like :class:`DataflowRule`, deliberately not a :class:`ProgramRule`
    subclass: these rules additionally need the interprocedural escape
    fixpoint, the project exception hierarchy and the resource-lifecycle
    report, which only ``lint --errors`` builds (on top of the same
    :class:`~repro.lint.interproc.ProgramContext`).
    """

    id: str
    name: str
    summary: str

    @abstractmethod
    def check_errors(self, context: "ErrorContext") -> Iterable[Finding]:
        """Yield findings for the analyzed program; must not mutate it."""


AnyRule = Rule | ProgramRule | DataflowRule | EffectRule | ErrorRule

_REGISTRY: dict[str, AnyRule] = {}


def register_rule(cls: type[AnyRule]) -> type[AnyRule]:
    """Class decorator adding a file, program or dataflow rule to the registry."""
    instance = cls()
    if not _RULE_ID_PATTERN.match(getattr(instance, "id", "")):
        raise LintError(f"rule {cls.__name__} has invalid id {instance.id!r}")
    if instance.id in _REGISTRY:
        raise LintError(f"duplicate rule id {instance.id}")
    _REGISTRY[instance.id] = instance
    return cls


def registered_rules() -> dict[str, AnyRule]:
    """A snapshot of the rule registry, keyed by rule id."""
    return dict(_REGISTRY)


def module_name_for(path: Path) -> str:
    """Derive the dotted module name of *path* from ``__init__.py`` files.

    Walks upward while package markers are present, so
    ``src/repro/core/qpp.py`` maps to ``repro.core.qpp`` regardless of
    where the source tree is mounted.  ``__init__.py`` maps to its
    package name.  Files outside any package map to their bare stem.
    """
    resolved = path.resolve()
    parts: list[str] = [] if resolved.stem == "__init__" else [resolved.stem]
    directory = resolved.parent
    while (directory / "__init__.py").is_file():
        parts.append(directory.name)
        directory = directory.parent
    if not parts:
        # an __init__.py sitting outside any package
        parts.append(resolved.parent.name)
    return ".".join(reversed(parts))


def _is_excluded(path: Path, config: LintConfig) -> bool:
    return any(
        fnmatch.fnmatch(part, pattern)
        for part in path.parts
        for pattern in config.exclude
    )


def iter_python_files(
    paths: Sequence[Path | str], config: LintConfig
) -> Iterator[Path]:
    """Expand files/directories into the ``.py`` files to lint, sorted."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise LintError(f"path {str(path)!r} does not exist")
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if _is_excluded(candidate, config) or candidate in seen:
                continue
            seen.add(candidate)
            yield candidate


def _run_file_rules(
    ctx: ModuleContext, suppressed_sink: list[Finding] | None = None
) -> list[Finding]:
    """Run every selected per-file rule against one module context."""
    findings: list[Finding] = []
    for rule_id in sorted(_REGISTRY):
        rule = _REGISTRY[rule_id]
        if not isinstance(rule, Rule) or not ctx.config.wants(rule_id):
            continue
        for finding in rule.check(ctx):
            if not ctx.suppressions.is_suppressed(finding.rule_id, finding.line):
                findings.append(finding)
            elif suppressed_sink is not None:
                suppressed_sink.append(finding)
    return findings


def _suppression_findings(path: str, table: SuppressionTable) -> list[Finding]:
    """``E002`` findings for suppression directives naming unknown codes."""
    known = set(_REGISTRY) | {PARSE_ERROR_ID, SUPPRESSION_ERROR_ID}
    return [
        Finding(
            path=path,
            line=line,
            column=1,
            rule_id=SUPPRESSION_ERROR_ID,
            message=(
                f"suppression names unknown rule code {code!r}; it silences "
                "nothing — fix the code or drop it"
            ),
        )
        for line, code in table.entries
        if code != ALL_RULES and code not in known
    ]


def lint_source(
    source: str,
    *,
    path: str = "<string>",
    module: str | None = None,
    config: LintConfig | None = None,
) -> list[Finding]:
    """Lint an in-memory source string (per-file rules only).

    *module* overrides the dotted module name used for package-scoped
    rules (R001/R006/R007); it defaults to the path stem, which places
    anonymous snippets outside every package.
    """
    active_config = config if config is not None else LintConfig()
    if module is None:
        module = Path(path).stem
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        line = exc.lineno if exc.lineno is not None else 1
        column = (exc.offset if exc.offset is not None else 1) or 1
        return [
            Finding(
                path=path,
                line=line,
                column=column,
                rule_id=PARSE_ERROR_ID,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    ctx = ModuleContext(
        path=path,
        module=module,
        source=source,
        tree=tree,
        config=active_config,
        suppressions=collect_suppressions(source),
    )
    return sort_findings(
        _run_file_rules(ctx) + _suppression_findings(path, ctx.suppressions)
    )


def lint_file(path: Path | str, config: LintConfig | None = None) -> list[Finding]:
    """Lint one file from disk (per-file rules only)."""
    active_config = config if config is not None else LintConfig()
    parsed = ParseCache().parsed(path)
    if parsed.parse_error is not None:
        return [parsed.parse_error]
    return sort_findings(
        _run_file_rules(parsed.context(active_config))
        + _suppression_findings(parsed.path, parsed.suppressions)
    )


def lint_paths(
    paths: Sequence[Path | str],
    config: LintConfig | None = None,
    *,
    whole_program: bool = False,
    dataflow: bool = False,
    effects: bool = False,
    errors: bool = False,
    cache: ParseCache | None = None,
    suppressed_sink: list[Finding] | None = None,
) -> list[Finding]:
    """Lint files and directories (recursively); the main library entry.

    With ``whole_program=True`` the R100-series graph rules also run:
    the same parsed files feed a module import graph and a call graph
    (see :mod:`repro.lint.interproc`), so each file is parsed exactly
    once per run.  ``dataflow=True`` additionally builds the CFG /
    abstract-interpretation substrate and runs the R200-series contract
    rules (see :mod:`repro.lint.dataflow_rules`); ``effects=True`` the
    globals census plus effect fixpoint and the R400-series rules (see
    :mod:`repro.lint.effect_rules`); ``errors=True`` the exception-escape
    fixpoint plus resource-lifecycle report and the R600-series rules
    (see :mod:`repro.lint.error_rules`).  Each implies the program
    context, but not the R100 rules themselves; any combination of tier
    flags shares the single program context and parse pass.  Pass a
    long-lived *cache* to reuse parses across runs; entries invalidate
    when a file's mtime changes.  *suppressed_sink*, when given,
    collects the findings that inline suppressions silenced — SARIF
    output maps them to ``suppressions`` entries instead of dropping
    them.
    """
    active_config = config if config is not None else LintConfig()
    active_cache = cache if cache is not None else ParseCache()
    findings: list[Finding] = []
    parsed_files: list[ParsedFile] = []
    for file_path in iter_python_files(paths, active_config):
        parsed = active_cache.parsed(file_path)
        parsed_files.append(parsed)
        if parsed.parse_error is not None:
            findings.append(parsed.parse_error)
            continue
        findings.extend(
            _run_file_rules(parsed.context(active_config), suppressed_sink)
        )
        findings.extend(
            _suppression_findings(parsed.path, parsed.suppressions)
        )
    if whole_program or dataflow or effects or errors:
        # Runtime import breaks the engine <-> interproc module cycle;
        # both live in the same layer so R100 stays satisfied.
        from .interproc import build_program_context

        program = build_program_context(
            parsed_files, active_config, cache=active_cache
        )

        def collect(produced: Iterable[Finding]) -> None:
            for finding in produced:
                if not program.is_suppressed(finding):
                    findings.append(finding)
                elif suppressed_sink is not None:
                    suppressed_sink.append(finding)

        def tier_rules(rule_type: type) -> "Iterator[AnyRule]":
            for rule_id in sorted(_REGISTRY):
                rule = _REGISTRY[rule_id]
                if isinstance(rule, rule_type) and active_config.wants(rule_id):
                    yield rule

        if whole_program:
            for rule in tier_rules(ProgramRule):
                collect(rule.check_program(program))
        if dataflow:
            from .dataflow_rules import build_dataflow_context

            context = build_dataflow_context(
                program, cache=active_cache
            )
            for rule in tier_rules(DataflowRule):
                collect(rule.check_dataflow(context))
        if effects:
            from .effect_rules import build_effect_context

            effect_context = build_effect_context(program)
            for rule in tier_rules(EffectRule):
                collect(rule.check_effects(effect_context))
        if errors:
            from .error_rules import build_error_context

            error_context = build_error_context(program)
            for rule in tier_rules(ErrorRule):
                collect(rule.check_errors(error_context))
    return sort_findings(findings)
