"""Static analysis for the reproduction's correctness contracts.

The :mod:`repro.lint` subsystem is an AST rule engine with two kinds of
rules.  The per-file ruleset (R001–R007, R301) makes the library's local
conventions machine-checkable: public entry points validate inputs,
failures derive from :class:`~repro.exceptions.ReproError`, randomness
is injected and seeded, floats are never compared exactly, every
public module declares a truthful ``__all__``, and solver entry points
return :class:`~repro.core.results.SolveResult` objects, never tuples.  The whole-program
ruleset (R100–R104, ``lint --whole-program``) checks the properties no
single file can witness: the declared layer order holds, no module-level
import cycles exist, CLI-reachable solvers validate before first use,
the public API never leaks builtin exceptions from its callees, and
every export is actually referenced.  The dataflow ruleset (R200–R204,
``lint --dataflow``) goes one level deeper: a per-function control-flow
graph and a forward abstract interpretation check declared shape/dtype
contracts at every resolved call site, flag possibly-unbound locals,
prove (or demand) the probability-simplex invariant on access-strategy
arrays, keep every ``*_reference`` oracle paired with its vectorized
twin, and hold the ``# paper:`` anchors and the design document's
theorem table to bi-directional coverage (also rendered by ``repro
trace``).  The effects ruleset (R400–R404, ``lint --effects``) infers
every function's side-effect set interprocedurally — purity, global
reads/writes, metric writes, ambient RNG, IO, spawning — checks it
against ``@effects`` declarations, and emits the parallel-safety
certificate (``--certificate``) that :func:`repro.parallel.parallel_map`
gates process fan-out on.  The repository lints itself in CI and in
``tests/test_lint_self.py``, so refactors toward the production-scale
roadmap cannot silently erode the invariants the paper's theorems rely
on.

Programmatic use::

    from repro.lint import lint_paths, load_config

    findings = lint_paths(["src"], load_config(), whole_program=True)
    for finding in findings:
        print(finding.render())

Command-line use: ``repro lint [paths...] [--whole-program]``,
``repro deps [--dot|--json]``, or ``python -m repro.lint``.
See ``docs/static_analysis.md`` for the rule catalogue and rationale.
"""

from __future__ import annotations

from . import dataflow_rules as _dataflow_rules  # noqa: F401  (registers R2xx)
from . import effect_rules as _effect_rules  # noqa: F401  (registers R4xx)
from . import error_rules as _error_rules  # noqa: F401  (registers R6xx)
from . import rules as _rules  # noqa: F401  (imports register the ruleset)
from .config import LintConfig, config_from_table, load_config, merge_cli_options
from .contracts import FunctionContract, extract_module_contracts
from .dataflow_rules import DataflowContext, build_dataflow_context
from .effect_rules import EffectContext, build_effect_context
from .error_rules import ErrorContext, build_error_context
from .excflow import (
    FunctionErrors,
    analyze_errors,
    build_error_contract,
    build_error_contract_for_paths,
    build_error_table,
    render_error_contract,
    render_error_table_markdown,
    render_error_table_text,
    validate_error_contract,
)
from .resources import ResourceReport, analyze_resources
from .effects import (
    FunctionEffects,
    analyze_effects,
    build_certificate,
    build_certificate_for_paths,
    render_certificate,
    validate_certificate,
)
from .engine import (
    DataflowRule,
    EffectRule,
    ErrorRule,
    ModuleContext,
    ParseCache,
    ParsedFile,
    ProgramRule,
    Rule,
    lint_file,
    lint_paths,
    lint_source,
    module_name_for,
    register_rule,
    registered_rules,
)
from .globals_inventory import GlobalsInventory, build_globals_inventory
from .findings import Finding, render_json, render_text, sort_findings
from .interproc import ProgramContext, build_program_context, load_module_graph
from .modgraph import ImportEdge, ModuleGraph
from .suppressions import SuppressionTable, collect_suppressions
from .trace import (
    TraceMatrix,
    build_matrix,
    render_matrix_json,
    render_matrix_markdown,
    render_matrix_text,
)

__all__ = [
    "DataflowContext",
    "DataflowRule",
    "EffectContext",
    "EffectRule",
    "ErrorContext",
    "ErrorRule",
    "Finding",
    "FunctionContract",
    "FunctionEffects",
    "FunctionErrors",
    "GlobalsInventory",
    "ImportEdge",
    "LintConfig",
    "ModuleContext",
    "ModuleGraph",
    "ParseCache",
    "ParsedFile",
    "ProgramContext",
    "ProgramRule",
    "ResourceReport",
    "Rule",
    "SuppressionTable",
    "TraceMatrix",
    "analyze_effects",
    "analyze_errors",
    "analyze_resources",
    "build_certificate",
    "build_certificate_for_paths",
    "build_dataflow_context",
    "build_effect_context",
    "build_error_context",
    "build_error_contract",
    "build_error_contract_for_paths",
    "build_error_table",
    "build_globals_inventory",
    "build_matrix",
    "build_program_context",
    "collect_suppressions",
    "config_from_table",
    "extract_module_contracts",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_config",
    "load_module_graph",
    "merge_cli_options",
    "module_name_for",
    "register_rule",
    "registered_rules",
    "render_certificate",
    "render_error_contract",
    "render_error_table_markdown",
    "render_error_table_text",
    "render_json",
    "render_matrix_json",
    "render_matrix_markdown",
    "render_matrix_text",
    "render_text",
    "sort_findings",
    "validate_certificate",
    "validate_error_contract",
]
