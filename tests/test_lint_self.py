"""The repository must stay clean against its own linter.

This is the self-check gate promised in ``docs/static_analysis.md``:
``repro lint src`` (and the benchmark/example trees) report zero
findings, so every future PR that violates an invariant fails here and
in CI before review.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import Finding, lint_paths, load_config

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def _run(
    paths: list[Path],
    *,
    whole_program: bool = False,
    dataflow: bool = False,
    effects: bool = False,
    errors: bool = False,
) -> list[Finding]:
    config = load_config(search_from=REPO_ROOT)
    return lint_paths(
        paths,
        config,
        whole_program=whole_program,
        dataflow=dataflow,
        effects=effects,
        errors=errors,
    )


def _report(findings: list[Finding]) -> str:
    return "\n".join(f.render() for f in findings)


@pytest.mark.skipif(not SRC.is_dir(), reason="source tree not present")
def test_src_is_lint_clean():
    findings = _run([SRC])
    assert not findings, f"repro lint src must stay clean:\n{_report(findings)}"


@pytest.mark.skipif(not SRC.is_dir(), reason="source tree not present")
def test_src_is_whole_program_clean():
    """The graph rules (R100-R104) must also hold over the whole tree."""
    findings = _run([SRC], whole_program=True)
    assert not findings, (
        f"repro lint src --whole-program must stay clean:\n{_report(findings)}"
    )


@pytest.mark.skipif(not SRC.is_dir(), reason="source tree not present")
def test_src_is_dataflow_clean():
    """The dataflow tier (R200-R204) must also hold over the whole tree."""
    findings = _run([SRC], whole_program=True, dataflow=True)
    assert not findings, (
        f"repro lint src --whole-program --dataflow must stay clean:\n"
        f"{_report(findings)}"
    )


@pytest.mark.skipif(not SRC.is_dir(), reason="source tree not present")
def test_src_is_effects_clean():
    """The effect tier (R400-R404) must also hold over src."""
    findings = _run([SRC], effects=True)
    assert not findings, (
        f"repro lint src --effects must stay clean:\n{_report(findings)}"
    )


@pytest.mark.skipif(not SRC.is_dir(), reason="source tree not present")
def test_src_is_errors_clean():
    """The error tier (R600-R604) must also hold over src.

    Every public solver entry point carries a ``@raises`` declaration
    covering its inferred escape set, no resource leaks on exceptional
    paths, no broad handlers on hot paths, and nothing but ReproError
    subclasses escape the entry points.
    """
    findings = _run([SRC], errors=True)
    assert not findings, (
        f"repro lint src --errors must stay clean:\n{_report(findings)}"
    )


@pytest.mark.skipif(not SRC.is_dir(), reason="source tree not present")
def test_whole_program_run_parses_each_file_exactly_once():
    """One run = one parse per file, across all four tiers at once.

    ``--whole-program --dataflow --effects --errors`` share one
    ``ProgramContext``; adding a tier must never re-parse the tree
    (including the R104 usage-root scan).
    """
    from repro.lint import ParseCache

    cache = ParseCache()
    config = load_config(search_from=REPO_ROOT)
    lint_paths(
        [SRC],
        config,
        whole_program=True,
        dataflow=True,
        effects=True,
        errors=True,
        cache=cache,
    )
    assert cache.parse_counts, "expected the run to parse files"
    over_parsed = {
        str(path): count for path, count in cache.parse_counts.items() if count != 1
    }
    assert not over_parsed, f"files parsed more than once: {over_parsed}"


@pytest.mark.skipif(
    not (REPO_ROOT / "benchmarks").is_dir() or not (REPO_ROOT / "examples").is_dir(),
    reason="benchmarks/examples not present",
)
def test_benchmarks_and_examples_are_lint_clean():
    findings = _run([REPO_ROOT / "benchmarks", REPO_ROOT / "examples"])
    assert not findings, f"auxiliary trees must stay clean:\n{_report(findings)}"


class TestInlineSuppressions:
    """The suppression directives behave exactly as documented."""

    @staticmethod
    def _lint(source: str) -> list[Finding]:
        from dataclasses import replace

        from repro.lint import LintConfig, lint_source

        config = replace(LintConfig(), select=frozenset({"R003", "R006"}))
        return lint_source(source, module="repro.fake", config=config)

    def test_one_directive_silences_multiple_codes_on_a_line(self):
        offending = '"""m."""\n\n\ndef helper(xs=[]): print(xs)\n'
        assert {f.rule_id for f in self._lint(offending)} == {"R003", "R006"}
        suppressed = offending.replace(
            "print(xs)", "print(xs)  # repro-lint: disable=R003,R006"
        )
        assert not self._lint(suppressed)

    def test_trailing_comment_text_after_the_codes_is_ignored(self):
        source = '"""m."""\n\nprint("x")  # repro-lint: disable=R006 -- CLI helper\n'
        assert not self._lint(source)

    def test_unknown_code_in_directive_warns_instead_of_silencing(self):
        source = '"""m."""\n\nx = 1  # repro-lint: disable=R999\n'
        findings = self._lint(source)
        assert [f.rule_id for f in findings] == ["E002"]
        assert "R999" in findings[0].message
        assert "silences nothing" in findings[0].message

    def test_known_codes_do_not_warn(self):
        source = '"""m."""\n\nprint("x")  # repro-lint: disable=R006\n'
        assert not self._lint(source)


def test_every_rule_is_exercised_by_src_conventions():
    """The linter engine sees the whole tree (guard against silent no-op).

    If path discovery broke (e.g. an over-broad exclude), the self-check
    above would pass vacuously; assert we actually visited the library.
    """
    from repro.lint.engine import iter_python_files

    config = load_config(search_from=REPO_ROOT)
    files = list(iter_python_files([SRC], config))
    assert len(files) > 50, "expected to lint the full src tree"
    assert not any("egg-info" in str(f) for f in files)
