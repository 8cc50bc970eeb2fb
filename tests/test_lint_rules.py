"""Unit tests for the invariant linter (``repro.lint``).

Every rule R001–R007 and R301 is demonstrated by at least one fixture
snippet that makes it fire and one that stays clean, plus
suppression-comment, JSON-golden and CLI exit-code coverage.
"""

from __future__ import annotations

import json
import textwrap
from dataclasses import replace

import pytest

from repro.cli import main as repro_main
from repro.exceptions import LintError
from repro.lint import (
    LintConfig,
    config_from_table,
    lint_paths,
    lint_source,
    registered_rules,
    render_json,
)
from repro.lint.config import _rule_matches

CORE_MODULE = "repro.core.fake"


def findings_for(
    source: str, *, module: str = "fake_module", path: str = "fake_module.py"
) -> list[str]:
    """Rule ids firing on *source*, deduplicated in order."""
    results = lint_source(textwrap.dedent(source), module=module, path=path)
    return [f.rule_id for f in results]


# -- rule registry -------------------------------------------------------------------


def test_all_rules_registered():
    assert set(registered_rules()) == {
        "R001",
        "R002",
        "R003",
        "R004",
        "R005",
        "R006",
        "R007",
        "R100",
        "R101",
        "R102",
        "R103",
        "R104",
        "R200",
        "R201",
        "R202",
        "R203",
        "R204",
        "R301",
        "R400",
        "R401",
        "R402",
        "R403",
        "R404",
        "R600",
        "R601",
        "R602",
        "R603",
        "R604",
    }


# -- R001: validated entry points ----------------------------------------------------


class TestR001:
    def test_fires_on_unvalidated_public_function(self):
        snippet = """
        __all__ = ["solve"]

        def solve(x):
            return x + 1
        """
        assert "R001" in findings_for(snippet, module=CORE_MODULE)

    def test_clean_with_direct_checker_call(self):
        snippet = """
        from repro._validation import check_positive

        __all__ = ["solve"]

        def solve(x):
            check_positive(x, "x")
            return x + 1
        """
        assert "R001" not in findings_for(snippet, module=CORE_MODULE)

    def test_clean_when_delegating_to_validating_helper(self):
        snippet = """
        __all__ = ["solve"]

        def _check_inputs(x):
            if x < 0:
                raise SomeError("bad")

        def solve(x):
            _check_inputs(x)
            return x + 1
        """
        assert "R001" not in findings_for(snippet, module=CORE_MODULE)

    def test_clean_when_raising_directly(self):
        snippet = """
        from repro.exceptions import ValidationError

        __all__ = ["solve"]

        def solve(x):
            if x < 0:
                raise ValidationError("x must be >= 0")
            return x
        """
        assert "R001" not in findings_for(snippet, module=CORE_MODULE)

    def test_skips_modules_outside_validated_packages(self):
        snippet = """
        __all__ = ["helper"]

        def helper(x):
            return x
        """
        assert "R001" not in findings_for(snippet, module="repro.analysis.fake")

    def test_config_exemption(self):
        snippet = """
        __all__ = ["solve"]

        def solve(x):
            return x
        """
        config = LintConfig(exempt=frozenset({f"R001:{CORE_MODULE}.solve"}))
        results = lint_source(
            textwrap.dedent(snippet), module=CORE_MODULE, config=config
        )
        assert [f.rule_id for f in results] == []

    def test_private_functions_not_required_to_validate(self):
        snippet = """
        __all__ = []

        def _internal(x):
            return x
        """
        assert "R001" not in findings_for(snippet, module=CORE_MODULE)


# -- R002: ReproError-only raises ----------------------------------------------------


class TestR002:
    def test_fires_on_builtin_valueerror(self):
        snippet = """
        def f(x):
            if x < 0:
                raise ValueError("negative")
        """
        assert "R002" in findings_for(snippet)

    def test_fires_on_runtimeerror_without_call(self):
        snippet = """
        def f():
            raise RuntimeError
        """
        assert "R002" in findings_for(snippet)

    def test_clean_on_reproerror_subclass(self):
        snippet = """
        from repro.exceptions import ValidationError

        def f(x):
            if x < 0:
                raise ValidationError("negative")
        """
        assert "R002" not in findings_for(snippet)

    def test_clean_on_typeerror_and_bare_reraise(self):
        snippet = """
        def f(x):
            try:
                return x.thing
            except AttributeError:
                raise
            if not isinstance(x, int):
                raise TypeError("x must be int")
        """
        assert "R002" not in findings_for(snippet)


# -- R003: mutable defaults ----------------------------------------------------------


class TestR003:
    def test_fires_on_list_default(self):
        assert "R003" in findings_for("def f(items=[]):\n    return items\n")

    def test_fires_on_dict_call_and_kwonly_default(self):
        snippet = """
        def f(*, table=dict()):
            return table
        """
        assert "R003" in findings_for(snippet)

    def test_clean_on_none_and_tuple_defaults(self):
        snippet = """
        def f(items=None, pair=(1, 2), name="x"):
            return items, pair, name
        """
        assert "R003" not in findings_for(snippet)


# -- R004: seeded randomness ---------------------------------------------------------


class TestR004:
    def test_fires_on_global_np_random(self):
        snippet = """
        import numpy as np

        def f():
            np.random.seed(0)
            return np.random.rand(3)
        """
        assert findings_for(snippet).count("R004") == 2

    def test_fires_on_seedless_default_rng(self):
        snippet = """
        from numpy.random import default_rng

        def f():
            return default_rng().normal()
        """
        assert "R004" in findings_for(snippet)

    def test_clean_on_seeded_generator(self):
        snippet = """
        import numpy as np
        from numpy.random import default_rng

        def f(rng: np.random.Generator):
            other = np.random.default_rng(7)
            third = default_rng(123)
            return rng.normal() + other.normal() + third.normal()
        """
        assert "R004" not in findings_for(snippet)


# -- R005: float equality ------------------------------------------------------------


class TestR005:
    def test_fires_on_float_literal_equality(self):
        assert "R005" in findings_for("def f(x):\n    return x == 1.0\n")

    def test_fires_on_negative_float_inequality(self):
        assert "R005" in findings_for("def f(x):\n    return x != -0.5\n")

    def test_clean_on_int_comparison_and_isclose(self):
        snippet = """
        import math

        def f(x):
            return x == 1 or math.isclose(x, 1.0)
        """
        assert "R005" not in findings_for(snippet)


# -- R006: no print in library code --------------------------------------------------


class TestR006:
    def test_fires_in_library_module(self):
        snippet = """
        def f():
            print("debug")
        """
        assert "R006" in findings_for(snippet, module="repro.core.fake")

    def test_clean_in_allowed_file(self):
        snippet = """
        def f():
            print("table output")
        """
        assert "R006" not in findings_for(
            snippet, module="repro.cli", path="src/repro/cli.py"
        )

    def test_clean_outside_library_packages(self):
        snippet = """
        def f():
            print("script output")
        """
        assert "R006" not in findings_for(snippet, module="quickstart")


# -- R007: export integrity ----------------------------------------------------------


class TestR007:
    def test_fires_on_missing_all(self):
        snippet = """
        def api():
            return 1
        """
        assert "R007" in findings_for(snippet, module="repro.widgets")

    def test_fires_on_ghost_export(self):
        snippet = """
        __all__ = ["api", "ghost"]

        def api():
            return 1
        """
        results = lint_source(textwrap.dedent(snippet), module="repro.widgets")
        assert ["R007"] == [f.rule_id for f in results]
        assert "ghost" in results[0].message

    def test_clean_on_truthful_all(self):
        snippet = """
        from collections import OrderedDict

        __all__ = ["api", "OrderedDict", "CONSTANT"]

        CONSTANT = 7

        def api():
            return CONSTANT
        """
        assert "R007" not in findings_for(snippet, module="repro.widgets")

    def test_private_modules_and_outside_packages_skipped(self):
        snippet = "def api():\n    return 1\n"
        assert "R007" not in findings_for(snippet, module="repro._internal")
        assert "R007" not in findings_for(snippet, module="scripts.tool")

    def test_conditional_bindings_count(self):
        snippet = """
        __all__ = ["fast"]

        try:
            from fastlib import fast
        except ImportError:
            def fast():
                return None
        """
        assert "R007" not in findings_for(snippet, module="repro.widgets")


class TestR301:
    def test_fires_on_tuple_returning_solver(self):
        snippet = """
        __all__ = ["solve_widget"]
        from repro._validation import require

        def solve_widget(a):
            require(a > 0, "a")
            return (a, a + 1)
        """
        assert "R301" in findings_for(snippet, module=CORE_MODULE)

    def test_fires_on_tuple_return_annotation(self):
        snippet = """
        __all__ = ["optimal_widget_placement"]
        from repro._validation import require

        def optimal_widget_placement(a) -> tuple[int, int]:
            require(a > 0, "a")
            return helper(a)
        """
        results = lint_source(textwrap.dedent(snippet), module=CORE_MODULE)
        assert "R301" in [f.rule_id for f in results]

    def test_clean_on_result_object_and_nested_tuples(self):
        snippet = """
        __all__ = ["solve_widget", "optimal_widget_placement"]
        from repro._validation import require

        def solve_widget(a):
            require(a > 0, "a")
            def key(item):
                return (item, a)  # nested helper tuples are fine
            return WidgetResult(placement=a, objective=1.0)

        def optimal_widget_placement(a):
            require(a > 0, "a")
            pairs = [(i, i) for i in range(a)]
            return WidgetResult(placement=pairs, objective=0.0)
        """
        assert "R301" not in findings_for(snippet, module=CORE_MODULE)

    def test_only_solver_entry_points_in_validated_packages(self):
        snippet = """
        __all__ = ["solve_widget", "build_pair"]
        from repro._validation import require

        def build_pair(a):
            require(a > 0, "a")
            return (a, a)  # not a solve_*/optimal_* entry point

        def solve_widget(a):
            require(a > 0, "a")
            return (a, a)
        """
        # Outside the validated packages the rule never fires at all.
        assert "R301" not in findings_for(snippet, module="repro.experiments.fake")
        results = lint_source(textwrap.dedent(snippet), module=CORE_MODULE)
        r301 = [f for f in results if f.rule_id == "R301"]
        assert len(r301) == 1
        assert "solve_widget" in r301[0].message

    def test_exemption_is_honoured(self):
        snippet = """
        __all__ = ["solve_widget"]
        from repro._validation import require

        def solve_widget(a):
            require(a > 0, "a")
            return (a, a)
        """
        config = config_from_table({"exempt": [f"R301:{CORE_MODULE}.solve_widget"]})
        results = lint_source(
            textwrap.dedent(snippet), module=CORE_MODULE, config=config
        )
        assert "R301" not in [f.rule_id for f in results]


# -- suppression comments ------------------------------------------------------------


class TestSuppressions:
    def test_inline_disable_silences_named_rule(self):
        snippet = """
        def f(x):
            raise ValueError("bad")  # repro-lint: disable=R002
        """
        assert "R002" not in findings_for(snippet)

    def test_inline_disable_is_line_scoped(self):
        snippet = """
        def f(x):
            raise ValueError("bad")  # repro-lint: disable=R002

        def g(x):
            raise ValueError("also bad")
        """
        assert findings_for(snippet).count("R002") == 1

    def test_inline_disable_only_silences_named_rules(self):
        snippet = """
        def f(x=[]):  # repro-lint: disable=R002
            return x
        """
        assert "R003" in findings_for(snippet)

    def test_file_wide_disable(self):
        snippet = """
        # repro-lint: disable-file=R005

        def f(x):
            return x == 1.0 or x == 2.0
        """
        assert findings_for(snippet) == []

    def test_bare_disable_silences_everything_on_line(self):
        snippet = """
        def f(x=[], y=1.0):  # repro-lint: disable
            return x
        """
        assert "R003" not in findings_for(snippet)


# -- parse errors --------------------------------------------------------------------


def test_syntax_error_becomes_e001_finding():
    results = lint_source("def broken(:\n")
    assert [f.rule_id for f in results] == ["E001"]


# -- JSON output golden --------------------------------------------------------------


def test_json_output_golden():
    source = 'def f(x):\n    raise ValueError("bad")\n'
    findings = lint_source(source, path="snippet.py")
    payload = render_json(findings)
    expected = {
        "version": 1,
        "count": 1,
        "findings": [
            {
                "path": "snippet.py",
                "line": 2,
                "column": 5,
                "rule_id": "R002",
                "message": (
                    "raise of builtin 'ValueError'; raise a repro.exceptions."
                    "ReproError subclass instead (ValidationError also "
                    "inherits ValueError for compatibility)"
                ),
            }
        ],
    }
    assert json.loads(payload) == expected
    # stable key order and deterministic text for golden comparisons
    assert payload == json.dumps(expected, indent=2, sort_keys=True)


# -- configuration -------------------------------------------------------------------


class TestConfig:
    def test_select_restricts_rules(self):
        source = 'def f(x=[]):\n    raise ValueError("bad")\n'
        config = LintConfig(select=frozenset({"R003"}))
        results = lint_source(source, config=config)
        assert [f.rule_id for f in results] == ["R003"]

    def test_ignore_drops_rules(self):
        source = 'def f(x=[]):\n    raise ValueError("bad")\n'
        config = LintConfig(ignore=frozenset({"R002"}))
        results = lint_source(source, config=config)
        assert [f.rule_id for f in results] == ["R003"]

    def test_table_round_trip(self):
        config = config_from_table(
            {
                "select": ["R001", "R002"],
                "banned-exceptions": ["ValueError"],
                "exempt": ["R001:repro.core.fake.solve"],
            }
        )
        assert config.select == frozenset({"R001", "R002"})
        assert config.banned_exceptions == frozenset({"ValueError"})
        assert config.is_exempt("R001", "repro.core.fake.solve")

    def test_unknown_option_rejected(self):
        with pytest.raises(LintError):
            config_from_table({"nonsense": ["x"]})

    def test_bad_value_type_rejected(self):
        with pytest.raises(LintError):
            config_from_table({"select": "R001"})

    def test_prefix_matching_semantics(self):
        assert _rule_matches("R400", ["R4"])
        assert _rule_matches("R404", ["R40"])
        assert _rule_matches("R400", ["R400"])
        assert not _rule_matches("R600", ["R4"])
        assert not _rule_matches("R400", ["R404"])
        # A full-length id never acts as a prefix of a longer id.
        assert not _rule_matches("R4000", ["R400"])

    def test_config_wants_honors_prefixes(self):
        config = replace(LintConfig(), select=frozenset({"R4"}))
        assert config.wants("R403")
        assert not config.wants("R203")
        ignored = replace(LintConfig(), ignore=frozenset({"R4"}))
        assert not ignored.wants("R400")
        assert ignored.wants("R600")

    def test_ignore_prefix_beats_explicit_select(self):
        config = replace(
            LintConfig(),
            select=frozenset({"R400"}),
            ignore=frozenset({"R4"}),
        )
        assert not config.wants("R400")


# -- CLI exit codes ------------------------------------------------------------------


class TestCli:
    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(x):\n    return x + 1\n")
        assert repro_main(["lint", str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text('def f():\n    raise ValueError("bad")\n')
        assert repro_main(["lint", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "R002" in out and "dirty.py" in out

    def test_exit_two_on_missing_path(self, tmp_path):
        missing = tmp_path / "does_not_exist.py"
        assert repro_main(["lint", str(missing)]) == 2

    def test_json_format_from_cli(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(x=[]):\n    return x\n")
        assert repro_main(["lint", str(dirty), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule_id"] == "R003"

    def test_select_option(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text('def f(x=[]):\n    raise ValueError("bad")\n')
        assert repro_main(["lint", str(dirty), "--select", "R003"]) == 1
        out = capsys.readouterr().out
        assert "R003" in out and "R002" not in out

    def test_list_rules(self, capsys):
        assert repro_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R001", "R007"):
            assert rule_id in out

    def test_directory_linting_via_api(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "a.py").write_text('raise ValueError("x")\n')
        (package / "b.py").write_text("value = 1\n")
        findings = lint_paths([package])
        assert [f.rule_id for f in findings] == ["R002"]
