"""CFG lowering corner cases, checked through the dataflow tier.

The control-flow graph in :mod:`repro.lint.cfg` feeds the dataflow tier
(possibly-unbound locals, R201).  The basics live in
``test_lint_dataflow.py``; this file pins down the loop and exception
corner cases: ``while``/``else``, ``for`` over ``enumerate`` and
``zip``, multi-generator comprehensions, and ``try``/``finally``.
Each shape is asserted through the binding analysis (which paths
definitely assign) so a lowering regression shows up as a concrete
wrong verdict, not a structural diff.
"""

from __future__ import annotations

import ast
import textwrap

from repro.lint.cfg import build_cfg, iter_reachable
from repro.lint.dataflow import analyze_function


def _analyze(source: str):
    func = ast.parse(textwrap.dedent(source)).body[0]
    assert isinstance(func, ast.FunctionDef)
    return analyze_function(build_cfg(func))


def _unbound_names(source: str) -> list[str]:
    return [name for name, _ in _analyze(source).unbound_uses]


class TestWhileElse:
    def test_else_branch_runs_when_the_loop_may_not(self):
        # The loop body may execute zero times, so a name bound only
        # there is NOT definitely assigned after the loop...
        assert _unbound_names(
            """
            def f(items):
                while items:
                    value = items.pop()
                return value
            """
        ) == ["value"]

    def test_else_branch_definitely_assigns(self):
        # ...but the else branch runs on every non-breaking exit, so a
        # name bound in BOTH body and else is definitely assigned.
        assert (
            _unbound_names(
                """
                def f(items):
                    while items:
                        value = items.pop()
                    else:
                        value = None
                    return value
                """
            )
            == []
        )

    def test_break_can_skip_the_else_binding(self):
        # A break jumps past the else, so an else-only binding is not
        # definite when the body can break out.
        assert _unbound_names(
            """
            def f(items):
                while items:
                    if items[0] is None:
                        break
                    items.pop()
                else:
                    value = None
                return value
            """
        ) == ["value"]

    def test_condition_sees_loop_carried_bindings(self):
        # The back edge must flow body bindings into the condition.
        assert (
            _unbound_names(
                """
                def f(n):
                    count = 0
                    while count < n:
                        count = count + 1
                    return count
                """
            )
            == []
        )


class TestForOverEnumerateAndZip:
    def test_enumerate_tuple_target_binds_both_names(self):
        assert (
            _unbound_names(
                """
                def f(items):
                    total = 0
                    for index, item in enumerate(items):
                        total = total + index
                        last = item
                    return total
                """
            )
            == []
        )

    def test_zip_targets_bind_but_only_inside_the_loop(self):
        # Loop targets are loop-scoped bindings: definite inside the
        # body, not definite after (the iterable may be empty).
        assert _unbound_names(
            """
            def f(xs, ys):
                for x, y in zip(xs, ys):
                    pair = (x, y)
                return pair
            """
        ) == ["pair"]

    def test_nested_tuple_targets_unpack_recursively(self):
        assert (
            _unbound_names(
                """
                def f(rows):
                    out = []
                    for index, (left, right) in enumerate(rows):
                        out.append((index, left, right))
                    return out
                """
            )
            == []
        )

    def test_for_else_runs_after_normal_exhaustion(self):
        assert (
            _unbound_names(
                """
                def f(items):
                    for item in items:
                        pass
                    else:
                        sentinel = True
                    return sentinel
                """
            )
            == []
        )


class TestComprehensions:
    def test_multi_generator_targets_count_as_bindings(self):
        # The lowering deliberately over-binds comprehension targets
        # (they are scoped in Python 3, but treating them as assigned
        # keeps R201 free of false positives on the common idioms).
        assert (
            _unbound_names(
                """
                def f(nodes, quorums):
                    pairs = [(a, b) for a in nodes for b in quorums]
                    return pairs, a
                """
            )
            == []
        )

    def test_multi_generator_result_binding_is_definite(self):
        assert (
            _unbound_names(
                """
                def f(nodes, quorums):
                    pairs = [
                        (a, b)
                        for a in nodes
                        for b in quorums
                        if a is not b
                    ]
                    return pairs
                """
            )
            == []
        )

    def test_dict_comprehension_value_loads_are_visited(self):
        # A maybe-unbound local loaded in the value expression is real.
        assert _unbound_names(
            """
            def f(nodes, flag):
                if flag:
                    weight = 1.0
                return {node: weight for node in nodes}
            """
        ) == ["weight"]


class TestTryFinally:
    def test_finally_bindings_are_definite_after_the_statement(self):
        assert (
            _unbound_names(
                """
                def f(path):
                    try:
                        handle = open(path)
                    finally:
                        cleaned = True
                    return cleaned
                """
            )
            == []
        )

    def test_handlerless_try_models_only_the_normal_path(self):
        # Without handlers there is no in-function resume point: an
        # exception propagates out, so the lowering keeps only the
        # normal edge and body bindings stay definite in the finally.
        assert (
            _unbound_names(
                """
                def f(path):
                    try:
                        handle = open(path)
                    finally:
                        leaked = handle
                    return leaked
                """
            )
            == []
        )

    def test_handler_sees_the_state_at_try_entry(self):
        # With a handler the exceptional edge is modeled: the handler
        # may run before the try body bound anything.
        assert _unbound_names(
            """
            def f(path):
                try:
                    handle = open(path)
                except OSError:
                    leaked = handle
                return 0
            """
        ) == ["handle"]

    def test_except_handler_joins_with_the_happy_path(self):
        # Bound in try AND in the handler: definite afterwards.
        assert (
            _unbound_names(
                """
                def f(source):
                    try:
                        value = int(source)
                    except TypeError:
                        value = 0
                    return value
                """
            )
            == []
        )

    def test_handler_only_binding_is_not_definite(self):
        assert _unbound_names(
            """
            def f(source):
                try:
                    total = int(source)
                except TypeError:
                    fallback = 0
                return fallback
            """
        ) == ["fallback"]


class TestGraphShape:
    """Structural sanity: every corner case yields a connected graph."""

    CASES = (
        """
        def f(items):
            while items:
                items.pop()
            else:
                pass
        """,
        """
        def f(xs, ys):
            for i, (x, y) in enumerate(zip(xs, ys)):
                pass
        """,
        """
        def f(nodes, quorums):
            return [(a, b) for a in nodes for b in quorums]
        """,
        """
        def f(path):
            try:
                return open(path)
            finally:
                pass
        """,
    )

    def test_exit_is_reachable_in_every_case(self):
        for source in self.CASES:
            func = ast.parse(textwrap.dedent(source)).body[0]
            assert isinstance(func, ast.FunctionDef)
            graph = build_cfg(func)
            reachable = {block.index for block in iter_reachable(graph)}
            assert graph.entry in reachable
            assert graph.exit in reachable, f"exit unreachable in:\n{source}"
