"""Span wraps record nesting, and self time excludes direct children."""

import pytest

from spans import SpanRecorder


def test_self_time_excludes_children():
    now = [0.0]

    def clock():
        return now[0]

    recorder = SpanRecorder(clock)

    def leaf():
        now[0] += 2.0

    def parent():
        now[0] += 1.0
        wrapped_leaf()
        wrapped_leaf()
        now[0] += 3.0

    wrapped_leaf = recorder.wrap("leaf", leaf)
    recorder.request = "r1"
    recorder.wrap("parent", parent)()

    assert recorder.names == ["parent", "leaf", "leaf"]
    assert recorder.parents == [-1, 0, 0]
    assert recorder.requests == ["r1", "r1", "r1"]
    assert list(recorder.durations()) == [8.0, 2.0, 2.0]
    assert list(recorder.self_times()) == [4.0, 2.0, 2.0]
    assert list(recorder.select("leaf")) == [1, 2]


def test_outermost_skips_same_name_nesting_and_clear_forgets():
    recorder = SpanRecorder()
    inner = recorder.wrap("row", lambda: None)
    outer = recorder.wrap("row", lambda: inner())
    outer()
    assert list(recorder.select("row")) == [0, 1]
    assert list(recorder.select("row", outermost=True)) == [0]
    recorder.clear()
    assert len(recorder) == 0


def test_exceptions_still_close_the_span():
    recorder = SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.wrap("boom", boom)()
    assert recorder.names == ["boom"] and recorder.ends[0] >= recorder.starts[0]


def test_installed_wraps_every_target_and_restores_it():
    from spans import TARGETS, _resolve, installed

    def current(module, path):
        owner, attribute = _resolve(module, path)
        return owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)

    originals = [current(module, path) for module, path, _, _ in TARGETS]
    recorder = SpanRecorder()
    with installed(recorder):
        for (module, path, _, _), original in zip(TARGETS, originals):
            assert current(module, path) is not original, path
    for (module, path, _, _), original in zip(TARGETS, originals):
        assert current(module, path) is original, path
