"""The open-loop generator charges a stall to every request due during it."""

import numpy as np
import pytest

import layers
from loadgen import run_open_loop
from percentiles import percentile
from spans import SpanRecorder


class Refused(Exception):
    pass


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def wait_until(self, deadline):
        self.now = max(self.now, deadline)


class StallingService:
    """Answers up to ``max_batch`` requests per tick; tick number
    ``stall_tick`` takes ``stall`` seconds longer than the others."""

    def __init__(self, clock, *, stall_tick, stall, tick_cost=1e-4, max_batch=8,
                 queue_limit=10_000):
        self.clock = clock
        self.stall_tick = stall_tick
        self.stall = stall
        self.tick_cost = tick_cost
        self.max_batch = max_batch
        self.queue_limit = queue_limit
        self.queue = []
        self.ticks = 0
        self.stall_window = None

    @property
    def queue_depth(self):
        return len(self.queue)

    def submit(self, document):
        if len(self.queue) >= self.queue_limit:
            raise Refused
        self.queue.append(document)

    def tick(self):
        self.ticks += 1
        batch, self.queue = self.queue[: self.max_batch], self.queue[self.max_batch:]
        started = self.clock.now
        self.clock.now += self.tick_cost
        if self.ticks == self.stall_tick:
            self.clock.now += self.stall
            self.stall_window = (started, self.clock.now)
        return [{"id": document["id"]} for document in batch]


def _run(service, clock, count, spacing, end_offset):
    documents = [{"id": i} for i in range(count)]
    offsets = np.arange(count) * spacing
    return run_open_loop(
        service, documents, offsets, end_offset=end_offset, refusal=Refused,
        clock=clock, wait_until=clock.wait_until,
    )


def test_a_stall_is_charged_to_every_request_due_during_it():
    clock = FakeClock()
    service = StallingService(clock, stall_tick=500, stall=0.5)
    result = _run(service, clock, count=2000, spacing=1e-3, end_offset=2.0)
    stall_start, stall_end = service.stall_window
    assert result.completed == 2000 and result.refused == 0

    latency = result.answered - result.due
    during = (result.due > stall_start) & (result.due <= stall_end)
    assert during.sum() >= 450
    # Timed from the due time: each request waited out the rest of the stall.
    assert np.all(latency[during] >= stall_end - result.due[during])
    # Timing from submission instead would hide the stall entirely.
    since_submit = result.answered - result.submitted
    assert since_submit[during].max() < 0.1 < latency[during].mean()
    # The generator itself ran late by up to the whole stall.
    assert percentile(result.lag, 0.99) > 0.4
    assert result.latency.max() >= 0.49


def test_backlog_at_schedule_end_and_lag_are_reported():
    clock = FakeClock()
    service = StallingService(clock, stall_tick=1800, stall=0.5)
    result = _run(service, clock, count=2000, spacing=1e-3, end_offset=2.0)
    stall_start, stall_end = service.stall_window
    assert stall_start < 2.0 < stall_end
    expected = int(np.count_nonzero((result.due <= 2.0) & (result.answered > 2.0)))
    assert expected > 100
    assert result.backlog_at_end == expected

    traced = {
        "counters": {},
        "busy_plain": 1.0,
        "busy_traced": 1.0,
        "extras": {"lag": result.lag, "queue_wait": result.queue_wait,
                   "batch_size_mean": result.batch_size_mean,
                   "backlog_at_end": result.backlog_at_end},
    }
    metrics = layers.per_layer(SpanRecorder(), traced)
    assert metrics["loadgen.backlog_end"] == expected
    assert metrics["loadgen.lag_ms_p99"] == pytest.approx(
        1e3 * percentile(result.lag, 0.99))
    assert metrics["loadgen.lag_ms_p99"] > 100.0


def test_refused_requests_are_counted_not_answered():
    clock = FakeClock()
    service = StallingService(clock, stall_tick=2, stall=0.5, queue_limit=50)
    result = _run(service, clock, count=1000, spacing=1e-3, end_offset=1.0)
    assert result.refused > 0
    assert result.completed + result.refused == 1000
    assert np.isnan(result.answered[~result.accepted]).all()
