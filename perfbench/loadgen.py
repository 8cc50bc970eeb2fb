"""Open-loop load generator for a tick-driven service.

Requests are *due* on a fixed schedule, whatever the service is doing.
The generator submits every request that has come due, ticks the
service while it has queued work, and spins until the next due time when
it is idle.  Latency is measured from each request's due time, not from
when it was submitted, so a tick that stalls is charged to every request
that came due during it — the generator cannot hide a stall by sending
later (no coordinated omission).  How late the generator itself ran
(submit time minus due time) is reported as the lag.

The service needs ``submit(document)``, ``tick() -> responses`` and
``queue_depth``; every response carries the ``id`` of its request, which
must be the request's index in the schedule.  Tests drive it with a fake
service and a fake clock.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np


def spin_until(deadline: float) -> None:
    """Busy-wait on the monotonic clock until *deadline*."""
    while time.perf_counter() < deadline:
        pass


@dataclass
class OpenLoopResult:
    """Per-request timestamps of one open-loop run (seconds, one clock).

    ``submitted``, ``tick_started`` and ``answered`` are ``nan`` for a
    refused request.
    """

    due: np.ndarray
    submitted: np.ndarray
    #: Start of the tick that answered the request.
    tick_started: np.ndarray
    answered: np.ndarray
    #: Requests due before the end of the schedule and still unanswered
    #: when it ended.
    backlog_at_end: int
    refused: int
    ticks: int
    #: Time spent inside ``submit`` and ``tick`` calls.
    busy: float

    @property
    def accepted(self) -> np.ndarray:
        return ~np.isnan(self.submitted)

    @property
    def completed(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.answered)))

    @property
    def latency(self) -> np.ndarray:
        """Due time -> response, per answered request."""
        done = ~np.isnan(self.answered)
        return self.answered[done] - self.due[done]

    @property
    def lag(self) -> np.ndarray:
        """Due time -> submit: how late the generator ran."""
        ok = self.accepted
        return self.submitted[ok] - self.due[ok]

    @property
    def queue_wait(self) -> np.ndarray:
        """Submit -> start of the answering tick."""
        done = ~np.isnan(self.answered)
        return self.tick_started[done] - self.submitted[done]

    @property
    def batch_size_mean(self) -> float:
        return self.completed / self.ticks if self.ticks else 0.0


def run_open_loop(
    service: Any,
    documents: Sequence[dict[str, Any]],
    offsets: np.ndarray,
    *,
    end_offset: float,
    refusal: type[BaseException],
    on_responses: Callable[[list[dict[str, Any]], float], None] | None = None,
    clock: Callable[[], float] = time.perf_counter,
    wait_until: Callable[[float], None] = spin_until,
) -> OpenLoopResult:
    """Drive *service* with *documents* due at ``start + offsets``.

    *offsets* must be non-decreasing.  A ``submit`` that raises *refusal*
    counts the request as refused.  *on_responses* sees each tick's
    responses and the time they were returned.  The run ends when every
    accepted request is answered, which may be after ``end_offset``.
    """
    count = len(documents)
    start = clock()
    due = start + np.asarray(offsets, dtype=float)
    submitted = np.full(count, np.nan)
    tick_started = np.full(count, np.nan)
    answered = np.full(count, np.nan)
    refused = ticks = 0
    busy = 0.0
    sent = 0
    while True:
        now = clock()
        while sent < count and due[sent] <= now:
            before = clock()
            try:
                service.submit(documents[sent])
            except refusal:
                refused += 1
            else:
                submitted[sent] = before
            busy += clock() - before
            sent += 1
        if service.queue_depth:
            tick_start = clock()
            responses = service.tick()
            tick_end = clock()
            busy += tick_end - tick_start
            ticks += 1
            ids = [response["id"] for response in responses]
            tick_started[ids] = tick_start
            answered[ids] = tick_end
            if on_responses is not None:
                on_responses(responses, tick_end)
        elif sent < count:
            wait_until(due[sent])
        else:
            break
    end = start + end_offset
    unanswered_at_end = (due <= end) & ~(answered <= end) & ~np.isnan(submitted)
    return OpenLoopResult(
        due=due,
        submitted=submitted,
        tick_started=tick_started,
        answered=answered,
        backlog_at_end=int(np.count_nonzero(unanswered_at_end)),
        refused=refused,
        ticks=ticks,
        busy=busy,
    )
