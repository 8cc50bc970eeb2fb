"""The three benchmark workloads: inputs, timed loops and output checks.

Every input is generated here from the ``--seed`` argument; the program
only ever sees the generated networks and request documents.  Each
workload offers

* ``setup(seed)`` — one complete set-up (instance generation, for the
  serve workloads the initial solve, and one discarded warm-up request
  or window), returning the state the timed phase runs on;
* ``measure(state, seconds)`` — the untraced, timed phase, returning a
  :class:`Outcome`;
* ``trace(states, seconds, recorder)`` — the same fixed amount of work
  twice, untraced and then with the layer wraps installed, returning
  per-layer numbers and the tracing overhead.

See ``NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import gc
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core import qpp as qpp_module
from repro.exceptions import ReproError, ValidationError
from repro.network.generators import random_geometric_network, uniform_capacities
from repro.obs import default_registry
from repro.quorums import grid, majority
from repro.quorums.strategy import AccessStrategy, iter_strategy
from repro.serve import PlacementService
from repro.serve.schema import REQUEST_KIND, SERVE_SCHEMA_VERSION

import spans
from loadgen import OpenLoopResult, run_open_loop
from percentiles import UnsupportedPercentile, median, percentile

clock = time.perf_counter

ALPHA = 2.0
#: Thm 1.2: objective <= 5 alpha / (alpha - 1) * OPT, load <= (alpha + 1) cap.
APPROX_FACTOR = 5.0 * ALPHA / (ALPHA - 1.0)
LOAD_FACTOR = ALPHA + 1.0
#: Relative slack for the float comparisons in the output checks.
SLACK = 1e-9


@dataclass
class Outcome:
    """What one timed phase measured and checked."""

    metrics: dict[str, float]
    #: Sample count behind each timing metric, printed beside it.
    samples: dict[str, int]
    attempted: int
    failed: int
    #: One message per failed output check.
    errors: list[str] = field(default_factory=list)
    #: Human-readable remarks printed with the report.
    notes: list[str] = field(default_factory=list)


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def _geometric(nodes: int, capacity: float, rng: np.random.Generator):
    # Twice the connectivity radius: connected and still sparse.
    radius = 2.0 * math.sqrt(math.log(nodes) / (math.pi * nodes))
    return uniform_capacities(random_geometric_network(nodes, radius, rng=rng), capacity)


def _counters() -> dict[str, float]:
    return dict(default_registry().counter_values())


def _delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {name: after.get(name, 0.0) - before.get(name, 0.0) for name in after}


def _tail(values: Any, q: float) -> tuple[float, str | None]:
    """The q-quantile, or the median plus a remark when the tail is unsupported."""
    try:
        return percentile(values, q), None
    except UnsupportedPercentile as exc:
        return median(values), f"p{100 * q:g} unsupported ({exc}); the median is reported"


# -- solve_dense -------------------------------------------------------------

#: (quorum construction, its parameter, network size).  The sizes are
#: matched so both kinds take about the same time at the parent commit;
#: the latency distribution is then one mode, and its median does not
#: sit on the boundary between a fast kind and a slow kind.
DENSE_KINDS = ((majority, 5, 30), (grid, 3, 26))
DENSE_CAPACITY = 1.0
#: Instance index of the set-up's discarded warm-up solve.
DENSE_WARMUP = 1_000_000


def dense_instance(seed: int, index: int):
    build, parameter, nodes = DENSE_KINDS[index % len(DENSE_KINDS)]
    system = build(parameter)
    network = _geometric(nodes, DENSE_CAPACITY, _rng(seed, 1, index))
    return system, AccessStrategy.uniform(system), network


def check_dense(system, strategy, network, result) -> tuple[float, list[str]]:
    """Thm 1.2's guarantees for one solve; returns objective / lower bound."""
    errors = []
    load: dict[Any, float] = {}
    for probability, quorum in iter_strategy(strategy):
        for element in quorum:
            node = result.placement[element]
            load[node] = load.get(node, 0.0) + probability
    for node, value in load.items():
        if value > LOAD_FACTOR * network.capacity(node) * (1 + SLACK):
            errors.append(f"{network.name}: load {value:.6g} on {node!r} exceeds "
                          f"{LOAD_FACTOR:g} x capacity {network.capacity(node):g}")
    bound = float(result.optimum_lower_bound)
    objective = float(result.objective)
    if not bound > 0.0:
        errors.append(f"{network.name}: no certified lower bound ({bound!r})")
        return math.nan, errors
    if objective < bound * (1 - SLACK):
        errors.append(f"{network.name}: objective {objective!r} below lower bound {bound!r}")
    if objective > APPROX_FACTOR * bound * (1 + SLACK):
        errors.append(f"{network.name}: objective {objective!r} exceeds "
                      f"{APPROX_FACTOR:g} x lower bound {bound!r}")
    return objective / bound, errors


def dense_setup(seed: int) -> dict[str, Any]:
    system, strategy, network = dense_instance(seed, DENSE_WARMUP)
    result = qpp_module.solve_qpp(system, strategy, network=network, alpha=ALPHA)
    return {"seed": seed, "warmup_objective": float(result.objective)}


def _dense_solves(
    seed: int, indices: Callable[[], Any], *, recorder: spans.SpanRecorder | None = None
) -> tuple[list[float], list[float], list[str], int]:
    """Solve the instances *indices* yields; latencies, ratios, errors, failures."""
    latencies: list[float] = []
    ratios: list[float] = []
    errors: list[str] = []
    failed = 0
    for index in indices():
        system, strategy, network = dense_instance(seed, index)
        if recorder is not None:
            recorder.request = index
        started = clock()
        try:
            result = qpp_module.solve_qpp(system, strategy, network=network, alpha=ALPHA)
        except ReproError as exc:
            failed += 1
            errors.append(f"instance {index}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(clock() - started)
        ratio, problems = check_dense(system, strategy, network, result)
        ratios.append(ratio)
        errors.extend(problems)
    return latencies, ratios, errors, failed


def dense_measure(states: list[dict[str, Any]], seconds: float) -> Outcome:
    state = states[-1]
    seed = state["seed"]
    began = clock()

    def until_deadline():
        index = 0
        while clock() - began < seconds:
            yield index
            index += 1

    latencies, ratios, errors, failed = _dense_solves(seed, until_deadline)
    notes = []
    p50 = median(latencies)
    tail, remark = _tail(latencies, 0.99)
    if remark:
        notes.append(f"latency_p99_ms: {remark}")
    first, last = states[0]["warmup_objective"], state["warmup_objective"]
    metrics = {
        "requests_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * p50,
        "latency_p99_ms": 1e3 * tail,
        # A planner's answer is fresh the moment its solve returns.
        "freshness_p50_ms": 1e3 * p50,
        "delay_ratio": float(np.mean(ratios)),
        # Every answer is a cold full solve; the ratio compares two cold
        # solves of the warm-up instance from different set-ups.
        "stale_delay_ratio": last / first,
    }
    count = len(latencies)
    return Outcome(
        metrics=metrics,
        samples={"requests_per_s": count, "latency_p50_ms": count,
                 "latency_p99_ms": count, "freshness_p50_ms": count,
                 "delay_ratio": len(ratios)},
        attempted=count + failed,
        failed=failed,
        errors=errors,
        notes=notes,
    )


def dense_trace(
    states: list[dict[str, Any]], seconds: float, recorder: spans.SpanRecorder
) -> dict[str, Any]:
    seed = states[-1]["seed"]
    fixed = max(2, int(seconds // 4))

    def instances():
        return iter(range(fixed))

    plain, _, _, _ = _dense_solves(seed, instances)
    before = _counters()
    with spans.installed(recorder):
        traced, _, errors, failed = _dense_solves(seed, instances, recorder=recorder)
    return {
        "counters": _delta(before, _counters()),
        "busy_plain": sum(plain),
        "busy_traced": sum(traced),
        "extras": {},
        "attempted": fixed,
        "failed": failed,
        "errors": errors,
    }


# -- serve workloads: shared pieces ------------------------------------------

SERVE_CAPACITY = 2.0
SERVE_LANDMARKS = 8
SERVE_BATCH = 256


def _query(identifier: int, client: int) -> dict[str, Any]:
    return {"kind": REQUEST_KIND, "schema_version": SERVE_SCHEMA_VERSION,
            "id": identifier, "op": "query", "client": client}


def _update(identifier: int, client: int, rate: float) -> dict[str, Any]:
    return {"kind": REQUEST_KIND, "schema_version": SERVE_SCHEMA_VERSION,
            "id": identifier, "op": "update", "client": client, "rate": rate}


def _service(network, **options) -> PlacementService:
    system = majority(5)
    return PlacementService(
        system, AccessStrategy.uniform(system), network, alpha=ALPHA,
        scale="large", landmarks=SERVE_LANDMARKS, max_batch=SERVE_BATCH, **options,
    )


# -- serve_read --------------------------------------------------------------

READ_NODES = 2000
#: Distinct query documents, submitted round-robin.
READ_POOL = 64 * SERVE_BATCH
#: Full batches per window (~90 ms on a 2-vCPU Xeon guest).
READ_WINDOW_TICKS = 32
READ_WARMUP_TICKS = 8
#: Full batches in each pass of the traced run: enough ticks for a p99.
READ_TRACE_TICKS = 1200


def read_setup(seed: int) -> dict[str, Any]:
    network = _geometric(READ_NODES, SERVE_CAPACITY, _rng(seed, 2))
    service = _service(network)
    clients = _rng(seed, 2, 1).integers(0, READ_NODES, size=READ_POOL)
    documents = [_query(i, int(client)) for i, client in enumerate(clients)]
    state = {"seed": seed, "service": service, "documents": documents,
             "clients": clients, "objective": service.snapshot.objective, "position": 0, "refused": 0}
    _read_ticks(state, READ_WARMUP_TICKS)
    return state


def _read_ticks(state: dict[str, Any], ticks: int) -> tuple[float, list, list]:
    """Submit and answer *ticks* full batches; returns (seconds, timings, responses).

    Each timing is ``(submit stamps, tick start, tick end)``; a refused
    submit adds to ``state["refused"]`` and gets no stamp.
    """
    service = state["service"]
    documents = state["documents"]
    position = state["position"]
    timings = []
    answers = []
    started = clock()
    for _ in range(ticks):
        stamps = []
        for document in documents[position:position + SERVE_BATCH]:
            stamp = clock()
            try:
                service.submit(document)
            except ValidationError:
                state["refused"] += 1
            else:
                stamps.append(stamp)
        position = (position + SERVE_BATCH) % READ_POOL
        tick_start = clock()
        responses = service.tick()
        timings.append((stamps, tick_start, clock()))
        answers.append(responses)
    elapsed = clock() - started
    state["position"] = position
    return elapsed, timings, answers


def _check_reads(state: dict[str, Any], answers: list, errors: list[str]) -> int:
    """Check read responses against the only snapshot; returns failures."""
    table = state["service"].snapshot.per_client
    clients = state["clients"]
    failed = 0
    for responses in answers:
        for response in responses:
            if not response["ok"]:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"request {response['id']} failed: {response.get('error')}")
            elif (response["op"] != "query" or response["version"] != 1
                  or response["stale"]
                  or response["delay"] != table[clients[response["id"]]]):
                failed += 1
                if len(errors) < 5:
                    errors.append(f"wrong answer {response!r}")
    return failed


def read_measure(states: list[dict[str, Any]], seconds: float) -> Outcome:
    state = states[-1]
    queries = READ_WINDOW_TICKS * SERVE_BATCH
    #: Per window: seconds per query, median and p99 query latency.
    windows: list[tuple[float, float, float]] = []
    errors: list[str] = []
    accepted = answered = failed = 0
    refused_before = state["refused"]
    gc.collect()
    began = clock()
    while clock() - began < seconds:
        elapsed, timings, answers = _read_ticks(state, READ_WINDOW_TICKS)
        waited = np.concatenate([tick_end - np.asarray(stamps)
                                 for stamps, _, tick_end in timings])
        windows.append((elapsed / queries, median(waited), percentile(waited, 0.99)))
        accepted += waited.size
        answered += sum(map(len, answers))
        failed += _check_reads(state, answers, errors)
    refused = state["refused"] - refused_before
    if answered != accepted:
        errors.append(f"{accepted} queries accepted but {answered} answered")
    if refused:
        errors.append(f"{refused} queries refused")
    # The host runs in a slow and a 1.6x faster state for seconds to
    # minutes at a time.  A median over windows or requests flips between
    # them when the fast share nears half; the upper decile over windows
    # (the cost nine tenths of the windows stay under) flips only when a
    # run is nine tenths fast.  A window's p99 is set by its one or two
    # slowest ticks, so its upper decile reads the host's rarest stalls;
    # the upper quartile reads the slow state without them.
    notes = [f"{len(windows)} windows of {queries} queries; requests_per_s and "
             "latency_p50_ms are the upper decile over windows, latency_p99_ms "
             "the upper quartile"]
    upper = []
    for name, column, q in zip(("requests_per_s", "latency_p50_ms", "latency_p99_ms"),
                               zip(*windows), (0.9, 0.9, 0.75)):
        value, remark = _tail(column, q)
        upper.append(value)
        if remark:
            notes.append(f"{name}: {remark}")
    per_query, p50, p99 = upper
    ratio = state["service"].snapshot.objective / states[0]["objective"]
    return Outcome(
        metrics={
            "requests_per_s": 1.0 / per_query,
            "latency_p50_ms": 1e3 * p50,
            "latency_p99_ms": 1e3 * p99,
            # Demand never changes, so an answer reflects the current
            # demand the moment it is returned.
            "freshness_p50_ms": 1e3 * p50,
            # Served snapshot vs. a cold solve of the same demand from
            # another set-up (the large-scale path certifies no bound).
            "delay_ratio": ratio,
            "stale_delay_ratio": ratio,
        },
        samples={name: len(windows) for name in
                 ("requests_per_s", "latency_p50_ms", "latency_p99_ms", "freshness_p50_ms")},
        attempted=accepted + refused,
        failed=failed + refused,
        errors=errors,
        notes=notes,
    )


def read_trace(
    states: list[dict[str, Any]], seconds: float, recorder: spans.SpanRecorder
) -> dict[str, Any]:
    state = states[-1]
    ticks = READ_TRACE_TICKS
    plain, _, _ = _read_ticks(state, ticks)
    before = _counters()
    refused_before = state["refused"]
    with spans.installed(recorder):
        traced, timings, answers = _read_ticks(state, ticks)
    refused = state["refused"] - refused_before
    errors: list[str] = [f"{refused} queries refused"] if refused else []
    failed = _check_reads(state, answers, errors) + refused
    waits = np.concatenate([start - np.asarray(stamps) for stamps, start, _ in timings])
    return {
        "counters": _delta(before, _counters()),
        "busy_plain": plain,
        "busy_traced": traced,
        "extras": {"queue_wait": waits,
                   "batch_size_mean": sum(map(len, answers)) / len(answers)},
        "attempted": ticks * SERVE_BATCH,
        "failed": failed,
        "errors": errors,
    }


# -- serve_drift -------------------------------------------------------------

DRIFT_NODES = 1500
#: Offered load.  While demand deltas are pending, every tick recomputes
#: the drift bound over all clients (~0.2 ms), so at 10,000 requests/s
#: ticks kept the service ~90% busy between re-solves and queueing
#: amplified every host-speed swing into p50; at this rate it is ~20%.
DRIFT_RATE = 1_000.0
#: Share of background demand updates among the requests.
DRIFT_UPDATE_SHARE = 0.03
#: Background updates add +-DRIFT_NUDGE to one client's rate (base 1.0):
#: next to the crowds, far too small to cross the drift threshold.
DRIFT_NUDGE = 0.2
DRIFT_THRESHOLD = 0.1
#: Demand starts with a resident crowd at one corner client (this multiple
#: of the base demand), so the initial placement sits near that corner.
#: Each flash-crowd event then adds (or later removes) a crowd of this
#: multiple of the demand before it at the *opposite* corner, moving the
#: placement across the network and back: every event crosses the
#: threshold on its own, wherever the uniform-demand placement would sit.
DRIFT_CROWD = 3.0
#: Flash-crowd schedule: first event (earlier in very short runs), then
#: one every DRIFT_EVENT_GAP s.  The gap puts about a fifth of the
#: requests behind a re-solve.
DRIFT_FIRST_EVENT = 2.0
DRIFT_EVENT_GAP = 5.0
#: Large enough that no request is refused during a re-solve stall.
DRIFT_QUEUE_LIMIT = 400_000
DRIFT_WARMUP_TICKS = 4
_CORNERS = ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0))


def _drift_corners(seed: int) -> tuple[int, int]:
    """The resident crowd's node and the flash crowds' node: the nodes
    nearest a seeded corner of the unit square and the opposite corner.
    The generator's first draw is the node coordinates, so the same seed
    reproduces them."""
    points = _rng(seed, 3).random((DRIFT_NODES, 2))
    corner = int(_rng(seed, 3, 2).integers(0, len(_CORNERS)))
    home, away = _CORNERS[corner], _CORNERS[corner ^ 1]
    return (int(np.argmin(((points - home) ** 2).sum(axis=1))),
            int(np.argmin(((points - away) ** 2).sum(axis=1))))


def _initial_rates(seed: int) -> np.ndarray:
    rates = np.ones(DRIFT_NODES)
    rates[_drift_corners(seed)[0]] += DRIFT_CROWD * DRIFT_NODES
    return rates


class DriftSchedule:
    """The seeded request stream, built one document at a time on demand."""

    def __init__(self, seed: int, duration: float) -> None:
        rng = _rng(seed, 3, 1)
        count = int(duration * DRIFT_RATE)
        self.initial = _initial_rates(seed)
        self.offsets = np.arange(count) / DRIFT_RATE
        self.clients = rng.integers(0, DRIFT_NODES, size=count)
        self.is_update = rng.random(count) < DRIFT_UPDATE_SHARE
        self.rates = rng.choice([-DRIFT_NUDGE, DRIFT_NUDGE], size=count)
        self.events: list[int] = []
        crowd = DRIFT_CROWD * float(self.initial.sum())
        away = _drift_corners(seed)[1]
        moment = min(DRIFT_FIRST_EVENT, duration / 4)
        while moment < duration:
            index = int(moment * DRIFT_RATE)
            self.clients[index] = away
            self.is_update[index] = True
            self.rates[index] = crowd if len(self.events) % 2 == 0 else -crowd
            self.events.append(index)
            moment += DRIFT_EVENT_GAP
        self.event_set = set(self.events)

    def __len__(self) -> int:
        return len(self.offsets)

    def __getitem__(self, index: int) -> dict[str, Any]:
        client = int(self.clients[index])
        if self.is_update[index]:
            return _update(index, client, float(self.rates[index]))
        return _query(index, client)

    def final_rates(self) -> np.ndarray:
        rates = self.initial.copy()
        np.add.at(rates, self.clients[self.is_update], self.rates[self.is_update])
        return np.maximum(rates, 0.0)


def _drift_network(seed: int):
    return _geometric(DRIFT_NODES, SERVE_CAPACITY, _rng(seed, 3))


def _drift_service(seed: int) -> PlacementService:
    rates = {node: float(rate) for node, rate in enumerate(_initial_rates(seed))}
    return _service(_drift_network(seed), rates=rates,
                    drift_threshold=DRIFT_THRESHOLD, queue_limit=DRIFT_QUEUE_LIMIT)


def _steady(service: PlacementService) -> None:
    """Bring *service* to its steady state: every client has sent an update.

    A tick with pending updates rebuilds the effective rates from the
    base rates plus every client's accumulated delta, so its cost grows
    with the number of distinct clients updated so far.  Starting from
    one zero-rate update per client keeps that cost flat through the
    run, as in a service that has been up for a while; the demand does
    not change.
    """
    for client in range(DRIFT_NODES):
        service.submit(_update(f"steady-{client}", client, 0.0))
        if service.queue_depth == SERVE_BATCH:
            service.tick()
    while service.queue_depth:
        service.tick()


def drift_setup(seed: int) -> dict[str, Any]:
    service = _drift_service(seed)
    _steady(service)
    for tick in range(DRIFT_WARMUP_TICKS):
        for slot in range(SERVE_BATCH):
            service.submit(_query(f"warmup-{tick}-{slot}", slot % DRIFT_NODES))
        service.tick()
    return {"seed": seed, "service": service}


class _DriftChecker:
    """Checks every response of one open-loop drift run as it arrives."""

    def __init__(self, service: PlacementService, schedule: DriftSchedule) -> None:
        self.service = service
        self.schedule = schedule
        self.tables = {service.version: service.snapshot.per_client}
        self.version = service.version
        self.failed = 0
        self.errors: list[str] = []
        #: (event request index, publication time) per re-solve.
        self.published: list[tuple[int, float]] = []

    def _error(self, message: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(message)

    def __call__(self, responses: list[dict[str, Any]], tick_end: float) -> None:
        clients = self.schedule.clients
        events = self.schedule.event_set
        crowd = -1
        for response in responses:
            identifier = response["id"]
            if not response["ok"]:
                self.failed += 1
                self._error(f"request {identifier} failed: {response.get('error')}")
                continue
            if identifier in events:
                crowd = identifier
            if response["op"] == "query":
                table = self.tables.get(response["version"])
                if table is None or response["delay"] != table[clients[identifier]]:
                    self.failed += 1
                    self._error(f"query {identifier} delay differs from snapshot "
                                f"v{response['version']}")
        version = self.service.version
        if version != self.version:
            if version != self.version + 1 or crowd < 0:
                self._error(f"unexpected publish v{self.version} -> v{version}")
            self.version = version
            self.tables[version] = self.service.snapshot.per_client
            self.published.append((crowd, tick_end))
        elif crowd >= 0:
            self._error(f"flash crowd {crowd} did not trigger a re-solve")


def _drift_run(state: dict[str, Any], duration: float) -> tuple[OpenLoopResult, DriftSchedule, _DriftChecker]:
    service = state["service"]
    schedule = DriftSchedule(state["seed"], duration)
    checker = _DriftChecker(service, schedule)
    resolves_before = service.resolves
    gc.collect()
    result = run_open_loop(
        service, schedule, schedule.offsets, end_offset=duration,
        refusal=ValidationError, on_responses=checker,
    )
    resolves = service.resolves - resolves_before
    if resolves != len(schedule.events):
        checker.errors.append(
            f"{resolves} re-solves for {len(schedule.events)} scheduled flash crowds")
    if result.refused:
        checker.errors.append(f"{result.refused} requests refused")
    if result.completed + result.refused != len(schedule):
        checker.errors.append(f"{len(schedule) - result.completed - result.refused} "
                              "requests never answered")
    return result, schedule, checker


def drift_measure(states: list[dict[str, Any]], seconds: float) -> Outcome:
    state = states[-1]
    result, schedule, checker = _drift_run(state, seconds)
    errors = list(checker.errors)
    freshness = [published - result.due[event] for event, published in checker.published
                 if event >= 0]
    latency = result.latency
    notes = []
    p99, remark = _tail(latency, 0.99)
    if remark:
        notes.append(f"latency_p99_ms: {remark}")
    # Staleness: the final snapshot under the final demand, against a cold
    # full solve of that demand on a fresh copy of the network.
    rates = schedule.final_rates()
    weights = rates / rates.sum()
    served = float(state["service"].snapshot.per_client @ weights)
    system = majority(5)
    cold = qpp_module.solve_qpp(
        system, AccessStrategy.uniform(system), network=_drift_network(state["seed"]),
        alpha=ALPHA, rates={node: float(rate) for node, rate in enumerate(rates)},
        scale="large", landmarks=SERVE_LANDMARKS,
    )
    ratio = served / float(cold.objective)
    stalled = float(np.mean(latency > 0.1))
    notes.append(f"{len(schedule.events)} flash crowds; {100 * stalled:.1f}% of requests "
                 f"waited over 100 ms; backlog at schedule end {result.backlog_at_end}")
    completed = result.completed
    return Outcome(
        metrics={
            "requests_per_s": completed / (np.nanmax(result.answered) - result.due[0]),
            "latency_p50_ms": 1e3 * median(latency),
            "latency_p99_ms": 1e3 * p99,
            "freshness_p50_ms": 1e3 * median(freshness) if freshness else math.nan,
            # The large-scale path certifies no lower bound; the served
            # placement is compared with a cold full solve instead.
            "delay_ratio": ratio,
            "stale_delay_ratio": ratio,
        },
        samples={"requests_per_s": completed, "latency_p50_ms": latency.size,
                 "latency_p99_ms": latency.size, "freshness_p50_ms": len(freshness)},
        attempted=len(schedule),
        failed=checker.failed + result.refused,
        errors=errors,
        notes=notes,
    )


def drift_trace(
    states: list[dict[str, Any]], seconds: float, recorder: spans.SpanRecorder
) -> dict[str, Any]:
    duration = seconds / 2
    plain, _, plain_checker = _drift_run(states[-1], duration)
    with spans.installed(recorder):
        # A fresh service, built under the wraps so its bound solver is
        # the wrapped one; its construction spans are not part of the run.
        state = dict(states[-1], service=_drift_service(states[-1]["seed"]))
        _steady(state["service"])
        recorder.clear()
        before = _counters()
        traced, schedule, checker = _drift_run(state, duration)
        after = _counters()
    return {
        "counters": _delta(before, after),
        "busy_plain": plain.busy,
        "busy_traced": traced.busy,
        "extras": {
            "queue_wait": traced.queue_wait,
            "lag": traced.lag,
            "batch_size_mean": traced.batch_size_mean,
            "backlog_at_end": traced.backlog_at_end,
        },
        "attempted": len(schedule),
        "failed": checker.failed + traced.refused,
        "errors": plain_checker.errors + checker.errors,
    }


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], dict[str, Any]]
    measure: Callable[[list[dict[str, Any]], float], Outcome]
    trace: Callable[[list[dict[str, Any]], float, spans.SpanRecorder], dict[str, Any]]


WORKLOADS = {
    "solve_dense": Workload(dense_setup, dense_measure, dense_trace),
    "serve_read": Workload(read_setup, read_measure, read_trace),
    "serve_drift": Workload(drift_setup, drift_measure, drift_trace),
}
