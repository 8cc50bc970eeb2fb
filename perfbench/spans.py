"""Span recording around calls into the program's layers.

The traced run wraps public functions and methods of each layer from
here, outside the program: a wrap records one span per call (name,
start, end, parent span, request id) into in-memory lists, and the spans
are written out as JSON lines when the run ends.  A function that a
module imported by name is wrapped at that importing module's name,
because that is the name its callers look up.

Self time is a span's duration minus its direct children's durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

import numpy as np

#: (module, attribute path, span name, request-id extractor or None).
#: The placement evaluators are wrapped at every module that calls them.
TARGETS: tuple[tuple[str, str, str, Callable[..., Any] | None], ...] = (
    ("repro.serve.engine", "PlacementService.submit", "serve.submit",
     lambda args, kwargs: args[1].get("id")),
    ("repro.serve.engine", "PlacementService.tick", "serve.tick", None),
    ("repro.serve.engine", "solve_qpp", "qpp.solve", None),
    ("repro.serve.engine", "per_client_expected_max_delay", "placement.eval", None),
    ("repro.core.qpp", "solve_qpp", "qpp.solve", None),
    ("repro.core.qpp", "solve_ssqpp", "ssqpp.solve", None),
    ("repro.core.qpp", "average_max_delay", "placement.eval", None),
    ("repro.core.qpp", "average_max_delay_via_sources", "placement.eval", None),
    ("repro.core.qpp", "average_max_delay_bounds", "placement.eval", None),
    ("repro.core.ssqpp", "expected_max_delay", "placement.eval", None),
    ("repro.core.ssqpp", "round_fractional_assignment", "gap.round", None),
    ("repro.lp.solve", "solve_model", "lp.solve", None),
    ("repro.network.graph", "Network.metric", "network.metric", None),
    ("repro.network.lazymetric", "LazyMetric.distances_from", "network.row", None),
    ("repro.network.lazymetric", "LazyMetric.row_block", "network.row", None),
    ("repro.network.lazymetric", "LazyMetric.submatrix", "network.row", None),
    ("repro.network.lazymetric", "LazyMetric.nodes_by_distance", "network.row", None),
    ("repro.network.lazymetric", "LazyMetric.distance", "network.row", None),
    ("repro.network.lazymetric", "LandmarkOracle.build", "network.landmarks", None),
)


class SpanRecorder:
    """In-memory span store; ``request`` tags spans with a request id."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[Any] = []
        self._open: list[int] = []
        self.request: Any = None

    def __len__(self) -> int:
        return len(self.names)

    def clear(self) -> None:
        """Forget every closed span (none may be open)."""
        if self._open:
            raise RuntimeError("cannot clear spans while a span is open")
        for store in (self.names, self.starts, self.ends, self.parents, self.requests):
            store.clear()

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        request_of: Callable[..., Any] | None = None,
    ) -> Callable[..., Any]:
        """*function*, recording a span named *name* around each call."""
        recorder = self
        clock = self._clock

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(recorder.names)
            recorder.names.append(name)
            recorder.parents.append(recorder._open[-1] if recorder._open else -1)
            recorder.requests.append(
                recorder.request if request_of is None else request_of(args, kwargs)
            )
            recorder.ends.append(0.0)
            recorder._open.append(index)
            recorder.starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                recorder.ends[index] = clock()
                recorder._open.pop()

        return traced

    # -- derived quantities ------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus its direct children's durations."""
        durations = self.durations()
        parents = np.asarray(self.parents, dtype=np.intp)
        child = parents >= 0
        children = np.bincount(
            parents[child], weights=durations[child], minlength=len(durations)
        )
        return durations - children

    def select(self, name: str, *, outermost: bool = False) -> np.ndarray:
        """Indices of spans called *name*; *outermost* drops spans nested
        in another span of the same name."""
        names = np.asarray(self.names, dtype=object)
        picked = np.flatnonzero(names == name)
        if not outermost or picked.size == 0:
            return picked
        parents = np.asarray(self.parents, dtype=np.intp)
        parent_names = np.where(
            parents[picked] >= 0, names[np.maximum(parents[picked], 0)], ""
        )
        return picked[parent_names != name]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as sink:
            for index, name in enumerate(self.names):
                request = self.requests[index]
                sink.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": self.starts[index],
                            "end": self.ends[index],
                            "parent": self.parents[index],
                            "request": request if isinstance(request, (int, str)) else None,
                        }
                    )
                    + "\n"
                )


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *outer, attribute = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attribute


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every :data:`TARGETS` entry for the duration of the block."""
    restore: list[tuple[Any, str, Any]] = []
    try:
        for module_name, path, name, request_of in TARGETS:
            owner, attribute = _resolve(module_name, path)
            raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(recorder.wrap(name, raw.__func__, request_of))
            else:
                replacement = recorder.wrap(name, raw, request_of)
            restore.append((owner, attribute, raw))
            setattr(owner, attribute, replacement)
        yield recorder
    finally:
        for owner, attribute, raw in reversed(restore):
            setattr(owner, attribute, raw)
