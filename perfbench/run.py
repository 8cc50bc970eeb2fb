"""Benchmark entry point.

    python3 perfbench/run.py --workload solve_dense --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/repro``.  With
``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric
from the traced run.  Lines before it are the human-readable report:
each timing with its sample count, the host-speed reference before and
after the workload, and any failed output check.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Where the traced run writes its spans, relative to the checkout root.
SPAN_DIR = Path("perfbench") / "out"

# Each run is one single-threaded process: without these, numpy's and
# scipy's BLAS libraries each start a worker thread per extra CPU.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")


def _arguments(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve_dense", "serve_read", "serve_drift"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _units(section: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as source:
        return {metric["name"]: metric["unit"] for metric in json.load(source)[section]}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    args = _arguments(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import hostspeed
    from percentiles import median
    from workloads import WORKLOADS

    imported = time.perf_counter() - PROCESS_START
    host_before = hostspeed.reference_ms()
    workload = WORKLOADS[args.workload]

    states = []
    setup_seconds = []
    for _ in range(SETUP_REPEATS):
        # Only the last set-up's state is run on; drop the others' heavy
        # parts so the peak RSS is that of one set-up.
        for old in states:
            old.pop("service", None)
            old.pop("documents", None)
        gc.collect()
        started = time.perf_counter()
        states.append(workload.setup(args.seed))
        setup_seconds.append(time.perf_counter() - started)
    setup_s = imported + median(setup_seconds)
    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
             f"trace {args.trace}",
             f"setup_s = {setup_s:.4f} (imports {imported:.3f} s + median of "
             f"{len(setup_seconds)} set-ups {[round(s, 3) for s in setup_seconds]})"]

    if args.trace:
        import layers
        import spans

        recorder = spans.SpanRecorder()
        traced = workload.trace(states, args.seconds, recorder)
        host_after = hostspeed.reference_ms()
        metrics = layers.per_layer(recorder, traced)
        metrics["host.ref_ms_before"] = host_before
        metrics["host.ref_ms_after"] = host_after
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        recorder.write_jsonl(ROOT / span_file)
        lines.append(f"{len(recorder)} spans written to {span_file}")
        errors = traced["errors"]
        attempted, failed = traced["attempted"], traced["failed"]
        units = _units("per_layer")
        samples = layers.samples(recorder, traced)
    else:
        outcome = workload.measure(states, args.seconds)
        host_after = hostspeed.reference_ms()
        metrics = {"setup_s": setup_s, **outcome.metrics, "peak_rss_mb": _peak_rss_mb()}
        errors = outcome.errors
        attempted, failed = outcome.attempted, outcome.failed
        units = _units("end_to_end")
        samples = outcome.samples
        lines.extend(outcome.notes)

    for name, value in metrics.items():
        count = samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        lines.append(f"{name} = {value:.6g} {units[name]}{suffix}")
    lines.append(f"host reference: {host_before:.3f} ms before, {host_after:.3f} ms after "
                 "(not gated)")
    lines.append(f"attempted {attempted}, failed {failed}")
    for error in errors:
        lines.append(f"CHECK FAILED: {error}")
    correct = not errors and failed == 0
    for line in lines:
        print(line)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
