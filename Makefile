# Developer entry points. Everything here is a thin wrapper around the
# `repro` CLI and pytest so CI and local runs stay identical.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-scale lint lint-baseline effects errors trace bench bench-compare bench-large profile serve-smoke

test:
	$(PYTHON) -m pytest -x -q

# The scale tier: tests marked @pytest.mark.scale (thousand-node lazy
# metric solves, minutes not seconds). Excluded from the default run by
# the addopts marker filter; CI runs this as a separate non-blocking job.
test-scale:
	$(PYTHON) -m pytest -q -m scale

# The full static tier: per-file rules, whole-program R100-series, the
# R200-series dataflow/contract rules, the R400-series
# effect/concurrency rules, and the R600-series
# exception-flow/resource-safety rules, ratcheted
# against the committed baseline. CI runs exactly this.
lint:
	$(PYTHON) -m repro lint src --whole-program --dataflow --effects --errors --baseline lint-baseline.json

# Run the effect tier and (re)generate the parallel-safety certificate
# consumed by repro.parallel.parallel_map (docs/static_analysis.md).
# CI regenerates and uploads this on every push.
effects:
	$(PYTHON) -m repro lint src --effects --certificate parallel-safety.json

# Run the error tier and (re)generate the error-contract certificate
# consumed by repro.resilience.retrying (docs/static_analysis.md).
# --check exits 1 unless every solver entry point declares @raises
# covering its inferred escape set; CI uploads the JSON document.
errors:
	$(PYTHON) -m repro errors src --check
	$(PYTHON) -m repro lint src --errors --error-contract error-contract.json

# Refresh the ratchet. Run this ONLY when a finding is a deliberate,
# reviewed exception: the regenerated lint-baseline.json is committed
# alongside the change, so the diff shows exactly which findings were
# grandfathered. New findings not in the baseline always fail `make lint`.
lint-baseline:
	$(PYTHON) -m repro lint src --whole-program --dataflow --effects --errors --format json > lint-baseline.json

# Paper-theorem traceability matrix (what R204 checks).
trace:
	$(PYTHON) -m repro trace src --check

bench:
	$(PYTHON) -m repro bench --quick --out BENCH_3.json

# End-to-end smoke of the serving layer (docs/serving.md): a short
# scripted JSONL session through `repro serve` — queries, a demand
# update, a forced re-solve — that must exit 0 (no error responses).
serve-smoke:
	printf '%s\n' \
	  '{"kind": "repro-serve-request", "schema_version": 1, "id": 1, "op": "query", "client": 0}' \
	  '{"kind": "repro-serve-request", "schema_version": 1, "id": 2, "op": "update", "client": 1, "rate": 25.0}' \
	  '{"kind": "repro-serve-request", "schema_version": 1, "id": 3, "op": "query", "client": 1}' \
	  '{"kind": "repro-serve-request", "schema_version": 1, "id": 4, "op": "resolve"}' \
	  '{"kind": "repro-serve-request", "schema_version": 1, "id": 5, "op": "stats"}' \
	  | $(PYTHON) -m repro serve majority:3 cycle:12 --capacity 2.0 --max-batch 2

# The bench trajectory ratchet (docs/performance.md): run the suite
# fresh and compare its timing trajectory against the committed
# reference report. The generous noise band tolerates host differences;
# only order-of-magnitude breaks (a lost vectorization, an oracle on a
# hot path) trip it.
bench-compare:
	$(PYTHON) -m repro bench --quick --out BENCH_COMPARE.json --compare BENCH_3.json --noise-band 4.0

# The large-scale series: the full micro-suite plus the qpp_lazy_large
# case (a 10k-node QPP solve through the lazy metric, asserting no dense
# n x n build). Compared against the committed report the same way —
# the extra case shows up as a "new series" note, never a regression.
bench-large:
	$(PYTHON) -m repro bench --quick --large --out BENCH_LARGE.json --compare BENCH_3.json --noise-band 4.0

# Trace + metrics view of the bench micro-suite (docs/observability.md).
# Wrap any other subcommand the same way: `python -m repro profile <cmd>`.
profile:
	$(PYTHON) -m repro profile bench --quick --out BENCH_3.json
