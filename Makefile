# Developer entry points. Everything runs from the source tree via
# PYTHONPATH=src — no install step required.

PYTHON ?= python
WORKLOAD ?= all
export PYTHONPATH := src

.PHONY: test test-service chaos bench bench-smoke bench-solver bench-trace bench-dump bench-platforms bench-service bench-service-resilience bench-chaos e2e lint docs-check ci all

all: test docs-check

test:
	$(PYTHON) -m pytest -x -q

# Just the prediction-service layer: engine/LRU/serve unit tests, the
# one-shot equivalence suite, and the fault-injection suite.
test-service:
	$(PYTHON) -m pytest tests/test_service.py tests/test_service_equivalence.py tests/test_service_faults.py -q

# The chaos suite with injection armed and the runtime sanitizer on:
# fault-policy retries, supervised-pool recovery (kills, hangs, poison
# cases), sharded-store crash consistency, the two-process shared
# sweep, and the serving-side gate (deadlines, backpressure, breaker,
# kill+restart-from-snapshot bit-identity) — plus the executor unit
# tests to prove supervision does not regress the clean path.
chaos:
	REPRO_FAULTS=1 REPRO_SANITIZE=1 $(PYTHON) -m pytest tests/test_chaos.py tests/test_faults.py tests/test_campaign_executor.py tests/test_service_chaos.py -q

bench:
	$(PYTHON) -m pytest benchmarks -q -o python_files='bench_*.py'

# Full-size run of the AMR solver hot-path bench (plan-cached vs seed
# loops, plus the fused shape-group advance vs the per-fab Godunov
# loop); asserts the >=3x steps/sec and >=2x fused-advance floors and
# writes BENCH_solver.json.
bench-solver:
	$(PYTHON) -m pytest benchmarks/bench_solver_hotpath.py -q -o python_files='bench_*.py'

# Full-size run of the trace substrate bench (columnar vs event-list
# aggregations at 10^6 records, per-record append parity, and the
# 10^8-record spill scale-out child with its RSS ceiling); writes
# BENCH_trace.json.
bench-trace:
	$(PYTHON) -m pytest benchmarks/bench_trace_columnar.py -q -o python_files='bench_*.py'

# Full-size run of the batched dump-pipeline bench (plan-cached size
# mode, fused data mode, vectorized inspect vs the seed per-fab loops at
# fig-11 scale); asserts the >=5x size-mode floor, writes BENCH_dump.json.
bench-dump:
	$(PYTHON) -m pytest benchmarks/bench_dump_pipeline.py -q -o python_files='bench_*.py'

# Full-size run of the cross-machine burst-throughput bench (batched
# burst_time vs the per-file loop on every registered platform at the
# Table-III max job shape); asserts the >=5x floor and writes
# BENCH_platforms.json.
bench-platforms:
	$(PYTHON) -m pytest benchmarks/bench_platforms.py -q -o python_files='bench_*.py'

# Full-size run of the prediction-service load bench (10^5 batched
# requests: cold vs warm LRU vs per-call predict_sizes, plus
# lookup_many against a warm store); asserts the >=5x warm-path floor
# and writes BENCH_service.json.
bench-service:
	$(PYTHON) -m pytest benchmarks/bench_service.py -q -o python_files='bench_*.py'

# Full-size run of the serving-resilience bench (deadline/breaker
# bookkeeping on the warm 10^5-request load vs the plain path, plus a
# snapshot save/restore cycle); asserts the <=5% overhead ceiling and
# writes BENCH_service_resilience.json.
bench-service-resilience:
	$(PYTHON) -m pytest benchmarks/bench_service_resilience.py -q -o python_files='bench_*.py'

# Full-size run of the resilience bench (supervised-executor overhead
# with injection off, and the 200-case two-process chaos gate: 20%
# transients, two worker kills, one torn store write); asserts the <=5%
# overhead ceiling and writes BENCH_resilience.json.
bench-chaos:
	$(PYTHON) -m pytest benchmarks/bench_chaos.py -q -o python_files='bench_*.py'

# Tiny-size run of every bench (REPRO_BENCH_SMOKE=1), asserting each
# emits its artifact — bench-harness regressions without the bench cost.
bench-smoke:
	$(PYTHON) tools/bench_smoke.py

# The end-to-end benchmark (e2ebench/run.py): steady-state throughput,
# p95 latency, set-up time and peak RSS of the sweep, solver and serve
# workloads, with digest checks.  `make e2e WORKLOAD=sweep` runs one.
e2e:
	python3 e2ebench/run.py --workload $(WORKLOAD)

# repro-lint: the project's AST invariant checker (rule catalog in
# docs/LINT.md).  Exits nonzero on any unsuppressed finding.
lint:
	$(PYTHON) -m tools.lint src tests benchmarks tools

docs-check:
	$(PYTHON) tools/docs_check.py README.md docs/ARCHITECTURE.md docs/CAMPAIGN.md docs/PLATFORMS.md docs/SERVICE.md docs/LINT.md docs/RESILIENCE.md

# The one-stop regression gate: tests + lint + docs + bench harness.
ci: test lint docs-check bench-smoke
