# One-command entry points for the pipeline.
#
#   make verify           - tier-1 test run + doc doctests (what CI gates on)
#   make verify-fast      - tier-1 without the slow end-to-end examples
#   make ci               - what .github/workflows/ci.yml runs: verify +
#                           --quick benchmark smoke runs + BENCH_*.json
#                           schema validation + the perfbench smoke
#   make bench-smoke      - the --quick benchmark runs + schema check alone
#   make perfbench-smoke  - one-second runs of the repository benchmark
#                           (perfbench/run.py: cold-plan traced,
#                           fleet-churn untraced); fails on a crash, a
#                           failed check or a failed operation
#   make test-faults      - the chaos suite: fault injection, supervised
#                           executor, corruption restore, chaos parity
#   make conformance      - the backend conformance kit against the stock
#                           and naive backends (pass BACKEND=name for one)
#   make coverage         - line coverage (pytest-cov when installed,
#                           stdlib settrace fallback offline) + the
#                           ratchet-only floor gate
#   make docs             - doctests over README.md and docs/*.md code blocks
#   make bench-perf       - scalar-vs-batch perf kernels benchmark
#                           (writes BENCH_perf_kernels.json); pass
#                           WORKERS=N to set the epsilon-sweep shard
#                           width (default 4)
#   make bench-throughput - batched commit-evaluation + epsilon planning
#                           benchmark (writes BENCH_commit_throughput.json)
#   make bench-fleet      - multi-tenant fleet parity + overload gate
#                           (writes BENCH_fleet.json)
#   make bench-storage    - journal compaction + disk-budget gates
#                           (writes BENCH_storage.json)
#   make bench            - full pytest-benchmark suite over the paper
#                           artifacts, plus the perf benchmarks above

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: verify verify-fast ci bench-smoke perfbench-smoke test-faults conformance coverage docs bench bench-perf bench-throughput bench-fleet bench-storage

verify:
	$(PYTHON) -m pytest -x -q
	$(PYTHON) -m pytest -q --doctest-glob="*.md" README.md docs

verify-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

ci: verify bench-smoke perfbench-smoke

bench-smoke:
	$(PYTHON) benchmarks/bench_perf_kernels.py --quick
	$(PYTHON) benchmarks/bench_commit_throughput.py --quick
	$(PYTHON) benchmarks/bench_fault_recovery.py --quick
	$(PYTHON) benchmarks/bench_fleet.py --quick
	$(PYTHON) benchmarks/bench_storage.py --quick
	$(PYTHON) benchmarks/check_bench_schema.py

perfbench-smoke:
	$(PYTHON) tools/perfbench_smoke.py

test-faults:
	$(PYTHON) -m pytest -q tests/reliability

conformance:
ifdef BACKEND
	$(PYTHON) -m pytest -q tests/conformance --engine-backend $(BACKEND)
else
	$(PYTHON) -m pytest -q tests/conformance --engine-backend default
	$(PYTHON) -m pytest -q tests/conformance --engine-backend naive
endif

coverage:
	$(PYTHON) tools/run_coverage.py
	$(PYTHON) tools/check_coverage.py

docs:
	$(PYTHON) -m pytest -q --doctest-glob="*.md" README.md docs

bench-perf:
	$(PYTHON) benchmarks/bench_perf_kernels.py $(if $(WORKERS),--workers $(WORKERS),)

bench-throughput:
	$(PYTHON) benchmarks/bench_commit_throughput.py

bench-fleet:
	$(PYTHON) benchmarks/bench_fleet.py

bench-storage:
	$(PYTHON) benchmarks/bench_storage.py

bench: bench-perf bench-throughput
	$(PYTHON) -m pytest -q benchmarks -s
