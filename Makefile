# Convenience targets for the SRLB reproduction.
#
#   make test                - tier-1 test suite (the gate every PR must keep green)
#   make lint                - ruff check (configured in pyproject.toml; skipped
#                              with a notice when ruff is not installed)
#   make bench-smoke         - one fast benchmark per scenario family, reduced scale
#   make bench-smoke-parallel - a tiny Figure-2 sweep, autoscale and adversarial run
#                              over two worker processes (jobs=2), so CI ships
#                              every shape of run result across a process boundary
#   make scale-smoke         - the scale scenario's pods on 1 and 2 processes; asserts the
#                              merged results are bit-identical (fingerprint check)
#                              and the coordinator's and workers' memory growth
#                              stays per-column
#   make chaos-smoke         - the chaos scenario at two seeds; asserts jobs=1 and
#                              jobs=2 fingerprints match per seed, differ across
#                              seeds, and the loss cell recovers >= 99% of queries
#   make telemetry-smoke     - a reduced chaos run with the streaming telemetry
#                              probe attached (writes telemetry-artifacts/), a
#                              dashboard re-render from the saved report, then the
#                              scenario goldens re-run with telemetry on (--telemetry)
#   make docs-check          - doc-vs-code consistency tests (CLI + performance docs)
#   make census              - the code-only census of src/: definitions nothing
#                              in src/ reaches (with where each is still reached)
#                              and defaulted parameters nothing passes
#   make bench               - the full benchmark suite at default (reduced) scale
#   make bench-quick         - the repository benchmark (BENCHMARK.json) at smoke size:
#                              all five workloads, output checks, ~15 s; writes
#                              benchmarks/perf/results/
#   make coverage            - tier-1 suite under pytest-cov with the pinned
#                              floor (skipped with a notice when pytest-cov is
#                              not installed; CI installs it)

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

BENCH_OPTS := -o python_files='bench_*.py' -o python_functions='bench_*'

.PHONY: test lint coverage bench bench-quick bench-smoke bench-smoke-parallel scale-smoke chaos-smoke telemetry-smoke docs-check census

test:
	$(PYTHON) -m pytest -x -q

# Coverage floor for `make coverage` / the CI coverage job.  Pinned
# conservatively below the line coverage of the tier-1 suite; raise it
# as the suite grows, never lower it to admit a regression.
COVERAGE_FLOOR := 80

# Like `make lint`, this degrades gracefully: the container image may
# not ship pytest-cov, and the tier-1 gate must not depend on it.  CI
# installs pytest-cov on the runner and enforces the floor for real.
coverage:
	@if $(PYTHON) -c 'import pytest_cov' >/dev/null 2>&1; then \
		$(PYTHON) -m pytest -q --cov=repro --cov-report=term \
			--cov-report=xml:coverage.xml --cov-fail-under=$(COVERAGE_FLOOR); \
	else \
		echo "pytest-cov is not installed; skipping coverage (pip install pytest-cov)"; \
	fi

# The container image may not ship ruff; CI installs it (see
# .github/workflows/ci.yml).  Skipping with a notice keeps `make lint`
# total on bare environments without masking real lint failures in CI.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	elif $(PYTHON) -c 'import ruff' >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff is not installed; skipping lint (pip install ruff)"; \
	fi

docs-check:
	$(PYTHON) -m pytest -q tests/test_docs_cli.py tests/test_docs_performance.py

# The report behind tests/test_code_census.py, printed by the same
# functions the tier-1 test calls.
census:
	$(PYTHON) tests/test_code_census.py

# One representative benchmark per scenario family (figures, ablations,
# resilience) at a deliberately small scale: a smoke signal, not a
# measurement.  Ablations A1 and A4 ride along as the callers of the
# mean-field model outside the tests.
bench-smoke:
	REPRO_BENCH_QUERIES=800 REPRO_BENCH_TIME_FACTOR=0.2 \
	REPRO_BENCH_ARRIVALS=800 REPRO_BENCH_ADV_QUERIES=1000 \
		$(PYTHON) -m pytest -q $(BENCH_OPTS) \
		benchmarks/bench_figure2_mean_response.py \
		benchmarks/bench_ablation_selection_scheme.py \
		benchmarks/bench_ablation_num_choices.py \
		benchmarks/bench_analysis_models.py::bench_analysis_mean_field_vs_simulation \
		benchmarks/bench_resilience_lb_churn.py \
		benchmarks/bench_flash_crowd.py \
		benchmarks/bench_heterogeneous_fleet.py \
		benchmarks/bench_autoscale.py \
		benchmarks/bench_heavy_tail.py \
		benchmarks/bench_adversarial.py \
		benchmarks/bench_scale.py

# The same Figure-2 smoke sweep, fanned out over 2 worker processes:
# a cheap end-to-end signal that the jobs fan-out still works
# (and still matches the serial results, which the assertions pin).
# Autoscale and adversarial ride along so all three shapes of result
# cross the process boundary: a family container, a default
# ScenarioResult with meta and a natively pickled CapacityTracker, and a
# collapsed comparison.
bench-smoke-parallel:
	REPRO_BENCH_QUERIES=800 REPRO_BENCH_RHO_POINTS=2 REPRO_BENCH_JOBS=2 \
	REPRO_BENCH_TIME_FACTOR=0.2 REPRO_BENCH_ADV_QUERIES=1000 \
		$(PYTHON) -m pytest -q $(BENCH_OPTS) \
		benchmarks/bench_figure2_mean_response.py \
		benchmarks/bench_autoscale.py \
		benchmarks/bench_adversarial.py

# One reduced scale run, its pod cells executed over 2 worker processes
# and again serially; the benchmark asserts the merged results are
# bit-identical (SHA-256 fingerprint), which holds on any core count —
# this is the determinism gate of the pod cells, not a perf measurement —
# and that the coordinator's ru_maxrss grew by no more than
# 96 B per outcome + 5.5 MB over the multi-process run (pods ship columns),
# and the pod workers' by no more than 224 B per outcome + 1 MiB over the
# fork point (outcomes are table rows, finished pods free their testbed).
scale-smoke:
	REPRO_BENCH_SCALE_QUERIES=20000 REPRO_BENCH_SCALE_PARTITIONS=2 \
		$(PYTHON) -m pytest -q $(BENCH_OPTS) \
		benchmarks/bench_scale.py

# The chaos scenario at smoke scale under two seeds, each run serially
# and again over 2 worker processes; the benchmark asserts per-seed
# jobs=1/jobs=2 fingerprints are bit-identical, the two seeds disagree
# (the injectors really draw from the seed), drop counters reconcile,
# and client retransmission recovers >= 99% of the loss cell's queries.
chaos-smoke:
	REPRO_BENCH_CHAOS_QUERIES=600 REPRO_BENCH_CHAOS_JOBS=2 \
		$(PYTHON) -m pytest -q $(BENCH_OPTS) \
		benchmarks/bench_chaos.py

# The telemetry plane end to end: a reduced chaos run with the
# streaming probe attached and the dashboard artifacts written (console
# sparklines plus telemetry.json and dashboard.html under
# telemetry-artifacts/), a dashboard re-render from the saved report,
# then the scenario goldens re-run with every testbed's telemetry on
# (the --telemetry option of tests/conftest.py) — the bit-identity gate
# that an attached probe never moves a result.
telemetry-smoke:
	$(PYTHON) -m repro.cli chaos --servers 4 --queries 600 \
		--mode baseline --mode loss --jobs 2 \
		--telemetry-out telemetry-artifacts
	$(PYTHON) -m repro.cli dashboard telemetry-artifacts/telemetry.json \
		--out telemetry-artifacts/dashboard-rerendered.html \
		--title "chaos telemetry smoke"
	$(PYTHON) -m pytest -q tests/test_scenario_golden.py --telemetry

bench:
	$(PYTHON) -m pytest -q $(BENCH_OPTS) benchmarks

# The repository benchmark at a tenth of its sizes, one repeat: every
# workload's argv through a fresh child process, with the exit,
# accounting and fingerprint checks.  A smoke signal that the benchmark
# still runs on this tree, not a measurement (benchmarks/perf/README.md).
bench-quick:
	$(PYTHON) benchmarks/perf/run.py --quick
