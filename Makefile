# Convenience targets for the repro repository.

PYTHON ?= python
JOBS ?= 4

.PHONY: install test lint lint-graph chaos bench obs-bench perf-bench service-smoke service-chaos experiments experiments-quick quick results archive clean

install:
	pip install -e .[test]

test:
	$(PYTHON) -m pytest tests/

# Static analysis: the self-hosted determinism linter is the hard gate;
# ruff/mypy run when installed (CI installs them) and are skipped
# gracefully on machines that only have the runtime deps.  Runs are
# incremental (results/lint-cache/): a warm unchanged tree re-lints in
# hash time.  Use `python -m repro.lint --no-incremental` to force a
# full pass.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.lint src tests
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests; \
	else echo "ruff not installed -- skipping"; fi
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		PYTHONPATH=src $(PYTHON) -m mypy src/repro/lint; \
	else echo "mypy not installed -- skipping"; fi

# The whole-program call graph the interprocedural rules (REP008-REP012)
# ran over, as JSON — the debugging artifact for "why did/didn't this
# finding fire"; archived by the CI lint job.
lint-graph:
	PYTHONPATH=src $(PYTHON) -m repro.lint src tests --dump-graph results/lint-graph.json

# End-to-end service check: boots the HTTP API on an ephemeral port,
# drives upload -> poll -> JSON/SVG result over urllib, and proves the
# identical resubmission was a cache hit via the /metrics counters.
# Nonzero on the first broken invariant; state is kept for artifacts.
service-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.service.smoke --state-dir results/service-smoke

# Kill-and-recover drill: boots the real server under --chaos, SIGKILLs
# it mid-job, tears the journal and trace tails, reboots on the same
# state dir and gates on full recovery — zero lost terminal states, a
# decodable boot-2 trace header, the interrupted job finishing, and no
# duplicate computes (see docs/SERVICE.md, "Resilience").  State is
# kept for artifacts.
service-chaos:
	PYTHONPATH=src $(PYTHON) -m repro.service.drill --state-dir results/service-chaos

# Failure drills: fault injection, kill-and-resume, cache contention,
# the supervised attempt under --jobs N and the service (kill, reap,
# parent-death tether), and the crash-safe append log (torn-tail
# repair, tolerant replay) under the run journal, job store and trace.
# pytest-timeout (when installed) backstops a hang in the drills
# themselves; the suite passes without it.
CHAOS_TESTS = tests/runtime/test_chaos.py tests/runtime/test_journal.py \
	tests/runtime/test_cache_hardening.py tests/experiments/test_resume.py \
	tests/util/test_appendlog.py tests/runtime/test_supervise.py

chaos:
	@if $(PYTHON) -c "import pytest_timeout" 2>/dev/null; then \
		PYTHONPATH=src $(PYTHON) -m pytest -q --timeout 300 $(CHAOS_TESTS); \
	else \
		PYTHONPATH=src $(PYTHON) -m pytest -q $(CHAOS_TESTS); \
	fi

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Trace-overhead budget: bounds streaming-observability cost on the
# quick suite (< 5%) and records the numbers in BENCH_obs.json.
obs-bench:
	PYTHONPATH=src $(PYTHON) benchmarks/obs_overhead.py

# Kernel speedup gate: times the vectorized kernels against their
# *_reference implementations, writes BENCH_perf.json, and fails when
# any gated floor is missed (>=5x SWF ingest, >=3x SMACOF, >=10x Lublin
# generation, >=3x bootstrap stability, >=2x FCFS simulation).
perf-bench:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_kernels.py

experiments:
	$(PYTHON) -m repro.experiments --jobs $(JOBS) --out results --report results/SCORECARD.md

# Parallel quick run with scorecard; exits nonzero on claim misses or
# experiment failures (the CI gate).
experiments-quick:
	$(PYTHON) -m repro.experiments --quick --jobs $(JOBS) --out results/quick \
		--report results/SCORECARD-quick.md --trace results/trace-quick.jsonl

quick:
	$(PYTHON) -m repro.experiments --quick --jobs $(JOBS)

# Materialize the synthesized workloads archive as .swf.gz files.
archive:
	$(PYTHON) -c "from repro.archive import export_archive; export_archive('archive_swf', include_sublogs=True)"

clean:
	rm -rf results archive_swf .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
