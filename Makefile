# Convenience targets for development.

PYTHON ?= python
WORKERS ?= 4
CACHE ?= .repro-cache

.PHONY: install test bench bench-full bench-e2e bench-compare scale-bench coverage tables tables-parallel sweeps-fast figures report db-report serve calibrate clean lint lint-sarif lint-waivers test-sanitized typecheck

PORT ?= 8765

DB ?= experiments.sqlite

install:
	$(PYTHON) -m pip install -e .[test]

# Domain invariants (determinism, digest hygiene, RNG discipline,
# numeric safety); pure stdlib -- see docs/static-analysis.md.
lint:
	$(PYTHON) -m repro lint src/repro

# The same run as a SARIF 2.1.0 log (what CI uploads as an artifact).
lint-sarif:
	$(PYTHON) -m repro lint src/repro --format sarif > lint.sarif

# Inventory of active `repro: lint-ok` waivers and their expiry dates.
lint-waivers:
	$(PYTHON) -m repro lint src/repro --list-waivers

# The simulation suite with the runtime sanitizer armed (every cycle
# invariant-checked; see docs/static-analysis.md, "Runtime sanitizer").
test-sanitized:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest tests/simulation -q

# Strict typing gate (requires mypy; pinned and enforced in CI).
typecheck:
	$(PYTHON) -m mypy src/repro

test:
	$(PYTHON) -m pytest tests/

test-fast:
	REPRO_SIM_CYCLES=3000 $(PYTHON) -m pytest tests/ -x -q

bench:
	REPRO_BENCH_CYCLES=5000 $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_BENCH_CYCLES=30000 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# The repository benchmark (bench/README.md): all six workloads, seeds
# 1-10, one result file per run in $(OUT) (about 20 s per run).
OUT ?= bench-results
BENCH_WORKLOADS = tables sweep-vectorized stream service-cold service-warm service-dedup
bench-e2e:
	mkdir -p $(OUT)
	for w in $(BENCH_WORKLOADS); do \
		for s in 1 2 3 4 5 6 7 8 9 10; do \
			$(PYTHON) bench/run.py --workload $$w --seed $$s --seconds 12 \
				--out $(OUT)/$$w-$$s-t0.json || exit 1; \
		done; \
	done

# Medians, quartiles, pair wins and verdicts of two result sets:
# `make bench-compare A=parent-results B=change-results`.
bench-compare:
	$(PYTHON) bench/compare.py $(A) $(B)

# The million-replica scale benchmark alone: peak-RSS bound at R=1e5
# plus the sharded >= 2x speedup (CPU-gated); emits BENCH_scale.json
# (see docs/scaling.md).
scale-bench:
	REPRO_BENCH_CYCLES=3000 $(PYTHON) -m pytest benchmarks/test_perf_scale.py --benchmark-only

tables:
	for t in I II III IV V VI VII VIII IX X XI XII; do \
		$(PYTHON) -m repro table $$t; echo; \
	done

# All twelve tables through the repro.exec process pool + result cache
# (bit-identical to `make tables`; repeats are served from $(CACHE)).
tables-parallel:
	for t in I II III IV V VI VII VIII IX X XI XII; do \
		$(PYTHON) -m repro table $$t --workers $(WORKERS) --cache $(CACHE); echo; \
	done

# The load sweep with scenario stacking: every load point rides one
# fused engine run (see docs/execution.md, "Parameter stacking").
sweeps-fast:
	$(PYTHON) -m repro sweep load --cycles 8000 --vectorize-replicas

figures:
	for f in 3 4 5 6 7 8; do \
		for s in 3 6 9 12; do \
			$(PYTHON) -m repro figure $$f --stages $$s; echo; \
		done; \
	done

report:
	$(PYTHON) -m repro report --cycles 20000 > EXPERIMENTS.md

# Ledger-backed reports: run the smoke batch into $(DB), evaluate the
# paper's machine-checkable targets, and render both markdown reports
# (see docs/experiments-db.md).
db-report:
	$(PYTHON) -m repro batch --cycles 2000 --no-cache --db $(DB)
	$(PYTHON) -m repro db --path $(DB) expectations --report SCORECARD.md
	$(PYTHON) -m repro db --path $(DB) perf --report PERF_TRAJECTORY.md

# The simulation service: HTTP submissions, SSE progress, digest-keyed
# dedup onto $(CACHE) (see docs/api-service.md).  Ctrl-C to stop;
# `python -m repro submit --wait` talks to it.
serve:
	$(PYTHON) -m repro serve --port $(PORT) --cache $(CACHE)

calibrate:
	$(PYTHON) -m repro calibrate

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache build dist *.egg-info src/*.egg-info
