PYTHON ?= python

.PHONY: install test lint flow effects costs batch oracles race faults bench calls experiments sweep examples all clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# simlint, simrace, simflow, simeffect, simcost and simbatch are in-tree
# and always run, in one process: the umbrella with its stale-suppression
# audit plus the SC007 and SB007 audits share one parse and one Program.
# ruff runs when installed (CI installs it via the dev extras, bare
# environments may not).
lint:
	$(PYTHON) -m repro.analysis "analyze --check-suppressions src/" \
		"simcost --check-config src/" "simbatch --check-opportunities src/"
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src/ tests/ benchmarks/ examples/; \
	else \
		echo "ruff not installed; skipping (pip install -e '.[dev]')"; \
	fi

# Address-space & unit flow analysis alone (also part of `make lint`).
flow:
	$(PYTHON) -m repro.analysis.simflow src/

# The three committed oracles, written by one process over one Program:
# EFFECTS.json (interprocedural effects + kernel eligibility), COSTS.json
# (static latency accounting + counter conservation) and BATCH.json (loop
# dependence + batching safety, the reorder oracle for the engine).
# `make effects`, `make costs` and `make batch` each regenerate all three.
effects costs batch: oracles
	@:

oracles:
	$(PYTHON) -m repro.analysis "simeffect --report EFFECTS.json src/repro" \
		"simcost --report COSTS.json src/repro" \
		"simbatch --report BATCH.json src/repro"

# Dynamic half of simrace: perturb DES schedules on the tiny OLTP config
# and fail on any undocumented schedule-dependent stat.
race:
	$(PYTHON) -m repro race --seeds 5

# Deterministic cross-layer fault-injection campaign (simfault), CI scale.
faults:
	$(PYTHON) -m repro faults --smoke

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Interpretive work per op (cProfile calls) on each benchmark workload: a
# change's call count without the full benchmark output.  `make calls
# SEED=9001` measures the held-out seed.
SEED ?= 1

calls:
	@for workload in gups pagerank ycsb tpcb; do \
		out=$$($(PYTHON) perfbench/run.py --workload $$workload --seed $(SEED) --seconds 1) \
			|| { echo "$$out"; exit 1; }; \
		printf '%-9s ' $$workload; \
		echo "$$out" | grep '^host_calls_per_op'; \
	done

experiments:
	$(PYTHON) -m repro all

# Parallel, cached regeneration of EXPERIMENTS.md plus the perf artifact.
sweep:
	$(PYTHON) -m repro sweep --json BENCH_sweep.json

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

all: lint test bench experiments

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
