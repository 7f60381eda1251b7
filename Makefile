# Convenience targets for the MediaWorm reproduction.

PYTHON ?= python

.PHONY: install test lint loc coverage bench bench-default perf perf-test repro all-smoke faults-smoke failover-smoke disaster-smoke trace-smoke chaos-smoke scale-smoke scale examples clean

# conservative floor just under the suite's measured line coverage of
# src/repro; ratchet upward as coverage grows, never downward
COV_MIN ?= 75

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:             ## tier-1, with its 25 slowest tests in the log (as the CI job)
	$(PYTHON) -m pytest tests/ --durations=25

lint:             ## ruff check (lint + import sort) over src and tests
	@command -v ruff >/dev/null 2>&1 \
		|| { echo "ruff not installed (pip install -e .[dev]); skipping"; exit 0; } \
		&& ruff check src tests benchmarks examples

loc:              ## tracked python lines per src/repro package ("net lines removed")
	@git ls-files 'src/repro/*.py' | xargs wc -l \
		| awk '$$2 != "total" { n = split($$2, p, "/"); \
			pkg = (n > 3) ? p[3] : "(top level)"; \
			lines[pkg] += $$1; total += $$1 } \
		END { for (pkg in lines) \
				printf "%7d  %s\n", lines[pkg], pkg | "sort -k2"; \
			close("sort -k2"); printf "%7d  total\n", total }'

coverage:         ## tier-1 suite under the line-coverage gate
	@$(PYTHON) -c "import pytest_cov" 2>/dev/null \
		|| { echo "pytest-cov not installed (pip install -e .[dev]); skipping"; exit 0; } \
		&& $(PYTHON) -m pytest tests/ --cov=repro \
			--cov-report=term-missing:skip-covered \
			--cov-fail-under=$(COV_MIN)

bench:            ## quick-profile benchmarks (shape checks)
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-default:    ## the EXPERIMENTS.md setting (slow)
	REPRO_BENCH_PROFILE=default $(PYTHON) -m pytest benchmarks/ --benchmark-only

perf:             ## the repo benchmark (BENCHMARK.json): 4 workloads, end to end
	python3 benchmarks/perf/run.py

perf-test:        ## the benchmark harness's own tests
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/perf -q

repro:            ## regenerate every figure/table at the default profile
	$(PYTHON) -m repro.experiments.cli all --profile default

all-smoke:        ## every figure + table as one 2-worker sweep, CI-sized, with its wall time and simulation count
	$(PYTHON) -m repro.experiments.cli all --profile smoke --jobs 2 --fresh \
		--checkpoint mediaworm-all-smoke.checkpoint.json > ALL_smoke.txt
	@grep "completed in" ALL_smoke.txt

faults-smoke:     ## 2-point fault campaign (VC + FIFO at 0.5% loss), CI-sized
	$(PYTHON) -m repro.experiments.cli faults --profile quick \
		--rates 0.005 --fresh \
		--checkpoint mediaworm-faults-smoke.checkpoint.json \
		--json FAULTS_smoke.json

failover-smoke:   ## adaptive vs static with 2 permanent failures, CI-sized
	$(PYTHON) -m repro.experiments.cli failover --profile quick \
		--severities 0,2 --fresh \
		--checkpoint mediaworm-failover-smoke.checkpoint.json \
		--json FAILOVER_smoke.json

disaster-smoke:   ## switch-kill failover on the k=8 fat tree + butterfly
	$(PYTHON) -m repro.experiments.cli disaster --profile smoke \
		--severities none,link,switch --jobs 2 --fresh \
		--checkpoint mediaworm-disaster-smoke.checkpoint.json \
		--json DISASTER_smoke.json

trace-smoke:      ## traced run (invariants on) + JSONL schema validation
	$(PYTHON) -m repro.experiments.cli trace --preset smoke \
		--trace-out mediaworm-trace-smoke.jsonl
	$(PYTHON) -m repro.obs mediaworm-trace-smoke.jsonl --digest

chaos-smoke:      ## seeded 25-scenario chaos campaign + sabotage selftest
	$(PYTHON) -m repro.experiments.cli chaos --profile smoke \
		--count 25 --seed 7 --jobs 2 --fresh \
		--corpus chaos-smoke-corpus \
		--checkpoint mediaworm-chaos-smoke.checkpoint.json \
		--json CHAOS_smoke.json
	$(PYTHON) -m repro.experiments.cli chaos --selftest credit \
		--corpus chaos-selftest-corpus
	$(PYTHON) -m repro.experiments.cli chaos \
		--replay chaos-selftest-corpus/sabotage-credit.json

scale-smoke:      ## quick scale points: one digest + VC census on both loops, finite d
	$(PYTHON) -m repro.experiments.cli scale --profile smoke --jobs 2 --fresh \
		--json SCALE_smoke.json > SCALE_smoke.txt; status=$$?; cat SCALE_smoke.txt; exit $$status

scale:            ## full scale campaign incl. the 1024-host fat tree (serial: comparable timings)
	$(PYTHON) -m repro.experiments.cli scale --json SCALE_campaign.json

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/scheduler_shootout.py
	$(PYTHON) examples/video_server_admission.py
	$(PYTHON) examples/cluster_fat_mesh.py
	$(PYTHON) examples/pcs_vs_mediaworm.py
	$(PYTHON) examples/gop_trace_study.py

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
