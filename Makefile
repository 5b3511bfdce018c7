# Convenience targets for the repro project.

.PHONY: install test faults chaos bench bench-spice bench-flow bench-light bench-heavy examples lint devlint verify erc ingest all

install:
	pip install -e . --no-build-isolation

# Per-test wall-clock ceiling: applied when pytest-timeout is available
# (installed via the [test] extra in CI); skipped silently otherwise so
# a bare local environment can still run the suite.
TIMEOUT_FLAG := $(shell python -c "import pytest_timeout" 2>/dev/null && echo --timeout=300)

test:
	pytest tests/ -q $(TIMEOUT_FLAG)

# Fault-injection sweep: the runtime tests re-run under every seed in the
# matrix, exercising injected DC/transient/singular/metric failures on
# the stacked sweep engine that production runs (members a fault would
# hit are screened to their serial thunks; the rest still stack).
REPRO_FAULT_SEEDS ?= 0,1,2,3

faults:
	REPRO_FAULT_SEEDS=$(REPRO_FAULT_SEEDS) pytest tests/runtime/ -q $(TIMEOUT_FLAG)

# Chaos drills: torn journal tails, a kill between an evaluation and its
# journal line, and graceful shutdown — under the same deterministic
# seed matrix as `make faults`.  Set REPRO_CHAOS_ARTIFACTS to keep each
# scenario's run dir (journals) for post-mortem; CI uploads it on
# failure.
chaos:
	REPRO_FAULT_SEEDS=$(REPRO_FAULT_SEEDS) pytest tests/runtime/test_chaos.py tests/runtime/test_shutdown.py -q $(TIMEOUT_FLAG)

# Static checks.  ruff/mypy are dev-only tools (installed in CI); when a
# local environment lacks one, that half is skipped rather than failing.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping (pip install ruff)"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro/verify src/repro/geometry src/repro/tech src/repro/ingest; \
	else \
		echo "mypy not installed; skipping (pip install mypy)"; \
	fi

# Determinism-hazard self-lint (stdlib AST walk, no deps): unseeded
# random.* (DEV-RANDOM), wall-clock in cache/journal paths
# (DEV-WALLCLOCK), bare set iteration (DEV-SET-ORDER), per-member
# np.linalg.solve in batch loops (DEV-BATCH-SOLVE), environment
# reads (DEV-ENV) and fault-injector gates outside the documented
# hooks (DEV-FAULT).
devlint:
	python tools/devlint.py src/repro tools

verify:
	python -m repro verify all

# Raw-SPICE ingestion over the example corpus: recognize primitives,
# emit constraints, write byte-deterministic JSON reports.  Fails on
# unwaived TOPO/ERC/CONST errors in any corpus netlist.
INGEST_OUT ?= out/ingest

ingest:
	@mkdir -p $(INGEST_OUT)
	@for f in examples/netlists/*.sp; do \
		name=$$(basename $$f .sp); \
		python -m repro ingest $$f --format json > $(INGEST_OUT)/$$name.json || exit 1; \
		echo "$$f -> $(INGEST_OUT)/$$name.json"; \
	done

# Full circuit lint over the library (ERC + DRC + connectivity +
# constraints), machine-readable.  Fails on unwaived errors; the JSON
# report is written for CI artifact upload.
ERC_REPORT ?= erc-report.json

erc:
	python -m repro verify all --format json > $(ERC_REPORT)
	@python -c "import json; rs = json.load(open('$(ERC_REPORT)')); \
	print(f'{len(rs)} reports -> $(ERC_REPORT)')"

# SPICE-kernel benchmark: fixed-dense (seed-equivalent) vs fixed-sparse
# on the OTA / StrongARM / VCO testbenches, asserting metric agreement
# and the >=2x sparse-over-dense VCO transient speedup.
BENCH_SPICE_OUT ?= BENCH_spice.json
BENCH_SPICE_FLAGS ?=

bench-spice:
	python benchmarks/bench_spice.py --out $(BENCH_SPICE_OUT) $(BENCH_SPICE_FLAGS)

# Flow benchmark smoke: tiny versions of the four flowbench workloads
# (library sweep, csamp/OTA/StrongARM flows, VCO flow, warm library),
# end to end.  Fails on any correctness check; the record is written to
# $(BENCH_FLOW_OUT) for CI to upload.
BENCH_FLOW_OUT ?= out/BENCH_flow.json

bench-flow:
	python3 -m benchmarks.flowbench --smoke --out $(BENCH_FLOW_OUT)

bench: bench-spice
	pytest benchmarks/ --benchmark-only -s

bench-light:
	pytest benchmarks/test_fig2_table1_csamp.py \
	       benchmarks/test_fig3_metric_correspondence.py \
	       benchmarks/test_fig5_variants.py \
	       benchmarks/test_table3_dp_selection.py \
	       benchmarks/test_table4_port_opt.py \
	       benchmarks/test_table5_simcount.py \
	       benchmarks/test_ablations.py \
	       benchmarks/test_library_survey.py \
	       --benchmark-only -s

bench-heavy:
	pytest benchmarks/test_table6_ota_strongarm.py \
	       benchmarks/test_table7_vco.py \
	       benchmarks/test_table8_runtime.py \
	       benchmarks/test_fig6_reconciliation.py \
	       --benchmark-only -s

examples:
	python examples/quickstart.py
	python examples/render_layouts.py --outdir out
	python examples/annotate_and_montecarlo.py
	python examples/ota_flow.py
	python examples/strongarm_comparator.py
	python examples/vco_tuning_curve.py

all: install test bench
