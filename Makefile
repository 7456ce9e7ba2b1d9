# Convenience targets; everything below is plain dune + the built
# binaries, so `dune build` / `dune runtest` directly work too.

.PHONY: all build test lint lint-deep verify-lint verify verify-supervised verify-obs verify-diagnostics verify-serve verify-overload verify-fleet verify-prof demo supervised-demo bench bench-obs bench-ess clean

all: build

build:
	dune build

test:
	dune runtest

# Static analysis: parse every .ml/.mli under lib/ and bin/ with the
# compiler's own parser and enforce the determinism, domain-safety and
# exception-hygiene rules in DESIGN.md section 10. Non-zero exit on
# any finding that is neither suppressed in-source nor baselined.
lint: build
	dune exec qnet_lint -- --root .

# Cross-module concurrency analysis on top of the shallow rules:
# whole-program race (C001/C003), lock-order-cycle (C002), blocking-
# under-mutex (C004) and torn-RMW (C005) checking, plus the S002
# audit of racy-ok suppressions. Prints the index stats line.
lint-deep: build
	dune exec qnet_lint -- --root . --deep --stats

verify-lint: lint lint-deep
	@echo "verify-lint: OK"

# Full verification: build, the whole test suite, then an end-to-end
# fault-injection demo — simulate a tandem network, corrupt its trace
# with every fault mode (duplicates, truncated lines, NaN fields,
# clock skew, reversed intervals, reordering), run checkpointed
# inference in lenient mode over the survivors, and resume from the
# written checkpoint.
verify: build lint lint-deep test demo supervised-demo verify-diagnostics verify-serve verify-overload verify-fleet verify-prof
	@echo "verify: OK"

# Supervised-runtime verification: the test suite plus a live
# multi-chain run under injected chain faults (one stalled, one
# crashed); the run must still converge to a quorum verdict.
verify-supervised: build test supervised-demo
	@echo "verify-supervised: OK"

demo:
	rm -rf _demo
	mkdir -p _demo
	dune exec bin/qnet_sim.exe -- -t tandem --lambda 10 --mu 14 -n 300 --seed 5 -o _demo/trace.csv
	dune exec bin/qnet_trace_tool.exe -- corrupt _demo/trace.csv --seed 7 -o _demo/corrupted.csv
	dune exec bin/qnet_infer.exe -- _demo/corrupted.csv -q 3 -f 0.3 --lenient \
	  --iterations 40 --checkpoint-every 10 --checkpoint _demo/demo.ckpt
	dune exec bin/qnet_infer.exe -- _demo/corrupted.csv -q 3 -f 0.3 --lenient \
	  --iterations 40 --resume _demo/demo.ckpt
	printf 'task,state,queue,arrival,departure\n' > _demo/header_only.csv
	printf 'task,state,queue,arrival,departure\n0,0,0,0,1\n0,1,1,1,2\n1,0,1,0,1.5\n1,1,2,1.5,3\n' \
	  > _demo/two_entries.csv
	printf 'task,state,queue,arrival,departure\n0,0,0,0,1\n0,1,1,1,2\n0,2,0,2,3\n' > _demo/revisit.csv
	for args in "_demo/header_only.csv" "_demo/two_entries.csv" "_demo/revisit.csv" \
	    "_demo/trace.csv -f 1.5"; do \
	  if dune exec bin/qnet_infer.exe -- $$args -q 3 > /dev/null 2> _demo/error.txt; then \
	    echo "demo: FAIL (qnet_infer accepted $$args)"; exit 1; \
	  else rc=$$?; fi; \
	  [ $$rc -eq 1 ] && [ $$(wc -l < _demo/error.txt) -eq 1 ] \
	    && grep -q '^qnet-infer: error: ' _demo/error.txt \
	    || { echo "demo: FAIL ($$args: exit $$rc, stderr:)"; cat _demo/error.txt; exit 1; }; \
	done
	@echo "demo: unusable inputs exit 1 with one error line"

# Kill-one-chain drill: four supervised chains, chain 1 stalled past
# the watchdog deadline and chain 2 crashed mid-sweep. The supervisor
# must detect both, restart them from their last good checkpoints, and
# still pool a quorum estimate.
supervised-demo:
	rm -rf _demo_supervised
	mkdir -p _demo_supervised
	dune exec bin/qnet_sim.exe -- -t tandem --lambda 10 --mu 14 -n 300 --seed 5 -o _demo_supervised/trace.csv
	dune exec bin/qnet_infer.exe -- _demo_supervised/trace.csv -q 3 -f 0.4 \
	  --iterations 80 --chains 4 --min-chains 2 --sweep-deadline-ms 200 \
	  --chain-fault 1:stall=0.5@5 --chain-fault 2:crash@8 \
	  | tee _demo_supervised/report.txt
	grep -q "status: quorum" _demo_supervised/report.txt
	@echo "supervised-demo: quorum reached under injected stall+crash"

# Observability verification: an instrumented supervised run with an
# injected stall, scraped live over HTTP while it executes. Checks
# that (1) the final metrics snapshot carries the sampler, supervisor
# and watchdog families with nonzero restart/stall counters, (2) a
# mid-run curl of /metrics succeeds, and (3) summarize-trace accounts
# for >=90% of the run's wall time.
verify-obs: build test
	rm -rf _demo_obs
	mkdir -p _demo_obs
	dune exec bin/qnet_sim.exe -- -t tandem --lambda 10 --mu 14 -n 300 --seed 5 -o _demo_obs/trace.csv
	dune exec bin/qnet_infer.exe -- _demo_obs/trace.csv -q 3 -f 0.4 \
	  --iterations 60 --chains 4 --min-chains 2 --sweep-deadline-ms 200 \
	  --chain-fault 1:stall=0.5@5 \
	  --metrics-out _demo_obs/metrics.prom --trace-out _demo_obs/spans.jsonl \
	  --log-level info --serve-metrics 0 --serve-metrics-linger 6 \
	  > _demo_obs/report.txt 2> _demo_obs/stderr.log & \
	INFER_PID=$$!; \
	PORT=; for i in $$(seq 1 100); do \
	  PORT=$$(sed -n 's|.*http://127\.0\.0\.1:\([0-9]*\)/metrics.*|\1|p' _demo_obs/stderr.log 2>/dev/null | head -1); \
	  [ -n "$$PORT" ] && break; sleep 0.1; \
	done; \
	[ -n "$$PORT" ] || { echo "verify-obs: FAIL (metrics endpoint never announced)"; kill $$INFER_PID 2>/dev/null; exit 1; }; \
	SCRAPED=; for i in $$(seq 1 100); do \
	  if curl -sf "http://127.0.0.1:$$PORT/metrics" -o _demo_obs/live_scrape.prom; then SCRAPED=1; break; fi; \
	  sleep 0.1; \
	done; \
	curl -sf "http://127.0.0.1:$$PORT/healthz" > _demo_obs/healthz.txt || true; \
	wait $$INFER_PID; \
	[ -n "$$SCRAPED" ] || { echo "verify-obs: FAIL (could not scrape /metrics)"; exit 1; }
	grep -q '^qnet_' _demo_obs/live_scrape.prom
	grep -q '# TYPE qnet_gibbs_sweep_seconds histogram' _demo_obs/metrics.prom
	grep -q '# TYPE qnet_supervisor_checkpoint_seconds histogram' _demo_obs/metrics.prom
	grep -q '# TYPE qnet_supervisor_quarantines_total counter' _demo_obs/metrics.prom
	grep -q 'qnet_chain_heartbeat_age_seconds{chain="1"}' _demo_obs/metrics.prom
	grep -Eq '^qnet_supervisor_restarts_total [1-9]' _demo_obs/metrics.prom
	grep -Eq '^qnet_supervisor_watchdog_stalls_total [1-9]' _demo_obs/metrics.prom
	dune exec bin/qnet_trace_tool.exe -- summarize-trace _demo_obs/spans.jsonl \
	  | tee _demo_obs/trace_summary.txt
	grep -Eq 'root coverage (9[0-9]|100)' _demo_obs/trace_summary.txt
	@echo "verify-obs: live scrape, metric families and trace coverage all check out"

# Convergence-diagnostics verification: a short live 2-chain run,
# /diagnostics.json curled mid-run, and the snapshot checked for a
# present, finite split-Rhat plus the per-queue posterior summaries
# and GC gauges. Also exercises /dashboard and the flamegraph export.
verify-diagnostics: build
	rm -rf _demo_diag
	mkdir -p _demo_diag
	dune exec bin/qnet_sim.exe -- -t tandem --lambda 10 --mu 14 -n 300 --seed 5 -o _demo_diag/trace.csv
	dune exec bin/qnet_infer.exe -- _demo_diag/trace.csv -q 3 -f 0.4 \
	  --iterations 60 --chains 2 --min-chains 1 --sweep-deadline-ms 2000 \
	  --diagnostics-out _demo_diag/diag.jsonl --trace-out _demo_diag/spans.jsonl \
	  --serve-metrics 0 --serve-metrics-linger 6 \
	  > _demo_diag/report.txt 2> _demo_diag/stderr.log & \
	INFER_PID=$$!; \
	PORT=; for i in $$(seq 1 100); do \
	  PORT=$$(sed -n 's|.*http://127\.0\.0\.1:\([0-9]*\)/metrics.*|\1|p' _demo_diag/stderr.log 2>/dev/null | head -1); \
	  [ -n "$$PORT" ] && break; sleep 0.1; \
	done; \
	[ -n "$$PORT" ] || { echo "verify-diagnostics: FAIL (metrics endpoint never announced)"; kill $$INFER_PID 2>/dev/null; exit 1; }; \
	GOT=; for i in $$(seq 1 100); do \
	  if curl -sf "http://127.0.0.1:$$PORT/diagnostics.json" -o _demo_diag/diag.json \
	     && grep -q '"rhat":[0-9]' _demo_diag/diag.json; then GOT=1; break; fi; \
	  sleep 0.1; \
	done; \
	[ -n "$$GOT" ] || { echo "verify-diagnostics: FAIL (R-hat never became numeric)"; kill $$INFER_PID 2>/dev/null; }; \
	curl -sf "http://127.0.0.1:$$PORT/dashboard" -o _demo_diag/dashboard.html || true; \
	wait $$INFER_PID; \
	[ -n "$$GOT" ] || exit 1
	grep -q '"rhat":[0-9]' _demo_diag/diag.json
	grep -q '"max_rhat":[0-9]' _demo_diag/diag.json
	grep -q '"ess_per_sec":' _demo_diag/diag.json
	grep -q '"mean_service":[0-9]' _demo_diag/diag.json
	grep -q '"wait_fraction":' _demo_diag/diag.json
	grep -q '"minor_words":[0-9]' _demo_diag/diag.json
	grep -q '<title>qnet inference dashboard</title>' _demo_diag/dashboard.html
	tail -1 _demo_diag/diag.jsonl | grep -q '"max_rhat":[0-9]'
	dune exec bin/qnet_trace_tool.exe -- flamegraph _demo_diag/spans.jsonl -o _demo_diag/qnet.folded
	grep -Eq '^[A-Za-z_.;:()-]+ [0-9]+$$' _demo_diag/qnet.folded
	@echo "verify-diagnostics: live R-hat, posterior summaries, GC gauges, dashboard and flamegraph all check out"

# Serving-layer chaos soak: a 2-shard qnet_serve daemon under injected
# ingest-stall, shard-crash and checkpoint-write faults, loaded by the
# qnet_replay client with poison lines woven into the stream. Asserts
# full recovery, exact dead-letter accounting, no-500 posterior
# serving, and checkpoint resume with monotone iteration counters
# across a kill+restart. Details in scripts/verify_serve.
verify-serve: build
	scripts/verify_serve base

# Overload + corruption chaos soak (DESIGN.md section 13): throttle
# both shards' drain with the overload fault and offer ~10x the
# sustainable load — the AIMD admission sampler must converge, the
# degradation ladder must demote with an explicit reason and
# re-promote once the burst ends, and the client must see zero 5xx.
# Then tear and bit-flip the durable event log mid-stream and assert
# exact quarantine accounting plus a stable, monotone resume.
# VERIFY_SOAK=1 lengthens the overload burst for a longer soak.
verify-overload: build
	scripts/verify_serve overload

# Fleet observability soak: a traced 2-shard daemon under a short
# replay; /fleet.json must show per-tenant p50/p95/p99 and a
# queue-wait/refit/serve bottleneck ranking, /fleet must serve the
# panel, and the shutdown span log must summarize with serve phases
# and exact drop accounting. Details in scripts/verify_fleet.
verify-fleet: build
	scripts/verify_fleet

# Profiler verification (DESIGN.md section 15): a profiled short run
# must produce a non-empty allocation site table, one minor pause per
# minor collection and a diffable folded export, and must finish even
# when the ring directory is unusable; an unprofiled run must publish
# zero qnet_prof_* series and start no event rings (the off-by-default
# guard). Details in scripts/verify_prof.
verify-prof: build
	scripts/verify_prof

# Core-throughput regression gate: time the hot paths directly, each
# next to a host reference in the same process, and compare the
# speed relative to that reference against the committed
# BENCH_core.json baseline; fails on a drop past the measured noise
# (scripts/bench_compare) or an allocation budget. Refresh the
# baseline with:
#   dune exec bench/main.exe -- --core-json BENCH_core.json
bench: build
	dune exec bench/main.exe -- --core-json _bench_core_current.json
	scripts/bench_compare BENCH_core.json _bench_core_current.json

# Telemetry overhead gate: time sweeps with metrics, with tracing and
# with profiling, each against a disabled run next to it, and fail
# when a median overhead exceeds its budget (absolute budgets, not
# baseline diffs; scripts/bench_compare). Refresh the committed
# numbers with:
#   dune exec bench/obs_overhead.exe
bench-obs:
	dune exec bench/obs_overhead.exe -- _bench_obs_current.json
	scripts/bench_compare --obs _bench_obs_current.json

# Effective samples per second of the Gibbs sweep in index order and
# shuffled, at 10k and 100k events over 5 seeds (bench/ess.ml). Prints
# a table and gates nothing; the 1m row is
#   dune exec bench/ess.exe -- --sizes 1m
bench-ess: build
	dune exec bench/ess.exe

clean:
	dune clean
	rm -rf _demo _demo_supervised _demo_obs _demo_diag _demo_serve _demo_fleet _demo_prof _bench_core_current.json _bench_obs_current.json
