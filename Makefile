GO ?= go

.PHONY: all build test test-race vet bench-module bench bench-smoke bench-gate run sweep figures stream-smoke remote-smoke snapshot-smoke clean

all: vet build test bench-module

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# go vet plus the gofmt gate: any file gofmt would rewrite is listed and
# fails the target. Mirrors CI's test job.
vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# The benchmark's own module (bench/go.mod, which the root ./... does not
# reach), vetted and tested against this tree's packages, so a change to an
# API it compiles against breaks here as it would in CI. Mirrors CI's
# "Benchmark module" step.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Full benchmark pass (allocation counts are the contract: 0 allocs/op on
# every steady-state path).
bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# Quick smoke used by CI: a few iterations of every benchmark, just enough
# to catch regressions in the allocation-free invariant.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 100x -benchmem ./...

# The cycle-engine perf gate, paired with the parent commit: build
# internal/core's test binary from the parent (HEAD~1, from git archive, in
# a temporary directory) and from this tree, then take five pairs of runs
# on this host at its default GOMAXPROCS. Within a pair, the parent and
# the change take turns on each BenchmarkCoreGrid leaf
# (<profile>/<engine>/<mode>), then on BenchmarkSnapshotGrid; the side that
# goes first flips each pair. Turns are this fine because the host's speed
# moves in phases of seconds. Every run's raw output is kept as
# BENCH_core/<side>-<pair>.<part>.txt, and internal/benchgate judges the
# directory: per profile, the median of the per-pair change/parent ratios
# of cycle-weighted ns/cycle must stay within 10% + 8ns over the parent's
# median; on the change's medians, skipping must stay >= 0.95x the
# per-cycle path everywhere and >= 1.6x on mcf, at most 1 allocs/kcycle,
# and a warm snapshot restore >= 1.2x a cold warm-up; both modes of a point
# must report the same cycles/run, and a point missing from any run fails.
# Mirrors CI's bench-gate job.
# Run lengths: Steps per CoreGrid leaf in each clock mode (no-skip Steps
# are single cycles; a million of them spans whole gzip runs, which the
# skip floor is closest on), and ops (grid points) per SnapshotGrid half.
CORE_GRID_SKIP_STEPS = 400000x
CORE_GRID_NOSKIP_STEPS = 1000000x
SNAPSHOT_GRID_OPS = 16x
bench-gate:
	rm -rf BENCH_core && mkdir BENCH_core
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir "$$tmp/parent" && git archive HEAD~1 | tar -x -C "$$tmp/parent" && \
	(cd "$$tmp/parent" && $(GO) test -c -o "$$tmp/parent.test" ./internal/core) && \
	$(GO) test -c -o "$$tmp/change.test" ./internal/core && \
	leaves=$$(for p in gzip gcc mcf twolf; do for e in none nextn fdp clgp; do \
		echo $$p/$$e/skip $$p/$$e/noskip; done; done) && \
	for pair in 1 2 3 4 5; do \
		sides="parent change"; [ $$((pair % 2)) = 1 ] || sides="change parent"; \
		for part in $$leaves snapshot; do \
			sel="^BenchmarkCoreGrid\$$/^$$(echo $$part | sed 's|/|$$/^|g')\$$"; n=$(CORE_GRID_SKIP_STEPS); \
			case $$part in \
			*/noskip) n=$(CORE_GRID_NOSKIP_STEPS) ;; \
			snapshot) sel='^BenchmarkSnapshotGrid$$'; n=$(SNAPSHOT_GRID_OPS) ;; \
			esac; \
			for side in $$sides; do \
				dir="$$PWD/internal/core"; [ $$side = change ] || dir="$$tmp/parent/internal/core"; \
				out="$$PWD/BENCH_core/$$side-$$pair.$$(echo $$part | tr / -).txt"; \
				echo "bench gate: pair $$pair/5, $$side, $$part"; \
				(cd "$$dir" && "$$tmp/$$side.test" -test.run '^$$' -test.bench "$$sel" \
					-test.benchtime $$n -test.timeout 10m > "$$out" 2>&1) || \
					echo "FAIL: exit status $$?" >> "$$out"; \
			done; \
		done; \
	done && \
	$(GO) run ./internal/benchgate BENCH_core

run:
	$(GO) run ./cmd/clgpsim run -profile gcc -insts 200000 -engine clgp -l1 2048 -l0

sweep:
	$(GO) run ./cmd/clgpsim sweep -profile gcc -insts 100000

# Full paper-figure grid (12 profiles, sharded + checkpointed into
# clgp-figures/; re-run with the same target to resume after interruption).
figures:
	$(GO) run ./cmd/clgpsim figures -insts 200000 -dir clgp-figures -resume

# Trace containers end to end: record one and list its chunks, stream it
# back through a bounded window (the summary must be bit-identical to the
# regenerating in-memory path), slice an interval out of it and read the
# slice back, and let -simpoint pick the representative interval itself.
# (No pipes around clgpsim — a simulator failure must fail the recipe.)
# Mirrors CI's streaming job.
stream-smoke:
	rm -rf /tmp/clgp-stream-smoke && mkdir -p /tmp/clgp-stream-smoke
	$(GO) build -o /tmp/clgp-stream-smoke/clgpsim ./cmd/clgpsim
	cd /tmp/clgp-stream-smoke && ./clgpsim trace record -profile gzip -insts 50000 -seed 1 -o tr.clgt && \
		./clgpsim trace info -chunks tr.clgt
	cd /tmp/clgp-stream-smoke && \
		./clgpsim run -profile gzip -insts 50000 -seed 1 -engine clgp -l1 2048 > mem-full.txt && \
		./clgpsim run -tracefile tr.clgt -window 8192 -engine clgp -l1 2048 > str-full.txt && \
		grep -v "wall time" mem-full.txt > mem.txt && \
		grep -v -e "wall time" -e "trace window" str-full.txt > str.txt && \
		diff mem.txt str.txt
	cd /tmp/clgp-stream-smoke && ./clgpsim trace slice -from 10000 -count 20000 -o tr.sp.clgt tr.clgt && \
		./clgpsim trace info tr.sp.clgt
	cd /tmp/clgp-stream-smoke && ./clgpsim trace slice -simpoint -count 10000 -o tr.rep.clgt tr.clgt > simpoint.log && \
		cat simpoint.log && grep -q "simpoint: interval" simpoint.log && \
		./clgpsim trace info tr.rep.clgt
	@echo "stream-smoke: streamed run matches the in-memory run; slices and the simpoint interval read back"

# The multi-host dispatch protocol on one machine: an HTTP object store,
# child workers pointed at the URL (with the sweep's Chrome-trace export),
# ssh workers through a stand-in ssh that runs the remote command here,
# merged figures diffed against the in-process run, the store's and a live
# worker's /metrics, the progress report and a resume read from the store,
# then a warm-state sweep that records every snapshot through the store and
# one that restores them all (no snapshot file is committed again). One
# shell runs everything after the server starts, so its trap always stops
# the server. CI's remote-smoke job runs this target.
remote-smoke:
	rm -rf /tmp/clgp-remote-smoke && mkdir -p /tmp/clgp-remote-smoke
	$(GO) build -o /tmp/clgp-remote-smoke/clgpsim ./cmd/clgpsim
	cd /tmp/clgp-remote-smoke && ./clgpsim figures -insts 20000 -profiles gzip,mcf -dir fig-local
	@echo "remote-smoke: in-process shards write their own span logs, no heartbeats"
	cd /tmp/clgp-remote-smoke && test ! -e fig-local/heartbeats && test -s fig-local/spans/sweep.jsonl && \
		for s in fig-local/shards/*.jsonl; do test -s "fig-local/spans/$$(basename "$$s")" || exit 1; done && \
		[ "$$(ls fig-local/spans | wc -l)" = "$$(( $$(ls fig-local/shards | wc -l) + 1 ))" ]
	cd /tmp/clgp-remote-smoke && set -e; \
	./clgpsim store serve -dir store-root -addr 127.0.0.1:0 -addr-file addr.txt & echo $$! > server.pid; \
	trap 'kill $$(cat server.pid) 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do [ -s addr.txt ] && break; sleep 0.1; done; \
	store="http://$$(cat addr.txt)"; \
	echo "remote-smoke: sweep through the store with child workers, exporting its trace"; \
	./clgpsim figures -insts 20000 -profiles gzip,mcf -store "$$store" -exec -retries 2 \
		-dir fig-remote -trace-out sweep-trace.json; \
	python3 -c "$$CHECK_SWEEP_TRACE" sweep-trace.json; \
	for f in figure1_ipc_vs_l1_90nm figure6_ipc_90nm; do diff "fig-local/$$f.csv" "fig-remote/$$f.csv"; done; \
	echo "remote-smoke: sweep through the store with ssh workers"; \
	mkdir -p fake-ssh && printf '#!/bin/sh\nshift; exec "$$@"\n' > fake-ssh/ssh && chmod +x fake-ssh/ssh; \
	PATH="$$PWD/fake-ssh:$$PATH" ./clgpsim figures -insts 20000 -profiles gzip,mcf \
		-store "$$store" -ssh h1,h2 -ssh-remote "$$PWD/clgpsim" -dir fig-ssh; \
	for f in figure1_ipc_vs_l1_90nm figure6_ipc_90nm cycle_breakdown_90nm; do \
		diff "fig-local/$$f.csv" "fig-ssh/$$f.csv"; done; \
	echo "remote-smoke: the store server's /metrics moved with the sweeps' traffic"; \
	curl -s "$$store/metrics" > store-metrics.txt; \
	grep -E '^clgp_store_server_requests_total\{method="GET"\} [1-9]' store-metrics.txt; \
	grep -E '^clgp_store_server_requests_total\{method="PUT"\} [1-9]' store-metrics.txt; \
	echo "remote-smoke: a worker's /metrics, scraped mid-run, shows live dispatch counters"; \
	./clgpsim worker -store "$$store" -shard 0 -metrics-addr 127.0.0.1:0 -metrics-addr-file waddr.txt & wpid=$$!; \
	for i in $$(seq 1 100); do [ -s waddr.txt ] && break; sleep 0.1; done; \
	ok=0; for i in $$(seq 1 100); do \
		curl -s "http://$$(cat waddr.txt)/metrics" > worker-metrics.txt || true; \
		if grep -Eq '^clgp_dispatch_jobs_done_total [1-9]' worker-metrics.txt; then ok=1; break; fi; \
		sleep 0.1; done; \
	wait $$wpid; [ "$$ok" = 1 ]; \
	grep -E '^clgp_dispatch_progress_writes_total [1-9]' worker-metrics.txt; \
	echo "remote-smoke: the progress report and a resume read every shard from the store"; \
	./clgpsim figures -progress -store "$$store" > progress.txt; cat progress.txt; \
	grep -q "shards: 2 done" progress.txt; \
	./clgpsim figures -insts 20000 -profiles gzip,mcf -store "$$store" -resume -dir fig-resume > resume.log; \
	cat resume.log; grep -q "2/2 shards from checkpoint" resume.log; \
	echo "remote-smoke: warm-state sweeps record every snapshot through the store, then restore them all"; \
	./clgpsim figures -insts 20000 -profiles gzip,mcf -warmup 10000 \
		-store "$$store" -exec -retries 2 -dir fig-warm-cold; \
	test -n "$$(ls store-root/snapshots)"; \
	ls -i store-root/snapshots | sort > snaps-before.txt; \
	./clgpsim figures -insts 20000 -profiles gzip,mcf -warmup 10000 \
		-store "$$store" -exec -retries 2 -dir fig-warm-restored; \
	ls -i store-root/snapshots | sort > snaps-after.txt; \
	diff snaps-before.txt snaps-after.txt; \
	for run in fig-warm-cold fig-warm-restored; do \
		for f in figure1_ipc_vs_l1_90nm figure6_ipc_90nm cycle_breakdown_90nm; do \
			diff "fig-local/$$f.csv" "$$run/$$f.csv"; done; done
	@echo "remote-smoke: object-store sweeps (plain, ssh, warm-state cold and restored) match the in-process run"

# The Chrome-trace check remote-smoke runs on the sweep's -trace-out file
# (argv[1]): complete spans with positive times and ids, and spans on each
# of the two shard lanes.
define CHECK_SWEEP_TRACE
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
spans = [e for e in events if e["ph"] == "X"]
assert spans, "trace has no complete spans"
for e in spans:
    assert e["ts"] > 0 and e["dur"] >= 1, e
    assert e["args"]["id"], e
lanes = {e["tid"]: e["args"]["name"] for e in events
         if e["ph"] == "M" and e["name"] == "thread_name"}
shards = {n for n in lanes.values() if n.startswith("shard-")}
assert len(shards) == 2, f"expected 2 shard lanes, got {sorted(lanes.values())}"
for shard in sorted(shards):
    tid = [t for t, n in lanes.items() if n == shard][0]
    assert any(e["tid"] == tid for e in spans), f"no spans on lane {shard}"
print(f"{len(spans)} spans over lanes {sorted(lanes.values())}")
endef
export CHECK_SWEEP_TRACE

# Warm-state snapshots end to end: a cold figures sweep records warm-state
# artifacts into the store, a second sweep over the same store restores them,
# and the emitted figure CSVs must be byte-identical to a sweep that never
# snapshotted at all; a single run recording, then restoring, its warm state
# through -snapshot-dir must match a plain run (wall time and fast-forward
# telemetry aside). Mirrors CI's snapshot-smoke job.
snapshot-smoke:
	rm -rf /tmp/clgp-snapshot-smoke && mkdir -p /tmp/clgp-snapshot-smoke
	$(GO) build -o /tmp/clgp-snapshot-smoke/clgpsim ./cmd/clgpsim
	cd /tmp/clgp-snapshot-smoke && ./clgpsim figures -insts 20000 -profiles gzip,mcf -dir fig-plain
	cd /tmp/clgp-snapshot-smoke && ./clgpsim figures -insts 20000 -profiles gzip,mcf -warmup 10000 -dir fig-cold
	test -n "$$(ls /tmp/clgp-snapshot-smoke/fig-cold/snapshots)" && ls /tmp/clgp-snapshot-smoke/fig-cold/snapshots
	cd /tmp/clgp-snapshot-smoke && cp -r fig-cold fig-warm && rm -rf fig-warm/shards && \
		./clgpsim figures -insts 20000 -profiles gzip,mcf -warmup 10000 -dir fig-warm -resume
	cd /tmp/clgp-snapshot-smoke && \
		diff fig-plain/figure6_ipc_90nm.csv fig-cold/figure6_ipc_90nm.csv && \
		diff fig-plain/figure6_ipc_90nm.csv fig-warm/figure6_ipc_90nm.csv && \
		diff fig-plain/figure1_ipc_vs_l1_90nm.csv fig-warm/figure1_ipc_vs_l1_90nm.csv && \
		diff fig-plain/cycle_breakdown_90nm.csv fig-cold/cycle_breakdown_90nm.csv && \
		diff fig-plain/cycle_breakdown_90nm.csv fig-warm/cycle_breakdown_90nm.csv
	cd /tmp/clgp-snapshot-smoke && \
		./clgpsim run -profile gzip -insts 50000 -seed 1 -engine clgp -l1 2048 > plain-full.txt && \
		./clgpsim run -profile gzip -insts 50000 -seed 1 -engine clgp -l1 2048 \
			-warmup 25000 -snapshot-dir snapdir > cold-full.txt && \
		./clgpsim run -profile gzip -insts 50000 -seed 1 -engine clgp -l1 2048 \
			-warmup 25000 -snapshot-dir snapdir > warm-full.txt && \
		test -n "$$(ls snapdir)" && \
		for f in plain cold warm; do \
			grep -v -e "wall time" -e "fast-forwarded" $$f-full.txt > $$f.txt || exit 1; done && \
		diff plain.txt cold.txt && \
		diff plain.txt warm.txt
	@echo "snapshot-smoke: cold-recording and warm-restoring sweeps and a single -snapshot-dir run match the plain runs"

clean:
	$(GO) clean ./...
	rm -rf BENCH_core
	rm -rf clgp-figures
