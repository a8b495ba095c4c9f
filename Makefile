GO ?= go

.PHONY: all build test test-race vet bench bench-smoke bench-gate run sweep figures stream-smoke remote-smoke snapshot-smoke clean

all: vet build test

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

# Full benchmark pass (allocation counts are the contract: 0 allocs/op on
# every steady-state path).
bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# Quick smoke used by CI: a few iterations of every benchmark, just enough
# to catch regressions in the allocation-free invariant.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 100x -benchmem ./...

# The cycle-engine perf gate, paired with the parent commit: build the parent
# (HEAD~1, from git archive) in a temporary directory, then run five
# alternating pairs of bench child runs, parent and this tree, on this host.
# Per profile, the median of the per-pair change/parent ratios of
# cycle-weighted ns/cycle must stay within 10% + 8ns over the parent's
# median; per grid point, the within-run floors
# (skipping >= 0.95x the per-cycle path everywhere and >= 1.6x on mcf,
# grid_snapshot restore >= 1.2x cold warm-up, <= 1 alloc per 1000 cycles)
# must hold on the change's median. Each child's measurement is kept as
# BENCH_core.<side>-<round>.json. Mirrors CI's bench-gate job.
bench-gate:
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	git archive HEAD~1 | tar -x -C "$$tmp" && \
	(cd "$$tmp" && $(GO) build -o clgpsim ./cmd/clgpsim) && \
	$(GO) run ./cmd/clgpsim bench -gate "$$tmp/clgpsim"

run:
	$(GO) run ./cmd/clgpsim run -profile gcc -insts 200000 -engine clgp -l1 2048 -l0

sweep:
	$(GO) run ./cmd/clgpsim sweep -profile gcc -insts 100000

# Full paper-figure grid (12 profiles, sharded + checkpointed into
# clgp-figures/; re-run with the same target to resume after interruption).
figures:
	$(GO) run ./cmd/clgpsim figures -insts 200000 -dir clgp-figures -resume

# Record a trace container and stream it back through a bounded window:
# the summary must be bit-identical to the regenerating in-memory path.
# (No pipes around clgpsim — a simulator failure must fail the recipe.)
stream-smoke:
	$(GO) run ./cmd/clgpsim trace record -profile gzip -insts 50000 -seed 1 -o /tmp/clgp-smoke.clgt
	$(GO) run ./cmd/clgpsim run -profile gzip -insts 50000 -seed 1 -engine clgp -l1 2048 > /tmp/clgp-smoke-mem-full.txt
	$(GO) run ./cmd/clgpsim run -tracefile /tmp/clgp-smoke.clgt -window 8192 -engine clgp -l1 2048 > /tmp/clgp-smoke-str-full.txt
	grep -v "wall time" /tmp/clgp-smoke-mem-full.txt > /tmp/clgp-smoke-mem.txt
	grep -v -e "wall time" -e "trace window" /tmp/clgp-smoke-str-full.txt > /tmp/clgp-smoke-str.txt
	diff /tmp/clgp-smoke-mem.txt /tmp/clgp-smoke-str.txt

# The multi-host dispatch protocol on one machine: an HTTP object store,
# child workers pointed at the URL, ssh workers through a stand-in ssh that
# runs the remote command here, merged figures diffed against the
# in-process run, then a warm-state sweep that records every snapshot
# through the store and one that restores them all (no snapshot file is
# committed again). Mirrors CI's remote-smoke job.
remote-smoke:
	rm -rf /tmp/clgp-remote-smoke && mkdir -p /tmp/clgp-remote-smoke
	$(GO) build -o /tmp/clgp-remote-smoke/clgpsim ./cmd/clgpsim
	cd /tmp/clgp-remote-smoke && ./clgpsim figures -insts 20000 -profiles gzip,mcf -dir fig-local
	cd /tmp/clgp-remote-smoke && { ./clgpsim store serve -dir store-root -addr 127.0.0.1:0 -addr-file addr.txt & echo $$! > server.pid; } && \
	for i in $$(seq 1 50); do [ -s addr.txt ] && break; sleep 0.1; done
	cd /tmp/clgp-remote-smoke && trap 'kill $$(cat server.pid) 2>/dev/null || true' EXIT && \
		./clgpsim figures -insts 20000 -profiles gzip,mcf \
			-store "http://$$(cat addr.txt)" -exec -retries 2 -dir fig-remote && \
		diff fig-local/figure6_ipc_90nm.csv fig-remote/figure6_ipc_90nm.csv && \
		mkdir -p fake-ssh && printf '#!/bin/sh\nshift; exec "$$@"\n' > fake-ssh/ssh && chmod +x fake-ssh/ssh && \
		PATH="$$PWD/fake-ssh:$$PATH" ./clgpsim figures -insts 20000 -profiles gzip,mcf \
			-store "http://$$(cat addr.txt)" -ssh h1,h2 -ssh-remote "$$PWD/clgpsim" -dir fig-ssh && \
		for f in figure1_ipc_vs_l1_90nm figure6_ipc_90nm cycle_breakdown_90nm; do \
			diff "fig-local/$$f.csv" "fig-ssh/$$f.csv" || exit 1; done && \
		./clgpsim figures -insts 20000 -profiles gzip,mcf -warmup 10000 \
			-store "http://$$(cat addr.txt)" -exec -retries 2 -dir fig-warm-cold && \
		ls -i store-root/snapshots | sort > snaps-before.txt && \
		./clgpsim figures -insts 20000 -profiles gzip,mcf -warmup 10000 \
			-store "http://$$(cat addr.txt)" -exec -retries 2 -dir fig-warm-restored && \
		ls -i store-root/snapshots | sort > snaps-after.txt && \
		diff snaps-before.txt snaps-after.txt && \
		diff fig-local/figure6_ipc_90nm.csv fig-warm-cold/figure6_ipc_90nm.csv && \
		diff fig-local/figure6_ipc_90nm.csv fig-warm-restored/figure6_ipc_90nm.csv
	@echo "remote-smoke: object-store sweeps (plain, ssh, warm-state cold and restored) match the in-process run"

# Warm-state snapshots end to end: a cold figures sweep records warm-state
# artifacts into the store, a second sweep over the same store restores them,
# and the emitted figure CSVs must be byte-identical to a sweep that never
# snapshotted at all. Mirrors CI's snapshot-smoke job.
snapshot-smoke:
	rm -rf /tmp/clgp-snapshot-smoke && mkdir -p /tmp/clgp-snapshot-smoke
	$(GO) build -o /tmp/clgp-snapshot-smoke/clgpsim ./cmd/clgpsim
	cd /tmp/clgp-snapshot-smoke && ./clgpsim figures -insts 20000 -profiles gzip,mcf -dir fig-plain
	cd /tmp/clgp-snapshot-smoke && ./clgpsim figures -insts 20000 -profiles gzip,mcf -warmup 10000 -dir fig-cold
	test -n "$$(ls /tmp/clgp-snapshot-smoke/fig-cold/snapshots)"
	cd /tmp/clgp-snapshot-smoke && cp -r fig-cold fig-warm && rm -rf fig-warm/shards && \
		./clgpsim figures -insts 20000 -profiles gzip,mcf -warmup 10000 -dir fig-warm -resume
	cd /tmp/clgp-snapshot-smoke && \
		diff fig-plain/figure6_ipc_90nm.csv fig-cold/figure6_ipc_90nm.csv && \
		diff fig-plain/figure6_ipc_90nm.csv fig-warm/figure6_ipc_90nm.csv && \
		diff fig-plain/figure1_ipc_vs_l1_90nm.csv fig-warm/figure1_ipc_vs_l1_90nm.csv
	@echo "snapshot-smoke: cold-recording and warm-restoring sweeps match the plain run"

clean:
	$(GO) clean ./...
	rm -f BENCH_*.json
	rm -rf clgp-figures
