// Package core ties the substrates together into the simulated processor:
// the decoupled front-end (stream predictor, FTQ/CLTQ, prefetch engine,
// pre-buffers, fetch stage), the memory hierarchy, and the back-end
// pipeline. It implements the trace-driven, wrong-path-capable cycle loop
// the paper's custom simulator provides, and produces the statistics each
// figure of the evaluation is built from.
//
// # The cycle loop
//
// Every cycle flows through the same stages, front to back:
//
//	predict   the stream predictor proposes the next fetch stream; on the
//	          correct path it is checked against the trace (the oracle)
//	          immediately, and a miss arms a recovery checkpoint while the
//	          front-end keeps running down the wrong path through the
//	          program image
//	queue     predicted streams enter the FTQ (fetch blocks) and, for CLGP,
//	          the CLTQ (cache lines), decoupling prediction from fetch
//	prefetch  the engine (none / next-N / FDP / CLGP) walks its queue and
//	          issues prefetches into the prestage buffer / L0 through the
//	          shared L2 bus
//	fetch     at most one cache line is in flight; delivered instructions
//	          enter the dispatch queue and the back-end dispatches up to
//	          four per cycle (Table 2's fetch width); wrong-path ones only
//	          hold queue and RUU slots, so they travel as counts
//	execute   the 4-wide, 15-stage, 64-entry-RUU back-end executes and
//	          commits; a mispredicted branch resolving here flushes the
//	          queues, restores the predictor checkpoint and redirects
//
// The loop is allocation-free in steady state: DynInsts and memory
// Requests recycle through free-lists, every queue is a ring buffer, and
// the recovery checkpoint reuses its storage (BenchmarkEngineCycle holds
// the 0 allocs/op line).
//
// # Clocking
//
// The clock is next-event driven: after ticking a cycle, Step collects
// every component's NextEvent horizon (package clock) and, when no
// same-cycle work exists anywhere, fast-forwards straight to the earliest
// one. Skipped cycles are provably no-ops, so results are bit-identical to
// the per-cycle reference path (Config.NoSkip) — on miss-heavy workloads
// most simulated cycles are DRAM waits and the fast-forward is a multi-x
// throughput win, measured per grid point by BenchmarkCoreGrid and gated in
// CI against the parent commit (make bench-gate). See ARCHITECTURE.md,
// "Clocking & event horizons".
//
// # Trace input
//
// The engine reads its committed-path input through the narrow TraceSource
// interface — At/Len plus the Advance(frontier) eviction hook, called
// whenever the commit frontier moves — so an in-memory trace and a bounded
// window over an on-disk container (trace.WindowTrace over a
// tracefile.Reader) are interchangeable and bit-identical in results.
package core
