// Package obs is the campaign observability layer: zero-allocation
// counters and histograms for the measurement hot paths, a phase tracer
// for campaign stages, and profiling endpoints for watching a live run.
//
// The design constraints come from the engine it instruments. The
// discrete-event simulator and the prober are allocation-free in steady
// state and bit-reproducible per (config, seed); instrumentation must not
// cost either property. Three rules follow:
//
//   - Everything is nil-safe. A nil *Registry hands out nil *Shard and
//     *Tracer handles, and every method on a nil receiver is a no-op, so
//     instrumented code calls sinks unconditionally — no flag checks, no
//     wrapper types — and a campaign without observability pays only an
//     inlined nil test per event.
//
//   - Hot-path writes never allocate. A Shard is a fixed array of counters
//     plus fixed-bucket histograms; Inc/Add/Observe are atomic adds into
//     preallocated memory (the alloc-budget tests in netsim and prober pin
//     the instrumented send/Step paths at 0 allocs/op). Atomics make the
//     shards safe to read concurrently — the metrics server and the
//     progress printer sample them while the campaign runs.
//
//   - Aggregation is deterministic. Each campaign shard (one
//     sub-simulation, or one probe range of the synthetic engine) owns
//     its shard; merging sums counters and per-bucket histogram counts,
//     which is commutative and associative, so the merged snapshot is
//     identical for any worker count and any merge order — the same
//     argument that makes analysis.Accumulator.Merge safe (DESIGN.md §9).
//
// Histograms use fixed log2 buckets (bucket b counts values whose bit
// length is b, i.e. [2^(b-1), 2^b)): no configuration to drift between
// shards, O(1) allocation-free observation via bits.Len64, and exact
// merges — adding two histograms' buckets loses nothing, unlike mergers
// of adaptive or sampled summaries.
//
// The Tracer records begin/end spans for campaign stages (scan
// permutation, population placement, simulation sweep, synthesis,
// analysis/report) on the wall clock. Spans are observability output
// only; nothing in the deterministic path reads them back.
//
// Serve exposes everything over HTTP behind one flag (-metrics-addr on
// the CLIs): a JSON snapshot at /metrics (counters, histograms, phase
// spans, runtime/metrics GC and heap stats), expvar at /debug/vars, and
// net/http/pprof at /debug/pprof/. StartProgress prints a one-line
// summary periodically for terminal runs.
package obs
