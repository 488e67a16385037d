// Package netsim is a deterministic discrete-event simulator of a UDP-like
// IPv4 network. It is the substrate on which the reproduction runs the
// paper's measurement: the prober, the root/TLD/authoritative name servers
// and millions of simulated open resolvers are all hosts exchanging
// datagrams over a virtual network with configurable latency, jitter and
// loss, under a virtual clock.
//
// Each Sim is single-threaded and fully deterministic: a run is a pure
// function of (configuration, seed). Virtual time advances only when the
// event at the head of the queue is executed, so a campaign that takes "10
// hours and 35 minutes" of virtual time (the paper's Table II) completes in
// seconds of wall-clock time. Parallelism lives one layer up: the sharded
// campaign engine (internal/core, DESIGN.md §12) runs several fully
// private Sims concurrently, each seeded independently, with stateful
// impairments forked per Sim via CloneImpairments.
//
// The event core is allocation-free in steady state:
//
//   - The priority queue is a struct-of-arrays 4-ary min-heap — the (at,
//     seq) sort keys live in parallel arrays the sift loops walk, while
//     event payloads sit immobile in a slab. Timers live in pooled slots
//     invalidated by generation counters (lazy deletion).
//
//   - Near-future monotone timers — the common arm-at-the-tail pattern of
//     retransmission scheduling — bypass the heap through a bounded ring
//     buffer; arming out of order or past the ring's capacity falls back
//     to the heap, and the dispatcher merges both by (at, seq).
//
//   - Sim.Run is a loop over Sim.Step: each step pops one event, advances
//     the clock to it and runs it, and a delivery reaches its host as one
//     HandleDatagram call. Latencies are drawn in nanoseconds, so events
//     practically never share an instant and there is nothing to batch.
//
//   - Sends to addresses with no registered host are dead-lettered at
//     submission — one host-table miss, and the NoRoute accounting happens
//     without a queue round trip. At campaign scale ~95% of probes hit
//     unoccupied addresses, so this is the event core's hottest shortcut.
//     A host may stand in as a cheap placeholder and re-register its own
//     address with the real host on first contact (see Sim.Register).
//
//   - Hosts sit in a flat open-addressed table backed by a chunked Node
//     arena, and datagram payload buffers recycle through a pool via
//     Node.PayloadBuf / Node.SendPooled.
//
// Two optional layers sit on top of the pristine core, both off by
// default and both preserving determinism:
//
//   - Impairments (impair.go) compose an adverse-network fault pipeline —
//     uniform (IIDLoss) and Gilbert–Elliott burst loss, duplication,
//     reordering, corruption, blackholes and brownouts — applied to every
//     datagram in configuration order. All randomness comes from the
//     simulation rng.
//
//   - SetObserver attaches an obs.Shard that mirrors the event loop's
//     counters (sends, deliveries, losses, per-cause fault drops, timer
//     ring-vs-heap placement) and samples the event-queue depth into a
//     histogram on productive steps only. The observer is strictly
//     write-only: nothing in the simulator reads it back, so an
//     instrumented run is bit-identical to a bare one (pinned by the
//     metrics golden test in internal/core) and still allocation-free
//     (obs writes are atomic adds into preallocated arrays).
package netsim
