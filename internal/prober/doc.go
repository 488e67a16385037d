// Package prober implements the measurement system of §III: a modified
// ZMap that walks the scan universe in pseudorandom order at a configured
// packet rate, assigns each probe a unique subdomain from the two-tier
// cluster structure (Fig. 3), collects R2 responses, and reuses the
// subdomains that drew no response — the optimization that reduced the
// clusters needed from a theoretical 800 to 4 (§III-B).
//
// Every in-flight probe's timeout lives in one timing wheel (wheel.go,
// DESIGN.md §7) with a slot per 10 ms send-loop tick, so arming a timeout
// is O(1) and each tick expires exactly the probes whose deadline it
// reaches, in arm order, through one expire path.
//
// Beyond the paper's single-shot prober, the package carries the adaptive
// retransmission engine of DESIGN.md §8 (retrans.go): a bounded per-probe
// retry budget with exponential backoff and jitter, a Jacobson/Karn RTT
// estimator that can replace the fixed timeout (Karn's rule excludes
// retransmitted probes from sampling), and a shed horizon that abandons
// stale retries under loss spikes instead of starving fresh probes. With
// Retries == 0 and AdaptiveTimeout == false the prober is bit-identical to
// the paper behaviour — the golden tests pin this.
//
// A prober can also run as one shard of a sharded campaign (DESIGN.md
// §12): Config.RangeStart/RangeEnd restrict it to a contiguous window of
// the probe order, Config.FirstCluster rebases its subdomain-cluster
// namespace so shards never collide on qnames, and Stats.Merge folds the
// per-shard counter snapshots into the campaign total in shard order.
//
// Config.Obs optionally attaches an obs.Shard that mirrors the prober's
// counters (sent, received, answered, retransmits, late, duplicates,
// gave-up, bad packets, subdomain reuse) and feeds response latencies into
// the RTT histogram. Like the netsim observer it is write-only and
// allocation-free on the hot path; campaigns run bit-identically with or
// without it.
package prober
