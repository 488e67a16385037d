// Package core is the public API of the reproduction: it assembles the
// substrates (network simulator, DNS hierarchy, resolver population,
// prober, threat intelligence, geolocation) into complete measurement
// campaigns and produces the paper's full analysis report.
//
// Two execution modes share one analysis pipeline:
//
//   - RunSimulation executes the campaign end to end on the discrete-event
//     network: the prober actually scans the (sampled) address space, open
//     resolvers actually recurse through root → TLD → authoritative
//     servers, and every R2 is a real packet captured at the prober. Run it
//     at SampleShift ≥ 6; a full-scale simulation would need millions of
//     live hosts. Config.Faults applies here: the network is built with
//     the plan's impairments and the prober and resolver population get
//     its retransmission knobs (DESIGN.md §8). The campaign decomposes
//     into a fixed set of private sub-simulations scheduled over
//     Config.Workers goroutines and merged in shard order — byte-identical
//     for every worker count (DESIGN.md §12).
//
//   - RunSynthetic streams the population's responses directly into the
//     analysis pipeline as decoded messages, each patched from its cohort's
//     template, which the encoder and decoder derive once per cohort and
//     cluster. It runs in constant memory, which
//     makes the full-scale (SampleShift 0) campaign feasible and exact.
//     The stream splits into a fixed plan of probe-range shards run on a
//     pool of Config.Workers goroutines, whose merged result is identical
//     to the serial walk for every worker count (DESIGN.md §2).
//
// Both modes run on one shard engine, ShardCampaign: a fixed shard plan, a
// worker pool, checkpoints and cancellation at shard boundaries (DESIGN.md
// §13), and one ordered fold that takes each shard in as soon as the
// shards before it are in (DESIGN.md §12).
//
// Both modes accept an optional obs.Registry (Config.Obs) that receives
// the campaign's observability stream — phase spans for every stage, one
// metrics shard per plan shard, and the virtual-vs-wall clock ratio — without
// perturbing the campaign itself: metrics are write-only and the metrics
// golden tests pin instrumented runs to the uninstrumented digests
// (DESIGN.md §9).
package core
