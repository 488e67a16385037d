package main

import (
	"fmt"
	"time"

	"openresolver/internal/core"
	"openresolver/internal/geo"
	"openresolver/internal/ipv4"
	"openresolver/internal/obs"
	"openresolver/internal/population"
	"openresolver/internal/scan"
)

// layerMetrics lists every per-layer metric the traced run prints, with its
// unit. A workload that does not run a layer reports that layer's metrics
// as 0. README.md says which end-to-end metric each one should move.
var layerMetrics = []struct{ name, unit string }{
	{"population.build_ms", "ms"},
	{"population.advance_ns_per_draw", "ns"},
	{"core.open_ms", "ms"},
	{"core.shard_ms_p50", "ms"},
	{"core.shard_ms_max", "ms"},
	{"core.parallel_eff", "ratio"},
	{"core.synth_speedup", "ratio"},
	{"core.envelope_bytes", "bytes"},
	{"core.envelope_load_ms", "ms"},
	{"core.merge_ms", "ms"},
	{"core.self_ms", "ms"},
	{"netsim.sent", "count"},
	{"netsim.delivered", "count"},
	{"netsim.timers", "count"},
	{"netsim.noroute_frac", "ratio"},
	{"netsim.timer_heap_frac", "ratio"},
	{"netsim.queue_depth_p50", "events"},
	{"netsim.queue_depth_p99", "events"},
	{"netsim.ns_per_send", "ns"},
	{"netsim.virtual_per_wall", "ratio"},
	{"fault.dropped", "count"},
	{"fault.duplicated", "count"},
	{"fault.reordered", "count"},
	{"fault.corrupted", "count"},
	{"prober.sent", "count"},
	{"prober.retransmits", "count"},
	{"prober.answered", "count"},
	{"prober.gave_up", "count"},
	{"prober.useful_frac", "ratio"},
	{"prober.rtt_virtual_ms_p50", "ms-simulated"},
	{"prober.rtt_virtual_ms_p99", "ms-simulated"},
	{"dnssrv.q2", "count"},
	{"dnssrv.q2_per_answer", "ratio"},
	{"analysis.ns_per_response", "ns"},
	{"analysis.alloc_bytes_per_response", "bytes"},
	{"analysis.resp_bytes_p50", "bytes"},
	{"runtime.alloc_mb", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"serve.submit_ms", "ms"},
	{"serve.result_fetch_ms", "ms"},
	{"serve.cache_hits", "count"},
	{"serve.cache_hit_ms_p50", "ms"},
	{"serve.cache_hit_ms_p99", "ms"},
	{"serve.cache_hit_samples", "count"},
	{"serve.self_ms", "ms"},
	{"fabric.overhead_frac", "ratio"},
	{"fabric.envelope_bytes", "bytes"},
	{"fabric.leases", "count"},
	{"fabric.shards_requeued", "count"},
	{"fabric.self_ms", "ms"},
	{"trace_overhead_frac", "ratio"},
}

// jobSamples collects per-job layer values; each metric reports the median
// over the traced jobs that measured it.
type jobSamples map[string][]float64

func (s jobSamples) add(vals map[string]float64) {
	for k, v := range vals {
		s[k] = append(s[k], v)
	}
}

// metrics renders every layer metric, 0 where the workload never set it.
func (s jobSamples) metrics() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		out[lm.name] = metric{median(s[lm.name]), lm.unit}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// obsLayers reads the network, fault and prober counters of one job out of
// its obs snapshot.
func obsLayers(snap obs.Snapshot) map[string]float64 {
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	sent, answered := c("probe.sent"), c("probe.answered")
	return map[string]float64{
		"netsim.sent":               c("sim.sent"),
		"netsim.delivered":          c("sim.delivered"),
		"netsim.timers":             c("sim.timers"),
		"netsim.noroute_frac":       ratio(c("sim.noroute"), c("sim.sent")),
		"netsim.timer_heap_frac":    ratio(c("sim.timer_heap"), c("sim.timer_ring")+c("sim.timer_heap")),
		"netsim.queue_depth_p50":    histQuantile(snap.Histograms["sim.queue_depth"], 0.5),
		"netsim.queue_depth_p99":    histQuantile(snap.Histograms["sim.queue_depth"], 0.99),
		"netsim.virtual_per_wall":   ratio(c("sim.virtual_nanos"), c("sim.wall_nanos")),
		"fault.dropped":             c("fault.drop.loss") + c("fault.drop.burst") + c("fault.drop.blackhole") + c("fault.drop.brownout"),
		"fault.duplicated":          c("fault.duplicated"),
		"fault.reordered":           c("fault.reordered"),
		"fault.corrupted":           c("fault.corrupted"),
		"prober.sent":               sent,
		"prober.retransmits":        c("probe.retransmits"),
		"prober.answered":           answered,
		"prober.gave_up":            c("probe.gave_up"),
		"prober.useful_frac":        ratio(answered, sent+c("probe.retransmits")),
		"prober.rtt_virtual_ms_p50": histQuantile(snap.Histograms["probe.rtt_nanos"], 0.5) / 1e6,
		"prober.rtt_virtual_ms_p99": histQuantile(snap.Histograms["probe.rtt_nanos"], 0.99) / 1e6,
	}
}

// runtimeLayers is the allocator and collector cost between two samples.
func runtimeLayers(before, after runtimeSample) map[string]float64 {
	return map[string]float64{
		"runtime.alloc_mb":    float64(after.allocBytes-before.allocBytes) / (1 << 20),
		"runtime.gc_cycles":   float64(after.gcCycles - before.gcCycles),
		"runtime.gc_cpu_frac": ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU),
	}
}

// tracedCampaigns is the traced run of the synth and sim workloads. It
// alternates an untraced campaign with a traced one (spans around every
// public call, obs counters attached) until the budget is spent; the two
// must produce identical digests.
func (b *bench) tracedCampaigns(cfg core.Config, pop *population.Population, setup time.Duration) (map[string]metric, error) {
	samples := jobSamples{}
	samples.add(map[string]float64{"population.build_ms": ms(setup)})
	draws, err := b.advanceNsPerDraw(cfg, pop)
	if err != nil {
		return nil, err
	}
	samples.add(map[string]float64{"population.advance_ns_per_draw": draws})

	var serialWall time.Duration
	if b.w.mode == "synth" {
		// The serial campaign is the reference path and the base of the
		// speed-up and per-response costs.
		serial := cfg
		serial.Workers = 1
		serial.Obs = obs.NewRegistry()
		before := sampleRuntime()
		id := b.spans.begin("core", "synthesize_serial", -1)
		d, _, err := b.execute(serial, pop)
		b.spans.end(id)
		after := sampleRuntime()
		b.adopt("serial campaign", d, err)
		serialWall = b.spans.get(id).dur()
		snap := serial.Obs.Snapshot()
		n := float64(snap.Counters["synth.probes"])
		samples.add(map[string]float64{
			"analysis.ns_per_response":          ratio(float64(serialWall), n),
			"analysis.alloc_bytes_per_response": ratio(float64(after.allocBytes-before.allocBytes), n),
			"analysis.resp_bytes_p50":           histQuantile(snap.Histograms["synth.resp_bytes"], 0.5),
		})
	}

	b.warmUp(cfg, pop)
	var plain, traced []float64
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < b.budget {
		job := b.spans.begin("bench", "job", -1)
		tcfg := cfg
		tcfg.Obs = obs.NewRegistry()
		before := sampleRuntime()
		var (
			d        string
			ds       *core.Dataset
			envBytes int
		)
		if b.w.mode == "synth" {
			id := b.spans.begin("core", "synthesize", job)
			d, ds, err = b.execute(tcfg, pop)
			b.spans.end(id)
		} else {
			ds, envBytes, err = b.runSeam(tcfg, job)
			if err == nil {
				d, err = campaignDigest(b.w.mode, ds)
			}
		}
		after := sampleRuntime()
		b.spans.end(job)
		b.jobs++
		what := fmt.Sprintf("traced campaign %d", len(traced))
		if len(traced) == 0 && b.w.mode == "sim" {
			b.adopt(what, d, err) // the seam is the simulations' reference path
		} else {
			b.note(what, d, err)
		}
		// OpenShardCampaign rebuilds the population that the untraced
		// campaigns are handed ready-built; the rebuild is left out of the
		// traced wall.
		wall := b.spans.get(job).dur()
		for _, o := range b.spans.children(job, "open") {
			wall -= o.dur() - b.spans.ownOpen(o.ID)
		}
		traced = append(traced, wall.Seconds())
		if err == nil {
			samples.add(runtimeLayers(before, after))
			if b.w.mode == "synth" {
				samples.add(map[string]float64{"core.synth_speedup": ratio(float64(serialWall), float64(wall))})
			} else {
				samples.add(b.simJobLayers(job, tcfg.Obs.Snapshot(), ds, envBytes))
			}
		}

		t0 := time.Now()
		d, _, err = b.execute(cfg, pop)
		plain = append(plain, time.Since(t0).Seconds())
		b.note(fmt.Sprintf("untraced campaign %d", len(plain)-1), d, err)
	}
	samples.add(map[string]float64{"trace_overhead_frac": ratio(median(traced), median(plain)) - 1})
	return samples.metrics(), nil
}

// simJobLayers derives the core, netsim, prober and dnssrv metrics of one
// traced simulated campaign from its spans and obs snapshot.
func (b *bench) simJobLayers(job int, snap obs.Snapshot, ds *core.Dataset, envBytes int) map[string]float64 {
	v := obsLayers(snap)
	var shardMs []float64
	var busy, loads time.Duration
	pools := b.spans.children(job, "pool")
	for _, p := range pools {
		for _, s := range b.spans.children(p.ID, "shard") {
			shardMs = append(shardMs, ms(s.dur()))
			busy += s.dur()
		}
		for _, s := range b.spans.children(p.ID, "envelope_load") {
			loads += s.dur()
		}
		v["core.parallel_eff"] = ratio(float64(busy), float64(b.workers)*float64(p.dur()))
	}
	for _, s := range b.spans.children(job, "open") {
		v["core.open_ms"] = ms(b.spans.ownOpen(s.ID))
	}
	for _, s := range b.spans.children(job, "merge") {
		v["core.merge_ms"] = ms(s.dur())
	}
	v["core.shard_ms_p50"] = median(shardMs)
	v["core.shard_ms_max"] = quantile(shardMs, 1)
	v["core.envelope_bytes"] = float64(envBytes)
	v["core.envelope_load_ms"] = ms(loads)
	v["netsim.ns_per_send"] = ratio(float64(busy), v["netsim.sent"])
	v["dnssrv.q2"] = float64(ds.Report.Campaign.Q2)
	v["dnssrv.q2_per_answer"] = ratio(v["dnssrv.q2"], v["prober.answered"])
	return v
}

// advanceNsPerDraw times Assigner.Fork + AdvanceUnpinned over the unpinned
// prefix that precedes shard 1 of the synthesis engine's shard plan — the
// serial fast-forward each parallel synth worker pays before it starts.
func (b *bench) advanceNsPerDraw(cfg core.Config, pop *population.Population) (float64, error) {
	u, err := scan.NewUniverse(uint64(cfg.Seed), cfg.SampleShift, ipv4.NewReservedBlocklist())
	if err != nil {
		return 0, err
	}
	a, err := population.NewAssigner(u, geo.DefaultRegistry(), pop,
		core.ProberAddr, core.RootAddr, core.TLDAddr, core.AuthAddr)
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, c := range pop.Cohorts {
		total += c.Count
	}
	shard1 := total / uint64(max(b.workers, 2))
	var unpinned, cum uint64
	for _, c := range pop.Cohorts {
		if cum >= shard1 {
			break
		}
		n := min(c.Count, shard1-cum)
		if c.Country == "" {
			unpinned += n
		}
		cum += n
	}
	id := b.spans.begin("population", "advance", -1)
	err = a.Fork().AdvanceUnpinned(unpinned)
	b.spans.end(id)
	if err != nil {
		return 0, err
	}
	return ratio(float64(b.spans.get(id).dur()), float64(unpinned)), nil
}
