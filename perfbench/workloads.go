package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"openresolver/internal/core"
	"openresolver/internal/netsim"
	"openresolver/internal/paperdata"
	"openresolver/internal/population"
	"openresolver/internal/threatintel"
)

// workload is one input set the benchmark runs. Every workload is a closed
// loop: one campaign or one request in flight at a time.
type workload struct {
	name string
	mode string // "synth", "sim" or "fleet"
	year paperdata.Year
	// shift scales the campaign to 1/2^shift of the paper's Internet.
	shift uint8
	// impairments is a netsim impairment spec; non-empty also turns on the
	// prober's retransmission, adaptive timeout and upstream backoff.
	impairments string
}

// chaosStack is the stacked impairment scenario of the chaos tests.
const chaosStack = "ge:0.05,0.2,0.125,1.0;dup:0.1;reorder:0.2,40ms;corrupt:0.05;brownout:5s,20s,0.8"

// The workloads stress different layers, so a change to one layer has a
// workload that exercises it and one that bypasses it.
var workloads = map[string]workload{
	// Paper scale; all time goes to the population assigner, the wire
	// codec and the analysis accumulator.
	"synth-full-2018": {name: "synth-full-2018", mode: "synth", year: paperdata.Y2018, shift: 0},
	// The netsim send path and its NoRoute fast path, plus prober,
	// recursion and auth, on a pristine network.
	"sim-2013": {name: "sim-2013", mode: "sim", year: paperdata.Y2013, shift: 8},
	// The same layers driven by retransmissions, RTO timers and the
	// impairment pipeline.
	"sim-chaos-2018": {name: "sim-chaos-2018", mode: "sim", year: paperdata.Y2018, shift: 10, impairments: chaosStack},
	// The only workload through sweep, serve, the fabric transport and
	// checkpoint envelopes; the grid's years come from its spec.
	"fleet-2x2": {name: "fleet-2x2", mode: "fleet", shift: 11},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// config is the campaign configuration of a synth or sim workload.
func (w workload) config(seed int64, workers int) (core.Config, error) {
	cfg := core.Config{
		Year: w.year, SampleShift: w.shift, Seed: seed, Workers: workers,
		KeepPackets: w.mode == "sim",
	}
	if w.impairments != "" {
		imps, err := netsim.ParseImpairments(w.impairments)
		if err != nil {
			return cfg, err
		}
		cfg.Faults = core.FaultPlan{
			Impairments: imps, Retries: 3, AdaptiveTimeout: true, UpstreamBackoff: true,
		}
	}
	return cfg, nil
}

// bench is one run of one workload.
type bench struct {
	w        workload
	seed     int64
	budget   time.Duration
	traced   bool
	recorded map[string]string
	// stateRoot holds the fleet workload's per-cycle service state.
	stateRoot string
	log       io.Writer

	workers   int
	spans     *tracer
	attempted int
	failed    int
	// digest is the output every campaign of the run must reproduce.
	digest   string
	outcomes []outcome
	// jobs counts the traced jobs, the denominator of the self times.
	jobs int
	// noisy lists conditions that make the run's timings suspect.
	noisy []string
}

func (b *bench) run() (result, error) {
	b.workers = runtime.GOMAXPROCS(0)
	if b.traced {
		b.spans = newTracer()
	}
	var (
		m   map[string]metric
		err error
	)
	switch b.w.mode {
	case "synth", "sim":
		m, err = b.runCampaigns()
	case "fleet":
		m, err = b.runFleet()
	default:
		err = fmt.Errorf("workload %s has unknown mode %q", b.w.name, b.w.mode)
	}
	if err != nil {
		return result{}, err
	}
	b.verify()
	if b.traced {
		self := b.spans.selfTimes()
		for _, layer := range []string{"core", "serve", "fabric"} {
			m[layer+".self_ms"] = metric{ms(self[layer]) / float64(max(b.jobs, 1)), "ms"}
		}
	}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// fail counts one failed operation.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(b.log, "perfbench: FAIL: "+format+"\n", args...)
}

// outcome is one finished operation, checked once the reference is known.
type outcome struct {
	what, digest string
	err          error
}

// note records an operation for checking against the reference.
func (b *bench) note(what, digest string, err error) {
	b.outcomes = append(b.outcomes, outcome{what, digest, err})
}

// verify counts every noted operation as attempted and fails those that
// errored or whose digest differs from the reference.
func (b *bench) verify() {
	for _, o := range b.outcomes {
		b.attempted++
		switch {
		case o.err != nil:
			b.fail("%s: %v", o.what, o.err)
		case o.digest != b.digest:
			b.fail("%s: digest %.16s, want %.16s", o.what, o.digest, b.digest)
		}
	}
	b.outcomes = nil
}

// adopt fixes the run's reference digest: the one recorded for (workload,
// scale, seed), against which this operation is then checked, or else this
// operation's own digest.
func (b *bench) adopt(what, digest string, err error) {
	if want, ok := b.recorded[digestKey(b.w, b.seed)]; ok {
		b.digest = want
		b.note(what, digest, err)
		return
	}
	b.attempted++
	if err != nil {
		b.fail("%s: %v", what, err)
	}
	b.digest = digest
}

// reference is adopt for a path that runs only when no digest is recorded.
func (b *bench) reference(what string, alt func() (string, error)) {
	if want, ok := b.recorded[digestKey(b.w, b.seed)]; ok {
		b.digest = want
		return
	}
	d, err := alt()
	b.adopt(what, d, err)
}

// digestKey names a recorded digest. A synthetic campaign at shift 0 gives
// the same report for every seed: the seed moves only the address draws
// (the work done), not the report's bytes. Such campaigns share one key
// across seeds, and recordDigests checks that the seeds agree on it.
func digestKey(w workload, seed int64) string {
	if w.mode == "synth" && w.shift == 0 {
		return fmt.Sprintf("%s shift=%d", w.name, w.shift)
	}
	return fmt.Sprintf("%s shift=%d seed=%d", w.name, w.shift, seed)
}

// campaignDigest is the determinism contract of a dataset: the FaultDigest
// of a simulated campaign, or a hash of a synthetic report's JSON.
func campaignDigest(mode string, ds *core.Dataset) (string, error) {
	if mode != "synth" {
		return core.FaultDigest(ds), nil
	}
	js, err := ds.Report.JSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:]), nil
}

// setupReps is how many times a run repeats set-up; setup_s is the median.
// Set-up takes milliseconds, so single samples swing with host noise.
const setupReps = 15

// buildPopulations times threatintel.NewFeed + population.Build for every
// year, setupReps times, and returns the median wall and the last build.
func (b *bench) buildPopulations(years []paperdata.Year, shift uint8, seed int64) (time.Duration, map[paperdata.Year]*population.Population, error) {
	var walls []float64
	var pops map[paperdata.Year]*population.Population
	for r := 0; r < setupReps; r++ {
		pops = make(map[paperdata.Year]*population.Population)
		runtime.GC() // start every repetition from a collected heap
		t0 := time.Now()
		for _, y := range years {
			id := b.spans.begin("population", "build", -1)
			feed := threatintel.NewFeed(y, seed)
			pop, err := population.Build(population.Config{Year: y, SampleShift: shift, Seed: seed, Feed: feed})
			b.spans.end(id)
			if err != nil {
				return 0, nil, fmt.Errorf("population.Build(%d, shift %d): %w", y, shift, err)
			}
			pops[y] = pop
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return time.Duration(median(walls) * float64(time.Second)), pops, nil
}

// execute runs one campaign through the workload's engine.
func (b *bench) execute(cfg core.Config, pop *population.Population) (string, *core.Dataset, error) {
	var (
		ds  *core.Dataset
		err error
	)
	if b.w.mode == "synth" {
		ds, err = core.SynthesizePopulation(cfg, pop, pop.Feed.DB)
	} else {
		ds, err = core.SimulatePopulation(cfg, pop, pop.Feed.DB)
	}
	if err != nil {
		return "", nil, err
	}
	d, err := campaignDigest(b.w.mode, ds)
	return d, ds, err
}

// probes is the campaign's completed-probe count: synthesized responses in
// synth mode, prober Q1 (unrouted probes included) in sim mode.
func probes(mode string, ds *core.Dataset) float64 {
	if mode == "synth" {
		return float64(ds.Population.ExpectedR2)
	}
	return float64(ds.ProbeStats.Sent)
}

// runCampaigns is the synth and sim workloads: set-up, campaigns until the
// budget is spent, then the reference they must all reproduce.
func (b *bench) runCampaigns() (map[string]metric, error) {
	cfg, err := b.w.config(b.seed, b.workers)
	if err != nil {
		return nil, err
	}
	setup, pops, err := b.buildPopulations([]paperdata.Year{b.w.year}, b.w.shift, b.seed)
	if err != nil {
		return nil, err
	}
	pop := pops[b.w.year]
	if b.traced {
		return b.tracedCampaigns(cfg, pop, setup)
	}

	b.warmUp(cfg, pop)
	var walls, rates []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < b.budget {
		t0 := time.Now()
		d, ds, err := b.execute(cfg, pop)
		wall := time.Since(t0).Seconds()
		b.note(fmt.Sprintf("campaign %d", len(walls)), d, err)
		walls = append(walls, wall)
		if err == nil {
			rates = append(rates, probes(b.w.mode, ds)/wall)
		}
	}
	// Read the high-water mark before the reference path can raise it.
	rss := peakRSSMiB()
	b.reference("reference campaign", func() (string, error) { return b.alternate(cfg, pop) })
	return map[string]metric{
		"probes_per_s": {median(rates), "probes/s"},
		"setup_s":      {setup.Seconds(), "s"},
		"peak_rss_mb":  {rss, "MiB"},
		"job_s":        {median(walls), "s"},
	}, nil
}

// warmUp runs one untimed campaign, so the timed ones start with the heap
// grown and the code paths warm, as every campaign after a process's first
// does.
func (b *bench) warmUp(cfg core.Config, pop *population.Population) {
	d, _, err := b.execute(cfg, pop)
	b.note("warm-up campaign", d, err)
}

// alternate runs the campaign through a path independent of execute: the
// serial synthesis engine, or the ShardCampaign seam for simulations.
func (b *bench) alternate(cfg core.Config, pop *population.Population) (string, error) {
	if b.w.mode == "synth" {
		serial := cfg
		serial.Workers = 1
		d, _, err := b.execute(serial, pop)
		return d, err
	}
	ds, _, err := b.runSeam(cfg, -1)
	if err != nil {
		return "", err
	}
	return campaignDigest(b.w.mode, ds)
}

// runSeam drives a simulated campaign through core's process-boundary
// seam: OpenShardCampaign, RunShardEnvelope on a pool of b.workers
// goroutines with each envelope loaded as it lands, then Merge. It returns
// the merged dataset and the total envelope bytes.
func (b *bench) runSeam(cfg core.Config, parent int) (*core.Dataset, int, error) {
	tr := b.spans
	id := tr.begin("core", "open", parent)
	sc, err := core.OpenShardCampaign(cfg)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	tr.splitOpen(id, cfg.Obs)
	n := sc.NumShards()
	errs := make([]error, n)
	sizes := make([]int, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	pool := tr.begin("core", "pool", parent)
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sid := tr.begin("core", "shard", pool)
				env, err := sc.RunShardEnvelope(i)
				tr.end(sid)
				if err != nil {
					errs[i] = err
					continue
				}
				sizes[i] = len(env)
				lid := tr.begin("core", "envelope_load", pool)
				errs[i] = sc.LoadEnvelope(i, env)
				tr.end(lid)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	tr.end(pool)
	total := 0
	for i, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("shard %d: %w", i, err)
		}
		total += sizes[i]
	}
	mid := tr.begin("core", "merge", parent)
	ds, err := sc.Merge()
	tr.end(mid)
	return ds, total, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
