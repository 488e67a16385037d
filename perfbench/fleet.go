package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"openresolver/internal/core"
	"openresolver/internal/fabric"
	"openresolver/internal/obs"
	"openresolver/internal/paperdata"
	"openresolver/internal/population"
	"openresolver/internal/serve"
	"openresolver/internal/sweep"
)

// cacheHitsPerCycle is how many identical specs each fleet cycle resubmits
// after its cold job. A run times at least minFleetCycles cycles, so it
// pools at least 1000 samples and at least ten lie beyond the reported
// nearest-rank p99, however slow the host.
const (
	cacheHitsPerCycle = 500
	minFleetCycles    = 2
)

// service is one orserved stack: a manager behind the HTTP handler on a
// loopback server, a fabric coordinator as its SimRunner, and one
// fabric worker per core connected over loopback TCP.
type service struct {
	mgr      *serve.Manager
	srv      *httptest.Server
	co       *fabric.Coordinator
	coObs    *obs.Shard
	stop     context.CancelFunc
	wg       sync.WaitGroup
	stateDir string
}

// startService stands the stack up in a fresh state directory, so a cold
// job never resumes an earlier cycle's artifacts. It returns once every
// worker has completed its handshake. tr, when non-nil, records a span per
// RunCampaign under the span jobSpan holds.
func (b *bench) startService(tr *tracer, jobSpan *atomic.Int64) (*service, error) {
	if err := os.MkdirAll(b.stateRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.stateRoot, "fleet-")
	if err != nil {
		return nil, err
	}
	s := &service{stateDir: dir, coObs: obs.NewShard("fabric")}
	s.co = fabric.NewCoordinator(fabric.CoordinatorConfig{Obs: s.coObs})
	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	if err := s.co.Listen("127.0.0.1:0"); err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < b.workers; i++ {
		s.wg.Add(1)
		go func(i int) {
			defer s.wg.Done()
			err := fabric.RunWorker(ctx, fabric.WorkerConfig{Addr: s.co.Addr(), Name: fmt.Sprintf("w%d", i)})
			if err != nil && ctx.Err() == nil {
				fmt.Fprintf(b.log, "perfbench: fabric worker %d: %v\n", i, err)
			}
		}(i)
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.coObs.Counter(obs.CFabricWorkers) < uint64(b.workers) {
		if time.Now().After(deadline) {
			s.close()
			return nil, errors.New("fabric workers never completed the handshake")
		}
		time.Sleep(50 * time.Microsecond)
	}
	s.mgr, err = serve.NewManager(serve.Config{
		StateDir: dir, MaxJobs: 1, Workers: b.workers,
		SimRunner: func(cfg core.Config, lossSpec string) (*core.Dataset, error) {
			id := tr.begin("fabric", "run_campaign", int(jobSpan.Load()))
			defer tr.end(id)
			return s.co.RunCampaign(cfg, lossSpec)
		},
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.srv = httptest.NewServer(serve.NewHandler(s.mgr))
	return s, nil
}

// close drains the manager, stops the HTTP server, closes the coordinator,
// waits for every worker to exit, and removes the state directory.
func (s *service) close() {
	if s.mgr != nil {
		s.mgr.Drain()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	s.stop()
	s.co.Close()
	s.wg.Wait()
	os.RemoveAll(s.stateDir)
}

func (s *service) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.srv.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.srv.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// call sends one request and decodes a JobView reply, failing on any status
// other than want.
func (s *service) call(method, path string, body []byte, want int) (serve.JobView, error) {
	var v serve.JobView
	code, data, err := s.do(method, path, body)
	if err != nil {
		return v, err
	}
	if code != want {
		return v, fmt.Errorf("%s %s: status %d: %s", method, path, code, bytes.TrimSpace(data))
	}
	return v, json.Unmarshal(data, &v)
}

// fleetGrid is the fleet workload's input: the smoke grid of the Makefile's
// smoke targets at the workload's scale, compiled and with its populations
// built.
type fleetGrid struct {
	body  []byte
	spec  *sweep.Spec
	cells []sweep.Cell
	pops  map[paperdata.Year]*population.Population
	years int
	// build is the median set-up time of the grid's populations.
	build time.Duration
}

func (b *bench) fleetGrid() (*fleetGrid, error) {
	js := &serve.JobSpec{Years: []string{"2018", "2013"}, Loss: []string{"none", "loss:0.2"}, Shift: b.w.shift, Seed: b.seed}
	g := &fleetGrid{}
	var err error
	if g.body, err = json.Marshal(js); err != nil {
		return nil, err
	}
	if g.spec, err = js.Compile(); err != nil {
		return nil, err
	}
	if g.cells, err = g.spec.Cells(); err != nil {
		return nil, err
	}
	var years []paperdata.Year
	for _, y := range g.spec.Years {
		years = append(years, y.Year)
	}
	g.years = len(years)
	// The spec's seed, not b.seed: the service maps seed 0 to its default.
	g.build, g.pops, err = b.buildPopulations(years, g.spec.Shift, g.spec.Seed)
	return g, err
}

// fleetRef is the in-process reference of the grid.
type fleetRef struct {
	q1, q2 float64 // Σ prober Q1 and Σ Table II Q2 over the cells
	// cellWall is Σ over cells of population build + SimulatePopulation.
	cellWall time.Duration
	openMs   float64 // mean own OpenShardCampaign time per cell (traced runs)
}

// fleetReference runs every cell of the grid in-process with
// SimulatePopulation, configured exactly as a sweep cell, and adopts the
// joined cell digests as the run's reference.
func (b *bench) fleetReference(g *fleetGrid) *fleetRef {
	ref := &fleetRef{}
	digests := make([]string, len(g.cells))
	var err error
	for i, c := range g.cells {
		cfg := cellConfig(g.spec, c, b.workers)
		pop := g.pops[c.Year.Year]
		t0 := time.Now()
		ds, serr := core.SimulatePopulation(cfg, pop, pop.Feed.DB)
		ref.cellWall += time.Since(t0) + g.build/time.Duration(g.years)
		if serr != nil {
			err = fmt.Errorf("cell %s: %w", c.Key(), serr)
			break
		}
		digests[i] = core.FaultDigest(ds)
		ref.q1 += float64(ds.ProbeStats.Sent)
		ref.q2 += float64(ds.Report.Campaign.Q2)
		if b.traced {
			ocfg := cfg
			ocfg.Obs = obs.NewRegistry()
			id := b.spans.begin("core", "open", -1)
			_, oerr := core.OpenShardCampaign(ocfg)
			b.spans.end(id)
			if oerr != nil {
				err = fmt.Errorf("cell %s: %w", c.Key(), oerr)
				break
			}
			b.spans.splitOpen(id, ocfg.Obs)
			ref.openMs += ms(b.spans.ownOpen(id)) / float64(len(g.cells))
		}
	}
	b.adopt("in-process grid", strings.Join(digests, ","), err)
	return ref
}

// cellConfig is the core.Config a sweep cell of spec runs (sweep.runCell).
func cellConfig(spec *sweep.Spec, c sweep.Cell, workers int) core.Config {
	return core.Config{
		Year: c.Year.Year, SampleShift: spec.Shift, Seed: spec.Seed, PacketsPerSec: spec.PPS,
		Workers: workers, KeepPackets: true,
		Faults: core.FaultPlan{
			Impairments:     c.Loss.Imps,
			Retries:         c.Retry.Retries,
			AdaptiveTimeout: c.Retry.Adaptive,
			UpstreamBackoff: c.Retry.Backoff,
			MaxQueuedEvents: spec.MaxEvents,
		},
	}
}

// cycle is one service lifetime: stand-up, a cold job, a result fetch, the
// cache-hit resubmissions, and tear-down.
type cycle struct {
	setup, job, fetch time.Duration
	hitMs             []float64
	// Traced cycles only: the union of the job's RunCampaign spans, and
	// the layer values read from the job's spans and counters.
	fabricWall time.Duration
	layers     map[string]float64
}

// fleetCycle runs one cycle; traced cycles also record spans and read the
// job's and the coordinator's obs counters.
func (b *bench) fleetCycle(g *fleetGrid, traced bool) (*cycle, error) {
	goroutines := runtime.NumGoroutine()
	var tr *tracer
	if traced {
		tr = b.spans
	}
	var jobSpan atomic.Int64
	jobSpan.Store(-1)

	t0 := time.Now()
	s, err := b.startService(tr, &jobSpan)
	if err != nil {
		return nil, err
	}
	c := &cycle{setup: time.Since(t0)}
	before := sampleRuntime()
	t1 := time.Now()
	job := tr.begin("serve", "job", -1)
	jobSpan.Store(int64(job))
	sub := tr.begin("serve", "submit", job)
	v, err := s.call("POST", "/v1/jobs", g.body, http.StatusAccepted)
	tr.end(sub)
	deadline := time.Now().Add(150 * time.Second)
	for err == nil && v.State != serve.JobDone {
		switch {
		case v.State == serve.JobFailed || v.State == serve.JobCancelled:
			err = fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
		case time.Now().After(deadline):
			err = fmt.Errorf("job %s still %s at the deadline", v.ID, v.State)
		default:
			time.Sleep(5 * time.Millisecond)
			v, err = s.call("GET", "/v1/jobs/"+v.ID, nil, http.StatusOK)
		}
	}
	c.job = time.Since(t1)
	tr.end(job)
	after := sampleRuntime()
	digests := strings.Join(v.Digests, ",")
	b.note("cold job", digests, err)

	if err == nil {
		t2 := time.Now()
		fid := tr.begin("serve", "result_fetch", -1)
		code, matrix, ferr := s.do("GET", "/v1/jobs/"+v.ID+"/result", nil)
		tr.end(fid)
		c.fetch = time.Since(t2)
		if ferr == nil && code != http.StatusOK {
			ferr = fmt.Errorf("status %d", code)
		}
		for _, d := range v.Digests {
			if ferr == nil && !bytes.Contains(matrix, []byte(d)) {
				ferr = fmt.Errorf("matrix lacks cell digest %.16s", d)
			}
		}
		b.note("result fetch", digests, ferr)
		if traced {
			c.layers = b.fleetJobLayers(s, v.ID, job, before, after)
			c.fabricWall = covered(tr.get(job), tr.children(job, "run_campaign"))
		}
	}

	for i := 0; i < cacheHitsPerCycle; i++ {
		t := time.Now()
		hit, err := s.call("POST", "/v1/jobs", g.body, http.StatusOK)
		c.hitMs = append(c.hitMs, ms(time.Since(t)))
		if err == nil && (!hit.Cached || hit.State != serve.JobDone) {
			err = fmt.Errorf("resubmission not served from the digest cache: %+v", hit)
		}
		b.note("cache hit", strings.Join(hit.Digests, ","), err)
	}
	hits := s.mgr.Registry().Merged().Counter(obs.CServeCacheHits)
	if hits != cacheHitsPerCycle {
		b.note("cache-hit counter", "", fmt.Errorf("serve.cache_hits = %d after %d resubmissions", hits, cacheHitsPerCycle))
	}
	if c.layers != nil {
		c.layers["serve.cache_hits"] = float64(hits)
	}
	if n := s.coObs.Counter(obs.CFabricRequeued); n > 0 {
		b.noisy = append(b.noisy, fmt.Sprintf("fabric.shards_requeued=%d", n))
	}

	s.close()
	if err := settleGoroutines(goroutines); err != nil {
		b.note("service tear-down", "", err)
	}
	return c, nil
}

// settleGoroutines waits for the goroutine count to fall back to base.
func settleGoroutines(base int) error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines leaked", runtime.NumGoroutine()-base)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// fleetJobLayers reads one traced job's layers: the campaign counters of
// its cells from the job's registry, the coordinator's fabric counters,
// and the serve spans.
func (b *bench) fleetJobLayers(s *service, id string, job int, before, after runtimeSample) map[string]float64 {
	v := runtimeLayers(before, after)
	if reg, err := s.mgr.JobRegistry(id); err == nil && reg != nil {
		for k, x := range obsLayers(reg.Snapshot()) {
			v[k] = x
		}
	}
	for _, sp := range b.spans.children(job, "submit") {
		v["serve.submit_ms"] = ms(sp.dur())
	}
	v["fabric.envelope_bytes"] = float64(s.coObs.Counter(obs.CFabricEnvelopeBytes))
	v["fabric.leases"] = float64(s.coObs.Counter(obs.CFabricLeases))
	v["fabric.shards_requeued"] = float64(s.coObs.Counter(obs.CFabricRequeued))
	return v
}

// runFleet is the fleet-2x2 workload: service cycles until the budget is
// spent, then the in-process reference. The traced run alternates
// untraced and traced cycles.
func (b *bench) runFleet() (map[string]metric, error) {
	g, err := b.fleetGrid()
	if err != nil {
		return nil, err
	}
	// The first cycle warms the process up and is checked but not timed.
	if _, err := b.fleetCycle(g, false); err != nil {
		return nil, err
	}
	var cycles []*cycle
	start := time.Now()
	for n := 0; n < minFleetCycles || time.Since(start) < b.budget; n++ {
		c, err := b.fleetCycle(g, b.traced && n%2 == 1)
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, c)
	}
	// Read the high-water mark before the reference can raise it.
	rss := peakRSSMiB()
	ref := b.fleetReference(g)

	var setups, jobs, rates, hits, tracedJobs, plainJobs []float64
	samples := jobSamples{}
	samples.add(map[string]float64{"population.build_ms": ms(g.build)})
	for _, c := range cycles {
		setups = append(setups, (g.build + c.setup).Seconds())
		jobs = append(jobs, c.job.Seconds())
		rates = append(rates, ref.q1/c.job.Seconds())
		hits = append(hits, c.hitMs...)
		if c.layers == nil {
			plainJobs = append(plainJobs, c.job.Seconds())
			continue
		}
		b.jobs++
		tracedJobs = append(tracedJobs, c.job.Seconds())
		c.layers["serve.result_fetch_ms"] = ms(c.fetch)
		c.layers["fabric.overhead_frac"] = ratio(float64(c.fabricWall), float64(ref.cellWall)) - 1
		c.layers["dnssrv.q2"] = ref.q2
		c.layers["dnssrv.q2_per_answer"] = ratio(ref.q2, c.layers["prober.answered"])
		c.layers["core.open_ms"] = ref.openMs
		samples.add(c.layers)
	}
	if !b.traced {
		return map[string]metric{
			"probes_per_s": {median(rates), "probes/s"},
			"setup_s":      {median(setups), "s"},
			"peak_rss_mb":  {rss, "MiB"},
			"job_s":        {median(jobs), "s"},
		}, nil
	}
	samples.add(map[string]float64{
		"serve.cache_hit_ms_p50":  median(hits),
		"serve.cache_hit_ms_p99":  quantile(hits, 0.99),
		"serve.cache_hit_samples": float64(len(hits)),
		"trace_overhead_frac":     ratio(median(tracedJobs), median(plainJobs)) - 1,
	})
	return samples.metrics(), nil
}
