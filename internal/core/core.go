package core

import (
	"context"
	"fmt"
	"runtime"
	"time"
	"unsafe"

	"openresolver/internal/analysis"
	"openresolver/internal/behavior"
	"openresolver/internal/capture"
	"openresolver/internal/classify"
	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/geo"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
	"openresolver/internal/obs"
	"openresolver/internal/paperdata"
	"openresolver/internal/population"
	"openresolver/internal/prober"
	"openresolver/internal/scan"
	"openresolver/internal/threatintel"
)

// Infrastructure addresses of the measurement (outside every reserved
// block; excluded from probing like the paper's own systems).
var (
	// ProberAddr hosts the modified-ZMap prober (a campus address, as in
	// the paper's UCF deployment).
	ProberAddr = ipv4.MustParseAddr("132.170.3.9")
	// RootAddr stands in for the root name-server infrastructure.
	RootAddr = ipv4.MustParseAddr("198.41.0.4")
	// TLDAddr stands in for the .net gTLD servers.
	TLDAddr = ipv4.MustParseAddr("192.5.6.30")
	// AuthAddr is the controlled authoritative server (a cloud instance in
	// the paper).
	AuthAddr = ipv4.MustParseAddr("45.76.1.10")
)

// Config parameterizes a campaign run.
type Config struct {
	// Year selects the 2013 or 2018 campaign model.
	Year paperdata.Year
	// SampleShift scales the universe and population to 1/2^SampleShift.
	SampleShift uint8
	// Seed drives all randomness.
	Seed int64
	// PacketsPerSec overrides the campaign's probe rate (0 = paper value).
	PacketsPerSec uint64
	// KeepPackets retains raw R2 packets in the dataset (simulation mode).
	KeepPackets bool
	// Workers sets the campaign's parallelism: the size of the worker pool
	// that runs the campaign's fixed shard plan. Synthetic mode splits the
	// population into a fixed number of contiguous probe-index shards, each
	// drawing from a fork of one running assigner cursor, accumulated per
	// worker and merged exactly (DESIGN.md §2). Simulation mode's shards
	// are private sub-simulations — contiguous probe-range shards with
	// disjoint subdomain-cluster namespaces and proportional rate slices
	// (DESIGN.md §12). In both modes the plan is a function of the
	// configuration alone, never of Workers, so the report is
	// byte-identical for every value. 0 uses runtime.GOMAXPROCS(0); 1 runs
	// the plan on a single worker.
	Workers int
	// Faults configures adverse-network fault injection and the adaptive
	// retransmission machinery (simulation mode only; the zero value is a
	// pristine network with the paper's single-shot prober).
	Faults FaultPlan
	// Obs, when non-nil, receives the campaign's observability stream:
	// phase spans for every stage, one metrics shard per worker (in
	// simulation mode, one per sub-simulation, registered in shard order),
	// and the virtual-vs-wall clock ratio. Metrics never influence the
	// campaign — reports are bit-identical with Obs attached (pinned by
	// the metrics golden test).
	Obs *obs.Registry
	// Ctx, when non-nil, allows cooperative cancellation. A cancelled
	// campaign stops dispatching work at the next shard boundary
	// (simulation mode) or probe batch (synthetic mode), drains what is in
	// flight — checkpointing it when Checkpoints is configured — and
	// returns ErrInterrupted. Nil means run to completion.
	Ctx context.Context
	// Checkpoints configures shard-granular checkpoint/restore for
	// simulation-mode campaigns (DESIGN.md §13): every completed
	// sub-simulation is persisted atomically, and a rerun with the same
	// configuration and checkpoint directory resumes from the completed
	// shards, producing byte-identical output. The zero value disables
	// checkpointing.
	Checkpoints CheckpointPlan
}

// FaultPlan wires the fault-injection layer and the retransmission engines
// through a simulated campaign (DESIGN.md §8).
type FaultPlan struct {
	// Impairments degrade the network (netsim's composable fault pipeline:
	// burst loss, duplication, reordering, corruption, blackholes,
	// brownouts — see netsim.ParseImpairments for the CLI spec grammar).
	Impairments []netsim.Impairment
	// Retries is the prober's per-probe retransmission budget.
	Retries int
	// AdaptiveTimeout replaces the prober's fixed 2s timeout with the
	// Jacobson/Karn RTO estimator.
	AdaptiveTimeout bool
	// UpstreamBackoff hardens every resolver's recursion engine: upstream
	// retries back off exponentially with jitter instead of re-firing on a
	// fixed interval.
	UpstreamBackoff bool
	// MaxQueuedEvents bounds the simulator's event queue — the safety
	// valve the chaos tests use to prove impairments cannot feed back into
	// queue blowup. 0 means unbounded.
	MaxQueuedEvents int
}

// pristine reports whether the plan changes anything at all.
func (f FaultPlan) pristine() bool {
	return len(f.Impairments) == 0 && f.Retries == 0 && !f.AdaptiveTimeout &&
		!f.UpstreamBackoff && f.MaxQueuedEvents == 0
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) pps() uint64 {
	if c.PacketsPerSec > 0 {
		return c.PacketsPerSec
	}
	return paperdata.Campaigns[c.Year].PacketsPerSec
}

// scaledClusterSize returns the subdomain-cluster size at the run's scale.
func (c Config) scaledClusterSize() int {
	s := paperdata.ClusterSize >> c.SampleShift
	if s < 16 {
		s = 16
	}
	return s
}

// sendSkip returns the modeled 2013 send-loss probability (discrepancy D2).
func (c Config) sendSkip() float64 {
	if c.Year != paperdata.Y2013 {
		return 0
	}
	allowed := float64(paperdata.Campaigns[paperdata.Y2018].Q1)
	return 1 - float64(paperdata.Campaigns[paperdata.Y2013].Q1)/allowed
}

// Dataset is the outcome of one campaign.
type Dataset struct {
	Config Config
	// Report carries every regenerated table.
	Report *analysis.Report
	// Population is the compiled resolver population the campaign ran
	// against.
	Population *population.Population
	// ClustersUsed counts subdomain clusters consumed (§III-B).
	ClustersUsed int
	// SubdomainsReused counts pool returns (simulation mode).
	SubdomainsReused uint64
	// NetStats are the simulator's packet counters (simulation mode).
	NetStats netsim.Stats
	// FaultStats count the impairment pipeline's interventions (simulation
	// mode; all zero on a pristine network).
	FaultStats netsim.FaultStats
	// ProbeStats is the prober's counter snapshot, including the
	// retransmission engine's retransmit/late/duplicate/gave-up counters
	// (simulation mode).
	ProbeStats prober.Stats
	// R2Packets are the raw captured responses (KeepPackets only).
	R2Packets []capture.Packet
	// Roles classifies every responder by correlating the prober and
	// authoritative captures (simulation mode with KeepPackets only).
	Roles *classify.Summary
}

// buildDeps constructs the shared dependencies of both modes.
func buildDeps(cfg Config) (*population.Population, *threatintel.Feed, *geo.Registry, *scan.Universe, error) {
	feed := threatintel.NewFeed(cfg.Year, cfg.Seed)
	pop, err := population.Build(population.Config{
		Year: cfg.Year, SampleShift: cfg.SampleShift, Seed: cfg.Seed, Feed: feed,
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	reg := geo.DefaultRegistry()
	u, err := scan.NewUniverse(uint64(cfg.Seed), cfg.SampleShift, ipv4.NewReservedBlocklist())
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return pop, feed, reg, u, nil
}

// RunSynthetic streams the full campaign through the analysis pipeline:
// every response is encoded to wire format and decoded back by the
// analyzer, exercising the identical classification path as the simulation.
func RunSynthetic(cfg Config) (*Dataset, error) {
	pop, feed, _, _, err := buildDeps(cfg)
	if err != nil {
		return nil, err
	}
	return SynthesizePopulation(cfg, pop, feed.DB)
}

// SynthesizePopulation streams an arbitrary compiled population through
// the analysis pipeline. threat must cover every malicious address the
// population answers with (for mixed populations, merge the years' feeds).
// It is the engine behind RunSynthetic and the drift-monitoring extension.
func SynthesizePopulation(cfg Config, pop *population.Population, threat *threatintel.DB) (*Dataset, error) {
	if !cfg.Faults.pristine() {
		return nil, fmt.Errorf("core: fault injection requires simulation mode (the synthetic engine has no network to impair)")
	}
	tr := cfg.Obs.Tracer()
	sp := tr.Begin("scan-universe")
	reg := geo.DefaultRegistry()
	u, err := scan.NewUniverse(uint64(cfg.Seed), cfg.SampleShift, ipv4.NewReservedBlocklist())
	if err != nil {
		return nil, err
	}
	assigner, err := population.NewAssigner(u, reg, pop, ProberAddr, RootAddr, TLDAddr, AuthAddr)
	if err != nil {
		return nil, err
	}
	tr.End(sp)
	clusterSize := cfg.scaledClusterSize()
	sp = tr.Begin("synthesize")
	acc, err := synthesize(cfg, pop, threat, reg, assigner, clusterSize)
	if err != nil {
		return nil, err
	}
	tr.End(sp)

	sp = tr.Begin("report")
	camp := syntheticCampaignCounts(cfg, pop, clusterSize)
	ds := &Dataset{
		Config:       cfg,
		Report:       acc.Report(camp),
		Population:   pop,
		ClustersUsed: int((pop.ExpectedR2 + uint64(clusterSize) - 1) / uint64(clusterSize)),
	}
	tr.End(sp)
	return ds, nil
}

// ProbeQID returns the DNS transaction ID of the probe at zero-based
// global index i. IDs start at 1 and wrap modulo 2^16 — i.e. every 65,536
// probes the ID passes through 0 — exactly reproducing the serial engine's
// historical bare uint16 increment. Making the wrap explicit gives shards
// a well-defined starting ID derived from their global offset alone.
func ProbeQID(i uint64) uint16 {
	return uint16((i + 1) & 0xFFFF)
}

// synthShards is the size of the synthetic engine's shard plan. The count
// is fixed — it never depends on Workers — and fine enough for the work
// queue to keep every worker busy: population.Build emits cohorts grouped
// by class, so per-probe cost varies along the probe range and one shard
// per worker would leave the cheap shards' workers idle.
const synthShards = 64

// shardPlan is one contiguous slice of a synthetic campaign: the global
// probe-index range it synthesizes and where that range starts in the
// cohort list.
type shardPlan struct {
	start, end uint64 // global probe indexes [start, end)
	cohort     int    // index of the cohort containing start
	offset     uint64 // probes into that cohort at start
}

// planShards splits pop's probes into min(synthShards, probes) balanced
// contiguous shards, locating every shard's start in one walk over the
// cohort list.
func planShards(pop *population.Population) []shardPlan {
	var total uint64
	for _, c := range pop.Cohorts {
		total += c.Count
	}
	n := min(uint64(synthShards), total)
	plans := make([]shardPlan, 0, n)
	var cum uint64 // global index at the start of cohort ci
	ci := 0
	for s := uint64(0); s < n; s++ {
		start := total * s / n
		for cum+pop.Cohorts[ci].Count <= start {
			cum += pop.Cohorts[ci].Count
			ci++
		}
		plans = append(plans, shardPlan{start: start, end: total * (s + 1) / n, cohort: ci, offset: start - cum})
	}
	return plans
}

// each calls fn, in order, with every cohort the shard covers and the
// number of the shard's probes that fall in it.
func (p shardPlan) each(pop *population.Population, fn func(c *population.Cohort, n uint64) error) error {
	off := p.offset
	for g, ci := p.start, p.cohort; g < p.end; ci++ {
		c := &pop.Cohorts[ci]
		n := min(c.Count-off, p.end-g)
		if err := fn(c, n); err != nil {
			return err
		}
		g += n
		off = 0
	}
	return nil
}

// skip advances a past every source address the shard draws.
func (p shardPlan) skip(pop *population.Population, a *population.Assigner) error {
	return p.each(pop, func(c *population.Cohort, n uint64) error {
		if c.Country == "" {
			return a.AdvanceUnpinned(n)
		}
		return a.AdvanceCountry(c.Country, n)
	})
}

// synthJob is one shard handed to the worker pool, with the assigner
// cursor positioned at the shard's first draw.
type synthJob struct {
	shard    int
	plan     shardPlan
	assigner *population.Assigner
}

// synthWorker holds one pool worker's streaming state: its accumulator,
// its metrics shard, and the scratch the per-probe path reuses — query and
// response messages, the encode buffer, the qname buffer and the decode
// message — so steady-state synthesis allocates nothing per probe.
type synthWorker struct {
	clusterSize uint64
	assigner    *population.Assigner
	acc         *analysis.Accumulator
	obs         *obs.Shard

	query, resp, decoded dnswire.Message
	buf, name            []byte
}

// run synthesizes one shard into the worker's accumulator. The global
// probe index g determines the qname and transaction ID; the job's
// assigner cursor determines the source address; together they reproduce
// the serial walk's exact output for the shard. Cancellation is polled
// every 64Ki probes — cheap against the per-probe work, fine-grained
// against a multi-minute campaign.
func (w *synthWorker) run(ctx context.Context, pop *population.Population, job synthJob) error {
	w.assigner = job.assigner
	g := job.plan.start
	return job.plan.each(pop, func(c *population.Cohort, n uint64) error {
		for end := g + n; g < end; g++ {
			if g&0xFFFF == 0 && ctx.Err() != nil {
				return ErrInterrupted
			}
			if err := w.probe(c, g); err != nil {
				return err
			}
		}
		return nil
	})
}

func (w *synthWorker) probe(cohort *population.Cohort, g uint64) error {
	src, err := w.assigner.Next(cohort.Country)
	if err != nil {
		return err
	}
	w.name = dnssrv.AppendProbeName(w.name[:0],
		int(g/w.clusterSize), int(g%w.clusterSize), paperdata.SLD)
	// Probe names are already canonical (lowercase, no trailing dot), so
	// the qname aliases the name buffer instead of copying it. The alias
	// lives only until the next probe rewrites the buffer: the query and
	// response built here are encoded and dropped within this call, and
	// the accumulator reads names from its own decode of the wire bytes.
	qname := unsafe.String(unsafe.SliceData(w.name), len(w.name))
	w.query.Header = dnswire.Header{ID: ProbeQID(g), RD: true}
	w.query.Questions = append(w.query.Questions[:0],
		dnswire.Question{Name: qname, Type: dnswire.TypeA, Class: dnswire.ClassIN})
	res := dnssrv.Result{}
	if cohort.Profile.Answer == behavior.AnswerTruth {
		res = dnssrv.Result{Addr: dnssrv.TruthAddr(qname), Rcode: dnswire.RcodeNoError, OK: true}
	}
	behavior.BuildResponseInto(&w.resp, &w.query, cohort.Profile, res)
	w.buf, err = w.resp.Append(w.buf[:0])
	if err != nil {
		return fmt.Errorf("core: encode response: %w", err)
	}
	w.obs.Inc(obs.CSynthProbes)
	w.obs.Add(obs.CSynthBytes, uint64(len(w.buf)))
	w.obs.Observe(obs.HRespBytes, int64(len(w.buf)))
	w.acc.AddR2Into(src, w.buf, &w.decoded)
	return nil
}

// synthesize streams the whole population through the analysis pipeline.
// The fixed shard plan runs on a pool of cfg.workers() goroutines, each
// accumulating every shard it takes into its own accumulator. The
// dispatcher hands each shard a fork of one running assigner cursor and
// then advances the cursor past the shard's draws, so every shard draws
// exactly the source addresses the serial walk would, and the walk is
// made once per campaign, overlapped with the workers. Accumulator.Merge
// is exact and order-free, so the merged accumulator is identical for
// every worker count.
func synthesize(cfg Config, pop *population.Population, threat *threatintel.DB,
	reg *geo.Registry, cursor *population.Assigner, clusterSize int) (*analysis.Accumulator, error) {
	plans := planShards(pop)
	accCfg := analysis.Config{Year: cfg.Year, Threat: threat, Geo: reg}
	ws := make([]*synthWorker, min(cfg.workers(), max(len(plans), 1)))
	for i := range ws {
		ws[i] = &synthWorker{
			clusterSize: uint64(clusterSize),
			acc:         analysis.NewAccumulator(accCfg),
			// Registered here, in worker order, so the snapshot's shard
			// list is deterministic regardless of goroutine scheduling.
			obs:  cfg.Obs.NewShard(fmt.Sprintf("synth-%d", i)),
			buf:  make([]byte, 0, 512),
			name: make([]byte, 0, 64),
		}
	}

	ctx := cfg.ctx()
	// A shard that never runs — the dispatch stopped or the pool dropped
	// it on cancellation — keeps ErrInterrupted.
	errs := make([]error, len(plans))
	for i := range errs {
		errs[i] = ErrInterrupted
	}
	pool := startPool(ctx, len(ws), func(w int, job synthJob) {
		errs[job.shard] = ws[w].run(ctx, pop, job)
	})
	var err error
	for i, plan := range plans {
		if !pool.send(synthJob{shard: i, plan: plan, assigner: cursor.Fork()}) {
			break
		}
		if err = plan.skip(pop, cursor); err != nil {
			break
		}
	}
	pool.wait()
	if err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	acc := ws[0].acc
	for _, w := range ws[1:] {
		acc.Merge(w.acc)
	}
	return acc, nil
}

// syntheticCampaignCounts derives the Table II row for a synthetic run: Q1
// from the universe (minus modeled 2013 send loss), Q2/R1 from the
// population's calibrated upstream plan, and the duration from the probe
// rate plus cluster-reload pauses.
func syntheticCampaignCounts(cfg Config, pop *population.Population, clusterSize int) analysis.CampaignCounts {
	camp := paperdata.Campaigns[cfg.Year]
	q1 := camp.Q1
	if cfg.SampleShift > 0 {
		half := uint64(1) << cfg.SampleShift >> 1
		q1 = (q1 + half) >> cfg.SampleShift
	}
	pps := cfg.pps()
	clusters := (pop.ExpectedR2 + uint64(clusterSize) - 1) / uint64(clusterSize)
	dur := time.Duration(q1/pps)*time.Second +
		time.Duration(clusters)*paperdata.ClusterReloadTime
	return analysis.CampaignCounts{
		Q1: q1, Q2: pop.ExpectedQ2, R1: pop.ExpectedQ2, R2: pop.ExpectedR2,
		Duration: dur, PacketsPerSec: pps, SampleShift: cfg.SampleShift,
	}
}

// RunSimulation executes the campaign on the discrete-event network.
func RunSimulation(cfg Config) (*Dataset, error) {
	pop, feed, _, _, err := buildDeps(cfg)
	if err != nil {
		return nil, err
	}
	return SimulatePopulation(cfg, pop, feed.DB)
}

// SimulatePopulation executes an arbitrary compiled population on the
// discrete-event network — the simulation-mode mirror of
// SynthesizePopulation, and like it usable with mixed populations and
// merged threat feeds (drift monitoring). cfg.Faults applies here: each
// sub-simulation's network is built with the plan's impairments (stateful
// pipelines forked per shard) and the prober and resolver population get
// its retransmission knobs. The campaign runs as a fixed set of private
// sub-simulations scheduled over cfg.Workers goroutines and merged in
// shard order (simshard.go); the merged dataset is byte-identical for
// every worker count.
func SimulatePopulation(cfg Config, pop *population.Population, threat *threatintel.DB) (*Dataset, error) {
	sc, err := openSimCampaign(cfg, pop, threat)
	if err != nil {
		return nil, err
	}
	tr := cfg.Obs.Tracer()
	errs := make([]error, len(sc.shards))

	// runShard executes one pending shard and, on success, persists it at
	// the shard boundary — the atomic unit of crash-safe progress. Each
	// shard index is owned by exactly one goroutine, so runs/errs writes
	// need no lock.
	runShard := func(i int) {
		sc.runs[i], errs[i] = runSimShard(sc.env, sc.shards[i], sc.obsShards[i])
		if errs[i] == nil && sc.store != nil {
			sc.store.write(i, sc.runs[i])
		}
	}

	ctx := cfg.ctx()
	sp := tr.Begin("simulate")
	// Graceful shutdown: on cancellation, stop dispatching but let every
	// in-flight shard drain (and checkpoint) before returning.
	pool := startPool(ctx, min(cfg.workers(), len(sc.shards)), func(_ int, i int) { runShard(i) })
	for i := range sc.shards {
		if sc.runs[i] == nil && !pool.send(i) {
			break
		}
	}
	pool.wait()
	tr.End(sp)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, run := range sc.runs {
		if run == nil {
			// Cancelled before every shard completed. Completed shards are
			// checkpointed; rerunning the same configuration resumes there.
			return nil, fmt.Errorf("core: %w: campaign stopped at a shard boundary", ErrInterrupted)
		}
	}

	sp = tr.Begin("report")
	ds, err := sc.Merge()
	tr.End(sp)
	return ds, err
}
