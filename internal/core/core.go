package core

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"sync"
	"time"

	"openresolver/internal/analysis"
	"openresolver/internal/behavior"
	"openresolver/internal/capture"
	"openresolver/internal/classify"
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
	// that runs the campaign's fixed shard plan on the shard engine both
	// modes share. A synthetic shard is a contiguous probe-index range
	// whose source addresses it reads from the segments of the assigner's
	// stride walk that hold them (DESIGN.md §2); a simulated shard is a private sub-simulation with a
	// disjoint subdomain-cluster namespace and a proportional rate slice
	// (DESIGN.md §12). Every shard has its own accumulator, merged exactly
	// in shard order. The plan is a function of the configuration and
	// population alone, never of Workers, so the report is byte-identical
	// for every value. 0 uses runtime.GOMAXPROCS(0); 1 runs the plan on a
	// single worker.
	Workers int
	// Faults configures adverse-network fault injection and the adaptive
	// retransmission machinery (simulation mode only; the zero value is a
	// pristine network with the paper's single-shot prober).
	Faults FaultPlan
	// Obs, when non-nil, receives the campaign's observability stream:
	// phase spans for every stage, one metrics shard per plan shard
	// (synth-N or sim-N, registered in shard order), and, in simulation
	// mode, the virtual-vs-wall clock ratio. Metrics never influence the
	// campaign — reports are bit-identical with Obs attached (pinned by
	// the metrics golden test).
	Obs *obs.Registry
	// Ctx, when non-nil, allows cooperative cancellation. A cancelled
	// campaign stops handing out shards, drains the shards in flight —
	// checkpointing them when Checkpoints is configured — and returns
	// ErrInterrupted at that shard boundary. Nil means run to completion.
	Ctx context.Context
	// Checkpoints configures shard-granular checkpoint/restore
	// (CheckpointPlan, DESIGN.md §13). The zero value disables it.
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
	// R2Packets are the raw captured responses, in shard order and, within
	// a shard, in arrival order (KeepPackets only; nil reads as empty). The
	// log shares each shard's chunks or envelope bytes, so reading it
	// copies nothing.
	R2Packets *capture.Log
	// Roles classifies every responder by correlating the prober and
	// authoritative captures (simulation mode with KeepPackets only).
	Roles *classify.Summary
}

// buildDeps builds cfg's threat feed and the population calibrated to it.
func buildDeps(cfg Config) (*population.Population, *threatintel.Feed, error) {
	feed := threatintel.NewFeed(cfg.Year, cfg.Seed)
	pop, err := population.Build(population.Config{
		Year: cfg.Year, SampleShift: cfg.SampleShift, Seed: cfg.Seed, Feed: feed,
	})
	return pop, feed, err
}

// openAssigner builds the campaign's scan universe and the assigner that
// draws pop's resolver addresses from it, traced as the scan-universe phase.
func openAssigner(cfg Config, pop *population.Population) (*geo.Registry, *scan.Universe, *population.Assigner, error) {
	tr := cfg.Obs.Tracer()
	defer tr.End(tr.Begin("scan-universe"))
	reg := geo.DefaultRegistry()
	u, err := scan.NewUniverse(uint64(cfg.Seed), cfg.SampleShift, ipv4.NewReservedBlocklist())
	if err != nil {
		return nil, nil, nil, err
	}
	a, err := population.NewAssigner(u, reg, pop, ProberAddr, RootAddr, TLDAddr, AuthAddr)
	return reg, u, a, err
}

// RunSynthetic streams the full campaign through the analysis pipeline:
// every response is the decoded form of the wire bytes its cohort's
// profile encodes (behavior.Template), classified by the same
// Accumulator.AddMessage as the simulation's decoded captures.
func RunSynthetic(cfg Config) (*Dataset, error) {
	pop, feed, err := buildDeps(cfg)
	if err != nil {
		return nil, err
	}
	return SynthesizePopulation(cfg, pop, feed.DB)
}

// SynthesizePopulation streams an arbitrary compiled population through
// the analysis pipeline. threat must cover every malicious address the
// population answers with (for mixed populations, merge the years' feeds).
// It is the engine behind RunSynthetic and the drift-monitoring extension.
// The campaign runs as a fixed plan of probe-range shards on the shard
// engine (campaign.go), merged in shard order; the merged dataset is
// byte-identical for every worker count.
func SynthesizePopulation(cfg Config, pop *population.Population, threat *threatintel.DB) (*Dataset, error) {
	sc, err := openSynthCampaign(cfg, pop, threat)
	if err != nil {
		return nil, err
	}
	return sc.run()
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

// synthWorker holds one shard run's accumulator and metrics shard, the
// source of its addresses, and the response template the per-probe path
// reuses, so steady-state synthesis allocates nothing per probe.
type synthWorker struct {
	clusterSize uint64
	src         shardSource
	acc         *analysis.Accumulator
	obs         *obs.Shard

	// tmpl is the response of tmplCohort's profile for the cluster whose
	// first global probe index is tmplFirst; a nil tmplCohort forces the
	// next probe to rebuild it.
	tmpl       behavior.Template
	tmplCohort *population.Cohort
	tmplFirst  uint64
}

// synthWorkers recycles synthWorker scratch across shards, so a pool worker
// that runs many shards reuses one template.
var synthWorkers = sync.Pool{New: func() any { return new(synthWorker) }}

// shardSource hands out a shard's source addresses in probe order, read in
// place: the unpinned draws from the segments of the walk that hold them,
// and the pinned ones from their country's reservation.
type shardSource struct {
	walk     [][]ipv4.Addr // the shard's unpinned draws not handed out yet
	assigner *population.Assigner
	taken    map[string]uint64 // the next reserved index per country
}

// next returns up to n of the next source addresses of a cohort pinned to
// country ("" = unpinned).
func (s *shardSource) next(country string, n uint64) []ipv4.Addr {
	if country == "" {
		d := s.walk[0]
		d, s.walk[0] = d[:min(n, uint64(len(d)))], d[min(n, uint64(len(d))):]
		if len(s.walk[0]) == 0 {
			s.walk = s.walk[1:]
		}
		return d
	}
	i := s.taken[country]
	s.taken[country] = i + n
	return s.assigner.Reserved(country)[i : i+n]
}

// run synthesizes shard p, whose source addresses the worker's source
// holds, into the worker's accumulator. The global probe index g determines
// the qname and transaction ID, and the source the address; together they
// reproduce the serial walk's exact output for the shard.
func (w *synthWorker) run(pop *population.Population, p shardPlan) error {
	g := p.start
	return p.each(pop, func(c *population.Cohort, n uint64) error {
		for n > 0 {
			src := w.src.next(c.Country, n)
			for _, addr := range src {
				if err := w.probe(c, g, addr); err != nil {
					return err
				}
				g++
			}
			n -= uint64(len(src))
		}
		return nil
	})
}

// probe synthesizes probe g of cohort, answered from src: the response is
// the worker's decoded template for the cohort and g's cluster, with g's ID
// and index patched in. The general encoder and decoder run only when the template is
// rebuilt, once per cohort and cluster.
func (w *synthWorker) probe(cohort *population.Cohort, g uint64, src ipv4.Addr) error {
	idx := g - w.tmplFirst // g's index in the template's cluster, if it is in it
	if cohort != w.tmplCohort || idx >= w.clusterSize {
		cluster := g / w.clusterSize
		w.tmplCohort = nil
		if err := w.tmpl.Build(cohort.Profile, int(cluster), paperdata.SLD); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		w.tmplCohort, w.tmplFirst = cohort, cluster*w.clusterSize
		idx = g - w.tmplFirst
	}
	n := w.tmpl.Len()
	w.obs.Inc(obs.CSynthProbes)
	w.obs.Add(obs.CSynthBytes, uint64(n))
	w.obs.Observe(obs.HRespBytes, int64(n))
	w.acc.AddMessage(src, w.tmpl.Message(ProbeQID(g), int(idx)))
	return nil
}

// synthEnv is the state every synthetic shard shares: the configuration,
// the population and plan, and the segment walk with the assigner it walks.
type synthEnv struct {
	cfg         Config
	accCfg      analysis.Config
	clusterSize int
	pop         *population.Population
	plans       []shardPlan
	assigner    *population.Assigner
	walk        *segWalk
	// pinnedAt[i] is, per country, the reserved addresses the shards
	// before shard i draw.
	pinnedAt []map[string]uint64
}

// openSynthCampaign plans a synthetic campaign and opens it on the shard
// engine with synthEnv's hooks. Each shard's place in the unpinned walk and
// in every country's reservation follows from the plan alone, so shards can
// be drawn in any order; restored shards are released from the walk.
func openSynthCampaign(cfg Config, pop *population.Population, threat *threatintel.DB) (*ShardCampaign, error) {
	if !cfg.Faults.pristine() {
		return nil, fmt.Errorf("core: fault injection requires simulation mode (the synthetic engine has no network to impair)")
	}
	reg, _, assigner, err := openAssigner(cfg, pop)
	if err != nil {
		return nil, err
	}
	env := &synthEnv{
		cfg:         cfg,
		accCfg:      analysis.Config{Year: cfg.Year, Threat: threat, Geo: reg},
		clusterSize: cfg.scaledClusterSize(),
		pop:         pop,
		plans:       planShards(pop),
		assigner:    assigner,
	}
	first, pinnedAt := drawOffsets(pop, env.plans)
	env.walk = newSegWalk(assigner, first, segmentLength(assigner.Steps(), first))
	env.pinnedAt = pinnedAt
	eng := shardEngine{label: "synth", span: "synthesize", runShard: env.runShard, merge: env.merge}
	sc, err := newShardCampaign(cfg, eng, synthKeyPlan(env.plans), env.accCfg)
	if err != nil {
		return nil, err
	}
	for i, run := range sc.runs {
		if run != nil {
			env.walk.restored(i)
		}
	}
	return sc, nil
}

// synthKeyPlan is the synthetic shard plan as the campaign key reads it:
// "shard i [start,end) cohort=c+offset".
func synthKeyPlan(plans []shardPlan) keyPlan {
	return keyPlan{shards: len(plans), line: func(buf []byte, i int) []byte {
		p := plans[i]
		return appendPlanLine(buf, i, p.start, p.end, "cohort", uint64(p.cohort), p.offset)
	}}
}

// drawOffsets returns where each shard's draws start: first[i] counts the
// unpinned draws of the shards before shard i (first has one more entry,
// the campaign's total), and pinnedAt[i] their draws from each country's
// reservation.
func drawOffsets(pop *population.Population, plans []shardPlan) (first []uint64, pinnedAt []map[string]uint64) {
	first = make([]uint64, len(plans)+1)
	pinnedAt = make([]map[string]uint64, len(plans))
	taken := make(map[string]uint64)
	for i, p := range plans {
		pinnedAt[i] = maps.Clone(taken)
		first[i+1] = first[i]
		p.each(pop, func(c *population.Cohort, n uint64) error {
			if c.Country == "" {
				first[i+1] += n
			} else {
				taken[c.Country] += n
			}
			return nil
		})
	}
	return first, pinnedAt
}

// runShard synthesizes shard i into a fresh accumulator, on scratch taken
// from synthWorkers: the worker reads the shard's unpinned draws in place
// from the segment walk, and releases them when the shard is done.
func (env *synthEnv) runShard(i int, msh *obs.Shard) (*shardRun, error) {
	w := synthWorkers.Get().(*synthWorker)
	defer synthWorkers.Put(w)
	walk, pinned, err := env.walk.acquire(i, msh, w.src.walk[:0])
	defer func() {
		env.walk.release(i, pinned)
		clear(walk) // the pooled worker keeps no segment alive
		w.src.walk = walk[:0]
	}()
	if err != nil {
		return nil, err
	}
	if w.src.taken == nil {
		w.src.taken = make(map[string]uint64)
	}
	clear(w.src.taken)
	maps.Copy(w.src.taken, env.pinnedAt[i])
	w.src.walk, w.src.assigner = walk, env.assigner
	acc := analysis.NewAccumulator(env.accCfg)
	// The template is keyed by cohort pointer, and a pooled worker outlives
	// the population its last shard ran against.
	w.clusterSize, w.acc, w.obs, w.tmplCohort = uint64(env.clusterSize), acc, msh, nil
	err = w.run(env.pop, env.plans[i])
	w.acc, w.obs = nil, nil
	if err != nil {
		return nil, err
	}
	return &shardRun{acc: acc, obs: msh}, nil
}

// merge folds the shards' accumulators in shard order — Accumulator.Merge
// is exact, so the shard layout never changes a byte — and reports them
// against the campaign counts the population and configuration imply.
func (env *synthEnv) merge(runs []*shardRun) *Dataset {
	acc := analysis.NewAccumulator(env.accCfg)
	for _, r := range runs {
		acc.Merge(r.acc)
	}
	size := uint64(env.clusterSize)
	return &Dataset{
		Config:       env.cfg,
		Report:       acc.Report(syntheticCampaignCounts(env.cfg, env.pop, env.clusterSize)),
		Population:   env.pop,
		ClustersUsed: int((env.pop.ExpectedR2 + size - 1) / size),
	}
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
	pop, feed, err := buildDeps(cfg)
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
	return sc.run()
}
