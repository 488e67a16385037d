package core

// This file is the sharded simulation engine (DESIGN.md §12). One simulated
// campaign is decomposed into a fixed set of deterministic sub-campaigns:
// contiguous slices of the probe-order index space, each executed on a fully
// private discrete-event network — its own netsim.Sim (heap, timer ring,
// host table, payload pools), DNS hierarchy, prober with a proportional
// slice of the send rate, fault pipeline forked from the plan, and private
// analysis.Accumulator — then merged in shard order. The decomposition is a
// pure function of the Config (never of Workers or GOMAXPROCS), so the
// merged dataset is byte-identical for every worker count: Workers only
// chooses how many sub-simulations run concurrently.

import (
	"fmt"
	"sort"
	"strconv"
	"time"

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

// simMaxShards caps the campaign decomposition. Sixteen sub-simulations
// saturate the machines this targets while keeping the per-shard fixed cost
// (servers, templates, heap) negligible against the event stream.
const simMaxShards = 16

// simShard is one slice of the campaign: probe-order positions
// [start, end), probed at pps packets per second against the shard's own
// disjoint subdomain-cluster namespace [firstCluster, firstCluster+clusterSpan).
type simShard struct {
	index        int
	start, end   uint64
	firstCluster int
	clusterSpan  int
	pps          uint64
}

// simShardCount returns the campaign's shard count: simMaxShards, bounded
// by the send rate (every shard's token bucket needs at least 1 pps) and
// the universe size (every shard needs at least one probe position). It
// depends on the configuration alone — never on Workers — which is what
// makes the merged report machine-independent.
func simShardCount(cfg Config, u *scan.Universe) uint64 {
	s := uint64(simMaxShards)
	if pps := cfg.pps(); pps < s {
		s = pps
	}
	if n := u.Indexes(); n < s {
		s = n
	}
	if s < 1 {
		s = 1
	}
	return s
}

// planSimShards splits the universe into balanced contiguous shards, gives
// each a disjoint cluster namespace via a prefix sum of worst-case spans,
// and splits the send rate so the shard rates sum exactly to the campaign
// rate (the remainder goes to the lowest shards).
func planSimShards(cfg Config, u *scan.Universe) []simShard {
	n := simShardCount(cfg, u)
	total := u.Indexes()
	clusterSize := uint64(cfg.scaledClusterSize())
	pps := cfg.pps()
	shards := make([]simShard, n)
	base := 0
	for w := uint64(0); w < n; w++ {
		start := total * w / n
		end := total * (w + 1) / n
		probes := end - start
		// Worst-case cluster consumption: every rotation — proactive (more
		// than 3/4 of the pool burned, pending drained) or pool-exhausted
		// (every name burned) — retires at least 3·clusterSize/4 burned
		// names, and names burn only on a response to a sent probe, so a
		// shard of P probes rotates at most 4P/(3·clusterSize) times (+1 for
		// the initial cluster, +1 slack for the integer edge). runShard
		// re-checks the bound after the run; exceeding it would collide
		// qnames across shards.
		span := int(4*probes/(3*clusterSize)) + 2
		sh := simShard{
			index: int(w), start: start, end: end,
			firstCluster: base, clusterSpan: span,
			pps: pps / n,
		}
		if w < pps%n {
			sh.pps++
		}
		shards[w] = sh
		base += span
	}
	return shards
}

// shardSeed derives shard w's private rng seed. Sub-simulations must not
// share the campaign seed directly — identical latency and jitter streams
// across shards would correlate their networks — so the seed is mixed
// through a SplitMix64 finalizer. The map (Seed, shard) → stream is pure,
// keeping every report byte a function of the configuration alone.
func shardSeed(seed int64, w int) int64 {
	x := uint64(seed) + 0x9E3779B97F4A7C15*(uint64(w)+1)
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return int64(x ^ (x >> 31))
}

// simEnv is the read-only state every shard shares: the population, the
// shard plan and each shard's resolver list, the threat and geo databases,
// and the scan universe. Nothing in it is written during the fan-out.
type simEnv struct {
	cfg    Config
	pop    *population.Population
	threat *threatintel.DB
	reg    *geo.Registry
	u      *scan.Universe
	shards []simShard
	hosts  [][]simHost // per shard, in assigner-walk order
}

// openSimCampaign plans a simulated campaign, places its resolvers, and
// opens it on the shard engine with simEnv's hooks.
func openSimCampaign(cfg Config, pop *population.Population, threat *threatintel.DB) (*ShardCampaign, error) {
	if cfg.SampleShift < 6 {
		return nil, fmt.Errorf("core: simulation mode needs SampleShift ≥ 6 (got %d); use RunSynthetic for full scale", cfg.SampleShift)
	}
	reg, u, assigner, err := openAssigner(cfg, pop)
	if err != nil {
		return nil, err
	}
	shards := planSimShards(cfg, u)
	tr := cfg.Obs.Tracer()
	sp := tr.Begin("population-place")
	hosts, err := placeSimHosts(pop, assigner, u, shards)
	if err != nil {
		return nil, err
	}
	tr.End(sp)
	env := &simEnv{cfg: cfg, pop: pop, threat: threat, reg: reg, u: u, shards: shards, hosts: hosts}
	eng := shardEngine{label: "sim", span: "simulate", runShard: env.runShard, counts: env.counts}
	return newShardCampaign(cfg, eng, simKeyPlan(shards),
		analysis.Config{Year: cfg.Year, Threat: threat, Geo: reg})
}

// simKeyPlan is the simulated shard plan as the campaign key reads it:
// "shard i [start,end) clusters=first+span pps=rate".
func simKeyPlan(shards []simShard) keyPlan {
	return keyPlan{shards: len(shards), line: func(buf []byte, i int) []byte {
		sh := shards[i]
		buf = appendPlanLine(buf, sh.index, sh.start, sh.end, "clusters", uint64(sh.firstCluster), uint64(sh.clusterSpan))
		return strconv.AppendUint(append(buf, " pps="...), sh.pps, 10)
	}}
}

// simHost is one resolver: its address and its cohort's index.
type simHost struct {
	addr   ipv4.Addr
	cohort int32
}

// placeSimHosts places every resolver, at the address Assign gives it —
// the stride walk and reservations the synthetic engine draws from, and so
// the same addresses — in the shard whose probe range [start, end) holds
// the address's probe-order position. That is exact: in a campaign only a
// shard's prober sends to non-infrastructure addresses, and it sends only
// to its own range, so a resolver is reached by exactly one shard. A
// forwarder would break this (its upstream may sit in another shard), so a
// population with one is refused; population.Build never makes one.
func placeSimHosts(pop *population.Population, assigner *population.Assigner, u *scan.Universe, shards []simShard) ([][]simHost, error) {
	for ci, cohort := range pop.Cohorts {
		if cohort.Profile.ForwardTo != 0 {
			return nil, fmt.Errorf("core: simulation mode cannot place cohort %d, a forwarder: its upstream may sit in another shard", ci)
		}
	}
	// Positions are uniform over the equal shard ranges, so each list is
	// sized once for its share plus slack.
	hosts := make([][]simHost, len(shards))
	for w := range hosts {
		hosts[w] = make([]simHost, 0, pop.ExpectedR2/uint64(len(shards))*9/8+16)
	}
	err := assigner.Assign(pop, func(ci int, addr ipv4.Addr) error {
		pos, ok := u.Position(addr)
		if !ok {
			return fmt.Errorf("core: resolver address %v is outside the scan universe", addr)
		}
		w := sort.Search(len(shards), func(w int) bool { return shards[w].end > pos })
		hosts[w] = append(hosts[w], simHost{addr: addr, cohort: int32(ci)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return hosts, nil
}

// shardResolvers is what a shard's resolver stubs share, including the one
// behavior.Scratch all the shard's resolvers use — one per shard, never per
// campaign, because shards run concurrently.
type shardResolvers struct {
	sim     *netsim.Sim
	pop     *population.Population
	tune    func(*dnssrv.Recursive)
	scratch behavior.Scratch
}

// resolverStub is a dormant resolver in the shard's host table. Its first
// datagram builds the behavior.Resolver, whose registration replaces the
// stub on the same Node, and hands it that datagram.
type resolverStub struct {
	rs     *shardResolvers
	cohort int32
}

// HandleDatagram implements netsim.Host.
func (st *resolverStub) HandleDatagram(n *netsim.Node, dg netsim.Datagram) {
	rs := st.rs
	r := behavior.NewResolverTuned(rs.sim, n.Addr(), RootAddr, rs.pop.Cohorts[st.cohort].Profile, rs.tune, &rs.scratch)
	r.HandleDatagram(n, dg)
}

// runShard executes shard i: a complete private replica of the campaign's
// network — the DNS hierarchy of Fig. 1 with the tcpdump tap of Fig. 2, the
// shard's share of the resolver population, and the prober — bounded to the
// shard's probe range, cluster namespace, and rate slice.
func (env *simEnv) runShard(i int, msh *obs.Shard) (*shardRun, error) {
	cfg, sh := env.cfg, env.shards[i]
	sim := netsim.New(netsim.Config{
		Seed:    shardSeed(cfg.Seed, sh.index),
		Latency: netsim.UniformLatency(10*time.Millisecond, 80*time.Millisecond),
		// Stateful impairments fork per shard; a shared Gilbert–Elliott
		// chain would entangle the shards' trajectories (and race).
		Impairments:     netsim.CloneImpairments(cfg.Faults.Impairments),
		MaxQueuedEvents: cfg.Faults.MaxQueuedEvents,
	})

	// The auth tap counts Q2/R1 and, when the campaign keeps packets,
	// indexes each Q2's qname for the role join; no packet is copied.
	tap := &authTap{}
	if cfg.KeepPackets {
		tap.roles = classify.NewIndex()
	}
	dnssrv.NewReferralServer(sim, RootAddr, []dnssrv.Referral{
		{Zone: "net", NSName: "a.gtld-servers.net", Addr: TLDAddr},
	})
	dnssrv.NewReferralServer(sim, TLDAddr, []dnssrv.Referral{
		{Zone: paperdata.SLD, NSName: "ns1." + paperdata.SLD, Addr: AuthAddr},
	})
	auth := dnssrv.NewAuthServer(sim, dnssrv.AuthConfig{
		Addr: AuthAddr, SLD: paperdata.SLD,
		ClusterSize:  cfg.scaledClusterSize(),
		ReloadTime:   paperdata.ClusterReloadTime,
		Tap:          tap,
		FirstCluster: sh.firstCluster,
	})

	// The shard's resolvers, registered up front as dormant stubs from one
	// slice: a probe to an empty address is one miss in this shard's own
	// host table, and a resolver never reached costs only its stub.
	rs := &shardResolvers{sim: sim, pop: env.pop}
	if cfg.Faults.UpstreamBackoff {
		rs.tune = func(rec *dnssrv.Recursive) { rec.Backoff, rec.Jitter = true, true }
	}
	hosts := env.hosts[sh.index]
	stubs := make([]resolverStub, len(hosts))
	for i, h := range hosts {
		stubs[i] = resolverStub{rs: rs, cohort: h.cohort}
		sim.Register(h.addr, &stubs[i])
	}

	// The analysis pipeline, fed live with every R2, and the R2 log, kept
	// only when the campaign keeps packets.
	acc := analysis.NewAccumulator(analysis.Config{Year: cfg.Year, Threat: env.threat, Geo: env.reg})
	var r2 *capture.Log
	if cfg.KeepPackets {
		r2 = &capture.Log{}
	}

	sim.SetObserver(msh)

	// Skip runs once per scanned candidate; four address compares beat a
	// map probe on that path (and draw no hash state).
	skipInfra := func(a ipv4.Addr) bool {
		return a == ProberAddr || a == RootAddr || a == TLDAddr || a == AuthAddr
	}
	pr, err := prober.Start(sim, prober.Config{
		Addr:            ProberAddr,
		Universe:        env.u,
		RangeStart:      sh.start,
		RangeEnd:        sh.end,
		SLD:             paperdata.SLD,
		ClusterSize:     cfg.scaledClusterSize(),
		FirstCluster:    sh.firstCluster,
		PacketsPerSec:   sh.pps,
		Timeout:         2 * time.Second,
		Retries:         cfg.Faults.Retries,
		AdaptiveTimeout: cfg.Faults.AdaptiveTimeout,
		SendSkip:        cfg.sendSkip(),
		Auth:            auth,
		R2Log:           r2,
		OnR2:            acc.AddR2,
		Obs:             msh,
		Skip:            skipInfra,
	})
	if err != nil {
		return nil, err
	}

	wallStart := time.Now()
	if err := sim.Run(0); err != nil {
		return nil, err
	}
	if msh != nil {
		// Virtual-vs-wall clock ratio: how much simulated time each wall
		// second buys. Stored as two mergeable counters; consumers divide.
		// The virtual sum over shards is fixed by the decomposition, so the
		// merged counter stays workers-invariant.
		msh.Add(obs.CSimWallNanos, uint64(time.Since(wallStart)))
		msh.Add(obs.CSimVirtualNanos, uint64(sim.Now()))
	}
	if !pr.Done() {
		return nil, fmt.Errorf("core: shard %d quiesced before the prober finished", sh.index)
	}
	if used := pr.ClustersUsed(); used > sh.clusterSpan {
		return nil, fmt.Errorf("core: shard %d consumed %d clusters, over its %d-cluster namespace",
			sh.index, used, sh.clusterSpan)
	}
	var roles *classify.Summary
	if tap.roles != nil {
		roles = tap.roles.Classify(r2)
	}
	return &shardRun{
		shardCounters: shardCounters{
			NetStats:     sim.Stats(),
			FaultStats:   sim.FaultStats(),
			ProbeStats:   pr.Stats(),
			AuthCounters: tap.counters,
			Duration:     pr.Duration(),
		},
		acc:   acc,
		r2:    r2,
		roles: roles,
		obs:   msh,
	}, nil
}

// authTap is a shard's tcpdump tap at the authoritative server (Fig. 2):
// it counts Q2/R1, keeps no packets, and, when roles is set, feeds each
// inbound Q2's already-decoded qname and source into the shard's role
// index.
type authTap struct {
	counters capture.Counters // Q2 and R1 only
	roles    *classify.Index
}

// Packet implements dnssrv.Tap.
func (t *authTap) Packet(inbound bool, _ time.Duration, dg netsim.Datagram, msg *dnswire.Message) {
	if !inbound {
		t.counters.R1++
		return
	}
	t.counters.Q2++
	if t.roles != nil {
		if q, ok := msg.Question1(); ok {
			t.roles.AddQ2(q.Name, dg.Src)
		}
	}
}

// counts completes a simulated Dataset from the fold. The prober counts
// every Q1 it sends and every R2 it receives, and the fold merges its
// statistics, so the campaign's Q1/R2 and cluster counts come from the
// merged stats; Q2/R1 come from the auth taps. When the campaign keeps
// packets, the R2 logs are chained in shard order, not copied, and the
// shards' role verdicts fold in shard order: the cluster namespaces are
// disjoint, so folding them equals joining the merged streams.
func (env *simEnv) counts(ds *Dataset, f *shardFold) analysis.CampaignCounts {
	cfg := env.cfg
	ds.Population = env.pop
	ds.ClustersUsed, ds.SubdomainsReused = ds.ProbeStats.ClustersUsed, ds.ProbeStats.Reused
	if cfg.KeepPackets {
		ds.R2Packets = capture.ConcatLogs(f.r2s...)
		ds.Roles = classify.Merge(f.roles)
	}
	return analysis.CampaignCounts{
		Q1: ds.ProbeStats.Sent, Q2: f.AuthCounters.Q2, R1: f.AuthCounters.R1, R2: ds.ProbeStats.Received,
		Duration: f.Duration, PacketsPerSec: cfg.pps(), SampleShift: cfg.SampleShift,
	}
}
