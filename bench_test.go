package openresolver

// One benchmark per table and figure of the paper's evaluation, plus
// ablations for the design choices DESIGN.md calls out. Each Table
// benchmark regenerates its table from a (scaled) campaign; the campaign
// itself is memoized per configuration so individual table benches measure
// extraction + verification cost while BenchmarkCampaign* measure the
// end-to-end runs.
//
// Run with:
//
//	go test -bench=. -benchmem
import (
	"sync"
	"testing"
	"time"

	"openresolver/internal/amplify"
	"openresolver/internal/analysis"
	"openresolver/internal/behavior"
	"openresolver/internal/capture"
	"openresolver/internal/classify"
	"openresolver/internal/clientload"
	"openresolver/internal/core"
	"openresolver/internal/dnssec"
	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/drift"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
	"openresolver/internal/paperdata"
	"openresolver/internal/prober"
	"openresolver/internal/scan"
	"openresolver/internal/threatintel"
)

// benchShift scales the benchmark campaigns to 1/2^benchShift of the IPv4
// space — large enough that every table is populated, small enough for
// stable benchmark iterations.
const benchShift = 10

var (
	benchMu      sync.Mutex
	benchReports = map[paperdata.Year]*analysis.Report{}
)

func benchReport(b *testing.B, y paperdata.Year) *analysis.Report {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if r, ok := benchReports[y]; ok {
		return r
	}
	ds, err := core.RunSynthetic(core.Config{Year: y, SampleShift: benchShift, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	benchReports[y] = ds.Report
	return ds.Report
}

// BenchmarkTableI regenerates the RFC exclusion table and its union size.
func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bl := ipv4.NewReservedBlocklist()
		if bl.Size() != 592708864 {
			b.Fatal("wrong reserved union")
		}
		_ = analysis.RenderTableI()
	}
}

// BenchmarkTableII regenerates the campaign summary (probe counts, Q2/R1,
// R2, duration) for both years.
func BenchmarkTableII(b *testing.B) {
	r13, r18 := benchReport(b, paperdata.Y2013), benchReport(b, paperdata.Y2018)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r13.RenderTableII() == "" || r18.RenderTableII() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableIII regenerates answer presence and correctness.
func BenchmarkTableIII(b *testing.B) {
	r := benchReport(b, paperdata.Y2018)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Correctness.With() == 0 {
			b.Fatal("empty correctness")
		}
		_ = r.RenderTableIII()
	}
}

// BenchmarkTableIV regenerates the RA-bit statistics.
func BenchmarkTableIV(b *testing.B) {
	r := benchReport(b, paperdata.Y2018)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.RA.Flag0.Total()+r.RA.Flag1.Total() == 0 {
			b.Fatal("empty RA table")
		}
		_ = r.RenderTableIV()
	}
}

// BenchmarkTableV regenerates the AA-bit statistics.
func BenchmarkTableV(b *testing.B) {
	r := benchReport(b, paperdata.Y2018)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.AA.Flag1.Total() == 0 {
			b.Fatal("empty AA table")
		}
		_ = r.RenderTableV()
	}
}

// BenchmarkTableVI regenerates the rcode distribution.
func BenchmarkTableVI(b *testing.B) {
	r := benchReport(b, paperdata.Y2018)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.RenderTableVI()
	}
}

// BenchmarkTableVII regenerates the incorrect-answer form breakdown.
func BenchmarkTableVII(b *testing.B) {
	r := benchReport(b, paperdata.Y2018)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Forms.IP.Packets == 0 {
			b.Fatal("empty forms")
		}
		_ = r.RenderTableVII()
	}
}

// BenchmarkTableVIII regenerates the top-10 incorrect addresses with their
// whois-style organizations and threat-report flags.
func BenchmarkTableVIII(b *testing.B) {
	r := benchReport(b, paperdata.Y2018)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.Top10) == 0 {
			b.Fatal("empty top-10")
		}
		_ = r.RenderTableVIII()
	}
}

// BenchmarkTableIX regenerates the malicious-category breakdown for both
// years (the paper's central threat-evolution comparison).
func BenchmarkTableIX(b *testing.B) {
	r13, r18 := benchReport(b, paperdata.Y2013), benchReport(b, paperdata.Y2018)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r13.MaliciousTotal.R2 == 0 || r18.MaliciousTotal.R2 == 0 {
			b.Fatal("empty malicious tables")
		}
		_ = r13.RenderTableIX()
		_ = r18.RenderTableIX()
	}
}

// BenchmarkTableX regenerates the RA/AA analysis of malicious responses.
func BenchmarkTableX(b *testing.B) {
	r := benchReport(b, paperdata.Y2018)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.MalFlags.RA0+r.MalFlags.RA1 == 0 {
			b.Fatal("empty Table X")
		}
		_ = r.RenderTableX()
	}
}

// BenchmarkGeoDistribution regenerates the in-text malicious-resolver
// country distribution.
func BenchmarkGeoDistribution(b *testing.B) {
	r := benchReport(b, paperdata.Y2018)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.MaliciousGeo) == 0 {
			b.Fatal("empty geo")
		}
		_ = r.RenderGeo()
	}
}

// BenchmarkFig1ResolutionChain measures one full Fig. 1 walk: a recursive
// resolution through root → TLD → authoritative on the simulator.
func BenchmarkFig1ResolutionChain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := netsim.New(netsim.Config{Seed: int64(i), Latency: netsim.ConstantLatency(time.Millisecond)})
		dnssrv.NewReferralServer(sim, core.RootAddr, []dnssrv.Referral{
			{Zone: "net", NSName: "a.gtld-servers.net", Addr: core.TLDAddr},
		})
		dnssrv.NewReferralServer(sim, core.TLDAddr, []dnssrv.Referral{
			{Zone: paperdata.SLD, NSName: "ns1." + paperdata.SLD, Addr: core.AuthAddr},
		})
		dnssrv.NewAuthServer(sim, dnssrv.AuthConfig{Addr: core.AuthAddr, SLD: paperdata.SLD, ClusterSize: 1000})
		var rec *dnssrv.Recursive
		node := sim.Register(ipv4.MustParseAddr("66.1.2.3"), netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
			if msg, err := dnswire.Unpack(dg.Payload); err == nil && msg.Header.QR {
				rec.HandleResponse(msg)
			}
		}))
		rec = dnssrv.NewRecursive(node, core.RootAddr)
		var ok bool
		rec.Resolve(dnssrv.FormatProbeName(0, i%1000, paperdata.SLD), func(r dnssrv.Result) { ok = r.OK })
		if err := sim.Run(0); err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatal("resolution failed")
		}
	}
}

// authCapture is the tcpdump tap of Fig. 2 at the authoritative server: it
// keeps every Q2 and R1 in a record log.
type authCapture struct{ capture.Log }

// Packet implements dnssrv.Tap.
func (c *authCapture) Packet(inbound bool, at time.Duration, dg netsim.Datagram, _ *dnswire.Message) {
	kind := capture.KindR1
	if inbound {
		kind = capture.KindQ2
	}
	c.Append(capture.Packet{Kind: kind, At: at, Src: dg.Src, Dst: dg.Dst, Payload: dg.Payload})
}

// BenchmarkFig2FlowCapture measures the Q1/Q2/R1/R2 capture-and-group path
// of Fig. 2 on a miniature campaign.
func BenchmarkFig2FlowCapture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := netsim.New(netsim.Config{Seed: int64(i), Latency: netsim.ConstantLatency(time.Millisecond)})
		dnssrv.NewReferralServer(sim, core.RootAddr, []dnssrv.Referral{
			{Zone: "net", NSName: "a.gtld-servers.net", Addr: core.TLDAddr},
		})
		dnssrv.NewReferralServer(sim, core.TLDAddr, []dnssrv.Referral{
			{Zone: paperdata.SLD, NSName: "ns1." + paperdata.SLD, Addr: core.AuthAddr},
		})
		auth := dnssrv.NewAuthServer(sim, dnssrv.AuthConfig{
			Addr: core.AuthAddr, SLD: paperdata.SLD, ClusterSize: 64, Tap: &authCapture{},
		})
		u, err := scan.NewUniverse(uint64(i), 26, nil) // 64 candidates
		if err != nil {
			b.Fatal(err)
		}
		it := u.Iterate()
		for j := 0; j < 4; j++ {
			a, ok := it.Next()
			if !ok {
				b.Fatal("universe too small")
			}
			behavior.NewResolver(sim, a, core.RootAddr, behavior.Honest(1))
		}
		log := capture.NewProbeLog()
		if _, err := prober.Start(sim, prober.Config{
			Addr: core.ProberAddr, Universe: u, SLD: paperdata.SLD,
			ClusterSize: 64, PacketsPerSec: 10000, Timeout: time.Second,
			Auth: auth, Log: log,
		}); err != nil {
			b.Fatal(err)
		}
		if err := sim.Run(0); err != nil {
			b.Fatal(err)
		}
		flows := capture.GroupFlows(log.R2Log())
		if len(flows) == 0 {
			b.Fatal("no flows captured")
		}
	}
}

// BenchmarkFig3SubdomainClusters measures two-tier subdomain generation and
// parsing (Fig. 3).
func BenchmarkFig3SubdomainClusters(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		name := dnssrv.FormatProbeName(i%800, i%5000000, paperdata.SLD)
		pn, err := dnssrv.ParseProbeName(name, paperdata.SLD)
		if err != nil || pn.Cluster != i%800 {
			b.Fatal("round trip failed")
		}
	}
}

// BenchmarkFig4ThreatLookup measures a Cymon-style lookup with category
// aggregation (Fig. 4).
func BenchmarkFig4ThreatLookup(b *testing.B) {
	feed := threatintel.NewFeed(paperdata.Y2018, 1)
	addrs := feed.DB.Addrs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, ok := feed.DB.Lookup(addrs[i%len(addrs)])
		if !ok {
			b.Fatal("lookup miss")
		}
		if rec.Dominant() == "" {
			b.Fatal("no dominant category")
		}
	}
}

// BenchmarkAmplification measures the §II-C amplification attack
// simulation (ANY queries, record-rich zone).
func BenchmarkAmplification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := amplify.Run(amplify.Config{
			Resolvers: 100, QueriesPerResolver: 5,
			QueryType: dnswire.TypeANY, ZoneRecords: 24, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Factor < 5 {
			b.Fatal("no amplification")
		}
	}
}

// BenchmarkSubdomainReuse is the §III-B ablation: a campaign with
// subdomain reuse enabled, to contrast with BenchmarkNoSubdomainReuse.
func BenchmarkSubdomainReuse(b *testing.B) {
	clusters := benchReuseCampaign(b, false)
	b.ReportMetric(float64(clusters), "clusters")
}

// BenchmarkNoSubdomainReuse disables reuse: the same campaign consumes the
// theoretical number of clusters (the paper's 800 at full scale).
func BenchmarkNoSubdomainReuse(b *testing.B) {
	clusters := benchReuseCampaign(b, true)
	b.ReportMetric(float64(clusters), "clusters")
}

func benchReuseCampaign(b *testing.B, disable bool) int {
	b.Helper()
	var clusters int
	for i := 0; i < b.N; i++ {
		sim := netsim.New(netsim.Config{Seed: int64(i), Latency: netsim.ConstantLatency(time.Millisecond)})
		dnssrv.NewReferralServer(sim, core.RootAddr, []dnssrv.Referral{
			{Zone: "net", NSName: "a.gtld-servers.net", Addr: core.TLDAddr},
		})
		dnssrv.NewReferralServer(sim, core.TLDAddr, []dnssrv.Referral{
			{Zone: paperdata.SLD, NSName: "ns1." + paperdata.SLD, Addr: core.AuthAddr},
		})
		auth := dnssrv.NewAuthServer(sim, dnssrv.AuthConfig{
			Addr: core.AuthAddr, SLD: paperdata.SLD, ClusterSize: 32,
		})
		u, err := scan.NewUniverse(uint64(i), 23, nil) // 512 candidates
		if err != nil {
			b.Fatal(err)
		}
		it := u.Iterate()
		for j := 0; j < 20; j++ {
			a, ok := it.Next()
			if !ok {
				break
			}
			behavior.NewResolver(sim, a, core.RootAddr, behavior.Honest(1))
		}
		p, err := prober.Start(sim, prober.Config{
			Addr: core.ProberAddr, Universe: u, SLD: paperdata.SLD,
			ClusterSize: 32, PacketsPerSec: 50000, Timeout: 200 * time.Millisecond,
			Auth: auth, DisableReuse: disable,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.Run(0); err != nil {
			b.Fatal(err)
		}
		clusters = p.ClustersUsed()
	}
	return clusters
}

// BenchmarkCampaignSynthetic2018 measures a complete scaled synthetic
// campaign (population compile → wire synthesis → analysis).
func BenchmarkCampaignSynthetic2018(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := core.RunSynthetic(core.Config{Year: paperdata.Y2018, SampleShift: benchShift, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if ds.Report.Correctness.R2 == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// BenchmarkCampaignSyntheticSerial pins the legacy single-goroutine
// synthesis path (Workers: 1) — the baseline the parallel runs are
// compared against.
func BenchmarkCampaignSyntheticSerial(b *testing.B) {
	benchCampaignWorkers(b, 1)
}

// BenchmarkCampaignSyntheticParallel runs the sharded worker-pool path with
// one worker per core (Workers: 0). On a multicore host the speedup over
// BenchmarkCampaignSyntheticSerial approaches the core count; the reports
// are bit-identical either way (TestSyntheticWorkersDeterministic).
func BenchmarkCampaignSyntheticParallel(b *testing.B) {
	benchCampaignWorkers(b, 0)
}

func benchCampaignWorkers(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ds, err := core.RunSynthetic(core.Config{
			Year: paperdata.Y2018, SampleShift: benchShift, Seed: int64(i), Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		if ds.Report.Correctness.R2 == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// BenchmarkCampaignSimulation2018 measures a complete scaled end-to-end
// simulation (the paper's whole measurement pipeline).
func BenchmarkCampaignSimulation2018(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := core.RunSimulation(core.Config{Year: paperdata.Y2018, SampleShift: 14, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if ds.Report.Correctness.R2 == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// BenchmarkCampaignSimulated2013 and ...2018 are the discrete-event-core
// allocation benchmarks (BENCH_PR2.json): a full RunSimulation campaign per
// iteration with -benchmem, so allocs/op tracks the per-packet bookkeeping
// of the event queue, host table, prober, servers and resolvers.
func BenchmarkCampaignSimulated2013(b *testing.B) {
	benchCampaignSimulated(b, paperdata.Y2013)
}

func BenchmarkCampaignSimulated2018(b *testing.B) {
	benchCampaignSimulated(b, paperdata.Y2018)
}

// BenchmarkCampaignSimulatedSerial2013 and ...2018 pin the Workers=1 path
// of the same campaigns (the pre-shard engine's schedule) so the sharded
// fan-out's speedup — and its single-core overhead — are both visible in
// the BENCH_PR4.json baseline.
func BenchmarkCampaignSimulatedSerial2013(b *testing.B) {
	benchCampaignSimulatedWorkers(b, paperdata.Y2013, 1)
}

func BenchmarkCampaignSimulatedSerial2018(b *testing.B) {
	benchCampaignSimulatedWorkers(b, paperdata.Y2018, 1)
}

func benchCampaignSimulated(b *testing.B, y paperdata.Year) {
	b.Helper()
	benchCampaignSimulatedWorkers(b, y, 0)
}

func benchCampaignSimulatedWorkers(b *testing.B, y paperdata.Year, workers int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ds, err := core.RunSimulation(core.Config{Year: y, SampleShift: 14, Seed: int64(i), Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if ds.Report.Correctness.R2 == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// BenchmarkTemporalContrast runs both campaigns back to back — the
// paper's 2013-vs-2018 comparison (§IV, Tables II–IX).
func BenchmarkTemporalContrast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, y := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
			ds, err := core.RunSynthetic(core.Config{Year: y, SampleShift: 12, Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			if ds.Report.MaliciousTotal.R2 == 0 {
				b.Fatal("no malicious answers")
			}
		}
	}
}

// BenchmarkValidatorSurvey measures the §VI DNSSEC validator count
// (check-repeat methodology over a simulated resolver pool).
func BenchmarkValidatorSurvey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := dnssec.RunSurvey(dnssec.SurveyConfig{
			Resolvers: 100, ValidatorFraction: 0.27, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Validators != 27 {
			b.Fatalf("validators = %d", res.Validators)
		}
	}
}

// BenchmarkRoleClassification measures the capture-correlation classifier
// over a scaled end-to-end campaign.
func BenchmarkRoleClassification(b *testing.B) {
	ds, err := core.RunSimulation(core.Config{
		Year: paperdata.Y2018, SampleShift: 13, Seed: 1, KeepPackets: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Re-classify from the retained captures.
	r2 := ds.R2Packets
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := classify.Classify(r2, nil)
		if len(s.Verdicts) == 0 {
			b.Fatal("no verdicts")
		}
	}
}

// BenchmarkClientExposure measures the §V client-workload exposure study.
func BenchmarkClientExposure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := clientload.Run(clientload.Config{
			Clients: 200, QueriesPerClient: 10, Resolvers: 100,
			MaliciousFraction: 0.05, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Answered == 0 {
			b.Fatal("no answers")
		}
	}
}

// BenchmarkDriftTrend measures one epoch of the §V continuous-monitoring
// harness.
func BenchmarkDriftTrend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := drift.Trend(drift.Config{Epochs: 2, SampleShift: 12, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 2 {
			b.Fatal("missing epochs")
		}
	}
}
