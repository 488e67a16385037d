package prober

import (
	"testing"
	"time"

	"openresolver/internal/behavior"
	"openresolver/internal/capture"
	"openresolver/internal/dnssrv"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
	"openresolver/internal/obs"
	"openresolver/internal/scan"
)

var (
	proberAddr = ipv4.MustParseAddr("132.170.3.9")
	rootAddr   = ipv4.MustParseAddr("198.41.0.4")
	tldAddr    = ipv4.MustParseAddr("192.5.6.30")
	authAddr   = ipv4.MustParseAddr("45.76.1.10")
)

const sld = "ucfsealresearch.net"

type world struct {
	sim  *netsim.Sim
	auth *dnssrv.AuthServer
	u    *scan.Universe
}

// newWorld builds a hierarchy plus a tiny universe (2^(32-shift) candidates).
func newWorld(t *testing.T, shift uint8, clusterSize int) *world {
	t.Helper()
	return newImpairedWorld(t, shift, clusterSize, nil)
}

// newImpairedWorld is newWorld over an adverse network.
func newImpairedWorld(t *testing.T, shift uint8, clusterSize int, imps []netsim.Impairment) *world {
	t.Helper()
	sim := netsim.New(netsim.Config{Seed: 1, Latency: netsim.ConstantLatency(10 * time.Millisecond), Impairments: imps})
	dnssrv.NewReferralServer(sim, rootAddr, []dnssrv.Referral{
		{Zone: "net", NSName: "a.gtld-servers.net", Addr: tldAddr},
	})
	dnssrv.NewReferralServer(sim, tldAddr, []dnssrv.Referral{
		{Zone: sld, NSName: "ns1." + sld, Addr: authAddr},
	})
	auth := dnssrv.NewAuthServer(sim, dnssrv.AuthConfig{
		Addr: authAddr, SLD: sld, ClusterSize: clusterSize,
		ReloadTime: time.Minute,
	})
	u, err := scan.NewUniverse(42, shift, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &world{sim: sim, auth: auth, u: u}
}

// placeResolvers registers n resolvers at universe positions.
func (w *world) placeResolvers(t *testing.T, n int, profile behavior.Profile) []ipv4.Addr {
	t.Helper()
	infra := map[ipv4.Addr]bool{proberAddr: true, rootAddr: true, tldAddr: true, authAddr: true}
	var addrs []ipv4.Addr
	for idx := uint64(0); len(addrs) < n && idx < w.u.Indexes(); idx++ {
		a, ok := w.u.At(idx * 7 % w.u.Indexes())
		if !ok || infra[a] {
			continue
		}
		dup := false
		for _, prev := range addrs {
			if prev == a {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		behavior.NewResolver(w.sim, a, rootAddr, profile)
		addrs = append(addrs, a)
	}
	if len(addrs) != n {
		t.Fatalf("placed %d/%d resolvers", len(addrs), n)
	}
	return addrs
}

func startProber(t *testing.T, w *world, cfg Config) *Prober {
	t.Helper()
	if cfg.Addr == 0 {
		cfg.Addr = proberAddr
	}
	cfg.Universe = w.u
	if cfg.SLD == "" {
		cfg.SLD = sld
	}
	if cfg.PacketsPerSec == 0 {
		cfg.PacketsPerSec = 10000
	}
	if cfg.Auth == nil {
		cfg.Auth = w.auth
	}
	if cfg.Skip == nil {
		infra := map[ipv4.Addr]bool{proberAddr: true, rootAddr: true, tldAddr: true, authAddr: true}
		cfg.Skip = func(a ipv4.Addr) bool { return infra[a] }
	}
	p, err := Start(w.sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProbeCampaignCollectsAllResponders(t *testing.T) {
	w := newWorld(t, 24, 1000) // 256 candidates
	w.placeResolvers(t, 10, behavior.Honest(1))
	log := capture.NewProbeLog()
	p := startProber(t, w, Config{ClusterSize: 1000, Timeout: time.Second, Log: log})
	if err := w.sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if !p.Done() {
		t.Fatal("prober not done")
	}
	if got := log.Counters().R2; got != 10 {
		t.Errorf("R2 = %d, want 10", got)
	}
	// Q1 = all 256 candidates minus infra that fall in this universe.
	if p.Sent() < 250 || p.Sent() > 256 {
		t.Errorf("Q1 = %d", p.Sent())
	}
	if p.ClustersUsed() != 1 {
		t.Errorf("clusters = %d", p.ClustersUsed())
	}
	if p.Duration() <= 0 {
		t.Errorf("duration = %v", p.Duration())
	}
	// All non-responding probes' subdomains were reused or pending-drained.
	if p.Reused() == 0 {
		t.Error("no subdomain reuse observed")
	}
	if w.auth.QueriesSeen() != 10 {
		t.Errorf("auth saw %d Q2, want 10", w.auth.QueriesSeen())
	}
}

func TestSubdomainReuseKeepsClustersLow(t *testing.T) {
	// 256 candidates but only 24 subdomains per cluster: without reuse the
	// campaign would need ceil(256/24) = 11 clusters; with reuse only the
	// *responders* burn names, so ~2 clusters suffice for 30 responders.
	w := newWorld(t, 24, 24)
	w.placeResolvers(t, 30, behavior.Honest(1))
	p := startProber(t, w, Config{ClusterSize: 24, Timeout: 500 * time.Millisecond})
	if err := w.sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if !p.Done() {
		t.Fatal("prober not done")
	}
	if p.Received() != 30 {
		t.Errorf("received = %d", p.Received())
	}
	if p.ClustersUsed() > 3 {
		t.Errorf("clusters used = %d; reuse not effective", p.ClustersUsed())
	}
	if p.ClustersUsed() < 2 {
		t.Errorf("clusters used = %d; expected at least one rotation", p.ClustersUsed())
	}
}

func TestClusterRotationKeepsAuthInLockstep(t *testing.T) {
	w := newWorld(t, 24, 16)
	w.placeResolvers(t, 40, behavior.Honest(1))
	p := startProber(t, w, Config{ClusterSize: 16, Timeout: 300 * time.Millisecond})
	if err := w.sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if !p.Done() {
		t.Fatal("prober not done")
	}
	// Every honest resolver resolved successfully despite rotations: no
	// probe was in flight across a zone reload.
	if p.Received() != 40 {
		t.Errorf("received = %d, want 40", p.Received())
	}
	if got := w.auth.ActiveCluster() + 1; got != p.ClustersUsed() {
		t.Errorf("auth cluster %d vs prober clusters %d", got, p.ClustersUsed())
	}
}

func TestReuseAblation(t *testing.T) {
	// With reuse disabled, every candidate burns a subdomain: the campaign
	// needs the theoretical cluster count (§III-B's "800" at full scale).
	w := newWorld(t, 24, 24)
	w.placeResolvers(t, 30, behavior.Honest(1))
	p := startProber(t, w, Config{ClusterSize: 24, Timeout: 500 * time.Millisecond, DisableReuse: true})
	if err := w.sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if !p.Done() {
		t.Fatal("prober not done")
	}
	if p.Reused() != 0 {
		t.Errorf("reused = %d with reuse disabled", p.Reused())
	}
	// ~256 candidates / 24 names per cluster ≈ 11 clusters.
	if p.ClustersUsed() < 10 {
		t.Errorf("clusters used = %d, want the theoretical ~11", p.ClustersUsed())
	}
	if p.Received() != 30 {
		t.Errorf("received = %d", p.Received())
	}
}

func TestSendSkipModel(t *testing.T) {
	w := newWorld(t, 22, 5000) // 1024 candidates
	p := startProber(t, w, Config{ClusterSize: 5000, Timeout: 100 * time.Millisecond, SendSkip: 0.5})
	if err := w.sim.Run(0); err != nil {
		t.Fatal(err)
	}
	total := p.Sent() + p.Skipped()
	if total < 1000 || total > 1024 {
		t.Errorf("candidates = %d", total)
	}
	if p.Skipped() < 400 || p.Skipped() > 620 {
		t.Errorf("skipped = %d of %d at 50%%", p.Skipped(), total)
	}
}

func TestConfigValidation(t *testing.T) {
	w := newWorld(t, 24, 10)
	if _, err := Start(w.sim, Config{Addr: proberAddr, SLD: sld, ClusterSize: 10, PacketsPerSec: 1}); err == nil {
		t.Error("nil universe accepted")
	}
	if _, err := Start(w.sim, Config{Addr: proberAddr, Universe: w.u, SLD: sld, PacketsPerSec: 1}); err == nil {
		t.Error("zero cluster size accepted")
	}
	if _, err := Start(w.sim, Config{Addr: proberAddr, Universe: w.u, SLD: sld, ClusterSize: 10}); err == nil {
		t.Error("zero rate accepted")
	}
	// Index 10,000,000 renders an 8-digit label that ParseProbeName refuses,
	// so the prober could never match its answers.
	if _, err := dnssrv.ParseProbeName(dnssrv.FormatProbeName(0, maxClusterSize, sld), sld); err == nil {
		t.Error("ParseProbeName accepts 8-digit indexes; maxClusterSize can grow")
	}
	if _, err := Start(w.sim, Config{Addr: proberAddr, Universe: w.u, SLD: sld, ClusterSize: maxClusterSize + 1, PacketsPerSec: 1}); err == nil {
		t.Error("cluster size with 8-digit indexes accepted")
	}
}

func TestMixedPopulationFlows(t *testing.T) {
	w := newWorld(t, 24, 500)
	w.placeResolvers(t, 5, behavior.Honest(1))
	// A manipulator answers instantly with a fixed address; a refuser says
	// Refused; both must land in the capture log alongside honest answers.
	infra := map[ipv4.Addr]bool{proberAddr: true, rootAddr: true, tldAddr: true, authAddr: true}
	var extra []ipv4.Addr
	for idx := uint64(0); len(extra) < 2; idx++ {
		a, ok := w.u.At(w.u.Indexes() - 1 - idx)
		if !ok || infra[a] {
			continue
		}
		extra = append(extra, a)
	}
	behavior.NewResolver(w.sim, extra[0], rootAddr, behavior.Manipulator(ipv4.MustParseAddr("208.91.197.91")))
	behavior.NewResolver(w.sim, extra[1], rootAddr, behavior.Refuser())

	log := capture.NewProbeLog()
	p := startProber(t, w, Config{ClusterSize: 500, Timeout: time.Second, Log: log})
	if err := w.sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.Received() != 7 {
		t.Errorf("received = %d, want 7", p.Received())
	}
	flows := capture.GroupFlows(log.R2Log())
	if len(flows) != 7 {
		t.Errorf("flows = %d, want 7 (unique qnames)", len(flows))
	}
}

func TestLatencyMeasurement(t *testing.T) {
	w := newWorld(t, 24, 1000)
	w.placeResolvers(t, 8, behavior.Honest(1))
	sh := obs.NewShard("probe")
	p := startProber(t, w, Config{ClusterSize: 1000, Timeout: time.Second, Obs: sh})
	if err := w.sim.Run(0); err != nil {
		t.Fatal(err)
	}
	// Honest resolution at 10ms constant latency: Q1 (10) + 3 legs × RTT
	// (60) + R2 (10) = 80ms, for each of the 8 resolvers. The RTT
	// histogram keeps its exact extremes, so min = max = 80ms pins all 8.
	rtt := sh.Histogram(obs.HRTT).Snapshot()
	if rtt.Count != 8 || p.Stats().RTTSamples != 8 {
		t.Fatalf("RTT samples: histogram %d, estimator %d, want 8", rtt.Count, p.Stats().RTTSamples)
	}
	if want := uint64(80 * time.Millisecond); rtt.Min != want || rtt.Max != want {
		t.Errorf("latency range [%v, %v], want exactly 80ms", time.Duration(rtt.Min), time.Duration(rtt.Max))
	}
	// The in-flight table must not leak timed-out entries.
	for idx, at := range p.sendAt {
		if at >= 0 {
			t.Errorf("sendAt leaked entry for subdomain %d (sent at %v)", idx, at)
		}
	}
}

func TestFractionalProbeRate(t *testing.T) {
	// Scaled campaigns divide the probe rate below one probe per tick; the
	// token bucket must honor the configured rate, not round it up.
	w := newWorld(t, 24, 1000) // 256 candidates
	p := startProber(t, w, Config{ClusterSize: 1000, Timeout: 50 * time.Millisecond, PacketsPerSec: 25})
	if err := w.sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if !p.Done() {
		t.Fatal("prober not done")
	}
	// ~250 probes at 25 pps ≈ 10s of virtual time.
	min, max := 9*time.Second, 12*time.Second
	if d := p.Duration(); d < min || d > max {
		t.Errorf("duration = %v, want ≈10s at 25 pps", d)
	}
}

func TestProactiveRotationAvoidsTailCrawl(t *testing.T) {
	// When most of a pool is burned, the prober must rotate rather than
	// crawl on the remnant: 100 responders against a 64-name pool.
	w := newWorld(t, 24, 64)
	w.placeResolvers(t, 100, behavior.Honest(1))
	p := startProber(t, w, Config{ClusterSize: 64, Timeout: 300 * time.Millisecond})
	if err := w.sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.Received() != 100 {
		t.Errorf("received = %d", p.Received())
	}
	// 100 burns over 64-name pools with rotation at 48 burned: 3±1 clusters.
	if p.ClustersUsed() < 2 || p.ClustersUsed() > 4 {
		t.Errorf("clusters used = %d", p.ClustersUsed())
	}
}

func TestOnDoneCallback(t *testing.T) {
	w := newWorld(t, 24, 1000)
	var fired int
	startProber(t, w, Config{ClusterSize: 1000, Timeout: 50 * time.Millisecond, OnDone: func(*Prober) { fired++ }})
	if err := w.sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("OnDone fired %d times", fired)
	}
}
