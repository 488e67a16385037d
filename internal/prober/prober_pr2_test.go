package prober

import (
	"strings"
	"testing"
	"time"

	"openresolver/internal/capture"
	"openresolver/internal/ipv4"
)

// TestSendOnePackFailureRestoresSubdomain is the regression test for the
// subdomain-index leak: when the probe name cannot be encoded (here an SLD
// whose label exceeds 63 octets), the reserved index must return to the
// pool. The leak used to shrink every cluster by one subdomain per failed
// attempt, silently forcing extra cluster rotations.
func TestSendOnePackFailureRestoresSubdomain(t *testing.T) {
	w := newWorld(t, 24, 8) // 256 candidates
	badSLD := strings.Repeat("a", 64) + ".net"
	log := capture.NewProbeLog()
	p := startProber(t, w, Config{
		SLD: badSLD, ClusterSize: 8, Timeout: time.Second, Log: log,
	})
	if err := w.sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if !p.Done() {
		t.Fatal("campaign did not complete")
	}
	// Every encode failed before the wire: nothing sent, nothing pending,
	// and — the regression — the full pool is back in avail.
	if p.Sent() != 0 {
		t.Errorf("Sent = %d, want 0", p.Sent())
	}
	if got := log.Counters().Q1; got != 0 {
		t.Errorf("Q1 = %d, want 0", got)
	}
	if p.wheel.n != 0 {
		t.Errorf("in flight = %d names, want 0", p.wheel.n)
	}
	if len(p.avail) != 8 {
		t.Errorf("avail = %d subdomains, want 8 (index leaked on Pack failure)", len(p.avail))
	}
	if p.ClustersUsed() != 1 {
		t.Errorf("ClustersUsed = %d, want 1", p.ClustersUsed())
	}
	if p.Reused() != 0 {
		t.Errorf("Reused = %d, want 0", p.Reused())
	}
}

// TestSendOneAllocBudget drives the prober's steady-state send loop —
// sweep, sendOne, and the delivery step for each probe — and requires it
// to be allocation-free. Targets are unrouted (every probe dead-letters),
// which exercises the pooled-payload recycling that keeps sendOne at zero.
func TestSendOneAllocBudget(t *testing.T) {
	w := newWorld(t, 16, 1024) // 65536 candidates
	infra := map[ipv4.Addr]bool{proberAddr: true, rootAddr: true, tldAddr: true, authAddr: true}
	p := &Prober{
		cfg: Config{
			Addr: proberAddr, Universe: w.u, SLD: sld, ClusterSize: 1024,
			PacketsPerSec: 10000, Timeout: time.Millisecond,
			Log:  capture.NewProbeLog(),
			Skip: func(a ipv4.Addr) bool { return infra[a] },
		},
		it: w.u.Iterate(), srcPort: 40000, nextID: 1,
	}
	p.tickFn = p.tick
	p.wheel.init(p.horizon())
	p.node = w.sim.Register(proberAddr, p)
	p.refillCluster(0)

	iter := func() {
		now := p.node.Now()
		p.sweep(now)
		if !p.sendOne(now) {
			t.Fatal("send loop stalled")
		}
		if _, err := w.sim.Step(); err != nil { // delivery: NoRoute, payload recycled
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ { // warm the payload pool, wheel arena
		iter()
	}
	// The clock never advances, so no name is reclaimed: the warm-up and
	// the 41 measured batches of 16 (one is AllocsPerRun's own warm-up)
	// spend 956 of the cluster's 1024 names.
	if avg := allocsPer16(40, iter); avg != 0 {
		t.Errorf("sweep+sendOne+Step allocates %v per 16 steps, want 0", avg)
	}
	if p.sent < 600 {
		t.Fatalf("sent %d probes, expected the loop to actually transmit", p.sent)
	}
}
