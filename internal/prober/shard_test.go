package prober

import (
	"testing"
	"time"

	"openresolver/internal/capture"
	"openresolver/internal/ipv4"
	"openresolver/internal/obs"
)

// TestShardSendOneAllocBudget is the sharded-engine variant of the PR2
// alloc budget: a prober configured the way core's sub-simulations
// configure it — a mid-universe Range window, a strided FirstCluster well
// past the three-digit label width, and a metrics shard attached — must
// keep the steady-state sweep+sendOne+Step loop allocation-free. The
// four-digit FirstCluster also exercises the wide cluster labels the
// shard striding produces.
func TestShardSendOneAllocBudget(t *testing.T) {
	w := newWorld(t, 16, 1024) // 65536 candidates
	infra := map[ipv4.Addr]bool{proberAddr: true, rootAddr: true, tldAddr: true, authAddr: true}
	sh := obs.NewShard("sim-3")
	total := w.u.Indexes()
	p := &Prober{
		cfg: Config{
			Addr: proberAddr, Universe: w.u, SLD: sld, ClusterSize: 1024,
			PacketsPerSec: 10000, Timeout: time.Millisecond,
			RangeStart: total / 4, RangeEnd: total,
			FirstCluster: 1022,
			Log:          capture.NewProbeLog(),
			Obs:          sh,
			Skip:         func(a ipv4.Addr) bool { return infra[a] },
		},
		srcPort: 40000, nextID: 1,
	}
	p.it = w.u.Range(p.cfg.RangeStart, p.cfg.RangeEnd)
	p.tickFn = p.tick
	p.wheel.init(p.horizon())
	p.node = w.sim.Register(proberAddr, p)
	p.refillCluster(p.cfg.FirstCluster)

	iter := func() {
		now := p.node.Now()
		p.sweep(now)
		if !p.sendOne(now) {
			t.Fatal("send loop stalled")
		}
		if _, err := w.sim.Step(); err != nil {
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
		t.Errorf("sharded sweep+sendOne+Step allocates %v per 16 steps, want 0", avg)
	}
	if got := p.ClustersUsed(); got != 1 {
		t.Errorf("ClustersUsed = %d, want 1 (relative to FirstCluster)", got)
	}
	if got := sh.Counter(obs.CProbeSent); got != p.sent {
		t.Errorf("probe.sent = %d, prober sent %d — instrumentation diverged", got, p.sent)
	}
}
