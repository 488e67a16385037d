package prober

import (
	"testing"
	"time"

	"openresolver/internal/behavior"
	"openresolver/internal/capture"
	"openresolver/internal/ipv4"
	"openresolver/internal/obs"
)

// TestInstrumentedSendOneAllocBudget is the PR2 alloc budget with a
// metrics shard wired into the prober: the sweep+sendOne+Step loop must
// stay allocation-free with every counter increment live.
func TestInstrumentedSendOneAllocBudget(t *testing.T) {
	w := newWorld(t, 16, 1024) // 65536 candidates
	infra := map[ipv4.Addr]bool{proberAddr: true, rootAddr: true, tldAddr: true, authAddr: true}
	sh := obs.NewShard("probe")
	p := &Prober{
		cfg: Config{
			Addr: proberAddr, Universe: w.u, SLD: sld, ClusterSize: 1024,
			PacketsPerSec: 10000, Timeout: time.Millisecond,
			Log:  capture.NewProbeLog(),
			Obs:  sh,
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
		t.Errorf("instrumented sweep+sendOne+Step allocates %v per 16 steps, want 0", avg)
	}
	if got := sh.Counter(obs.CProbeSent); got != p.sent {
		t.Errorf("probe.sent = %d, prober sent %d — instrumentation diverged", got, p.sent)
	}
}

// TestInstrumentedEndToEnd runs a full small campaign through Start with
// the shard attached and checks the counters mirror the Stats snapshot.
func TestInstrumentedEndToEnd(t *testing.T) {
	w := newWorld(t, 20, 64)
	w.placeResolvers(t, 10, behavior.Honest(1))
	sh := obs.NewShard("probe")
	infra := map[ipv4.Addr]bool{proberAddr: true, rootAddr: true, tldAddr: true, authAddr: true}
	p, err := Start(w.sim, Config{
		Addr: proberAddr, Universe: w.u, SLD: sld, ClusterSize: 64,
		PacketsPerSec: 10000, Timeout: 2 * time.Second,
		Auth: w.auth, Log: capture.NewProbeLog(),
		Obs:  sh,
		Skip: func(a ipv4.Addr) bool { return infra[a] },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if !p.Done() {
		t.Fatal("campaign did not finish")
	}
	st := p.Stats()
	if got := sh.Counter(obs.CProbeSent); got != st.Sent {
		t.Errorf("probe.sent = %d, Stats.Sent = %d", got, st.Sent)
	}
	if got := sh.Counter(obs.CProbeRecv); got != st.Received {
		t.Errorf("probe.recv = %d, Stats.Received = %d", got, st.Received)
	}
	if got := sh.Counter(obs.CProbeAnswered); got != st.Answered {
		t.Errorf("probe.answered = %d, Stats.Answered = %d", got, st.Answered)
	}
	if st.Received > 0 && sh.Histogram(obs.HRTT).Count() == 0 {
		t.Error("RTT histogram empty despite received responses")
	}
}
