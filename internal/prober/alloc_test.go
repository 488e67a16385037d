package prober

import (
	"testing"
	"time"

	"openresolver/internal/capture"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
)

// sendLoop builds a prober whose universe has a silent host (one that
// never answers) on every hostEvery-th address, over a network with the
// given impairments and retry budget, and returns one step of its
// steady-state loop: sweep, serveRetries, sendOne, and every event up to a
// short no-op timer, so built payloads are delivered and recycled.
func sendLoop(t *testing.T, imps []netsim.Impairment, hostEvery, retries int) (*Prober, *world, func()) {
	t.Helper()
	w := newImpairedWorld(t, 16, 1024, imps) // 65536 candidates
	infra := map[ipv4.Addr]bool{proberAddr: true, rootAddr: true, tldAddr: true, authAddr: true}
	silent := netsim.HostFunc(func(*netsim.Node, netsim.Datagram) {})
	it := w.u.Iterate()
	for i := 0; ; i++ {
		a, ok := it.Next()
		if !ok {
			break
		}
		if i%hostEvery == 0 && !infra[a] {
			w.sim.Register(a, silent)
		}
	}
	p := &Prober{
		cfg: Config{
			Addr: proberAddr, Universe: w.u, SLD: sld, ClusterSize: 1024,
			PacketsPerSec: 10000, Timeout: time.Millisecond,
			Retries: retries, MaxRTO: 4 * time.Millisecond,
			Log:  capture.NewProbeLog(),
			Skip: func(a ipv4.Addr) bool { return infra[a] },
		},
		it: w.u.Iterate(), srcPort: 40000, nextID: 1,
	}
	p.tickFn = p.tick
	p.wheel.init(p.horizon())
	p.node = w.sim.Register(proberAddr, p)
	p.refillCluster(0)

	tick := func() {}
	iter := func() {
		now := p.node.Now()
		p.sweep(now)
		p.serveRetries(now, 4)
		if !p.sendOne(now) {
			t.Fatal("send loop stalled")
		}
		p.node.After(500*time.Microsecond, tick)
		if err := w.sim.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ { // warm the payload pool, wheel arena, retry queue, event queue
		iter()
	}
	return p, w, iter
}

// allocsPer16 is testing.AllocsPerRun over batches of 16 calls of step.
// AllocsPerRun truncates its mean to an integer, so a path that allocates
// on only some steps reads 0 when each step is measured alone; batched, it
// reads at least 1 as soon as it allocates once in 16 steps.
func allocsPer16(runs int, step func()) float64 {
	return testing.AllocsPerRun(runs, func() {
		for range 16 {
			step()
		}
	})
}

// TestSendOneRoutedAllocBudget: probes to addresses with a host take the
// pooled path — netsim builds each payload in a pooled buffer, delivers it
// and recycles it — and the steady-state loop allocates nothing.
func TestSendOneRoutedAllocBudget(t *testing.T) {
	p, w, iter := sendLoop(t, nil, 1, 0)
	before := w.sim.Stats()
	if avg := allocsPer16(50, iter); avg != 0 {
		t.Errorf("routed sweep+sendOne+Step allocates %v per 16 steps, want 0", avg)
	}
	if st := w.sim.Stats(); st.Delivered-before.Delivered < 800 || st.NoRoute != before.NoRoute {
		t.Fatalf("stats %+v after %+v: the loop did not deliver every probe", st, before)
	}
	if p.sent < 1200 {
		t.Fatalf("sent %d probes, expected the loop to actually transmit", p.sent)
	}
}

// TestSendOneImpairedAllocBudget: on a network that drops, duplicates,
// reorders and corrupts, with retransmissions and half the targets
// routed, the steady-state loop allocates nothing: dropped and unrouted
// sends build no payload, and delivered copies, duplicates and corrupted
// primaries recycle theirs.
func TestSendOneImpairedAllocBudget(t *testing.T) {
	imps, err := netsim.ParseImpairments("ge:0.05,0.2,0.125,1.0;dup:0.3;reorder:0.2,2ms;corrupt:0.3")
	if err != nil {
		t.Fatal(err)
	}
	p, w, iter := sendLoop(t, imps, 2, 2)
	before, fbefore := w.sim.Stats(), w.sim.FaultStats()
	if avg := allocsPer16(50, iter); avg != 0 {
		t.Errorf("impaired sweep+serveRetries+sendOne+Step allocates %v per 16 steps, want 0", avg)
	}
	st, f := w.sim.Stats(), w.sim.FaultStats()
	if st.Delivered == before.Delivered || st.NoRoute == before.NoRoute ||
		f.Dropped == fbefore.Dropped || f.Duplicated == fbefore.Duplicated ||
		f.Corrupted == fbefore.Corrupted || f.Reordered == fbefore.Reordered {
		t.Fatalf("stats %+v, fault stats %+v: the measured loop missed a path", st, f)
	}
	if p.retransmits == 0 {
		t.Fatal("alloc loop never exercised the retransmit path")
	}
}
