package prober

import (
	"testing"
	"time"

	"openresolver/internal/behavior"
	"openresolver/internal/capture"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
)

// TestRetransmissionRecoversLoss runs the same lossy campaign with and
// without a retry budget. Manipulator resolvers answer without upstream
// legs, so each attempt survives with (1-loss)²: at 40% i.i.d. loss one
// shot lands ~36% of responders while six retries recover nearly all —
// the machinery the paper's single-shot design lacked.
func TestRetransmissionRecoversLoss(t *testing.T) {
	run := func(retries int) *Prober {
		w := newImpairedWorld(t, 24, 1000, []netsim.Impairment{&netsim.IIDLoss{P: 0.4}})
		w.placeResolvers(t, 20, behavior.Manipulator(ipv4.MustParseAddr("208.91.197.91")))
		p := startProber(t, w, Config{
			ClusterSize: 1000, Timeout: 200 * time.Millisecond, Retries: retries,
		})
		if err := w.sim.Run(0); err != nil {
			t.Fatal(err)
		}
		if !p.Done() {
			t.Fatal("campaign did not complete")
		}
		return p
	}

	with := run(6)
	without := run(0)
	if with.Answered() < 18 {
		t.Errorf("with retries: answered %d of 20 responders", with.Answered())
	}
	if without.Answered() > 14 {
		t.Errorf("without retries: answered %d of 20, expected a paper-style shortfall", without.Answered())
	}
	if with.Retransmits() == 0 {
		t.Error("no retransmissions recorded under 40% loss")
	}
	if without.Retransmits() != 0 || without.GaveUp() != 0 {
		t.Errorf("single-shot run recorded retransmits=%d gaveUp=%d", without.Retransmits(), without.GaveUp())
	}
	// Probes that stayed unanswered through the whole budget are gave-up.
	if st := with.Stats(); st.GaveUp == 0 {
		t.Error("expected some probes to exhaust the retry budget at 40% loss")
	}
}

// TestLateCounter: a responder slower than the sweep timeout produces a
// response for an already-reused subdomain — previously silently merged
// with noise, now counted as Late.
func TestLateCounter(t *testing.T) {
	w := newWorld(t, 24, 1000)
	// An echo host that reflects every probe back after 500ms, well past
	// the 100ms sweep timeout.
	var echoAt ipv4.Addr
	for idx := uint64(0); ; idx++ {
		a, ok := w.u.At(idx)
		if ok && a != proberAddr && a != rootAddr && a != tldAddr && a != authAddr {
			echoAt = a
			break
		}
	}
	w.sim.Register(echoAt, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		reply := append([]byte(nil), dg.Payload...)
		src := dg.Src
		n.After(500*time.Millisecond, func() {
			n.Send(src, 53, dg.SrcPort, reply)
		})
	}))
	p := startProber(t, w, Config{ClusterSize: 1000, Timeout: 100 * time.Millisecond})
	if err := w.sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.Received() != 1 {
		t.Fatalf("received = %d, want 1", p.Received())
	}
	if p.Late() != 1 {
		t.Errorf("Late = %d, want 1 (response after sweep)", p.Late())
	}
	if p.Answered() != 0 {
		t.Errorf("Answered = %d, want 0", p.Answered())
	}
}

// TestDuplicateResponseCounter: network-duplicated R2s for an already
// answered subdomain are counted as duplicates, not new answers.
func TestDuplicateResponseCounter(t *testing.T) {
	w := newImpairedWorld(t, 24, 1000, []netsim.Impairment{&netsim.Duplicator{P: 1, Copies: 1}})
	w.placeResolvers(t, 5, behavior.Manipulator(ipv4.MustParseAddr("208.91.197.91")))
	p := startProber(t, w, Config{ClusterSize: 1000, Timeout: time.Second})
	if err := w.sim.Run(0); err != nil {
		t.Fatal(err)
	}
	// Every packet (Q1 and R2) is duplicated; each responder's R2 arrives
	// at least twice, and resolvers also see duplicate Q1s they answer
	// again. Unique answers must stay at 5.
	if p.Answered() != 5 {
		t.Errorf("Answered = %d, want 5", p.Answered())
	}
	if p.Received() <= 5 {
		t.Errorf("Received = %d, expected duplicates on top of 5 answers", p.Received())
	}
	if st := p.Stats(); st.DupResponses == 0 {
		t.Errorf("DupResponses = 0 with a 100%% duplicating network (stats %+v)", st)
	}
}

// TestAdaptiveTimeoutLearnsRTT: with a constant-latency network the
// Jacobson estimator converges on the observed RTT and the effective RTO
// collapses from the 2s default to the MinRTO clamp — so unanswered names
// recycle an order of magnitude faster without losing answers.
func TestAdaptiveTimeoutLearnsRTT(t *testing.T) {
	w := newWorld(t, 24, 1000)
	w.placeResolvers(t, 10, behavior.Honest(1))
	p := startProber(t, w, Config{
		ClusterSize: 1000, Timeout: 2 * time.Second,
		AdaptiveTimeout: true, MinRTO: 120 * time.Millisecond,
	})
	if err := w.sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.Answered() != 10 {
		t.Fatalf("answered = %d, want 10", p.Answered())
	}
	st := p.Stats()
	// Honest resolution at 10ms/leg takes 80ms; SRTT must land there and
	// the RTO must collapse to the clamp, far below the fixed timeout.
	if st.SRTT < 60*time.Millisecond || st.SRTT > 100*time.Millisecond {
		t.Errorf("SRTT = %v, want ≈80ms", st.SRTT)
	}
	if st.RTO != 120*time.Millisecond {
		t.Errorf("RTO = %v, want the 120ms MinRTO clamp", st.RTO)
	}
	if p.Duration() > 40*time.Second {
		t.Errorf("campaign took %v; adaptive timeout should recycle names fast", p.Duration())
	}
}

// TestRetransmitKarnRule: responses to retransmitted probes must not feed
// the RTT estimator. A responder that only answers the second copy of a
// probe (simulating first-copy loss) yields no latency samples at all.
func TestRetransmitKarnRule(t *testing.T) {
	w := newWorld(t, 24, 1000)
	var echoAt ipv4.Addr
	for idx := uint64(0); ; idx++ {
		a, ok := w.u.At(idx)
		if ok && a != proberAddr && a != rootAddr && a != tldAddr && a != authAddr {
			echoAt = a
			break
		}
	}
	seen := map[string]int{}
	w.sim.Register(echoAt, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		key := string(dg.Payload)
		seen[key]++
		if seen[key] == 2 { // answer only the retransmission
			n.Send(dg.Src, 53, dg.SrcPort, append([]byte(nil), dg.Payload...))
		}
	}))
	p := startProber(t, w, Config{ClusterSize: 1000, Timeout: 100 * time.Millisecond, Retries: 3})
	if err := w.sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.Answered() != 1 {
		t.Fatalf("answered = %d, want 1 (the retransmitted probe)", p.Answered())
	}
	if n := p.Stats().RTTSamples; n != 0 {
		t.Errorf("%d RTT samples; Karn's rule forbids timing retransmitted probes", n)
	}
	if p.Stats().SRTT != 0 {
		t.Errorf("SRTT = %v, want 0 (no clean samples)", p.Stats().SRTT)
	}
}

// TestRetransmitSheddingUnderSpike: when the retry queue cannot drain
// (every probe times out, tiny token budget), entries past the shed
// horizon are abandoned instead of starving fresh probes — the campaign
// still completes and records the shed probes as gave-up.
func TestRetransmitSheddingUnderSpike(t *testing.T) {
	// A blackholed /0 network: nothing is ever delivered. ~250 in-flight
	// probes cycling every ≤400ms demand far more retransmissions than the
	// 50 pps token budget supplies, so the retry queue must back up past
	// the shed horizon.
	w := newImpairedWorld(t, 24, 256, []netsim.Impairment{
		&netsim.Blackhole{Block: ipv4.MustParseBlock("0.0.0.0/0")},
	})
	p := startProber(t, w, Config{
		ClusterSize: 256, Timeout: 100 * time.Millisecond, Retries: 10,
		PacketsPerSec: 50,
	})
	if err := w.sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if !p.Done() {
		t.Fatal("campaign wedged under total blackout")
	}
	st := p.Stats()
	if st.Answered != 0 {
		t.Errorf("answered = %d under a /0 blackhole", st.Answered)
	}
	if st.GaveUp == 0 {
		t.Error("no probes recorded as gave-up under total blackout")
	}
	// Shedding must keep the retry tail bounded: a full budget (10 retries
	// × ~250 probes) would need 2500+ retransmits; the shed horizon cuts
	// far below that.
	if st.Retransmits >= 10*st.Sent {
		t.Errorf("retransmits = %d for %d probes: shedding ineffective", st.Retransmits, st.Sent)
	}
}

// TestRetransmitAllocBudget extends the PR2 alloc test: the steady-state
// loop with the RTT estimator, retry queue, backoff and give-up paths all
// active must still allocate nothing.
func TestRetransmitAllocBudget(t *testing.T) {
	w := newWorld(t, 16, 1024) // 65536 candidates
	infra := map[ipv4.Addr]bool{proberAddr: true, rootAddr: true, tldAddr: true, authAddr: true}
	p := &Prober{
		cfg: Config{
			Addr: proberAddr, Universe: w.u, SLD: sld, ClusterSize: 1024,
			PacketsPerSec: 10000, Timeout: time.Millisecond,
			Retries: 2, AdaptiveTimeout: true,
			MinRTO: time.Millisecond, MaxRTO: 8 * time.Millisecond,
			Log:  capture.NewProbeLog(),
			Skip: func(a ipv4.Addr) bool { return infra[a] },
		},
		it: w.u.Iterate(), srcPort: 40000, nextID: 1,
	}
	p.tickFn = p.tick
	p.wheel.init(p.horizon())
	p.node = w.sim.Register(proberAddr, p)
	p.refillCluster(0)

	// Probes to unoccupied addresses dead-letter at submission and never
	// enter the event queue, so a no-op timer must advance the virtual
	// clock past the retransmission deadlines (timer arm+fire is itself
	// allocation-free, pinned by netsim's budget test).
	tick := func() {}
	iter := func() {
		now := p.node.Now()
		p.sweep(now)
		p.serveRetries(now, 4)
		if !p.sendOne(now) {
			t.Fatal("send loop stalled")
		}
		p.node.After(500*time.Microsecond, tick)
		// Drain the queue (payloads recycle at submission on NoRoute) so
		// the event core and payload pool stay in steady state.
		for {
			ok, err := w.sim.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
	}
	for i := 0; i < 400; i++ { // warm the payload pool, wheel arena, retry queue
		iter()
	}
	if avg := allocsPer16(300, iter); avg != 0 {
		t.Errorf("sweep+serveRetries+sendOne+Step allocates %v per 16 steps, want 0", avg)
	}
	if p.retransmits == 0 {
		t.Fatal("alloc loop never exercised the retransmit path")
	}
	if p.gaveUp == 0 {
		t.Fatal("alloc loop never exercised the give-up path")
	}
}
