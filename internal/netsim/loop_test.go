package netsim

import (
	"fmt"
	"testing"
	"time"

	"openresolver/internal/ipv4"
	"openresolver/internal/obs"
)

// traceEvent is one observed handler invocation, for comparing execution
// order between Run and a hand-written Step loop.
type traceEvent struct {
	at    time.Duration
	kind  string // "dg" or "timer"
	addr  ipv4.Addr
	tag   byte
	stats Stats
}

// buildTraffic wires a small network whose hosts generate follow-on work
// from within handlers — echoes, timer chains, same-instant bursts — so the
// loop under test faces events scheduled at the instant being executed.
// Every random decision comes from the simulation's seeded rng, so two sims
// built with the same seed produce identical workloads.
func buildTraffic(seed int64, trace *[]traceEvent) *Sim {
	s := New(Config{
		Seed:    seed,
		Latency: UniformLatency(time.Millisecond, 5*time.Millisecond),
		Impairments: []Impairment{
			&IIDLoss{P: 0.05},
			&Duplicator{P: 0.1},
			&Reorderer{P: 0.1, Window: 3 * time.Millisecond},
		},
	})
	log := func(n *Node, kind string, tag byte) {
		*trace = append(*trace, traceEvent{n.Now(), kind, n.Addr(), tag, n.sim.Stats()})
	}
	// B echoes every datagram back with a decremented TTL byte until it
	// reaches zero; each bounce draws fresh latency, shuffling arrival order.
	s.Register(addrB, HostFunc(func(n *Node, dg Datagram) {
		log(n, "dg", dg.Payload[0])
		if ttl := dg.Payload[0]; ttl > 0 {
			buf := append(n.PayloadBuf(), ttl-1)
			n.SendPooled(dg.Src, dg.DstPort, dg.SrcPort, buf)
		}
	}))
	a := s.Register(addrA, HostFunc(func(n *Node, dg Datagram) {
		log(n, "dg", dg.Payload[0])
		if dg.Payload[0] > 1 {
			buf := append(n.PayloadBuf(), dg.Payload[0]-1)
			n.SendPooled(dg.Src, dg.DstPort, dg.SrcPort, buf)
		}
	}))
	// Timer chains: each firing re-arms at a deadline drawn from the rng,
	// sometimes at the current instant (a zero delay), sometimes ahead of
	// and sometimes behind the ring tail.
	var chain func(depth int) func()
	chain = func(depth int) func() {
		return func() {
			log(a, "timer", byte(depth))
			if depth > 0 {
				d := time.Duration(a.Rand().Intn(4)) * time.Millisecond
				a.After(d, chain(depth-1))
			}
		}
	}
	for i := 0; i < 8; i++ {
		a.After(time.Duration(i)*2*time.Millisecond, chain(10))
	}
	// Same-instant bursts: several sends from one handler turn share a
	// timestamp whenever the latency draws collide.
	for i := 0; i < 40; i++ {
		buf := append(a.PayloadBuf(), byte(4+i%3))
		a.SendPooled(addrB, 1, 2, buf)
	}
	return s
}

// TestRunMatchesStepLoop pins Run to the Step loop it wraps: same handler
// order, same timestamps, same running stats, under latency jitter, loss,
// duplication and reordering. Run adds only the deadline check.
func TestRunMatchesStepLoop(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		var stepTrace, runTrace []traceEvent
		step := buildTraffic(seed, &stepTrace)
		for {
			ok, err := step.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		run := buildTraffic(seed, &runTrace)
		if err := run.Run(0); err != nil {
			t.Fatal(err)
		}
		if len(stepTrace) != len(runTrace) {
			t.Fatalf("seed %d: %d events via Step, %d via Run", seed, len(stepTrace), len(runTrace))
		}
		for i := range stepTrace {
			if stepTrace[i] != runTrace[i] {
				t.Fatalf("seed %d: event %d diverged:\n  step: %+v\n  run:  %+v",
					seed, i, stepTrace[i], runTrace[i])
			}
		}
		if step.Stats() != run.Stats() || step.FaultStats() != run.FaultStats() || step.Now() != run.Now() {
			t.Fatalf("seed %d: final state diverged:\n  step: %+v %+v %v\n  run:  %+v %+v %v",
				seed, step.Stats(), step.FaultStats(), step.Now(),
				run.Stats(), run.FaultStats(), run.Now())
		}
	}
}

// TestRingOverflowFallback arms more monotone timers than the ring holds:
// the overflow must spill to the heap (visible in QueueStats) and the whole
// set must still fire in exact deadline order.
func TestRingOverflowFallback(t *testing.T) {
	s := New(Config{Seed: 7})
	n := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	const N = ringCap + 500
	var fired []int
	for i := 0; i < N; i++ {
		i := i
		n.After(time.Duration(i)*time.Microsecond, func() { fired = append(fired, i) })
	}
	qs := s.QueueStats()
	if qs.RingTimers != ringCap {
		t.Errorf("ring accepted %d timers, want %d (capacity)", qs.RingTimers, ringCap)
	}
	if qs.HeapTimers != N-ringCap {
		t.Errorf("heap fallback took %d timers, want %d", qs.HeapTimers, N-ringCap)
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != N {
		t.Fatalf("fired %d/%d", len(fired), N)
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("pop %d fired timer %d: ring/heap merge broke deadline order", i, v)
		}
	}
}

// TestRingOutOfOrderFallback pins the monotonicity rule: a timer armed
// behind the ring tail must fall back to the heap, and the merged pop
// sequence must still honor (at, seq).
func TestRingOutOfOrderFallback(t *testing.T) {
	s := New(Config{Seed: 8})
	n := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	var fired []string
	n.After(100*time.Millisecond, func() { fired = append(fired, "late") })
	n.After(50*time.Millisecond, func() { fired = append(fired, "early") })
	n.After(100*time.Millisecond, func() { fired = append(fired, "late-tie") })
	qs := s.QueueStats()
	if qs.RingTimers != 2 {
		// The first arm and the back-at-the-tail third arm ride the ring.
		t.Errorf("ring accepted %d timers, want 2", qs.RingTimers)
	}
	if qs.HeapTimers != 1 {
		t.Errorf("heap fallback took %d timers, want 1 (the regressing deadline)", qs.HeapTimers)
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"early", "late", "late-tie"}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// TestSameInstantBurst pins one-event-at-a-time delivery: k datagrams
// landing on one host at the same instant reach it as k HandleDatagram
// calls in send order, and the queue-depth histogram gets one sample per
// delivery.
func TestSameInstantBurst(t *testing.T) {
	sh := obs.NewShard("burst")
	s := New(Config{Seed: 9, Latency: ConstantLatency(time.Millisecond)})
	s.SetObserver(sh)
	var got []byte
	s.Register(addrB, HostFunc(func(_ *Node, dg Datagram) { got = append(got, dg.Payload[0]) }))
	a := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	const k = 6
	for i := 0; i < k; i++ {
		a.Send(addrB, 1, 2, []byte{byte(i)})
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != k {
		t.Fatalf("host saw %d calls, want %d", len(got), k)
	}
	for i, tag := range got {
		if tag != byte(i) {
			t.Fatalf("delivery order %v: datagram %d out of place", got, i)
		}
	}
	if c := sh.Histogram(obs.HQueueDepth).Count(); c != k {
		t.Fatalf("%d deliveries recorded %d depth samples, want %d", k, c, k)
	}
}

// TestTerminalStepSkipsDepthSample pins the observability fix: terminal
// Step calls — empty queue or queue-limit trip — must not record
// an HQueueDepth sample, or idle polling would skew the depth histogram.
func TestTerminalStepSkipsDepthSample(t *testing.T) {
	sh := obs.NewShard("test")
	s := New(Config{Seed: 10, Latency: ConstantLatency(time.Millisecond)})
	s.SetObserver(sh)
	s.Register(addrB, HostFunc(func(*Node, Datagram) {}))
	a := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	for i := 0; i < 5; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if c := sh.Histogram(obs.HQueueDepth).Count(); c != 0 {
		t.Fatalf("empty-queue polls recorded %d depth samples, want 0", c)
	}
	a.Send(addrB, 1, 2, nil)
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if c := sh.Histogram(obs.HQueueDepth).Count(); c != 1 {
		t.Fatalf("one delivery recorded %d depth samples, want 1", c)
	}

	lim := New(Config{Seed: 11, Latency: ConstantLatency(time.Millisecond), MaxQueuedEvents: 1})
	lsh := obs.NewShard("lim")
	lim.SetObserver(lsh)
	lim.Register(addrB, HostFunc(func(*Node, Datagram) {}))
	la := lim.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	la.Send(addrB, 1, 2, nil)
	la.Send(addrB, 1, 2, nil)
	if _, err := lim.Step(); err != ErrEventQueueFull {
		t.Fatalf("Step over limit = %v, want ErrEventQueueFull", err)
	}
	if err := lim.Run(0); err != ErrEventQueueFull {
		t.Fatalf("Run over limit = %v, want ErrEventQueueFull", err)
	}
	if c := lsh.Histogram(obs.HQueueDepth).Count(); c != 0 {
		t.Fatalf("limit-tripped steps recorded %d depth samples, want 0", c)
	}
}

// TestSendTimeRouteResolution pins the dead-letter fast path: a datagram to
// an address with no registered host is accounted NoRoute at
// submission and never enters the event queue.
func TestSendTimeRouteResolution(t *testing.T) {
	s := New(Config{Seed: 12})
	a := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	a.Send(addrC, 1, 2, nil)
	if st := s.Stats(); st.NoRoute != 1 || st.Sent != 1 {
		t.Fatalf("stats after dead-letter send = %+v, want NoRoute 1", st)
	}
	if ok, err := s.Step(); err != nil || ok {
		t.Fatalf("Step = (%v, %v): dead-letter send still queued an event", ok, err)
	}
	// The impaired pipeline takes the same early exit.
	si := New(Config{Seed: 13, Impairments: []Impairment{&Duplicator{P: 1.0}}})
	ai := si.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	ai.Send(addrC, 1, 2, []byte("x"))
	if st := si.Stats(); st.NoRoute != 2 || st.Delivered != 0 {
		t.Fatalf("impaired dead-letter stats = %+v, want NoRoute 2 (primary + duplicate)", st)
	}
	if ok, err := si.Step(); err != nil || ok {
		t.Fatalf("Step = (%v, %v): impaired dead-letter still queued an event", ok, err)
	}
}

// TestRunAllocBudget is Run's allocation budget: with a metrics shard
// attached, steady-state send → delivery → echo and a timer arm → fire must
// all stay allocation-free.
func TestRunAllocBudget(t *testing.T) {
	sh := obs.NewShard("alloc")
	s := New(Config{Seed: 14, Latency: ConstantLatency(time.Millisecond)})
	s.SetObserver(sh)
	s.Register(addrB, HostFunc(func(n *Node, dg Datagram) {
		buf := append(n.PayloadBuf(), dg.Payload...)
		n.SendPooled(dg.Src, dg.DstPort, dg.SrcPort, buf)
	}))
	a := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	fn := func() {}
	cycle := func() {
		buf := append(a.PayloadBuf(), "probe"...)
		a.SendPooled(addrB, 1, 2, buf)
		a.SendPooled(addrB, 1, 2, append(a.PayloadBuf(), "probe"...))
		a.After(time.Millisecond, fn)
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		cycle() // warm the slab, ring and pools
	}
	if allocs := allocsPer16(100, cycle); allocs != 0 {
		t.Errorf("Run allocates %.1f per 16 cycles in steady state, want 0", allocs)
	}
}

// BenchmarkStepDrain measures the event loop on a fan-out workload: one
// sender, one sink host, bursts of 16 same-instant deliveries drained by
// Step.
func BenchmarkStepDrain(b *testing.B) {
	s := New(Config{Seed: 1, Latency: ConstantLatency(time.Millisecond)})
	sink := &sinkHost{}
	s.Register(addrB, sink)
	a := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ {
			a.SendPooled(addrB, 1, 2, append(a.PayloadBuf(), byte(j)))
		}
		for {
			ok, err := s.Step()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
	}
	if sink.n != uint64(b.N)*16 {
		b.Fatalf("delivered %d, want %d", sink.n, uint64(b.N)*16)
	}
}

// sinkHost counts deliveries.
type sinkHost struct{ n uint64 }

func (h *sinkHost) HandleDatagram(*Node, Datagram) { h.n++ }
