package netsim

import (
	"math/rand"
	"testing"
	"time"

	"openresolver/internal/ipv4"
)

// TestHostTableCollisionsAndTombstones exercises the open-addressed table
// through growth, dense collision chains, tombstoned deletions and
// tombstone reuse — the paths the old Go map handled implicitly.
func TestHostTableCollisionsAndTombstones(t *testing.T) {
	s := New(Config{Seed: 4})
	h := HostFunc(func(*Node, Datagram) {})
	const N = 10000
	addrs := make([]ipv4.Addr, N)
	for i := range addrs {
		// Sequential addresses: adjacent Fibonacci hashes, long probe runs.
		addrs[i] = ipv4.Addr(0x0A000000 + uint32(i))
		s.Register(addrs[i], h)
	}
	if got := s.NumHosts(); got != N {
		t.Fatalf("NumHosts = %d, want %d", got, N)
	}
	for _, a := range addrs {
		n, ok := s.Lookup(a)
		if !ok || n.Addr() != a {
			t.Fatalf("Lookup(%v) = %v, %v", a, n, ok)
		}
	}
	if _, ok := s.Lookup(ipv4.Addr(0x0B000000)); ok {
		t.Error("lookup of unregistered address succeeded")
	}

	// Delete every third entry; the survivors must stay reachable through
	// the tombstones left in their probe chains.
	removed := 0
	for i := 0; i < N; i += 3 {
		s.Unregister(addrs[i])
		removed++
	}
	if got := s.NumHosts(); got != N-removed {
		t.Fatalf("NumHosts after unregister = %d, want %d", got, N-removed)
	}
	for i, a := range addrs {
		_, ok := s.Lookup(a)
		if want := i%3 != 0; ok != want {
			t.Fatalf("Lookup(%v) = %v, want %v", a, ok, want)
		}
	}

	// Re-register the deleted addresses (tombstone reuse) as fresh nodes.
	for i := 0; i < N; i += 3 {
		n := s.Register(addrs[i], h)
		if n.Addr() != addrs[i] {
			t.Fatalf("re-registered node has addr %v, want %v", n.Addr(), addrs[i])
		}
	}
	if got := s.NumHosts(); got != N {
		t.Fatalf("NumHosts after re-register = %d, want %d", got, N)
	}
	for _, a := range addrs {
		if _, ok := s.Lookup(a); !ok {
			t.Fatalf("Lookup(%v) failed after re-register", a)
		}
	}
}

// TestUnregisterKeepsStaleNodeUsable pins the stale-handle contract: a
// Node obtained before Unregister keeps working (timers fire, sends leave),
// exactly as when hosts were heap-allocated behind a map.
func TestUnregisterKeepsStaleNodeUsable(t *testing.T) {
	s := New(Config{Seed: 8, Latency: ConstantLatency(time.Millisecond)})
	var gotPayload string
	s.Register(addrB, HostFunc(func(_ *Node, dg Datagram) { gotPayload = string(dg.Payload) }))
	n := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	fired := false
	n.After(time.Millisecond, func() { fired = true })
	s.Unregister(addrA)
	n.Send(addrB, 1, 2, []byte("from the grave"))
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("timer armed before Unregister did not fire")
	}
	if gotPayload != "from the grave" {
		t.Errorf("stale-node send delivered %q", gotPayload)
	}
}

// TestHostReplacesItselfInFlight pins the contract a dormant placeholder
// host relies on: a host that re-registers its own address inside
// HandleDatagram keeps its Node, and the later same-instant datagrams
// already in flight to that address reach the replacement.
func TestHostReplacesItselfInFlight(t *testing.T) {
	s := New(Config{Seed: 5, Latency: ConstantLatency(time.Millisecond)})
	src := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	var stub, real []string
	var stubNode, realNode *Node
	s.Register(addrB, HostFunc(func(n *Node, dg Datagram) {
		stub = append(stub, string(dg.Payload))
		stubNode = n
		replaced := s.Register(n.Addr(), HostFunc(func(n *Node, dg Datagram) {
			real = append(real, string(dg.Payload))
			realNode = n
		}))
		if replaced != n {
			t.Error("re-registration returned a new Node")
		}
	}))
	for _, p := range []string{"x", "y", "z"} {
		src.Send(addrB, 1, 2, []byte(p))
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(stub) != 1 || stub[0] != "x" || len(real) != 2 || real[0] != "y" || real[1] != "z" {
		t.Errorf("placeholder got %q, replacement got %q; want [x] and [y z]", stub, real)
	}
	if stubNode == nil || realNode != stubNode {
		t.Errorf("replacement ran on Node %p, placeholder on %p", realNode, stubNode)
	}
	if st := s.Stats(); st.Delivered != 3 || st.NoRoute != 0 || s.NumHosts() != 2 {
		t.Errorf("stats = %+v with %d hosts, want Delivered 3, 2 hosts", st, s.NumHosts())
	}
}

// TestTimerSlotReuseSafety pins the generation discipline: a handle from a
// fired timer must not cancel the slot's next occupant, stopped timers are
// still counted by Stats.Timers (the lazily deleted queue entry pops), and
// zero/double Stop are inert.
func TestTimerSlotReuseSafety(t *testing.T) {
	s := New(Config{Seed: 6})
	n := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	fired1, fired2 := false, false
	t1 := n.After(time.Millisecond, func() { fired1 = true })
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if !fired1 {
		t.Fatal("t1 did not fire")
	}
	t2 := n.After(time.Millisecond, func() { fired2 = true })
	if t2.slot != t1.slot {
		t.Fatalf("t2 did not reuse t1's slot (%d vs %d)", t2.slot, t1.slot)
	}
	t1.Stop() // stale: must not cancel t2
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if !fired2 {
		t.Error("stale Stop cancelled the slot's new occupant")
	}
	t2.Stop() // after fire: no-op
	var zero Timer
	zero.Stop() // inert

	before := s.Stats().Timers
	t3 := n.After(time.Millisecond, func() { t.Error("stopped timer fired") })
	t3.Stop()
	t3.Stop() // double Stop: no-op
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	// The stopped timer's queue entry still pops (lazy deletion) and is
	// counted, preserving the original Stats semantics.
	if got := s.Stats().Timers; got != before+1 {
		t.Errorf("Timers = %d, want %d (stopped timers still count)", got, before+1)
	}
}

// TestPayloadPoolRecycles proves a pooled payload buffer returns to the
// pool on each consumption path: delivered, lost, and dead-lettered.
func TestPayloadPoolRecycles(t *testing.T) {
	sameBacking := func(a, b []byte) bool {
		return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
	}

	t.Run("delivered", func(t *testing.T) {
		s := New(Config{Seed: 7, Latency: ConstantLatency(time.Millisecond)})
		var got string
		s.Register(addrB, HostFunc(func(_ *Node, dg Datagram) { got = string(dg.Payload) }))
		src := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
		buf := append(src.PayloadBuf(), "hello pool"...)
		src.SendPooled(addrB, 1, 2, buf)
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		if got != "hello pool" {
			t.Fatalf("delivered %q", got)
		}
		if !sameBacking(buf, src.PayloadBuf()) {
			t.Error("buffer not recycled after delivery")
		}
	})

	t.Run("lost", func(t *testing.T) {
		s := New(Config{Seed: 7, Impairments: []Impairment{&IIDLoss{P: 1.0}}})
		src := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
		buf := append(src.PayloadBuf(), "dropped"...)
		src.SendPooled(addrB, 1, 2, buf)
		if !sameBacking(buf, src.PayloadBuf()) {
			t.Error("buffer not recycled after loss")
		}
	})

	t.Run("noroute", func(t *testing.T) {
		s := New(Config{Seed: 7})
		src := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
		buf := append(src.PayloadBuf(), "dead letter"...)
		src.SendPooled(addrC, 1, 2, buf)
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		if s.Stats().NoRoute != 1 {
			t.Fatalf("stats = %+v", s.Stats())
		}
		if !sameBacking(buf, src.PayloadBuf()) {
			t.Error("buffer not recycled after NoRoute")
		}
	})
}

// TestHeapOrderingProperty drives the 4-ary heap with thousands of random
// deadlines and asserts the pop order is exactly the (at, seq) total order:
// nondecreasing times, insertion order within equal times. The dense variant
// compresses deadlines into a handful of instants (heavy same-timestamp ties)
// and cancels a third of the timers
// mid-queue to exercise lazy deletion through both the SoA heap and the ring.
func TestHeapOrderingProperty(t *testing.T) {
	type firing struct {
		at  time.Duration
		idx int
	}
	check := func(t *testing.T, fired []firing, want int) {
		t.Helper()
		if len(fired) != want {
			t.Fatalf("fired %d/%d timers", len(fired), want)
		}
		for i := 1; i < len(fired); i++ {
			prev, cur := fired[i-1], fired[i]
			if cur.at < prev.at {
				t.Fatalf("pop %d at %v after %v: time order violated", i, cur.at, prev.at)
			}
			if cur.at == prev.at && cur.idx < prev.idx {
				t.Fatalf("pop %d: FIFO tie-break violated (%d before %d at %v)",
					i, prev.idx, cur.idx, cur.at)
			}
		}
	}
	t.Run("sparse", func(t *testing.T) {
		s := New(Config{Seed: 3})
		n := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
		rng := rand.New(rand.NewSource(99))
		var fired []firing
		const N = 5000
		for i := 0; i < N; i++ {
			i := i
			d := time.Duration(rng.Intn(200)) * time.Millisecond
			n.After(d, func() { fired = append(fired, firing{s.Now(), i}) })
		}
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		check(t, fired, N)
	})
	t.Run("dense-ties-with-cancels", func(t *testing.T) {
		s := New(Config{Seed: 3})
		n := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
		rng := rand.New(rand.NewSource(101))
		var fired []firing
		const N = 5000
		stopped := make(map[int]bool)
		handles := make([]Timer, N)
		for i := 0; i < N; i++ {
			i := i
			// Only 8 distinct instants: every pop resolves a FIFO tie.
			d := time.Duration(rng.Intn(8)) * time.Millisecond
			handles[i] = n.After(d, func() { fired = append(fired, firing{s.Now(), i}) })
		}
		for i := 0; i < N; i += 3 {
			handles[i].Stop()
			stopped[i] = true
		}
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		check(t, fired, N-len(stopped))
		for _, f := range fired {
			if stopped[f.idx] {
				t.Fatalf("cancelled timer %d fired at %v", f.idx, f.at)
			}
		}
		// Lazy deletion still pops (and counts) every scheduled entry.
		if got := s.Stats().Timers; got != N {
			t.Fatalf("Stats.Timers = %d, want %d (cancelled entries still popped)", got, N)
		}
	})
}

// allocsPer16 is testing.AllocsPerRun over batches of 16 calls of step.
// AllocsPerRun truncates its mean to an integer, so a path that allocates
// on only some calls reads 0 when each call is measured alone; batched, it
// reads at least 1 as soon as it allocates once in 16 calls.
func allocsPer16(runs int, step func()) float64 {
	return testing.AllocsPerRun(runs, func() {
		for range 16 {
			step()
		}
	})
}

// TestSendStepAllocBudget is the event core's allocation budget: in steady
// state a datagram send plus its delivery step, a timer arm plus its fire,
// and a pooled-payload round trip must all be allocation-free.
func TestSendStepAllocBudget(t *testing.T) {
	s := New(Config{Seed: 9, Latency: ConstantLatency(time.Millisecond)})
	s.Register(addrB, HostFunc(func(*Node, Datagram) {}))
	src := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	payload := []byte("probe")
	fn := func() {}
	step := func() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // warm the queue, pool and timer slabs
		src.Send(addrB, 1, 2, payload)
		step()
		src.After(time.Millisecond, fn)
		step()
		src.SendPooled(addrB, 1, 2, append(src.PayloadBuf(), payload...))
		step()
	}
	if avg := allocsPer16(200, func() {
		src.Send(addrB, 1, 2, payload)
		step()
	}); avg != 0 {
		t.Errorf("Send+Step allocates %v per 16 ops, want 0", avg)
	}
	if avg := allocsPer16(200, func() {
		src.After(time.Millisecond, fn)
		step()
	}); avg != 0 {
		t.Errorf("After+Step allocates %v per 16 ops, want 0", avg)
	}
	if avg := allocsPer16(200, func() {
		src.SendPooled(addrB, 1, 2, append(src.PayloadBuf(), payload...))
		step()
	}); avg != 0 {
		t.Errorf("pooled round trip allocates %v per 16 ops, want 0", avg)
	}
}

// NumHosts returns the number of registered hosts.
func (s *Sim) NumHosts() int { return s.live }
