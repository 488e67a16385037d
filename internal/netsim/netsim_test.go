package netsim

import (
	"testing"
	"time"

	"openresolver/internal/ipv4"
)

const (
	addrA = ipv4.Addr(0x01010101)
	addrB = ipv4.Addr(0x02020202)
	addrC = ipv4.Addr(0x03030303)
)

func TestDeliveryAndLatency(t *testing.T) {
	s := New(Config{Seed: 1, Latency: ConstantLatency(50 * time.Millisecond)})
	var gotAt time.Duration
	var got Datagram
	s.Register(addrB, HostFunc(func(n *Node, dg Datagram) {
		gotAt = n.Now()
		got = dg
	}))
	a := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	a.Send(addrB, 4000, 53, []byte("hello"))
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if gotAt != 50*time.Millisecond {
		t.Errorf("delivered at %v, want 50ms", gotAt)
	}
	if got.Src != addrA || got.Dst != addrB || got.SrcPort != 4000 || got.DstPort != 53 {
		t.Errorf("datagram fields: %+v", got)
	}
	if string(got.Payload) != "hello" {
		t.Errorf("payload = %q", got.Payload)
	}
	st := s.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Lost != 0 || st.NoRoute != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRequestResponseFlow(t *testing.T) {
	s := New(Config{Seed: 2, Latency: ConstantLatency(10 * time.Millisecond)})
	// B echoes payloads back to the sender.
	s.Register(addrB, HostFunc(func(n *Node, dg Datagram) {
		n.Send(dg.Src, dg.DstPort, dg.SrcPort, dg.Payload)
	}))
	var replies int
	var replyAt time.Duration
	a := s.Register(addrA, HostFunc(func(n *Node, dg Datagram) {
		replies++
		replyAt = n.Now()
	}))
	a.Send(addrB, 5353, 53, []byte("ping"))
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if replies != 1 {
		t.Fatalf("replies = %d", replies)
	}
	if replyAt != 20*time.Millisecond {
		t.Errorf("round trip completed at %v, want 20ms", replyAt)
	}
}

func TestNoRoute(t *testing.T) {
	s := New(Config{Seed: 3})
	a := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	a.Send(addrC, 1, 53, nil)
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.NoRoute != 1 || st.Delivered != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLossModel(t *testing.T) {
	s := New(Config{Seed: 4, Impairments: []Impairment{&IIDLoss{P: 0.5}}, Latency: ConstantLatency(time.Millisecond)})
	var delivered int
	s.Register(addrB, HostFunc(func(*Node, Datagram) { delivered++ }))
	a := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	const n = 10000
	for i := 0; i < n; i++ {
		a.Send(addrB, 1, 2, nil)
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Lost+uint64(delivered) != n {
		t.Fatalf("lost %d + delivered %d != %d", st.Lost, delivered, n)
	}
	if delivered < 4700 || delivered > 5300 {
		t.Errorf("delivered %d of %d at loss 0.5", delivered, n)
	}
}

func TestTimersAndCancellation(t *testing.T) {
	s := New(Config{Seed: 5})
	a := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	var fired []time.Duration
	a.After(30*time.Millisecond, func() { fired = append(fired, s.Now()) })
	a.After(10*time.Millisecond, func() { fired = append(fired, s.Now()) })
	cancelled := a.After(20*time.Millisecond, func() { t.Error("cancelled timer fired") })
	cancelled.Stop()
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 10*time.Millisecond || fired[1] != 30*time.Millisecond {
		t.Errorf("fired = %v", fired)
	}
}

func TestEventOrderingDeterminism(t *testing.T) {
	// Two runs with the same seed must produce identical event sequences,
	// including ties broken by submission order.
	run := func() []string {
		s := New(Config{Seed: 6, Latency: ConstantLatency(5 * time.Millisecond)})
		var log []string
		s.Register(addrB, HostFunc(func(n *Node, dg Datagram) {
			log = append(log, string(dg.Payload))
		}))
		a := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
		// All three arrive at the same instant: order must be send order.
		a.Send(addrB, 1, 2, []byte("x"))
		a.Send(addrB, 1, 2, []byte("y"))
		a.Send(addrB, 1, 2, []byte("z"))
		a.After(5*time.Millisecond, func() { log = append(log, "t") })
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	if len(first) != 4 {
		t.Fatalf("log = %v", first)
	}
	for i := 0; i < 3; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("run %d diverged: %v vs %v", i, first, again)
			}
		}
	}
	want := []string{"x", "y", "z", "t"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
}

func TestRunDeadline(t *testing.T) {
	s := New(Config{Seed: 7})
	a := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	var lateFired bool
	a.After(time.Hour, func() { lateFired = true })
	if err := s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if lateFired {
		t.Error("event past deadline executed")
	}
	if s.Now() != time.Minute {
		t.Errorf("Now = %v, want 1m", s.Now())
	}
	// Resuming past the deadline executes it.
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if !lateFired {
		t.Error("event not executed after resume")
	}
	if s.Now() != time.Hour {
		t.Errorf("Now = %v, want 1h", s.Now())
	}
}

func TestQueueLimit(t *testing.T) {
	s := New(Config{Seed: 8, MaxQueuedEvents: 10})
	a := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	var rearm func()
	rearm = func() {
		// Feedback loop: every timer arms two more.
		a.After(time.Millisecond, rearm)
		a.After(time.Millisecond, rearm)
	}
	rearm()
	if err := s.Run(0); err != ErrEventQueueFull {
		t.Fatalf("err = %v, want ErrEventQueueFull", err)
	}
}

func TestSpoofedSource(t *testing.T) {
	s := New(Config{Seed: 9, Latency: ConstantLatency(time.Millisecond)})
	var srcSeen ipv4.Addr
	s.Register(addrB, HostFunc(func(n *Node, dg Datagram) { srcSeen = dg.Src }))
	attacker := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	attacker.SendSpoofed(addrC, addrB, 53, 53, []byte("q"))
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if srcSeen != addrC {
		t.Errorf("victim source = %v, want %v", srcSeen, addrC)
	}
}

func TestReRegisterKeepsNode(t *testing.T) {
	s := New(Config{Seed: 10})
	n1 := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	var hits int
	n2 := s.Register(addrA, HostFunc(func(*Node, Datagram) { hits++ }))
	if n1 != n2 {
		t.Error("re-register produced a new node")
	}
	b := s.Register(addrB, HostFunc(func(*Node, Datagram) {}))
	b.Send(addrA, 1, 2, nil)
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Errorf("replacement host hits = %d", hits)
	}
	s.Unregister(addrA)
	b.Send(addrA, 1, 2, nil)
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if s.Stats().NoRoute != 1 {
		t.Error("unregistered host still routed")
	}
}

func TestUniformLatency(t *testing.T) {
	s := New(Config{Seed: 11, Latency: UniformLatency(10*time.Millisecond, 20*time.Millisecond)})
	var times []time.Duration
	s.Register(addrB, HostFunc(func(n *Node, dg Datagram) { times = append(times, n.Now()) }))
	a := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	for i := 0; i < 100; i++ {
		a.Send(addrB, 1, 2, nil)
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	for _, at := range times {
		if at < 10*time.Millisecond || at >= 20*time.Millisecond {
			t.Fatalf("delivery at %v outside [10ms,20ms)", at)
		}
	}
	// Degenerate range collapses to the low bound.
	lm := UniformLatency(5*time.Millisecond, 5*time.Millisecond)
	if d := lm(0, 0, s.Rand()); d != 5*time.Millisecond {
		t.Errorf("degenerate uniform = %v", d)
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	s := New(Config{Seed: 1, Latency: ConstantLatency(time.Millisecond)})
	s.Register(addrB, HostFunc(func(n *Node, dg Datagram) {
		n.Send(dg.Src, dg.DstPort, dg.SrcPort, dg.Payload)
	}))
	a := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Send(addrB, 1, 2, nil)
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	_ = s.Run(0)
}

// BenchmarkTimerEnqueueDequeue measures one push+pop through the event
// queue with a realistic backlog (the prober keeps thousands of timeout
// timers pending at any instant).
func BenchmarkTimerEnqueueDequeue(b *testing.B) {
	s := New(Config{Seed: 1})
	n := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	fn := func() {}
	for i := 0; i < 1024; i++ {
		n.After(time.Hour+time.Duration(i)*time.Second, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.After(time.Duration(i%16)*time.Microsecond, fn)
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostLookup measures address routing over a population-scale
// host table.
func BenchmarkHostLookup(b *testing.B) {
	s := New(Config{Seed: 2})
	const n = 1 << 16
	base := ipv4.Addr(0x0B000000)
	h := HostFunc(func(*Node, Datagram) {})
	for i := 0; i < n; i++ {
		s.Register(base+ipv4.Addr(i*2654435761), h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Lookup(base + ipv4.Addr(i%n*2654435761)); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkHostLookupMiss is BenchmarkHostLookup's other side: the same
// table, probed at addresses it does not hold. A campaign's lookups are
// almost all of this kind (about 99.5%: the prober sends to every
// candidate address, and few hold a resolver).
func BenchmarkHostLookupMiss(b *testing.B) {
	s := New(Config{Seed: 2})
	const n = 1 << 16
	base := ipv4.Addr(0x0B000000)
	h := HostFunc(func(*Node, Datagram) {})
	for i := 0; i < n; i++ {
		s.Register(base+ipv4.Addr(i*2654435761), h)
	}
	misses := make([]ipv4.Addr, 0, n)
	for i := 0; len(misses) < n; i++ {
		a := base + ipv4.Addr(i*2246822519)
		if _, ok := s.Lookup(a); !ok {
			misses = append(misses, a)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Lookup(misses[i%n]); ok {
			b.Fatal("hit")
		}
	}
}

func TestManyHostsStress(t *testing.T) {
	// 20k hosts exchanging a burst each: the event queue and router must
	// stay correct at population scale.
	s := New(Config{Seed: 99, Latency: ConstantLatency(time.Millisecond)})
	const n = 20000
	received := make([]int, n)
	base := ipv4.Addr(0x0B000000)
	for i := 0; i < n; i++ {
		idx := i
		s.Register(base+ipv4.Addr(idx), HostFunc(func(*Node, Datagram) {
			received[idx]++
		}))
	}
	if s.NumHosts() != n {
		t.Fatalf("NumHosts = %d", s.NumHosts())
	}
	sender := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	for i := 0; i < n; i++ {
		sender.Send(base+ipv4.Addr(i), 1, 2, nil)
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, r := range received {
		if r != 1 {
			t.Fatalf("host %d received %d datagrams", i, r)
		}
	}
	if st := s.Stats(); st.Delivered != n {
		t.Errorf("delivered = %d", st.Delivered)
	}
}

func TestLookup(t *testing.T) {
	s := New(Config{Seed: 100})
	n := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	got, ok := s.Lookup(addrA)
	if !ok || got != n {
		t.Error("Lookup failed for registered host")
	}
	if _, ok := s.Lookup(addrB); ok {
		t.Error("Lookup succeeded for unknown host")
	}
	if n.Addr() != addrA {
		t.Errorf("node addr = %v", n.Addr())
	}
	if n.Rand() == nil {
		t.Error("node rand nil")
	}
}
