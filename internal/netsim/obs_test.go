package netsim

import (
	"testing"
	"time"

	"openresolver/internal/obs"
)

// TestInstrumentedSendStepAllocBudget re-runs the event core's allocation
// budget with a metrics shard attached: every Inc/Observe on the hot path
// is an atomic add into preallocated arrays, so the instrumented simulator
// must stay at zero allocations per send+step.
func TestInstrumentedSendStepAllocBudget(t *testing.T) {
	s := New(Config{Seed: 9, Latency: ConstantLatency(time.Millisecond)})
	sh := obs.NewShard("sim")
	s.SetObserver(sh)
	s.Register(addrB, HostFunc(func(*Node, Datagram) {}))
	src := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	payload := []byte("probe")
	step := func() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		src.Send(addrB, 1, 2, payload)
		step()
		src.SendPooled(addrB, 1, 2, append(src.PayloadBuf(), payload...))
		step()
	}
	if avg := allocsPer16(200, func() {
		src.Send(addrB, 1, 2, payload)
		step()
	}); avg != 0 {
		t.Errorf("instrumented Send+Step allocates %v per 16 ops, want 0", avg)
	}
	if avg := allocsPer16(200, func() {
		src.SendPooled(addrB, 1, 2, append(src.PayloadBuf(), payload...))
		step()
	}); avg != 0 {
		t.Errorf("instrumented pooled round trip allocates %v per 16 ops, want 0", avg)
	}
	if sh.Counter(obs.CSimSent) == 0 || sh.Counter(obs.CSimDelivered) == 0 {
		t.Error("observer counted nothing — instrumentation not reached")
	}
	if sh.Histogram(obs.HQueueDepth).Count() == 0 {
		t.Error("queue-depth histogram empty")
	}
}

// TestObserverCountsMatchStats cross-checks the shard's counters against
// the simulator's own Stats over a lossy run.
func TestObserverCountsMatchStats(t *testing.T) {
	s := New(Config{Seed: 3, Latency: ConstantLatency(time.Millisecond), Impairments: []Impairment{&IIDLoss{P: 0.3}}})
	sh := obs.NewShard("sim")
	s.SetObserver(sh)
	s.Register(addrB, HostFunc(func(*Node, Datagram) {}))
	src := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	for i := 0; i < 1000; i++ {
		src.Send(addrB, 1, 2, []byte("x"))
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if got := sh.Counter(obs.CSimSent); got != st.Sent {
		t.Errorf("sim.sent = %d, Stats.Sent = %d", got, st.Sent)
	}
	if got := sh.Counter(obs.CSimDelivered); got != st.Delivered {
		t.Errorf("sim.delivered = %d, Stats.Delivered = %d", got, st.Delivered)
	}
	if got := sh.Counter(obs.CSimLost); got != st.Lost {
		t.Errorf("sim.lost = %d, Stats.Lost = %d", got, st.Lost)
	}
}
