package netsim

import (
	"math/rand"
	"testing"
	"time"

	"openresolver/internal/ipv4"
	"openresolver/internal/obs"
)

// twin is one side of the unrouted-send equivalence test: a simulation
// with a metrics shard, a sending node and a few registered hosts.
type twin struct {
	s    *Sim
	sh   *obs.Shard
	node *Node
}

func newTwin(imps []Impairment) *twin {
	s := New(Config{Seed: 27, Latency: UniformLatency(10*time.Millisecond, 80*time.Millisecond), Impairments: imps})
	tw := &twin{s: s, sh: obs.NewShard("sim")}
	s.SetObserver(tw.sh)
	tw.node = s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	for _, a := range twinHosts {
		s.Register(a, HostFunc(func(*Node, Datagram) {}))
	}
	// A dead-lettered pooled send borrows a buffer and returns it, so it
	// leaves the pool's length as it was unless the pool was empty and
	// the borrowed buffer was a fresh one. Warm pools on both sides, as a
	// running sender's pool is, so the lengths compare like for like.
	for range 64 {
		s.putPayload(make([]byte, 0, 512))
	}
	return tw
}

var twinHosts = []ipv4.Addr{addrB, addrC, ipv4.MustParseAddr("10.9.8.7")}

// diffTwins reports the first difference between a and b in what a send
// can change — counters, fault counters, obs counters, the payload pool
// and the rng stream — or "". Comparing the rng consumes one draw on
// each side.
func diffTwins(a, b *twin) string {
	switch {
	case a.s.Stats() != b.s.Stats():
		return "Stats"
	case a.s.FaultStats() != b.s.FaultStats():
		return "FaultStats"
	case len(a.s.payloads) != len(b.s.payloads):
		return "payload pool length"
	}
	for c := obs.Counter(0); c < obs.NumCounters; c++ {
		if a.sh.Counter(c) != b.sh.Counter(c) {
			return "obs counter " + obs.CounterName(c)
		}
	}
	if a.s.rng.Int63() != b.s.rng.Int63() {
		return "next rng draw"
	}
	return ""
}

// TestSendUnroutedMatchesDeadLetter: on a pristine network, SendUnrouted
// to an address with no host leaves the simulation exactly as a pooled
// send of a real payload to it does, send after send; to an address with
// a host it reports false and changes nothing, and the caller's full send
// then matches too.
func TestSendUnroutedMatchesDeadLetter(t *testing.T) {
	full, lean := newTwin(nil), newTwin(nil)
	rng := rand.New(rand.NewSource(1))
	unrouted := 0
	for i := 0; i < 2000; i++ {
		dst := ipv4.Addr(rng.Uint32())
		if rng.Intn(8) == 0 {
			dst = twinHosts[rng.Intn(len(twinHosts))]
		}
		_, routed := full.s.Lookup(dst)
		took := lean.node.SendUnrouted(dst)
		if took == routed {
			t.Fatalf("send %d: SendUnrouted(%v) = %t with a host registered: %t", i, dst, took, routed)
		}
		if took {
			unrouted++
		} else {
			if msg := diffTwins(full, lean); msg != "" {
				t.Fatalf("send %d: a refused SendUnrouted changed %s", i, msg)
			}
			lean.node.SendPooled(dst, 40000, 53, append(lean.node.PayloadBuf(), "probe payload"...))
		}
		full.node.SendPooled(dst, 40000, 53, append(full.node.PayloadBuf(), "probe payload"...))
		if msg := diffTwins(full, lean); msg != "" {
			t.Fatalf("send %d to %v: the two sides differ in %s", i, dst, msg)
		}
		if rng.Intn(4) == 0 { // deliver what is in flight, on both sides
			for _, tw := range []*twin{full, lean} {
				if err := tw.s.Run(0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if unrouted < 1500 || full.s.Stats().Delivered == 0 {
		t.Fatalf("%d unrouted sends and %d deliveries: the mix exercised too little", unrouted, full.s.Stats().Delivered)
	}
}

// TestSendUnroutedRefusesImpairedNetwork: with any impairment configured,
// SendUnrouted reports false even for an address with no host and changes
// nothing, so the sender takes the full path and the fault pipeline draws
// for (and may duplicate or corrupt) the real payload.
func TestSendUnroutedRefusesImpairedNetwork(t *testing.T) {
	imps := []Impairment{&IIDLoss{P: 0.2}, &Duplicator{P: 0.3}, &Corruptor{P: 0.3}}
	full, lean := newTwin(imps), newTwin(imps)
	dst := ipv4.MustParseAddr("203.0.113.77")
	for i := 0; i < 200; i++ {
		if lean.node.SendUnrouted(dst) {
			t.Fatalf("send %d: SendUnrouted accepted a send on an impaired network", i)
		}
		if msg := diffTwins(full, lean); msg != "" {
			t.Fatalf("send %d: a refused SendUnrouted changed %s", i, msg)
		}
		for _, tw := range []*twin{full, lean} {
			tw.node.SendPooled(dst, 40000, 53, append(tw.node.PayloadBuf(), "probe payload"...))
		}
		if msg := diffTwins(full, lean); msg != "" {
			t.Fatalf("send %d: the two sides differ in %s", i, msg)
		}
	}
	if f := full.s.FaultStats(); f.Dropped == 0 || f.Duplicated == 0 || f.Corrupted == 0 {
		t.Fatalf("fault counters %+v: the pipeline never acted", f)
	}
}
