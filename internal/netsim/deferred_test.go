package netsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"openresolver/internal/ipv4"
	"openresolver/internal/obs"
)

// twin is one side of the deferred-send equivalence test: a simulation
// with a metrics shard, a sending node, a few registered hosts that log
// every delivery, and a latency model that counts its draws.
type twin struct {
	s     *Sim
	sh    *obs.Shard
	node  *Node
	draws int
	got   []delivery
}

// delivery is one datagram a twin's host received.
type delivery struct {
	dst     ipv4.Addr
	at      time.Duration
	payload string
}

func newTwin(imps []Impairment) *twin {
	tw := &twin{sh: obs.NewShard("sim")}
	lat := UniformLatency(10*time.Millisecond, 80*time.Millisecond)
	tw.s = New(Config{Seed: 27, Impairments: imps, Latency: func(src, dst ipv4.Addr, rng *rand.Rand) time.Duration {
		tw.draws++
		return lat(src, dst, rng)
	}})
	tw.s.SetObserver(tw.sh)
	tw.node = tw.s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	for _, a := range twinHosts {
		tw.s.Register(a, HostFunc(func(n *Node, dg Datagram) {
			tw.got = append(tw.got, delivery{dst: n.Addr(), at: n.Now(), payload: string(dg.Payload)})
		}))
	}
	return tw
}

var twinHosts = []ipv4.Addr{addrB, addrC, ipv4.MustParseAddr("10.9.8.7")}

// diffTwins reports the first difference between a and b in what a send
// can change — counters, fault counters, obs counters, latency draws and
// the rng stream — or "". The payload pool is not compared: a deferred
// send borrows no buffer for a copy that is not delivered. Comparing the
// rng consumes one draw on each side.
func diffTwins(a, b *twin) string {
	switch {
	case a.s.Stats() != b.s.Stats():
		return fmt.Sprintf("Stats %+v vs %+v", a.s.Stats(), b.s.Stats())
	case a.s.FaultStats() != b.s.FaultStats():
		return fmt.Sprintf("FaultStats %+v vs %+v", a.s.FaultStats(), b.s.FaultStats())
	case a.draws != b.draws:
		return fmt.Sprintf("latency draws %d vs %d", a.draws, b.draws)
	case a.s.queueLen() != b.s.queueLen():
		return "queue length"
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

// diffDeliveries reports the first difference between the datagrams a
// and b delivered, or "".
func diffDeliveries(a, b *twin) string {
	if len(a.got) != len(b.got) {
		return fmt.Sprintf("%d vs %d deliveries", len(a.got), len(b.got))
	}
	for i := range a.got {
		if a.got[i] != b.got[i] {
			return fmt.Sprintf("delivery %d: %+v vs %+v", i, a.got[i], b.got[i])
		}
	}
	return ""
}

// sendState is what one send is checked against: the counters and the
// queue before it.
type sendState struct {
	st    Stats
	fs    FaultStats
	draws int
	queue int
}

func (tw *twin) state() sendState {
	return sendState{tw.s.Stats(), tw.s.FaultStats(), tw.draws, tw.s.queueLen()}
}

// checkAccounting reports how the send since before departs from what its
// fate implies, or "": one Sent; a dropped datagram counts Lost, Dropped
// and its cause and draws nothing more; otherwise every copy draws its
// latency, and is scheduled if dst has a host and counted NoRoute if not,
// and a corrupt bit or extra delay is counted whether or not a copy
// arrives.
func (tw *twin) checkAccounting(before sendState, routed bool, size int) string {
	f := Fate{CorruptBit: -1}
	if len(tw.s.cfg.Impairments) > 0 {
		f = tw.s.fate
	}
	want := before
	want.st.Sent++
	copies := 1 + f.Duplicates
	switch {
	case f.Drop:
		want.st.Lost++
		want.fs.Dropped++
		switch f.Cause {
		case CauseLoss:
			want.fs.LossDrops++
		case CauseBurst:
			want.fs.BurstDrops++
		case CauseBlackhole:
			want.fs.Blackholed++
		case CauseBrownout:
			want.fs.BrownedOut++
		}
	default:
		want.fs.Duplicated += uint64(f.Duplicates)
		want.draws += copies
		if routed {
			want.queue += copies
		} else {
			want.st.NoRoute += uint64(copies)
		}
		if f.CorruptBit >= 0 && size > 0 {
			want.fs.Corrupted++
		}
		if f.ExtraDelay > 0 {
			want.fs.Reordered++
		}
	}
	if got := tw.state(); got != want {
		return fmt.Sprintf("fate %+v, routed %t: got %+v, want %+v", f, routed, got, want)
	}
	return ""
}

// builder is a PayloadBuilder over fixed bytes that counts its builds.
type builder struct {
	payload []byte
	builds  int
}

func (b *builder) AppendPayload(dst []byte) []byte {
	b.builds++
	return append(dst, b.payload...)
}

// chaosStack is perfbench's sim-chaos-2018 pipeline.
const chaosStack = "ge:0.05,0.2,0.125,1.0;dup:0.1;reorder:0.2,40ms;corrupt:0.05;brownout:5s,20s,0.8"

// TestDeferredSendMatchesPooled: twin simulations take the same mixed
// sends to addresses with and without hosts, one side through SendPooled
// with the payload built and one through SendDeferred. After every send
// the two agree on every counter, fault counter, obs counter, latency
// draw and the next rng draw, and each side's counters move as the
// send's fate says; whenever the sims run, both delivered the same bytes
// at the same instants, corrupted primaries and duplicates included. The
// deferred side builds a payload only for a send with a copy scheduled.
func TestDeferredSendMatchesPooled(t *testing.T) {
	for _, tc := range []struct{ name, spec string }{
		{"none", ""},
		{"chaos", chaosStack},
		{"chaos+blackhole-window", chaosStack + ";blackhole:10.9.0.0/16;dup:0.5,2@3s..9s"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pipeline := func() []Impairment {
				if tc.spec == "" {
					return nil
				}
				imps, err := ParseImpairments(tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				return imps
			}
			full, lean := newTwin(pipeline()), newTwin(pipeline())
			if !lean.s.lengthOnly {
				t.Fatal("a pipeline of netsim's own impairments does not take the length-only view")
			}
			rng := rand.New(rand.NewSource(1))
			sent := map[string]bool{}
			unrouted, builds, scheduled := 0, 0, 0
			for i := 0; i < 3000; i++ {
				dst := ipv4.Addr(rng.Uint32())
				if rng.Intn(4) == 0 {
					dst = twinHosts[rng.Intn(len(twinHosts))]
				}
				// Each payload is unique (it starts with i) so a delivery
				// that matches none was corrupted; one in 50 is empty.
				var payload []byte
				if rng.Intn(50) != 0 {
					payload = fmt.Appendf(nil, "%d:", i)
					for n := rng.Intn(40); n > 0; n-- {
						payload = append(payload, byte(rng.Intn(256)))
					}
					sent[string(payload)] = true
				}
				_, routed := full.s.Lookup(dst)
				if !routed {
					unrouted++
				}

				before := full.state()
				full.node.SendPooled(dst, 40000, 53, append(full.node.PayloadBuf(), payload...))
				if msg := full.checkAccounting(before, routed, len(payload)); msg != "" {
					t.Fatalf("send %d to %v, pooled: %s", i, dst, msg)
				}
				before = lean.state()
				b := &builder{payload: payload}
				lean.node.SendDeferred(dst, 40000, 53, len(payload), b)
				if msg := lean.checkAccounting(before, routed, len(payload)); msg != "" {
					t.Fatalf("send %d to %v, deferred: %s", i, dst, msg)
				}
				if q := lean.s.queueLen() - before.queue; (q > 0) != (b.builds == 1) || b.builds > 1 {
					t.Fatalf("send %d to %v: %d builds for %d scheduled copies", i, dst, b.builds, q)
				}
				builds += b.builds
				if b.builds > 0 {
					scheduled++
				}
				if msg := diffTwins(full, lean); msg != "" {
					t.Fatalf("send %d to %v: the two sides differ in %s", i, dst, msg)
				}
				if rng.Intn(4) == 0 { // deliver what is in flight and let 40ms pass
					for _, tw := range []*twin{full, lean} {
						tw.node.After(40*time.Millisecond, func() {})
						if err := tw.s.Run(0); err != nil {
							t.Fatal(err)
						}
					}
					if msg := diffDeliveries(full, lean); msg != "" {
						t.Fatalf("after send %d: %s", i, msg)
					}
				}
			}
			corrupted, dups := 0, 0
			seen := map[string]int{}
			for _, d := range lean.got {
				if d.payload == "" {
					continue
				}
				if !sent[d.payload] {
					corrupted++
				}
				if seen[d.payload]++; seen[d.payload] == 2 {
					dups++
				}
			}
			if unrouted < 2000 || len(lean.got) == 0 || builds != scheduled {
				t.Fatalf("%d unrouted sends, %d deliveries, %d builds for %d sends with a copy scheduled", unrouted, len(lean.got), builds, scheduled)
			}
			if f := lean.s.FaultStats(); tc.spec != "" && (f.Dropped == 0 || f.Duplicated == 0 || f.Corrupted == 0 || f.Reordered == 0 || f.BrownedOut == 0 || corrupted == 0 || dups == 0) {
				t.Fatalf("fault counters %+v, %d corrupted and %d duplicated deliveries: the pipeline acted too little", f, corrupted, dups)
			}
			if strings.Contains(tc.spec, "blackhole") && lean.s.FaultStats().Blackholed == 0 {
				t.Fatal("the blackhole never dropped")
			}
		})
	}
}

// payloadTap is an impairment from outside netsim's own set: it logs the
// payload bytes it sees and drops every datagram whose first byte is odd,
// so its verdict depends on the bytes.
type payloadTap struct{ seen [][]byte }

func (p *payloadTap) Apply(dg *Datagram, _ time.Duration, _ *rand.Rand, f *Fate) {
	p.seen = append(p.seen, bytes.Clone(dg.Payload))
	if len(dg.Payload) > 0 && dg.Payload[0]&1 == 1 && !f.Drop {
		f.Drop, f.Cause = true, CauseLoss
	}
}

// TestDeferredSendBuildsForForeignImpairment: with an impairment from
// outside netsim in the pipeline, even inside a Windowed, a deferred send
// builds its payload before the pipeline runs, so that impairment sees the
// real bytes of every datagram, routed or not, and the twins still agree.
func TestDeferredSendBuildsForForeignImpairment(t *testing.T) {
	fullTap, leanTap := &payloadTap{}, &payloadTap{}
	full := newTwin([]Impairment{&Duplicator{P: 0.3}, &Windowed{Inner: fullTap}, &Corruptor{P: 0.3}})
	lean := newTwin([]Impairment{&Duplicator{P: 0.3}, &Windowed{Inner: leanTap}, &Corruptor{P: 0.3}})
	if lean.s.lengthOnly {
		t.Fatal("a pipeline with a foreign impairment takes the length-only view")
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		dst := ipv4.Addr(rng.Uint32())
		if rng.Intn(4) == 0 {
			dst = twinHosts[rng.Intn(len(twinHosts))]
		}
		payload := fmt.Appendf(nil, "%c%d", byte(rng.Intn(256)), i)
		full.node.SendPooled(dst, 40000, 53, append(full.node.PayloadBuf(), payload...))
		b := &builder{payload: payload}
		lean.node.SendDeferred(dst, 40000, 53, len(payload), b)
		if b.builds != 1 || !bytes.Equal(leanTap.seen[i], payload) {
			t.Fatalf("send %d: %d builds, the tap saw %q, want %q", i, b.builds, leanTap.seen[i], payload)
		}
		if msg := diffTwins(full, lean); msg != "" {
			t.Fatalf("send %d: the two sides differ in %s", i, msg)
		}
	}
	for _, tw := range []*twin{full, lean} {
		if err := tw.s.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	if msg := diffDeliveries(full, lean); msg != "" {
		t.Fatal(msg)
	}
	if f := lean.s.FaultStats(); f.LossDrops == 0 || f.Duplicated == 0 || f.Corrupted == 0 || len(lean.got) == 0 {
		t.Fatalf("fault counters %+v and %d deliveries: the pipeline acted too little", f, len(lean.got))
	}
}

// TestDeferredSendPanicsOnWrongSize: a builder that appends other than the
// declared size is a sender bug, and netsim panics on it rather than run
// a pipeline whose corrupt draw saw the wrong length.
func TestDeferredSendPanicsOnWrongSize(t *testing.T) {
	for _, imps := range [][]Impairment{nil, {&Corruptor{P: 1}}, {&payloadTap{}}} {
		tw := newTwin(imps)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("pipeline %s: a 5-byte payload declared as 4 did not panic", DescribeImpairments(imps))
				}
			}()
			tw.node.SendDeferred(addrB, 40000, 53, 4, &builder{payload: []byte("probe")})
		}()
	}
}
