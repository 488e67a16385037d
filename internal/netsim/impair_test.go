package netsim

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"openresolver/internal/ipv4"
)

// TestGilbertElliottStationaryConvergence is the burst-loss property test:
// over a long packet stream, the empirical time in the Bad state and the
// empirical loss rate must converge to the chain's stationary distribution.
func TestGilbertElliottStationaryConvergence(t *testing.T) {
	for _, tc := range []struct {
		name             string
		pgb, pbg, lg, lb float64
	}{
		{"paper-30pct", 0.05, 0.20, 0.125, 1.0},
		{"rare-deep-bursts", 0.01, 0.50, 0.0, 1.0},
		{"symmetric", 0.10, 0.10, 0.05, 0.60},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ge := &GilbertElliott{PGoodBad: tc.pgb, PBadGood: tc.pbg, LossGood: tc.lg, LossBad: tc.lb}
			rng := rand.New(rand.NewSource(42))
			const n = 400000
			drops := 0
			for i := 0; i < n; i++ {
				var f Fate
				ge.Apply(nil, 0, rng, &f)
				if f.Drop {
					drops++
				}
			}
			gotBad := float64(ge.BadPackets) / float64(ge.Packets)
			if wantBad := ge.StationaryBad(); math.Abs(gotBad-wantBad) > 0.01 {
				t.Errorf("time in Bad state = %.4f, stationary = %.4f", gotBad, wantBad)
			}
			gotLoss := float64(drops) / n
			if wantLoss := ge.MeanLoss(); math.Abs(gotLoss-wantLoss) > 0.01 {
				t.Errorf("empirical loss = %.4f, stationary mean = %.4f", gotLoss, wantLoss)
			}
		})
	}
}

// TestGilbertElliottBursts checks the chain actually loses in bursts: with
// a lossless Good state, consecutive drops must appear far more often than
// an i.i.d. channel of the same mean rate would produce.
func TestGilbertElliottBursts(t *testing.T) {
	ge := &GilbertElliott{PGoodBad: 0.05, PBadGood: 0.20, LossGood: 0, LossBad: 1}
	rng := rand.New(rand.NewSource(7))
	const n = 200000
	drops, pairs := 0, 0
	prev := false
	for i := 0; i < n; i++ {
		var f Fate
		ge.Apply(nil, 0, rng, &f)
		if f.Drop {
			drops++
			if prev {
				pairs++
			}
		}
		prev = f.Drop
	}
	rate := float64(drops) / n
	// P(drop_i | drop_{i-1}) for the chain is 1-PBadGood = 0.8; for an
	// i.i.d. channel it would equal the marginal rate (~0.2).
	cond := float64(pairs) / float64(drops)
	if cond < 2*rate {
		t.Errorf("P(drop|drop) = %.3f barely above marginal %.3f: loss is not bursty", cond, rate)
	}
}

// TestReordererWindowBound is the reordering property test: an impaired
// packet is delayed by at most the configured window, never more, and the
// extra delay is always strictly positive when applied.
func TestReordererWindowBound(t *testing.T) {
	const window = 250 * time.Millisecond
	r := &Reorderer{P: 0.5, Window: window}
	rng := rand.New(rand.NewSource(3))
	hit := 0
	for i := 0; i < 100000; i++ {
		f := Fate{CorruptBit: -1}
		r.Apply(nil, 0, rng, &f)
		if f.ExtraDelay == 0 {
			continue
		}
		hit++
		if f.ExtraDelay > window {
			t.Fatalf("extra delay %v exceeds window %v", f.ExtraDelay, window)
		}
	}
	if frac := float64(hit) / 100000; math.Abs(frac-0.5) > 0.01 {
		t.Errorf("reordered fraction = %.3f, want ~0.5", frac)
	}
}

// TestReordererEndToEnd pins the bound through the full delivery path: with
// constant base latency, no packet may arrive later than base + window.
func TestReordererEndToEnd(t *testing.T) {
	const base, window = 20 * time.Millisecond, 100 * time.Millisecond
	sim := New(Config{
		Seed:        9,
		Latency:     ConstantLatency(base),
		Impairments: []Impairment{&Reorderer{P: 0.7, Window: window}},
	})
	var worst time.Duration
	var sent []time.Duration
	recv := 0
	sim.Register(2, HostFunc(func(n *Node, dg Datagram) {
		if d := n.Now() - sent[recv]; d > worst {
			worst = d
		}
		recv++
	}))
	src := sim.Register(1, HostFunc(func(*Node, Datagram) {}))
	for i := 0; i < 500; i++ {
		at := time.Duration(i) * time.Millisecond
		sent = append(sent, at)
		src.After(at, func() { src.Send(2, 1000, 53, []byte{1}) })
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if recv != 500 {
		t.Fatalf("delivered %d of 500", recv)
	}
	if worst > base+window {
		t.Errorf("worst delivery delay %v exceeds base+window %v", worst, base+window)
	}
	if fs := sim.FaultStats(); fs.Reordered == 0 {
		t.Error("no packets were reordered")
	}
}

// TestDuplicateNeverClonesCorruption is the aliasing property test: when a
// packet is both duplicated and corrupted, the duplicates must carry the
// original bytes — corruption applies to the delivered primary only, never
// to its "corrected twin" copies, and never to the sender's buffer.
func TestDuplicateNeverClonesCorruption(t *testing.T) {
	orig := []byte("probe-payload-under-test")
	sim := New(Config{
		Seed:    11,
		Latency: ConstantLatency(10 * time.Millisecond),
		Impairments: []Impairment{
			&Duplicator{P: 1, Copies: 2},
			&Corruptor{P: 1},
		},
	})
	var got [][]byte
	sim.Register(2, HostFunc(func(_ *Node, dg Datagram) {
		got = append(got, append([]byte(nil), dg.Payload...))
	}))
	src := sim.Register(1, HostFunc(func(*Node, Datagram) {}))
	buf := append([]byte(nil), orig...)
	src.Send(2, 1000, 53, buf)
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d copies, want 3 (primary + 2 dups)", len(got))
	}
	clean, corrupt := 0, 0
	for _, p := range got {
		if bytes.Equal(p, orig) {
			clean++
			continue
		}
		corrupt++
		diff := 0
		for i := range p {
			diff += popcount8(p[i] ^ orig[i])
		}
		if diff != 1 {
			t.Errorf("corrupted copy differs in %d bits, want exactly 1", diff)
		}
	}
	if clean != 2 || corrupt != 1 {
		t.Errorf("clean=%d corrupt=%d, want 2 clean twins and 1 corrupted primary", clean, corrupt)
	}
	if !bytes.Equal(buf, orig) {
		t.Error("sender's buffer was mutated by corruption")
	}
	fs := sim.FaultStats()
	if fs.Duplicated != 2 || fs.Corrupted != 1 {
		t.Errorf("FaultStats = %+v, want Duplicated=2 Corrupted=1", fs)
	}
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// TestBlackhole checks per-prefix blackholing: packets into the dead block
// vanish (counted, not delivered) while other traffic is untouched, and a
// /32 block models a single dead host.
func TestBlackhole(t *testing.T) {
	sim := New(Config{
		Seed:    5,
		Latency: ConstantLatency(time.Millisecond),
		Impairments: []Impairment{
			&Blackhole{Block: ipv4.MustParseBlock("10.0.0.0/8")},
			&Blackhole{Block: ipv4.MustParseBlock("192.0.2.7/32")},
		},
	})
	delivered := map[ipv4.Addr]int{}
	sink := HostFunc(func(n *Node, _ Datagram) { delivered[n.Addr()]++ })
	dead := ipv4.MustParseAddr("10.1.2.3")
	deadHost := ipv4.MustParseAddr("192.0.2.7")
	alive := ipv4.MustParseAddr("192.0.2.8")
	for _, a := range []ipv4.Addr{dead, deadHost, alive} {
		sim.Register(a, sink)
	}
	src := sim.Register(1, HostFunc(func(*Node, Datagram) {}))
	for _, a := range []ipv4.Addr{dead, deadHost, alive} {
		src.Send(a, 1000, 53, []byte{1})
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if delivered[dead] != 0 || delivered[deadHost] != 0 {
		t.Errorf("blackholed destinations received traffic: %v", delivered)
	}
	if delivered[alive] != 1 {
		t.Errorf("alive host got %d packets, want 1", delivered[alive])
	}
	if fs := sim.FaultStats(); fs.Blackholed != 2 {
		t.Errorf("Blackholed = %d, want 2", fs.Blackholed)
	}
}

// TestBrownoutWindow checks the time-windowed outage: traffic before and
// after the window flows, traffic inside it is lost, so a campaign can
// degrade and recover mid-run on the virtual clock.
func TestBrownoutWindow(t *testing.T) {
	sim := New(Config{
		Seed:    6,
		Latency: ConstantLatency(time.Millisecond),
		Impairments: []Impairment{
			&Brownout{From: 1 * time.Second, Until: 2 * time.Second, Loss: 1},
		},
	})
	var deliveredAt []time.Duration
	sim.Register(2, HostFunc(func(n *Node, _ Datagram) {
		deliveredAt = append(deliveredAt, n.Now())
	}))
	src := sim.Register(1, HostFunc(func(*Node, Datagram) {}))
	for _, at := range []time.Duration{0, 500 * time.Millisecond, 1500 * time.Millisecond, 2500 * time.Millisecond} {
		src.After(at, func() { src.Send(2, 1000, 53, []byte{1}) })
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(deliveredAt) != 3 {
		t.Fatalf("delivered %d packets, want 3 (one eaten by the brownout)", len(deliveredAt))
	}
	for _, at := range deliveredAt {
		if at >= time.Second && at < 2*time.Second+time.Millisecond {
			t.Errorf("packet delivered at %v, inside the outage window", at)
		}
	}
	if fs := sim.FaultStats(); fs.BrownedOut != 1 {
		t.Errorf("BrownedOut = %d, want 1", fs.BrownedOut)
	}
}

// TestWindowedPhase checks the generic phase combinator: the inner
// impairment only acts inside [From, Until).
func TestWindowedPhase(t *testing.T) {
	w := &Windowed{From: time.Second, Until: 2 * time.Second, Inner: &IIDLoss{P: 1}}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		now  time.Duration
		drop bool
	}{
		{0, false}, {time.Second - 1, false}, {time.Second, true},
		{2*time.Second - 1, true}, {2 * time.Second, false},
	} {
		f := Fate{CorruptBit: -1}
		w.Apply(nil, tc.now, rng, &f)
		if f.Drop != tc.drop {
			t.Errorf("at %v: drop = %v, want %v", tc.now, f.Drop, tc.drop)
		}
	}
	// Zero Until means forever after From.
	open := &Windowed{From: time.Second, Inner: &IIDLoss{P: 1}}
	f := Fate{CorruptBit: -1}
	open.Apply(nil, time.Hour, rng, &f)
	if !f.Drop {
		t.Error("open-ended window inactive after From")
	}
}

// TestImpairmentDeterminism: identical (config, seed) produce identical
// fault trajectories, including the stateful Gilbert–Elliott chain.
func TestImpairmentDeterminism(t *testing.T) {
	run := func() (Stats, FaultStats) {
		imps, err := ParseImpairments("ge:0.05,0.2,0.125,1;dup:0.02;reorder:0.1,50ms;corrupt:0.05;blackhole:10.0.0.0/8")
		if err != nil {
			t.Fatal(err)
		}
		sim := New(Config{Seed: 99, Latency: UniformLatency(5*time.Millisecond, 50*time.Millisecond), Impairments: imps})
		sink := HostFunc(func(*Node, Datagram) {})
		targets := []ipv4.Addr{ipv4.MustParseAddr("10.0.0.1"), ipv4.MustParseAddr("192.0.2.1"), ipv4.MustParseAddr("198.51.100.1")}
		for _, a := range targets[1:] {
			sim.Register(a, sink)
		}
		src := sim.Register(1, sink)
		for i := 0; i < 5000; i++ {
			dst := targets[i%len(targets)]
			at := time.Duration(i) * 100 * time.Microsecond
			src.After(at, func() { src.Send(dst, 1000, 53, []byte("abcdefgh")) })
		}
		if err := sim.Run(0); err != nil {
			t.Fatal(err)
		}
		return sim.Stats(), sim.FaultStats()
	}
	s1, f1 := run()
	s2, f2 := run()
	if s1 != s2 || f1 != f2 {
		t.Errorf("non-deterministic run:\n  stats %+v vs %+v\n  faults %+v vs %+v", s1, s2, f1, f2)
	}
	if f1.BurstDrops == 0 || f1.Duplicated == 0 || f1.Corrupted == 0 || f1.Reordered == 0 || f1.Blackholed == 0 {
		t.Errorf("expected every impairment to fire: %+v", f1)
	}
}

// goodImpairmentSpec uses every element kind once; TestParseImpairments
// checks how it parses and FuzzParseImpairments seeds its corpus with it.
const goodImpairmentSpec = "ge:0.05,0.2,0.125,1@2m..20m; dup:0.01,3 ;loss:0.1;reorder:0.2,100ms;corrupt:0.01;blackhole:10.0.0.0/8,src;brownout:1m,2m,0.9"

// badImpairmentSpecs must all be rejected.
var badImpairmentSpecs = []string{
	"", "bogus:1", "loss:1.5", "loss:x", "ge:0.1,0.2", "reorder:0.5",
	"reorder:0.5,-3s", "dup:0.1,0", "blackhole:", "blackhole:10.0.0.0/8,dst",
	"brownout:2m,1m,0.5", "loss:0.1@x..y", "loss:0.1@5m..2m",
	// NaN and infinities are not probabilities.
	"loss:NaN", "dup:nan", "ge:NaN,0.2,0.1,1", "ge:0.1,0.2,0.1,+Inf",
	"reorder:NaN,1ms", "corrupt:-Inf", "brownout:5s,20s,NaN",
	// The duplication fan-out is bounded.
	"dup:0.1,17", "dup:0.1,100000000",
}

// TestParseImpairments covers the spec grammar: kinds, argument counts,
// the @window suffix, and rejection of malformed specs.
func TestParseImpairments(t *testing.T) {
	imps, err := ParseImpairments(goodImpairmentSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) != 7 {
		t.Fatalf("parsed %d impairments, want 7", len(imps))
	}
	w, ok := imps[0].(*Windowed)
	if !ok || w.From != 2*time.Minute || w.Until != 20*time.Minute {
		t.Errorf("imps[0] = %#v, want Windowed 2m..20m", imps[0])
	}
	ge, ok := w.Inner.(*GilbertElliott)
	if !ok || ge.PGoodBad != 0.05 || ge.LossBad != 1 {
		t.Errorf("windowed inner = %#v, want GilbertElliott", w.Inner)
	}
	if math.Abs(ge.MeanLoss()-0.3) > 0.001 {
		t.Errorf("MeanLoss = %.4f, want 0.30", ge.MeanLoss())
	}
	if d, ok := imps[1].(*Duplicator); !ok || d.Copies != 3 {
		t.Errorf("imps[1] = %#v, want Duplicator copies=3", imps[1])
	}
	if b, ok := imps[5].(*Blackhole); !ok || !b.MatchSrc {
		t.Errorf("imps[5] = %#v, want Blackhole matching src", imps[5])
	}
	if b, ok := imps[6].(*Brownout); !ok || b.Loss != 0.9 {
		t.Errorf("imps[6] = %#v, want Brownout", imps[6])
	}
	if imps, err := ParseImpairments("dup:1,16;loss:0;loss:1"); err != nil {
		t.Errorf("boundary spec rejected: %v", err)
	} else if d := imps[0].(*Duplicator); d.Copies != maxDupCopies {
		t.Errorf("dup copies = %d, want %d", d.Copies, maxDupCopies)
	}

	for _, bad := range badImpairmentSpecs {
		if _, err := ParseImpairments(bad); err == nil {
			t.Errorf("spec %q: expected error", bad)
		}
	}
}

// TestImpairedPooledPayloadRecycling: pooled payloads survive the fault
// path — drops, duplicates and corruption all return buffers to the pool
// rather than leaking them, so the steady-state send loop stays alloc-free
// under impairment too.
func TestImpairedPooledPayloadRecycling(t *testing.T) {
	sim := New(Config{
		Seed:    13,
		Latency: ConstantLatency(time.Millisecond),
		Impairments: []Impairment{
			&IIDLoss{P: 0.3}, &Duplicator{P: 0.3, Copies: 1}, &Corruptor{P: 0.3},
		},
	})
	sink := HostFunc(func(*Node, Datagram) {})
	sim.Register(2, sink)
	src := sim.Register(1, sink)
	send := func() {
		b := append(src.PayloadBuf(), "payload"...)
		src.SendPooled(2, 1000, 53, b)
		for {
			ok, err := sim.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
	}
	for i := 0; i < 200; i++ { // warm the pool past the dup high-water mark
		send()
	}
	if avg := allocsPer16(200, send); avg != 0 {
		t.Errorf("impaired pooled send allocates %v per 16 sends, want 0", avg)
	}
}

// MeanLoss returns the stationary packet-loss rate of the channel.
func (g *GilbertElliott) MeanLoss() float64 {
	pb := g.StationaryBad()
	return pb*g.LossBad + (1-pb)*g.LossGood
}
