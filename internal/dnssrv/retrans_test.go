package dnssrv

import (
	"testing"
	"time"

	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
)

// newAlwaysTruncatingServer answers every UDP query with TC=1 and — the
// protocol violation under test — every TCP query with TC=1 as well.
func newAlwaysTruncatingServer(sim *netsim.Sim, addr ipv4.Addr) *truncatingServer {
	ts := &truncatingServer{}
	sim.Register(addr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		q, err := dnswire.Unpack(dg.Payload)
		if err != nil || q.Header.QR {
			return
		}
		ts.udpQueries++
		resp := dnswire.NewResponse(q)
		resp.Header.TC = true
		n.Send(dg.Src, dg.DstPort, dg.SrcPort, resp.MustPack())
	}))
	sim.Listen(addr, DNSPort, func(c *netsim.Conn) {
		parser := &dnswire.StreamParser{}
		c.OnData(func(b []byte) {
			msgs, err := parser.Feed(b)
			if err != nil {
				return
			}
			for _, q := range msgs {
				ts.tcpQueries++
				resp := dnswire.NewResponse(q)
				resp.Header.TC = true
				wire, err := resp.PackTCP()
				if err != nil {
					continue
				}
				c.Send(wire)
			}
		})
	})
	return ts
}

// TestTCPTruncationLoopBounded is the regression test for the unbounded
// TC-over-TCP loop: a server that truncates every TCP answer used to make
// retryTCP re-dial forever. The engine must give up with ServFail after
// maxTCPRetries re-dials, and the simulation must quiesce.
func TestTCPTruncationLoopBounded(t *testing.T) {
	sim := netsim.New(netsim.Config{Seed: 8, Latency: netsim.ConstantLatency(5 * time.Millisecond)})
	server := ipv4.MustParseAddr("45.76.2.4")
	ts := newAlwaysTruncatingServer(sim, server)

	var rec *Recursive
	node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		if msg, err := dnswire.Unpack(dg.Payload); err == nil && msg.Header.QR {
			rec.HandleResponse(msg)
		}
	}))
	rec = NewRecursive(node, server)
	var got Result
	var calls int
	rec.Resolve("loop.example.net", func(r Result) { got = r; calls++ })
	if err := sim.Run(0); err != nil {
		t.Fatal(err) // an unbounded loop would also trip MaxQueuedEvents
	}
	if calls != 1 {
		t.Fatalf("done called %d times", calls)
	}
	if got.OK || got.Rcode != dnswire.RcodeServFail {
		t.Errorf("result = %+v, want ServFail", got)
	}
	// One UDP leg, then the initial fallback plus maxTCPRetries re-dials.
	wantTCP := uint64(1 + maxTCPRetries)
	if ts.udpQueries != 1 {
		t.Errorf("server saw %d UDP queries, want 1", ts.udpQueries)
	}
	if uint64(ts.tcpQueries) != wantTCP {
		t.Errorf("server saw %d TCP queries, want %d (bounded)", ts.tcpQueries, wantTCP)
	}
	if rec.TCPFallbacks != wantTCP {
		t.Errorf("TCPFallbacks = %d, want %d", rec.TCPFallbacks, wantTCP)
	}
	if rec.TCPTruncated != wantTCP {
		t.Errorf("TCPTruncated = %d, want %d", rec.TCPTruncated, wantTCP)
	}
	if rec.Failures == 0 {
		t.Error("failure not recorded")
	}
}

// TestLateTCPAnswerIgnored: a TCP answer that arrives after the leg's TCP
// deadline has failed it must not be processed. Here it is a referral, and
// following it used to call done a second time.
func TestLateTCPAnswerIgnored(t *testing.T) {
	sim := netsim.New(netsim.Config{Seed: 13, Latency: netsim.ConstantLatency(5 * time.Millisecond)})
	server := ipv4.MustParseAddr("45.76.2.10")
	auth := ipv4.MustParseAddr("45.76.2.11")
	sim.Register(server, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		if q, err := dnswire.Unpack(dg.Payload); err == nil && !q.Header.QR {
			resp := dnswire.NewResponse(q)
			resp.Header.TC = true
			n.Send(dg.Src, dg.DstPort, dg.SrcPort, resp.MustPack())
		}
	}))
	sim.Listen(server, DNSPort, func(c *netsim.Conn) {
		parser := &dnswire.StreamParser{}
		c.OnData(func(b []byte) {
			msgs, _ := parser.Feed(b)
			for _, q := range msgs {
				resp := dnswire.NewResponse(q)
				resp.Authority = append(resp.Authority, dnswire.RR{
					Name: "example.net", Type: dnswire.TypeNS, Class: dnswire.ClassIN, TTL: 60, Target: "ns.example.net",
				})
				resp.Additional = append(resp.Additional, dnswire.RR{
					Name: "ns.example.net", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60, A: uint32(auth),
				})
				if wire, err := resp.PackTCP(); err == nil {
					c.Send(wire)
				}
			}
		})
	})
	sim.Register(auth, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		if q, err := dnswire.Unpack(dg.Payload); err == nil && !q.Header.QR {
			resp := dnswire.NewResponse(q)
			resp.AnswerA(0x0A141E28, 60)
			n.Send(dg.Src, dg.DstPort, dg.SrcPort, resp.MustPack())
		}
	}))
	var rec *Recursive
	node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		if msg, err := dnswire.Unpack(dg.Payload); err == nil && msg.Header.QR {
			rec.HandleResponse(msg)
		}
	}))
	rec = NewRecursive(node, server)
	// The TC answer lands at 10ms and arms the TCP deadline for 25ms. The
	// dial completes at 20ms, but the TCP answer lands at 30ms.
	rec.Timeout = 15 * time.Millisecond
	var results []Result
	rec.Resolve("late.example.net", func(r Result) { results = append(results, r) })
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Rcode != dnswire.RcodeServFail {
		t.Errorf("results = %+v, want one ServFail", results)
	}
	if rec.Failures != 1 {
		t.Errorf("Failures = %d, want 1", rec.Failures)
	}
}

// TestUpstreamBackoff pins the retry schedule: with Backoff the engine
// waits Timeout, 2×Timeout, 4×Timeout before failing a dead upstream
// (total 700ms at Timeout=100ms), versus 3×Timeout fixed-interval.
func TestUpstreamBackoff(t *testing.T) {
	run := func(backoff bool) (time.Duration, uint64) {
		sim := netsim.New(netsim.Config{Seed: 9, Latency: netsim.ConstantLatency(time.Millisecond)})
		dead := ipv4.MustParseAddr("45.76.2.5") // never registered: NoRoute
		var rec *Recursive
		node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
			if msg, err := dnswire.Unpack(dg.Payload); err == nil && msg.Header.QR {
				rec.HandleResponse(msg)
			}
		}))
		rec = NewRecursive(node, dead)
		rec.Timeout = 100 * time.Millisecond
		rec.Retries = 2
		rec.Backoff = backoff
		var failedAt time.Duration
		rec.Resolve("dead.example.net", func(Result) { failedAt = node.Now() })
		if err := sim.Run(0); err != nil {
			t.Fatal(err)
		}
		return failedAt, rec.Retransmits
	}

	fixedAt, fixedRetrans := run(false)
	backedAt, backedRetrans := run(true)
	if fixedAt != 300*time.Millisecond {
		t.Errorf("fixed-interval failure at %v, want 300ms", fixedAt)
	}
	if backedAt != 700*time.Millisecond {
		t.Errorf("backoff failure at %v, want 700ms (100+200+400)", backedAt)
	}
	if fixedRetrans != 2 || backedRetrans != 2 {
		t.Errorf("retransmits = %d/%d, want 2/2", fixedRetrans, backedRetrans)
	}
}

// TestUpstreamJitter: jittered retry timeouts stay within ±12.5% of the
// schedule and remain deterministic per seed.
func TestUpstreamJitter(t *testing.T) {
	run := func() time.Duration {
		sim := netsim.New(netsim.Config{Seed: 10, Latency: netsim.ConstantLatency(time.Millisecond)})
		dead := ipv4.MustParseAddr("45.76.2.6")
		var rec *Recursive
		node := sim.Register(resAddr, netsim.HostFunc(func(*netsim.Node, netsim.Datagram) {}))
		rec = NewRecursive(node, dead)
		rec.Timeout = 100 * time.Millisecond
		rec.Retries = 2
		rec.Backoff = true
		rec.Jitter = true
		var failedAt time.Duration
		rec.Resolve("dead.example.net", func(Result) { failedAt = node.Now() })
		if err := sim.Run(0); err != nil {
			t.Fatal(err)
		}
		return failedAt
	}
	first := run()
	// Schedule 100+200+400 = 700ms; each leg jitters ±12.5%.
	lo := 700 * time.Millisecond * 875 / 1000
	hi := 700 * time.Millisecond * 1125 / 1000
	if first < lo || first > hi {
		t.Errorf("jittered failure at %v, want within [%v, %v]", first, lo, hi)
	}
	if second := run(); second != first {
		t.Errorf("jitter not deterministic per seed: %v vs %v", first, second)
	}
}
