package capture_test

import (
	"bytes"
	"testing"
	"time"

	"openresolver/internal/capture"
	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
	"openresolver/internal/prober"
	"openresolver/internal/scan"
)

var proberAddr = ipv4.MustParseAddr("9.9.9.9")

const sld = "example.net"

// mkDatagram is an answered A query for probe name idx of cluster 0, as it
// reaches the prober.
func mkDatagram(idx int, id uint16) netsim.Datagram {
	q := dnswire.NewQuery(id, dnssrv.FormatProbeName(0, idx, sld), dnswire.TypeA)
	r := dnswire.NewResponse(q)
	r.Header.RA = true
	r.AnswerA(0x01020304, 60)
	return netsim.Datagram{
		Src: ipv4.MustParseAddr("5.6.7.8"), Dst: proberAddr,
		SrcPort: 53, DstPort: 40000,
		Payload: r.MustPack(),
	}
}

// runProber runs a prober over a 256-index universe in which nobody
// answers, and returns it with its node and the number of Q1s it should
// have sent.
func runProber(t *testing.T, log *capture.Log, onR2 func(ipv4.Addr, []byte)) (*prober.Prober, *netsim.Node, uint64) {
	t.Helper()
	sim := netsim.New(netsim.Config{Seed: 1, Latency: netsim.ConstantLatency(10 * time.Millisecond)})
	u, err := scan.NewUniverse(42, 24, nil)
	if err != nil {
		t.Fatal(err)
	}
	var q1 uint64
	for it := u.Iterate(); ; {
		a, ok := it.Next()
		if !ok {
			break
		}
		if a != proberAddr {
			q1++
		}
	}
	p, err := prober.Start(sim, prober.Config{
		Addr: proberAddr, Universe: u, SLD: sld, ClusterSize: 1000,
		PacketsPerSec: 10000, Timeout: time.Second, R2Log: log, OnR2: onR2,
		Skip: func(a ipv4.Addr) bool { return a == proberAddr },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	n, ok := sim.Lookup(proberAddr)
	if !ok {
		t.Fatal("the prober is not registered")
	}
	return p, n, q1
}

// TestProbeLogCountsAndSink: the prober counts every Q1 it sends and every
// R2 it receives, keeps each R2 in its R2Log in arrival order, and hands
// each to OnR2. Without a log it keeps nothing but still counts and hands
// every R2 on.
func TestProbeLogCountsAndSink(t *testing.T) {
	log := &capture.Log{}
	var sunk [][]byte
	p, n, q1 := runProber(t, log, func(_ ipv4.Addr, payload []byte) { sunk = append(sunk, payload) })
	a, b := mkDatagram(1, 1), mkDatagram(2, 2)
	p.HandleDatagram(n, a)
	p.HandleDatagram(n, b)
	if s := p.Stats(); q1 == 0 || s.Sent != q1 || s.Received != 2 {
		t.Errorf("sent %d Q1s and received %d R2s, want %d and 2", s.Sent, s.Received, q1)
	}
	if log.Len() != 2 || len(sunk) != 2 {
		t.Fatalf("retained %d, sunk %d", log.Len(), len(sunk))
	}
	it := log.Iter()
	for i, dg := range []netsim.Datagram{a, b} {
		if !it.Next() {
			t.Fatalf("log ends at record %d", i)
		}
		pkt := it.Packet()
		if pkt.Kind != capture.KindR2 || pkt.At != n.Now() || pkt.Src != dg.Src || pkt.Dst != dg.Dst ||
			!bytes.Equal(pkt.Payload, dg.Payload) || !bytes.Equal(sunk[i], dg.Payload) {
			t.Errorf("packet %d = %+v", i, pkt)
		}
	}

	// A nil R2Log retains nothing but still counts and sinks.
	sunk = nil
	p2, n2, _ := runProber(t, nil, func(_ ipv4.Addr, payload []byte) { sunk = append(sunk, payload) })
	p2.HandleDatagram(n2, mkDatagram(3, 3))
	if p2.Stats().Received != 1 || len(sunk) != 1 {
		t.Error("a prober without a log misbehaves")
	}
}

// TestProbeLogSinkOnlyAllocs: a prober without an R2Log hands OnR2 the
// datagram's own payload, so receiving an R2 allocates nothing.
func TestProbeLogSinkOnlyAllocs(t *testing.T) {
	dg := mkDatagram(1, 1)
	var got []byte
	var n int
	p, node, _ := runProber(t, nil, func(_ ipv4.Addr, payload []byte) { got = payload; n += len(payload) })
	if allocs := testing.AllocsPerRun(100, func() { p.HandleDatagram(node, dg) }); allocs != 0 {
		t.Errorf("sink-only HandleDatagram allocates %v times, want 0", allocs)
	}
	if n == 0 || p.Stats().Received == 0 {
		t.Fatal("the sink saw no payload")
	}
	if &got[0] != &dg.Payload[0] {
		t.Error("the sink was handed a copy of the datagram's payload")
	}
}
