package dnssrv

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
)

var (
	rootAddr = ipv4.MustParseAddr("198.41.0.4")
	tldAddr  = ipv4.MustParseAddr("192.5.6.30")
	authAddr = ipv4.MustParseAddr("45.76.1.10")
	resAddr  = ipv4.MustParseAddr("66.10.20.30")
)

const testSLD = "ucfsealresearch.net"

// buildHierarchy wires root → .net TLD → auth on a fresh simulation.
func buildHierarchy(t *testing.T, tap Tap) (*netsim.Sim, *AuthServer) {
	t.Helper()
	sim := netsim.New(netsim.Config{Seed: 1, Latency: netsim.ConstantLatency(10 * time.Millisecond)})
	NewReferralServer(sim, rootAddr, []Referral{
		{Zone: "net", NSName: "a.gtld-servers.net", Addr: tldAddr},
	})
	NewReferralServer(sim, tldAddr, []Referral{
		{Zone: testSLD, NSName: "ns1." + testSLD, Addr: authAddr},
	})
	auth := NewAuthServer(sim, AuthConfig{
		Addr: authAddr, SLD: testSLD, ClusterSize: 100,
		ReloadTime: time.Minute, Tap: tap,
	})
	return sim, auth
}

func TestProbeNameRoundTrip(t *testing.T) {
	name := FormatProbeName(3, 4999999, testSLD)
	if name != "or003.4999999.ucfsealresearch.net" {
		t.Fatalf("format = %q", name)
	}
	pn, err := ParseProbeName(name, testSLD)
	if err != nil {
		t.Fatal(err)
	}
	if pn.Cluster != 3 || pn.Index != 4999999 {
		t.Errorf("parsed %+v", pn)
	}
}

func TestProbeNamePropertyRoundTrip(t *testing.T) {
	f := func(c uint8, idx uint32) bool {
		cluster := int(c) % 1000
		index := int(idx) % 10000000
		pn, err := ParseProbeName(FormatProbeName(cluster, index, testSLD), testSLD)
		return err == nil && pn.Cluster == cluster && pn.Index == index
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProbeNameRejects(t *testing.T) {
	bad := []string{
		"example.com",
		"or0.0000001." + testSLD,
		"orXYZ.0000001." + testSLD,
		"or001.123." + testSLD,
		"or001.abcdefg." + testSLD,
		"or001." + testSLD,
		testSLD,
	}
	for _, name := range bad {
		if _, err := ParseProbeName(name, testSLD); err == nil {
			t.Errorf("%q accepted", name)
		}
	}
}

// TestProbeNameClusterWidths pins the cluster-label width contract: the
// paper's fixed 3-digit rendering is the floor, and the sharded engine's
// wider strided labels (or1022, or10220…) must keep parsing, while anything
// narrower, non-numeric, or too large for int must be rejected rather than
// silently truncated or wrapped.
func TestProbeNameClusterWidths(t *testing.T) {
	accept := []struct {
		label   string
		cluster int
	}{
		{"or000", 0},
		{"or999", 999},
		{"or1022", 1022},     // 4 digits: sharded stride past the padded width
		{"or10220", 10220},   // 5 digits
		{"or102200", 102200}, // 6 digits: no upper width cap short of overflow
	}
	for _, tc := range accept {
		name := tc.label + ".0000001." + testSLD
		pn, err := ParseProbeName(name, testSLD)
		if err != nil {
			t.Errorf("%q rejected: %v", name, err)
			continue
		}
		if pn.Cluster != tc.cluster || pn.Index != 1 {
			t.Errorf("%q parsed as %+v, want cluster %d index 1", name, pn, tc.cluster)
		}
	}
	reject := []string{
		"or12.0000001." + testSLD,   // 2-digit label: below the padded floor
		"or1.0000001." + testSLD,    // 1-digit label
		"or.0000001." + testSLD,     // no digits at all
		"or0x1.0000001." + testSLD,  // non-numeric amid the digits
		"or001a.0000001." + testSLD, // non-numeric suffix after valid digits
		// 20 nines overflow int64: strconv.Atoi must bound the value with an
		// ErrRange rejection instead of wrapping into a bogus cluster.
		"or99999999999999999999.0000001." + testSLD,
	}
	for _, name := range reject {
		if pn, err := ParseProbeName(name, testSLD); err == nil {
			t.Errorf("%q accepted as %+v", name, pn)
		}
	}
}

func TestTruthAddrProperties(t *testing.T) {
	reserved := ipv4.NewReservedBlocklist()
	seen := map[ipv4.Addr]int{}
	for i := 0; i < 10000; i++ {
		a := TruthAddr(FormatProbeName(0, i, testSLD))
		if reserved.Contains(a) {
			t.Fatalf("truth address %v reserved", a)
		}
		seen[a]++
	}
	if len(seen) < 9900 {
		t.Errorf("only %d distinct truth addresses of 10000", len(seen))
	}
	// Deterministic.
	if TruthAddr("x.y") != TruthAddr("x.y") {
		t.Error("TruthAddr nondeterministic")
	}
}

// TestIsTruthAddrMatchesTruthAddr: the range check in front of the hash
// never changes the verdict — for each name's own truth address, for
// addresses one bit away from it inside and outside the range, and for
// arbitrary addresses.
func TestIsTruthAddrMatchesTruthAddr(t *testing.T) {
	check := func(addr uint32, index uint32) bool {
		name := FormatProbeName(int(index%1100), int(index%10_000_000), testSLD)
		truth := TruthAddr(name)
		for _, a := range []ipv4.Addr{ipv4.Addr(addr), truth, truth ^ 1, truth ^ 1<<26, truth ^ 1<<31} {
			if got := IsTruthAddr(a, name); got != (a == truth) {
				t.Errorf("IsTruthAddr(%v, %q) = %v, truth %v", a, name, got, truth)
				return false
			}
		}
		return truth&^truthHost == truthBase
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// The bytes form hashes like the string form.
	name := FormatProbeName(7, 1234567, testSLD)
	if TruthAddr([]byte(name)) != TruthAddr(name) {
		t.Error("TruthAddr differs between []byte and string names")
	}
}

// TestTruthAddrFoldMatchesFNV checks the folded suffix against the plain
// FNV-1a reference on every low byte the hash can enter the suffix with
// and on probe names of every cluster width.
func TestTruthAddrFoldMatchesFNV(t *testing.T) {
	for lo := 0; lo < 256; lo++ {
		// One byte in front of the suffix sets every low byte once, since
		// a step is a bijection of the low byte.
		name := append([]byte{byte(lo)}, truthSuffix...)
		if got, want := TruthAddr(name), referenceTruthAddr(name); got != want {
			t.Fatalf("TruthAddr(%q) = %v, FNV-1a says %v", name, got, want)
		}
	}
	for _, cluster := range []int{0, 7, 999, 1022, 65535} {
		for _, idx := range []int{0, 1, 1234567, 9999999} {
			name := FormatProbeName(cluster, idx, testSLD)
			if got, want := TruthAddr(name), referenceTruthAddr([]byte(name)); got != want {
				t.Fatalf("TruthAddr(%q) = %v, FNV-1a says %v", name, got, want)
			}
		}
	}
}

// TestTruthMemoMatchesTruthAddr feeds one TruthMemo a stream that starts
// with a one-byte name under the suffix and names whose leading part is
// about as long as the memo keeps, then mixes consecutive probe names, across index carries, with names of other
// clusters and cluster widths, names under another SLD, names shorter than
// the suffix, names that end in the suffix without a byte in front of it,
// and probe names with one byte corrupted; every address must be
// TruthAddr's.
func TestTruthMemoMatchesTruthAddr(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// First, with the memo fresh, a name with no bytes in front of the one
	// before the suffix; then leading parts around the longest the memo
	// keeps, each twice.
	names := []string{"a" + truthSuffix}
	for n := 22; n <= 27; n++ {
		long := strings.Repeat("x", n) + "7" + truthSuffix
		names = append(names, long, long)
	}
	for idx := 0; idx < 250; idx++ {
		names = append(names, FormatProbeName(3, idx, testSLD))
	}
	for range 3000 {
		name := FormatProbeName(rng.Intn(1100), rng.Intn(10_000_000), testSLD)
		switch rng.Intn(8) {
		case 0:
			name = FormatProbeName(rng.Intn(1100), rng.Intn(100), "example.org")
		case 1:
			name = truthSuffix[rng.Intn(len(truthSuffix)):]
		case 2:
			name = truthSuffix[:rng.Intn(len(truthSuffix))]
		case 3:
			name = truthSuffix
		case 4:
			b := []byte(name)
			b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
			name = string(b)
		case 5:
			name = FormatProbeName(1022+rng.Intn(3), rng.Intn(10_000_000), testSLD)
		}
		names = append(names, name)
		if rng.Intn(4) == 0 {
			names = append(names, name) // the same name twice
		}
	}
	var m TruthMemo
	for _, name := range names {
		want := referenceTruthAddr([]byte(name))
		if got := m.Addr(name); got != want {
			t.Fatalf("TruthMemo.Addr(%q) = %v, want %v", name, got, want)
		}
		for _, a := range []ipv4.Addr{want, want ^ 1, want ^ 1<<31} {
			if got := m.IsTruthAddr(a, name); got != IsTruthAddr(a, name) {
				t.Fatalf("TruthMemo.IsTruthAddr(%v, %q) = %v, IsTruthAddr says %v", a, name, got, !got)
			}
		}
	}
}

// BenchmarkTruthAddr times a probe's truth hash as the synthetic engine
// computes it: the index digits written into the name, then TruthAddr of
// the name's bytes.
func BenchmarkTruthAddr(b *testing.B) {
	name := AppendProbeName(nil, 7, 0, testSLD)
	var sink ipv4.Addr
	for i := 0; i < b.N; i++ {
		PutProbeIndex(name[6:], i%10_000_000)
		sink ^= TruthAddr(name)
	}
	if sink == 1 {
		b.Log(sink)
	}
}

func TestFullResolutionChain(t *testing.T) {
	// Fig. 1 end to end: a stub at resAddr resolves a probe name through
	// root, TLD and authoritative servers.
	sim, _ := buildHierarchy(t, nil)
	var rec *Recursive
	node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		msg, err := dnswire.Unpack(dg.Payload)
		if err != nil {
			return
		}
		if msg.Header.QR {
			rec.HandleResponse(msg)
		}
	}))
	rec = NewRecursive(node, rootAddr)

	qname := FormatProbeName(0, 42, testSLD)
	var got Result
	var calls int
	rec.Resolve(qname, func(r Result) { got = r; calls++ })
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("done called %d times", calls)
	}
	if !got.OK || got.Rcode != dnswire.RcodeNoError {
		t.Fatalf("result = %+v", got)
	}
	if want := TruthAddr(qname); got.Addr != want {
		t.Errorf("addr = %v, want %v", got.Addr, want)
	}
	// Three legs: root, TLD, auth.
	if rec.UpstreamQueries != 3 {
		t.Errorf("upstream queries = %d, want 3", rec.UpstreamQueries)
	}
	if rec.Outstanding() != 0 {
		t.Errorf("outstanding = %d", rec.Outstanding())
	}
}

func TestResolutionUsesReferralCache(t *testing.T) {
	sim, _ := buildHierarchy(t, nil)
	var rec *Recursive
	node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		if msg, err := dnswire.Unpack(dg.Payload); err == nil && msg.Header.QR {
			rec.HandleResponse(msg)
		}
	}))
	rec = NewRecursive(node, rootAddr)

	rec.Resolve(FormatProbeName(0, 1, testSLD), func(Result) {})
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	first := rec.UpstreamQueries
	// Second lookup of a *different* name under the cached SLD goes
	// straight to the authoritative server: one leg.
	rec.Resolve(FormatProbeName(0, 2, testSLD), func(Result) {})
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := rec.UpstreamQueries - first; got != 1 {
		t.Errorf("warm-cache resolution used %d legs, want 1", got)
	}
	// Repeating the same name hits the answer cache: zero legs.
	before := rec.UpstreamQueries
	var cached Result
	rec.Resolve(FormatProbeName(0, 2, testSLD), func(r Result) { cached = r })
	if rec.UpstreamQueries != before || rec.CacheHits != 1 {
		t.Errorf("answer cache missed (queries %d→%d, hits %d)", before, rec.UpstreamQueries, rec.CacheHits)
	}
	if !cached.OK {
		t.Error("cached result not OK")
	}
}

func TestInactiveClusterNXDomain(t *testing.T) {
	sim, auth := buildHierarchy(t, nil)
	if auth.ActiveCluster() != 0 {
		t.Fatalf("active cluster = %d", auth.ActiveCluster())
	}
	var rec *Recursive
	node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		if msg, err := dnswire.Unpack(dg.Payload); err == nil && msg.Header.QR {
			rec.HandleResponse(msg)
		}
	}))
	rec = NewRecursive(node, rootAddr)
	var got Result
	rec.Resolve(FormatProbeName(7, 1, testSLD), func(r Result) { got = r })
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if got.OK || got.Rcode != dnswire.RcodeNXDomain {
		t.Errorf("result = %+v, want NXDomain", got)
	}
	// Out-of-range index within the active cluster is also NXDomain.
	rec.Resolve(FormatProbeName(0, 100, testSLD), func(r Result) { got = r })
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if got.OK || got.Rcode != dnswire.RcodeNXDomain {
		t.Errorf("out-of-range result = %+v, want NXDomain", got)
	}
}

func TestClusterReloadSilence(t *testing.T) {
	sim, auth := buildHierarchy(t, nil)
	var rec *Recursive
	node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		if msg, err := dnswire.Unpack(dg.Payload); err == nil && msg.Header.QR {
			rec.HandleResponse(msg)
		}
	}))
	rec = NewRecursive(node, rootAddr)
	rec.Timeout = 500 * time.Millisecond
	rec.Retries = 1

	// Warm the referral cache first.
	rec.Resolve(FormatProbeName(0, 1, testSLD), func(Result) {})
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}

	// Switch clusters: server silent for one minute of virtual time.
	auth.SetCluster(1)
	var during Result
	rec.Resolve(FormatProbeName(1, 5, testSLD), func(r Result) { during = r })
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if during.OK {
		t.Error("resolution succeeded during reload silence")
	}
	if during.Rcode != dnswire.RcodeServFail {
		t.Errorf("rcode during reload = %v, want ServFail after retries", during.Rcode)
	}

	// Let the reload minute elapse in virtual time, then the new cluster
	// serves.
	node.After(2*time.Minute, func() {})
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	var after Result
	rec.Resolve(FormatProbeName(1, 5, testSLD), func(r Result) { after = r })
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if !after.OK {
		t.Errorf("post-reload result = %+v", after)
	}
	if auth.Reloads() != 1 {
		t.Errorf("reloads = %d, want 1", auth.Reloads())
	}
}

func TestAuthTapSeesQ2R1(t *testing.T) {
	tap := &countingTap{}
	sim, _ := buildHierarchy(t, tap)
	var rec *Recursive
	node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		if msg, err := dnswire.Unpack(dg.Payload); err == nil && msg.Header.QR {
			rec.HandleResponse(msg)
		}
	}))
	rec = NewRecursive(node, rootAddr)
	rec.Resolve(FormatProbeName(0, 9, testSLD), func(Result) {})
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if tap.q2 != 1 || tap.r1 != 1 {
		t.Errorf("tap saw Q2=%d R1=%d, want 1/1", tap.q2, tap.r1)
	}
}

type countingTap struct{ q2, r1 int }

func (t *countingTap) Packet(inbound bool, _ time.Duration, _ netsim.Datagram, _ *dnswire.Message) {
	if inbound {
		t.q2++
	} else {
		t.r1++
	}
}

func TestDupQueriesHitAuthOnly(t *testing.T) {
	tap := &countingTap{}
	sim, _ := buildHierarchy(t, tap)
	var rec *Recursive
	node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		if msg, err := dnswire.Unpack(dg.Payload); err == nil && msg.Header.QR {
			rec.HandleResponse(msg)
		}
	}))
	rec = NewRecursive(node, rootAddr)
	rec.DupQueries = 3
	var got Result
	rec.Resolve(FormatProbeName(0, 11, testSLD), func(r Result) { got = r })
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if !got.OK {
		t.Fatalf("result = %+v", got)
	}
	if tap.q2 != 3 {
		t.Errorf("auth saw %d queries, want 3 duplicates", tap.q2)
	}
	// Total legs: root + TLD + 3×auth.
	if rec.UpstreamQueries != 5 {
		t.Errorf("upstream queries = %d, want 5", rec.UpstreamQueries)
	}
}

func TestRefusedOutsideZone(t *testing.T) {
	sim, _ := buildHierarchy(t, nil)
	var got *dnswire.Message
	node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		got, _ = dnswire.Unpack(dg.Payload)
	}))
	q := dnswire.NewQuery(5, "www.example.com", dnswire.TypeA)
	node.Send(authAddr, 4000, DNSPort, q.MustPack())
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Header.Rcode != dnswire.RcodeRefused {
		t.Errorf("response = %v, want Refused", got)
	}
	// Root refuses queries outside its delegations too.
	got = nil
	q2 := dnswire.NewQuery(6, "www.example.org", dnswire.TypeA)
	node.Send(rootAddr, 4000, DNSPort, q2.MustPack())
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Header.Rcode != dnswire.RcodeRefused {
		t.Errorf("root response = %v, want Refused", got)
	}
}

func TestAuthAnswersANYAndAA(t *testing.T) {
	sim, _ := buildHierarchy(t, nil)
	var got *dnswire.Message
	node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		got, _ = dnswire.Unpack(dg.Payload)
	}))
	qname := FormatProbeName(0, 1, testSLD)
	q := dnswire.NewQuery(5, qname, dnswire.TypeANY)
	node.Send(authAddr, 4000, DNSPort, q.MustPack())
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("no response")
	}
	if !got.Header.AA {
		t.Error("authoritative answer lacks AA")
	}
	if a, ok := got.FirstA(); !ok || ipv4.Addr(a) != TruthAddr(qname) {
		t.Errorf("ANY answer = %#x, %v", a, ok)
	}
}

func TestResolutionTimeoutGivesServFail(t *testing.T) {
	// No hierarchy at all: the root address is unrouted.
	sim := netsim.New(netsim.Config{Seed: 2, Latency: netsim.ConstantLatency(time.Millisecond)})
	var rec *Recursive
	node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		if msg, err := dnswire.Unpack(dg.Payload); err == nil && msg.Header.QR {
			rec.HandleResponse(msg)
		}
	}))
	rec = NewRecursive(node, rootAddr)
	rec.Timeout = 100 * time.Millisecond
	rec.Retries = 2
	var got Result
	rec.Resolve("a.b.net", func(r Result) { got = r })
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if got.OK || got.Rcode != dnswire.RcodeServFail {
		t.Errorf("result = %+v, want ServFail", got)
	}
	if rec.UpstreamQueries != 3 { // initial + 2 retries
		t.Errorf("upstream queries = %d, want 3", rec.UpstreamQueries)
	}
	if rec.Failures != 1 {
		t.Errorf("failures = %d", rec.Failures)
	}
}

// truncatingServer answers over UDP with TC set and serves the real answer
// over TCP — the classic RFC 7766 fallback scenario.
type truncatingServer struct {
	udpQueries, tcpQueries int
}

func newTruncatingServer(sim *netsim.Sim, addr ipv4.Addr) *truncatingServer {
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
				resp.AnswerA(0x0A141E28, 60)
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

func TestTCPFallbackOnTruncation(t *testing.T) {
	sim := netsim.New(netsim.Config{Seed: 5, Latency: netsim.ConstantLatency(5 * time.Millisecond)})
	server := ipv4.MustParseAddr("45.76.2.2")
	ts := newTruncatingServer(sim, server)

	var rec *Recursive
	node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		if msg, err := dnswire.Unpack(dg.Payload); err == nil && msg.Header.QR {
			rec.HandleResponse(msg)
		}
	}))
	rec = NewRecursive(node, server) // "root" is the truncating server itself
	var got Result
	rec.Resolve("big.example.net", func(r Result) { got = r })
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if !got.OK || got.Addr != 0x0A141E28 {
		t.Fatalf("result = %+v", got)
	}
	if ts.udpQueries != 1 || ts.tcpQueries != 1 {
		t.Errorf("server saw udp=%d tcp=%d, want 1/1", ts.udpQueries, ts.tcpQueries)
	}
	if rec.TCPFallbacks != 1 {
		t.Errorf("TCPFallbacks = %d", rec.TCPFallbacks)
	}
}

func TestTCPFallbackServerGone(t *testing.T) {
	// TC over UDP but nobody listening on TCP: the engine reports ServFail
	// after the refused dial.
	sim := netsim.New(netsim.Config{Seed: 6, Latency: netsim.ConstantLatency(5 * time.Millisecond)})
	server := ipv4.MustParseAddr("45.76.2.3")
	sim.Register(server, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		q, err := dnswire.Unpack(dg.Payload)
		if err != nil || q.Header.QR {
			return
		}
		resp := dnswire.NewResponse(q)
		resp.Header.TC = true
		n.Send(dg.Src, dg.DstPort, dg.SrcPort, resp.MustPack())
	}))
	var rec *Recursive
	node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		if msg, err := dnswire.Unpack(dg.Payload); err == nil && msg.Header.QR {
			rec.HandleResponse(msg)
		}
	}))
	rec = NewRecursive(node, server)
	rec.Timeout = 200 * time.Millisecond
	var got Result
	var calls int
	rec.Resolve("x.example.net", func(r Result) { got = r; calls++ })
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("done called %d times", calls)
	}
	if got.OK || got.Rcode != dnswire.RcodeServFail {
		t.Errorf("result = %+v", got)
	}
}

// TestTCPFallbackKeepsDO: a DNSSEC resolver's TCP retry of a truncated
// leg must still request signatures. Both transports encode one query.
func TestTCPFallbackKeepsDO(t *testing.T) {
	sim := netsim.New(netsim.Config{Seed: 7, Latency: netsim.ConstantLatency(5 * time.Millisecond)})
	server := ipv4.MustParseAddr("45.76.2.9")
	sim.Register(server, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		q, err := dnswire.Unpack(dg.Payload)
		if err != nil || q.Header.QR {
			return
		}
		resp := dnswire.NewResponse(q)
		resp.Header.TC = true
		n.Send(dg.Src, dg.DstPort, dg.SrcPort, resp.MustPack())
	}))
	var tcpQueries, tcpDO int
	sim.Listen(server, DNSPort, func(c *netsim.Conn) {
		parser := &dnswire.StreamParser{}
		c.OnData(func(b []byte) {
			msgs, _ := parser.Feed(b)
			for _, q := range msgs {
				tcpQueries++
				if e, ok := q.GetEDNS(); ok && e.DO {
					tcpDO++
				}
				resp := dnswire.NewResponse(q)
				resp.AnswerA(0x0A141E28, 60)
				if wire, err := resp.PackTCP(); err == nil {
					c.Send(wire)
				}
			}
		})
	})
	var rec *Recursive
	node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		if msg, err := dnswire.Unpack(dg.Payload); err == nil && msg.Header.QR {
			rec.HandleResponse(msg)
		}
	}))
	rec = NewRecursive(node, server)
	rec.DNSSEC = true
	rec.Validate = func(string, *dnswire.Message) bool { return true }
	var got Result
	rec.Resolve("signed.example.net", func(r Result) { got = r })
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if !got.OK {
		t.Fatalf("result = %+v", got)
	}
	if tcpQueries != 1 || tcpDO != 1 {
		t.Errorf("TCP queries = %d, with DO = %d; want 1 and 1", tcpQueries, tcpDO)
	}
}

// TestOutOfBailiwickReferralNotCached: while resolving x.example.net, the
// .net server refers the name to a server for com. The engine follows it
// for the lookup in progress but must not cache it as the server for
// com., so a later y.com lookup starts at the root.
func TestOutOfBailiwickReferralNotCached(t *testing.T) {
	sim := netsim.New(netsim.Config{Seed: 12, Latency: netsim.ConstantLatency(time.Millisecond)})
	bogus := ipv4.MustParseAddr("45.76.2.7")
	comAddr := ipv4.MustParseAddr("45.76.2.8")
	NewReferralServer(sim, rootAddr, []Referral{
		{Zone: "net", NSName: "a.gtld-servers.net", Addr: tldAddr},
		{Zone: "com", NSName: "a.gtld-servers.com", Addr: comAddr},
	})
	sim.Register(tldAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		q, err := dnswire.Unpack(dg.Payload)
		if err != nil || q.Header.QR {
			return
		}
		resp := dnswire.NewResponse(q)
		resp.Authority = append(resp.Authority, dnswire.RR{
			Name: "com", Type: dnswire.TypeNS, Class: dnswire.ClassIN, TTL: 172800, Target: "ns.bogus.net",
		})
		resp.Additional = append(resp.Additional, dnswire.RR{
			Name: "ns.bogus.net", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 172800, A: uint32(bogus),
		})
		n.Send(dg.Src, dg.DstPort, dg.SrcPort, resp.MustPack())
	}))
	seen := make(map[ipv4.Addr][]string)
	for _, addr := range []ipv4.Addr{bogus, comAddr} {
		sim.Register(addr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
			q, err := dnswire.Unpack(dg.Payload)
			if err != nil || q.Header.QR {
				return
			}
			qst, _ := q.Question1()
			seen[n.Addr()] = append(seen[n.Addr()], qst.Name)
			resp := dnswire.NewResponse(q)
			resp.Header.AA = true
			resp.AnswerA(uint32(TruthAddr(qst.Name)), 60)
			n.Send(dg.Src, dg.DstPort, dg.SrcPort, resp.MustPack())
		}))
	}
	var rec *Recursive
	node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		if msg, err := dnswire.Unpack(dg.Payload); err == nil && msg.Header.QR {
			rec.HandleResponse(msg)
		}
	}))
	rec = NewRecursive(node, rootAddr)
	rec.Resolve("x.example.net", func(Result) {})
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	before := rec.UpstreamQueries
	var got Result
	rec.Resolve("y.com", func(r Result) { got = r })
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if !got.OK || got.Addr != TruthAddr("y.com") {
		t.Errorf("y.com = %+v", got)
	}
	if fmt.Sprint(seen[bogus]) != "[x.example.net]" || fmt.Sprint(seen[comAddr]) != "[y.com]" {
		t.Errorf("bogus server saw %v, com server saw %v; want [x.example.net] and [y.com]", seen[bogus], seen[comAddr])
	}
	if legs := rec.UpstreamQueries - before; legs != 2 {
		t.Errorf("y.com took %d legs, want 2 (root, com)", legs)
	}
}

func TestAuthServesTCP(t *testing.T) {
	sim, _ := buildHierarchy(t, nil)
	client := sim.Register(resAddr, netsim.HostFunc(func(*netsim.Node, netsim.Datagram) {}))
	qname := FormatProbeName(0, 33, testSLD)
	var got *dnswire.Message
	client.Dial(authAddr, DNSPort, func(c *netsim.Conn) {
		if c == nil {
			t.Error("auth refused TCP")
			return
		}
		parser := &dnswire.StreamParser{}
		c.OnData(func(b []byte) {
			msgs, err := parser.Feed(b)
			if err != nil {
				t.Errorf("parse: %v", err)
				return
			}
			if len(msgs) > 0 {
				got = msgs[0]
				c.Close()
			}
		})
		q := dnswire.NewQuery(3, qname, dnswire.TypeA)
		wire, err := q.PackTCP()
		if err != nil {
			t.Errorf("pack: %v", err)
			return
		}
		c.Send(wire)
	})
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("no TCP answer")
	}
	if a, ok := got.FirstA(); !ok || ipv4.Addr(a) != TruthAddr(qname) {
		t.Errorf("TCP answer = %#x", a)
	}
	if !got.Header.AA {
		t.Error("TCP answer lacks AA")
	}
}

func TestNegativeCaching(t *testing.T) {
	// RFC 2308: an authoritative NXDomain is cached; repeating the query
	// consumes no upstream legs.
	sim, _ := buildHierarchy(t, nil)
	var rec *Recursive
	node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		if msg, err := dnswire.Unpack(dg.Payload); err == nil && msg.Header.QR {
			rec.HandleResponse(msg)
		}
	}))
	rec = NewRecursive(node, rootAddr)
	qname := FormatProbeName(9, 1, testSLD) // inactive cluster → NXDomain

	var first Result
	rec.Resolve(qname, func(r Result) { first = r })
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if first.Rcode != dnswire.RcodeNXDomain {
		t.Fatalf("first = %+v", first)
	}
	before := rec.UpstreamQueries
	var second Result
	rec.Resolve(qname, func(r Result) { second = r })
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if second.Rcode != dnswire.RcodeNXDomain {
		t.Errorf("second = %+v", second)
	}
	if rec.UpstreamQueries != before {
		t.Errorf("negative cache missed: %d extra legs", rec.UpstreamQueries-before)
	}
	if rec.CacheHits != 1 {
		t.Errorf("cache hits = %d", rec.CacheHits)
	}

	// After the negative TTL expires the engine re-queries.
	node.After(negativeTTL+time.Second, func() {})
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	rec.Resolve(qname, func(Result) {})
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if rec.UpstreamQueries == before {
		t.Error("expired negative entry still served")
	}
}

func TestServFailNotNegativelyCached(t *testing.T) {
	// Transient failures (ServFail from a reloading server) must not stick
	// in the negative cache.
	sim, auth := buildHierarchy(t, nil)
	var rec *Recursive
	node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		if msg, err := dnswire.Unpack(dg.Payload); err == nil && msg.Header.QR {
			rec.HandleResponse(msg)
		}
	}))
	rec = NewRecursive(node, rootAddr)
	rec.Timeout = 300 * time.Millisecond
	rec.Retries = 1

	// Warm the referral cache, then silence the server via a reload.
	rec.Resolve(FormatProbeName(0, 1, testSLD), func(Result) {})
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	auth.SetCluster(1)
	qname := FormatProbeName(1, 2, testSLD)
	var during Result
	rec.Resolve(qname, func(r Result) { during = r })
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if during.Rcode != dnswire.RcodeServFail {
		t.Fatalf("during reload = %+v", during)
	}
	// After the reload the same name must succeed (not be stuck negative).
	node.After(2*time.Minute, func() {})
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	var after Result
	rec.Resolve(qname, func(r Result) { after = r })
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if !after.OK {
		t.Errorf("after reload = %+v (ServFail wrongly cached?)", after)
	}
}

func TestResolutionSurvivesPacketLoss(t *testing.T) {
	// 20% packet loss: the engine's retransmissions must still complete
	// most resolutions (each leg retries twice).
	sim := netsim.New(netsim.Config{
		Seed:        11,
		Impairments: []netsim.Impairment{&netsim.IIDLoss{P: 0.2}},
		Latency:     netsim.ConstantLatency(10 * time.Millisecond),
	})
	NewReferralServer(sim, rootAddr, []Referral{
		{Zone: "net", NSName: "a.gtld-servers.net", Addr: tldAddr},
	})
	NewReferralServer(sim, tldAddr, []Referral{
		{Zone: testSLD, NSName: "ns1." + testSLD, Addr: authAddr},
	})
	NewAuthServer(sim, AuthConfig{Addr: authAddr, SLD: testSLD, ClusterSize: 1000})

	var rec *Recursive
	node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		if msg, err := dnswire.Unpack(dg.Payload); err == nil && msg.Header.QR {
			rec.HandleResponse(msg)
		}
	}))
	rec = NewRecursive(node, rootAddr)
	rec.Timeout = 200 * time.Millisecond
	rec.Retries = 4

	const n = 200
	var ok, fail int
	for i := 0; i < n; i++ {
		rec.Resolve(FormatProbeName(0, i, testSLD), func(r Result) {
			if r.OK {
				ok++
			} else {
				fail++
			}
		})
		if err := sim.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	if ok+fail != n {
		t.Fatalf("callbacks: %d+%d != %d", ok, fail, n)
	}
	// Per-leg success with 4 retries at 20% loss: (1-(0.2+0.8*0.2)^5)... in
	// practice well above 95%.
	if ok < n*90/100 {
		t.Errorf("only %d/%d resolutions succeeded under 20%% loss", ok, n)
	}
	if rec.Outstanding() != 0 {
		t.Errorf("outstanding = %d", rec.Outstanding())
	}
}
