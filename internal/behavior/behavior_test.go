package behavior

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
)

var (
	rootAddr   = ipv4.MustParseAddr("198.41.0.4")
	tldAddr    = ipv4.MustParseAddr("192.5.6.30")
	authAddr   = ipv4.MustParseAddr("45.76.1.10")
	resvAddr   = ipv4.MustParseAddr("66.10.20.30")
	proberAddr = ipv4.MustParseAddr("132.170.1.1")
)

const testSLD = "ucfsealresearch.net"

func buildWorld(t *testing.T) *netsim.Sim {
	t.Helper()
	sim := netsim.New(netsim.Config{Seed: 1, Latency: netsim.ConstantLatency(5 * time.Millisecond)})
	dnssrv.NewReferralServer(sim, rootAddr, []dnssrv.Referral{
		{Zone: "net", NSName: "a.gtld-servers.net", Addr: tldAddr},
	})
	dnssrv.NewReferralServer(sim, tldAddr, []dnssrv.Referral{
		{Zone: testSLD, NSName: "ns1." + testSLD, Addr: authAddr},
	})
	dnssrv.NewAuthServer(sim, dnssrv.AuthConfig{
		Addr: authAddr, SLD: testSLD, ClusterSize: 1000,
	})
	return sim
}

// probe sends one query to the resolver and returns the decoded response.
func probe(t *testing.T, sim *netsim.Sim, qname string) *dnswire.Message {
	t.Helper()
	var got *dnswire.Message
	prober := sim.Register(proberAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		got, _ = dnswire.Unpack(dg.Payload)
	}))
	q := dnswire.NewQuery(77, qname, dnswire.TypeA)
	prober.Send(resvAddr, 40000, dnssrv.DNSPort, q.MustPack())
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestHonestResolver(t *testing.T) {
	sim := buildWorld(t)
	r := NewResolver(sim, resvAddr, rootAddr, Honest(1))
	qname := dnssrv.FormatProbeName(0, 7, testSLD)
	got := probe(t, sim, qname)
	if got == nil {
		t.Fatal("no R2")
	}
	if !got.Header.QR || !got.Header.RA || got.Header.AA {
		t.Errorf("header = %+v", got.Header)
	}
	if got.Header.Rcode != dnswire.RcodeNoError {
		t.Errorf("rcode = %v", got.Header.Rcode)
	}
	a, ok := got.FirstA()
	if !ok || ipv4.Addr(a) != dnssrv.TruthAddr(qname) {
		t.Errorf("answer = %#x, want truth %v", a, dnssrv.TruthAddr(qname))
	}
	if q, ok := got.Question1(); !ok || q.Name != qname {
		t.Errorf("question echoed wrong: %v", got.Questions)
	}
	if r.Queries != 1 || r.Responses != 1 {
		t.Errorf("counters: %d/%d", r.Queries, r.Responses)
	}
}

func TestManipulatorNoUpstream(t *testing.T) {
	sim := buildWorld(t)
	evil := ipv4.MustParseAddr("208.91.197.91")
	NewResolver(sim, resvAddr, rootAddr, Manipulator(evil))
	before := sim.Stats().Sent
	qname := dnssrv.FormatProbeName(0, 8, testSLD)
	got := probe(t, sim, qname)
	if got == nil {
		t.Fatal("no R2")
	}
	a, ok := got.FirstA()
	if !ok || ipv4.Addr(a) != evil {
		t.Errorf("answer = %#x, want %v", a, evil)
	}
	if !got.Header.AA || got.Header.RA {
		t.Errorf("flags = %+v, want AA=1 RA=0 (Table X dominant pattern)", got.Header)
	}
	if got.Header.Rcode != dnswire.RcodeNoError {
		t.Errorf("rcode = %v, want NoError (§IV-C3)", got.Header.Rcode)
	}
	// Exactly two packets: Q1 in, R2 out — no hierarchy contact.
	if sent := sim.Stats().Sent - before; sent != 2 {
		t.Errorf("packets = %d, want 2 (no upstream)", sent)
	}
}

func TestLyingRAStillResolves(t *testing.T) {
	sim := buildWorld(t)
	NewResolver(sim, resvAddr, rootAddr, LyingRA(1))
	qname := dnssrv.FormatProbeName(0, 9, testSLD)
	got := probe(t, sim, qname)
	if got == nil {
		t.Fatal("no R2")
	}
	if got.Header.RA {
		t.Error("RA set; profile lies with RA=0")
	}
	a, ok := got.FirstA()
	if !ok || ipv4.Addr(a) != dnssrv.TruthAddr(qname) {
		t.Errorf("answer = %#x, want truth", a)
	}
}

func TestRefuser(t *testing.T) {
	sim := buildWorld(t)
	NewResolver(sim, resvAddr, rootAddr, Refuser())
	got := probe(t, sim, dnssrv.FormatProbeName(0, 10, testSLD))
	if got == nil {
		t.Fatal("no R2")
	}
	if got.Header.Rcode != dnswire.RcodeRefused || len(got.Answers) != 0 {
		t.Errorf("response = %v", got)
	}
}

func TestEmptyQuestionProfile(t *testing.T) {
	sim := buildWorld(t)
	NewResolver(sim, resvAddr, rootAddr, Profile{
		Rcode: dnswire.RcodeServFail, Answer: AnswerNone, OmitQuestion: true,
	})
	got := probe(t, sim, dnssrv.FormatProbeName(0, 11, testSLD))
	if got == nil {
		t.Fatal("no R2")
	}
	if len(got.Questions) != 0 {
		t.Errorf("question section present: %v", got.Questions)
	}
	if got.Header.Rcode != dnswire.RcodeServFail {
		t.Errorf("rcode = %v", got.Header.Rcode)
	}
}

func TestAnswerForms(t *testing.T) {
	qname := dnssrv.FormatProbeName(0, 12, testSLD)
	q := dnswire.NewQuery(5, qname, dnswire.TypeA)

	t.Run("cname-url-form", func(t *testing.T) {
		resp := BuildResponse(q, Profile{RA: true, Answer: AnswerCNAME, Name: "u.dcoin.co"}, dnssrv.Result{})
		if len(resp.Answers) != 1 || resp.Answers[0].Type != dnswire.TypeCNAME {
			t.Fatalf("answers = %v", resp.Answers)
		}
		if resp.Answers[0].Target != "u.dcoin.co" {
			t.Errorf("target = %q", resp.Answers[0].Target)
		}
	})
	t.Run("txt-string-form", func(t *testing.T) {
		resp := BuildResponse(q, Profile{Answer: AnswerTXT, Name: "wild"}, dnssrv.Result{})
		wire := resp.MustPack()
		back, err := dnswire.Unpack(wire)
		if err != nil {
			t.Fatal(err)
		}
		if back.Answers[0].Type != dnswire.TypeTXT || back.Answers[0].Target != "wild" {
			t.Errorf("answers = %+v", back.Answers)
		}
	})
	t.Run("malformed-na-form", func(t *testing.T) {
		resp := BuildResponse(q, Profile{Answer: AnswerMalformed}, dnssrv.Result{})
		wire := resp.MustPack()
		back, err := dnswire.Unpack(wire)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Answers[0].Malformed {
			t.Error("answer not malformed after round trip")
		}
	})
	t.Run("honest-failure-reports-servfail", func(t *testing.T) {
		resp := BuildResponse(q, Honest(1), dnssrv.Result{OK: false})
		if resp.Header.Rcode != dnswire.RcodeServFail || len(resp.Answers) != 0 {
			t.Errorf("resp = %v", resp)
		}
	})
}

func TestWrongRcodeWithAnswer(t *testing.T) {
	// §IV-B3: answers carrying a nonzero rcode.
	sim := buildWorld(t)
	NewResolver(sim, resvAddr, rootAddr, Profile{
		RA: true, Rcode: dnswire.RcodeServFail,
		Answer: AnswerFixed, Addr: ipv4.MustParseAddr("216.194.64.193"),
	})
	got := probe(t, sim, dnssrv.FormatProbeName(0, 13, testSLD))
	if got == nil {
		t.Fatal("no R2")
	}
	if got.Header.Rcode != dnswire.RcodeServFail {
		t.Errorf("rcode = %v", got.Header.Rcode)
	}
	if _, ok := got.FirstA(); !ok {
		t.Error("answer missing")
	}
}

func TestUpstreamDuplicatesGenerateQ2(t *testing.T) {
	sim := netsim.New(netsim.Config{Seed: 2, Latency: netsim.ConstantLatency(5 * time.Millisecond)})
	dnssrv.NewReferralServer(sim, rootAddr, []dnssrv.Referral{
		{Zone: "net", NSName: "a.gtld-servers.net", Addr: tldAddr},
	})
	dnssrv.NewReferralServer(sim, tldAddr, []dnssrv.Referral{
		{Zone: testSLD, NSName: "ns1." + testSLD, Addr: authAddr},
	})
	auth := dnssrv.NewAuthServer(sim, dnssrv.AuthConfig{
		Addr: authAddr, SLD: testSLD, ClusterSize: 1000,
	})
	NewResolver(sim, resvAddr, rootAddr, Honest(3))
	got := probe(t, sim, dnssrv.FormatProbeName(0, 14, testSLD))
	if got == nil {
		t.Fatal("no R2")
	}
	if auth.QueriesSeen() != 3 {
		t.Errorf("auth saw %d Q2, want 3", auth.QueriesSeen())
	}
}

func TestProfileAccessors(t *testing.T) {
	sim := buildWorld(t)
	p := Honest(2)
	r := NewResolver(sim, resvAddr, rootAddr, p)
	if r.Profile() != p {
		t.Error("Profile() mismatch")
	}
	if Honest(0).Upstream != 1 || LyingRA(0).Upstream != 1 {
		t.Error("constructors must clamp upstream to ≥1")
	}
}

func TestForwarderRelaysHonestAnswer(t *testing.T) {
	sim := buildWorld(t)
	upstream := ipv4.MustParseAddr("66.10.20.40")
	NewResolver(sim, upstream, rootAddr, Honest(1))
	fwd := NewResolver(sim, resvAddr, rootAddr, Forwarder(upstream))
	qname := dnssrv.FormatProbeName(0, 20, testSLD)
	got := probe(t, sim, qname)
	if got == nil {
		t.Fatal("no relayed response")
	}
	if got.Header.ID != 77 {
		t.Errorf("relayed ID = %d, want the client's 77", got.Header.ID)
	}
	a, ok := got.FirstA()
	if !ok || ipv4.Addr(a) != dnssrv.TruthAddr(qname) {
		t.Errorf("relayed answer = %#x", a)
	}
	if !got.Header.RA {
		t.Error("upstream RA flag not relayed")
	}
	if fwd.Queries != 1 || fwd.Responses != 1 {
		t.Errorf("forwarder counters: %d/%d", fwd.Queries, fwd.Responses)
	}
}

func TestForwarderChain(t *testing.T) {
	sim := buildWorld(t)
	terminal := ipv4.MustParseAddr("66.10.20.50")
	middle := ipv4.MustParseAddr("66.10.20.51")
	NewResolver(sim, terminal, rootAddr, Manipulator(ipv4.MustParseAddr("208.91.197.91")))
	NewResolver(sim, middle, rootAddr, Forwarder(terminal))
	NewResolver(sim, resvAddr, rootAddr, Forwarder(middle))
	got := probe(t, sim, dnssrv.FormatProbeName(0, 21, testSLD))
	if got == nil {
		t.Fatal("no response through the chain")
	}
	// The manipulated answer and its deviant AA flag propagate to the
	// client through two dumb proxies untouched.
	a, ok := got.FirstA()
	if !ok || a != uint32(ipv4.MustParseAddr("208.91.197.91")) {
		t.Errorf("chained answer = %#x", a)
	}
	if !got.Header.AA {
		t.Error("manipulator's AA flag lost in the chain")
	}
}

func TestForwarderLoopIsContained(t *testing.T) {
	sim := buildWorld(t)
	a := ipv4.MustParseAddr("66.10.20.60")
	b := ipv4.MustParseAddr("66.10.20.61")
	ra := NewResolver(sim, a, rootAddr, Forwarder(b))
	NewResolver(sim, b, rootAddr, Forwarder(a))
	prober := sim.Register(proberAddr, netsim.HostFunc(func(*netsim.Node, netsim.Datagram) {}))
	q := dnswire.NewQuery(9, dnssrv.FormatProbeName(0, 22, testSLD), dnswire.TypeA)
	prober.Send(a, 40000, dnssrv.DNSPort, q.MustPack())
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if ra.ForwardDrops == 0 {
		t.Error("loop never hit the forwarding-table cap")
	}
}

func TestVersionBanner(t *testing.T) {
	sim := buildWorld(t)
	p := Refuser()
	p.Version = "dnsmasq-2.40"
	NewResolver(sim, resvAddr, rootAddr, p)
	var got *dnswire.Message
	prober := sim.Register(proberAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		got, _ = dnswire.Unpack(dg.Payload)
	}))
	q := &dnswire.Message{
		Header: dnswire.Header{ID: 3},
		Questions: []dnswire.Question{{
			Name: "version.bind", Type: dnswire.TypeTXT, Class: dnswire.ClassCH,
		}},
	}
	prober.Send(resvAddr, 40000, dnssrv.DNSPort, q.MustPack())
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got.Answers) != 1 {
		t.Fatalf("version response = %v", got)
	}
	if got.Answers[0].Target != "dnsmasq-2.40" || got.Answers[0].Class != dnswire.ClassCH {
		t.Errorf("banner RR = %+v", got.Answers[0])
	}
	// Other CH names are refused.
	got = nil
	q2 := &dnswire.Message{
		Header: dnswire.Header{ID: 4},
		Questions: []dnswire.Question{{
			Name: "hostname.bind", Type: dnswire.TypeTXT, Class: dnswire.ClassCH,
		}},
	}
	prober.Send(resvAddr, 40000, dnssrv.DNSPort, q2.MustPack())
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Header.Rcode != dnswire.RcodeRefused {
		t.Errorf("hostname.bind response = %v", got)
	}
}

func TestPropertyBuildResponseInvariants(t *testing.T) {
	f := func(ra, aa, omit bool, rcode uint8, kind uint8, addr uint32, id uint16) bool {
		p := Profile{
			RA: ra, AA: aa, Rcode: dnswire.Rcode(rcode % 11),
			Answer: AnswerKind(kind%6) + 1, Addr: ipv4.Addr(addr),
			Name: "x.example", OmitQuestion: omit,
		}
		q := dnswire.NewQuery(id, dnssrv.FormatProbeName(0, int(id)%100, testSLD), dnswire.TypeA)
		res := dnssrv.Result{Addr: 7, Rcode: dnswire.RcodeNoError, OK: true}
		resp := BuildResponse(q, p, res)
		if !resp.Header.QR || resp.Header.ID != id || !resp.Header.RD {
			return false
		}
		if resp.Header.RA != ra || resp.Header.AA != aa {
			return false
		}
		if omit != (len(resp.Questions) == 0) {
			return false
		}
		// Every profile's output must survive the wire.
		wire, err := resp.Pack()
		if err != nil {
			return false
		}
		back, err := dnswire.Unpack(wire)
		if err != nil {
			return false
		}
		return back.Header == resp.Header
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// sharedScratchWorld runs the interleaved resolver scenario of
// TestSharedScratchSameBytes and returns every R2 the client captured, in
// arrival order, as (arrival, source, length, payload) records. mk builds
// each resolver.
func sharedScratchWorld(t *testing.T, mk func(sim *netsim.Sim, addr ipv4.Addr, p Profile)) []byte {
	t.Helper()
	sim := netsim.New(netsim.Config{Seed: 3, Latency: netsim.UniformLatency(2*time.Millisecond, 40*time.Millisecond)})
	dnssrv.NewReferralServer(sim, rootAddr, []dnssrv.Referral{
		{Zone: "net", NSName: "a.gtld-servers.net", Addr: tldAddr},
	})
	dnssrv.NewReferralServer(sim, tldAddr, []dnssrv.Referral{
		{Zone: testSLD, NSName: "ns1." + testSLD, Addr: authAddr},
	})
	dnssrv.NewAuthServer(sim, dnssrv.AuthConfig{Addr: authAddr, SLD: testSLD, ClusterSize: 1000})
	profiles := []Profile{
		Honest(1),
		Manipulator(ipv4.MustParseAddr("208.91.197.91")),
		{RA: true, Answer: AnswerTruth, Upstream: 1, OmitQuestion: true},
		{Answer: AnswerCNAME, Name: "www.example.com", Upstream: 1},
		Honest(2),
	}
	resolvers := make([]ipv4.Addr, len(profiles))
	for i, p := range profiles {
		resolvers[i] = ipv4.MustParseAddr("66.10.20.30") + ipv4.Addr(i)
		mk(sim, resolvers[i], p)
	}
	var out []byte
	client := sim.Register(proberAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		out = binary.BigEndian.AppendUint64(out, uint64(n.Now()))
		out = binary.BigEndian.AppendUint32(out, uint32(dg.Src))
		out = binary.BigEndian.AppendUint16(out, uint16(len(dg.Payload)))
		out = append(out, dg.Payload...)
	}))
	// A query every 3 ms, round-robin over the resolvers: with 2–40 ms
	// one-way latency each recursion is still pending while other
	// resolvers decode. Every fourth name repeats an earlier one, so
	// answer-cache hits interleave with upstream resolutions.
	for i := 0; i < 200; i++ {
		idx := i
		if i%4 == 3 {
			idx = i - 3*len(profiles)
			if idx < 0 {
				idx = i
			}
		}
		wire := dnswire.NewQuery(uint16(i+1), dnssrv.FormatProbeName(0, idx, testSLD), dnswire.TypeA).MustPack()
		dst := resolvers[i%len(resolvers)]
		client.After(time.Duration(i)*3*time.Millisecond, func() {
			client.Send(dst, 40000, dnssrv.DNSPort, wire)
		})
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSharedScratchSameBytes runs honest, manipulator, empty-question and
// CNAME resolvers over root, TLD and auth in one network — once with one
// shared Scratch, once with a private Scratch each — and requires the
// client's R2 captures to be byte-identical and to match the digest
// recorded when every Resolver still embedded its own messages.
func TestSharedScratchSameBytes(t *testing.T) {
	shared := new(Scratch)
	withShared := sharedScratchWorld(t, func(sim *netsim.Sim, addr ipv4.Addr, p Profile) {
		NewResolverTuned(sim, addr, rootAddr, p, nil, shared)
	})
	private := sharedScratchWorld(t, func(sim *netsim.Sim, addr ipv4.Addr, p Profile) {
		NewResolver(sim, addr, rootAddr, p)
	})
	if !bytes.Equal(withShared, private) {
		t.Fatalf("shared scratch changed the R2 bytes (%d vs %d capture bytes)", len(withShared), len(private))
	}
	const want = "d349958bf63d72d30782317f7f0a856058a766f2366cb6efac912e7eda688b65"
	if got := fmt.Sprintf("%x", sha256.Sum256(private)); got != want {
		t.Errorf("R2 capture digest = %s, want %s", got, want)
	}
}

// LyingRA returns the §IV-B1 deviant: it answers correctly but claims
// recursion unavailable.
func LyingRA(upstream int) Profile {
	if upstream < 1 {
		upstream = 1
	}
	return Profile{RA: false, Answer: AnswerTruth, Upstream: upstream}
}
