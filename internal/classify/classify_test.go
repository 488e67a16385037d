package classify

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"openresolver/internal/behavior"
	"openresolver/internal/capture"
	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
)

var (
	rootAddr   = ipv4.MustParseAddr("198.41.0.4")
	tldAddr    = ipv4.MustParseAddr("192.5.6.30")
	authAddr   = ipv4.MustParseAddr("45.76.1.10")
	proberAddr = ipv4.MustParseAddr("132.170.1.1")
)

const sld = "ucfsealresearch.net"

// authCapture is the tcpdump tap of Fig. 2 at the authoritative server: it
// keeps every Q2 and R1 in a record log.
type authCapture struct{ capture.Log }

// Packet implements dnssrv.Tap.
func (c *authCapture) Packet(inbound bool, at time.Duration, dg netsim.Datagram, _ *dnswire.Message) {
	kind := capture.KindR1
	if inbound {
		kind = capture.KindQ2
	}
	c.Append(capture.Packet{Kind: kind, At: at, Src: dg.Src, Dst: dg.Dst, Payload: dg.Payload})
}

func TestClassifyRoles(t *testing.T) {
	sim := netsim.New(netsim.Config{Seed: 1, Latency: netsim.ConstantLatency(5 * time.Millisecond)})
	dnssrv.NewReferralServer(sim, rootAddr, []dnssrv.Referral{
		{Zone: "net", NSName: "a.gtld-servers.net", Addr: tldAddr},
	})
	dnssrv.NewReferralServer(sim, tldAddr, []dnssrv.Referral{
		{Zone: sld, NSName: "ns1." + sld, Addr: authAddr},
	})
	authLog := &authCapture{}
	dnssrv.NewAuthServer(sim, dnssrv.AuthConfig{
		Addr: authAddr, SLD: sld, ClusterSize: 1000, Tap: authLog,
	})

	recursive := ipv4.MustParseAddr("60.0.0.1")
	hidden := ipv4.MustParseAddr("60.0.0.2")
	frontend := ipv4.MustParseAddr("60.0.0.3")
	fabricator := ipv4.MustParseAddr("60.0.0.4")
	refuser := ipv4.MustParseAddr("60.0.0.5")

	behavior.NewResolver(sim, recursive, rootAddr, behavior.Honest(1))
	behavior.NewResolver(sim, hidden, rootAddr, behavior.Honest(1))
	behavior.NewResolver(sim, frontend, rootAddr, behavior.Forwarder(hidden))
	behavior.NewResolver(sim, fabricator, rootAddr, behavior.Manipulator(ipv4.MustParseAddr("208.91.197.91")))
	behavior.NewResolver(sim, refuser, rootAddr, behavior.Refuser())

	var probeLog capture.Log
	prober := sim.Register(proberAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		probeLog.Append(capture.Packet{Kind: capture.KindR2, At: n.Now(), Src: dg.Src, Dst: dg.Dst, Payload: dg.Payload})
	}))
	targets := []ipv4.Addr{recursive, frontend, fabricator, refuser}
	for i, target := range targets {
		qname := dnssrv.FormatProbeName(0, i+1, sld)
		q := dnswire.NewQuery(uint16(i+1), qname, dnswire.TypeA)
		prober.Send(target, 40000, dnssrv.DNSPort, q.MustPack())
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}

	s := Classify(&probeLog, &authLog.Log)
	want := map[ipv4.Addr]Role{
		recursive:  RoleRecursive,
		frontend:   RoleForwarder,
		fabricator: RoleFabricator,
		refuser:    RoleNonResolving,
	}
	if len(s.Verdicts) != len(want) {
		t.Fatalf("verdicts = %d, want %d", len(s.Verdicts), len(want))
	}
	for _, v := range s.Verdicts {
		if want[v.Responder] != v.Role {
			t.Errorf("%v: role %v, want %v", v.Responder, v.Role, want[v.Responder])
		}
	}
	// The forwarder's verdict exposes the hidden egress resolver.
	for _, v := range s.Verdicts {
		if v.Responder == frontend {
			if len(v.Egress) != 1 || v.Egress[0] != hidden {
				t.Errorf("forwarder egress = %v, want [%v]", v.Egress, hidden)
			}
		}
	}
	if fabs := s.Fabricators(); len(fabs) != 1 || fabs[0] != fabricator {
		t.Errorf("fabricators = %v", fabs)
	}
	if s.ByRole[RoleRecursive] != 1 || s.ByRole[RoleForwarder] != 1 ||
		s.ByRole[RoleFabricator] != 1 || s.ByRole[RoleNonResolving] != 1 {
		t.Errorf("role counts = %v", s.ByRole)
	}
	out := s.Render()
	for _, wantStr := range []string{"recursive", "forwarder", "fabricator", "non-resolving"} {
		if !strings.Contains(out, wantStr) {
			t.Errorf("render missing %q:\n%s", wantStr, out)
		}
	}
}

// TestMergeEqualsWholeJoin splits one capture — recursives, a forwarder
// with its hidden egress resolver, a fabricator, a refuser — into two parts
// by qname, the way the simulation's shards split a campaign. Joining each
// part on its own Index and folding the summaries with Merge must give
// exactly the Summary of Classify over the concatenated streams, including
// for the responders probed in both parts (the first part's verdict wins).
func TestMergeEqualsWholeJoin(t *testing.T) {
	sim := netsim.New(netsim.Config{Seed: 3, Latency: netsim.ConstantLatency(5 * time.Millisecond)})
	dnssrv.NewReferralServer(sim, rootAddr, []dnssrv.Referral{
		{Zone: "net", NSName: "a.gtld-servers.net", Addr: tldAddr},
	})
	dnssrv.NewReferralServer(sim, tldAddr, []dnssrv.Referral{
		{Zone: sld, NSName: "ns1." + sld, Addr: authAddr},
	})
	authLog := &authCapture{}
	dnssrv.NewAuthServer(sim, dnssrv.AuthConfig{
		Addr: authAddr, SLD: sld, ClusterSize: 1000, Tap: authLog,
	})
	hidden := ipv4.MustParseAddr("60.0.1.100")
	behavior.NewResolver(sim, hidden, rootAddr, behavior.Honest(1))
	var targets []ipv4.Addr
	for i := 1; i <= 6; i++ {
		a := ipv4.Addr(uint32(ipv4.MustParseAddr("60.0.1.0")) + uint32(i))
		targets = append(targets, a)
		var p behavior.Profile
		switch i {
		case 1, 2:
			p = behavior.Honest(1)
		case 3, 4:
			p = behavior.Forwarder(hidden)
		case 5:
			p = behavior.Manipulator(ipv4.MustParseAddr("208.91.197.91"))
		default:
			p = behavior.Refuser()
		}
		behavior.NewResolver(sim, a, rootAddr, p)
	}
	var probeLog capture.Log
	prober := sim.Register(proberAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		probeLog.Append(capture.Packet{Kind: capture.KindR2, At: n.Now(), Src: dg.Src, Dst: dg.Dst, Payload: dg.Payload})
	}))
	// Every target is probed twice; the two qnames land in different parts.
	id := 0
	for round := 0; round < 2; round++ {
		for _, target := range targets {
			id++
			q := dnswire.NewQuery(uint16(id), dnssrv.FormatProbeName(0, id, sld), dnswire.TypeA)
			prober.Send(target, 40000, dnssrv.DNSPort, q.MustPack())
		}
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}

	// Part 0 holds the first round's qnames, part 1 the second's.
	partOf := func(p capture.Packet) int {
		msg, err := dnswire.Unpack(p.Payload)
		if err != nil {
			t.Fatal(err)
		}
		q, ok := msg.Question1()
		if !ok {
			t.Fatalf("packet without a question: %+v", p)
		}
		pn, err := dnssrv.ParseProbeName(q.Name, sld)
		if err != nil {
			t.Fatal(err)
		}
		return (pn.Index - 1) / len(targets)
	}
	// A refusal from targets[0] that opens part 1: that part alone calls it
	// non-resolving, but the whole join sees part 0's answer first.
	refused := dnswire.NewResponse(dnswire.NewQuery(99, dnssrv.FormatProbeName(0, 99, sld), dnswire.TypeA))
	refused.Header.Rcode = dnswire.RcodeRefused
	var r2s, auths [2]capture.Log
	r2s[1].Append(capture.Packet{Kind: capture.KindR2, Src: targets[0], Dst: proberAddr, Payload: refused.MustPack()})
	for it := probeLog.Iter(); it.Next(); {
		r2s[partOf(it.Packet())].Append(it.Packet())
	}
	for it := authLog.Iter(); it.Next(); {
		auths[partOf(it.Packet())].Append(it.Packet())
	}

	var parts []*Summary
	for i := range r2s {
		ix := NewIndex()
		for it := auths[i].Iter(); it.Next(); {
			if p := it.Packet(); p.Kind == capture.KindQ2 {
				msg, _ := dnswire.Unpack(p.Payload)
				q, _ := msg.Question1()
				ix.AddQ2(q.Name, p.Src)
			}
		}
		parts = append(parts, ix.Classify(&r2s[i]))
	}
	for _, target := range targets {
		for i, part := range parts {
			if !slices.ContainsFunc(part.Verdicts, func(v Verdict) bool { return v.Responder == target }) {
				t.Fatalf("part %d has no verdict for %v; the split proves nothing", i, target)
			}
		}
	}

	got := Merge(parts)
	want := Classify(capture.ConcatLogs(&r2s[0], &r2s[1]), capture.ConcatLogs(&auths[0], &auths[1]))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged parts differ from the whole join\n got %+v\nwant %+v", got, want)
	}
	if got.ByRole[RoleForwarder] != 2 || got.ByRole[RoleRecursive] != 2 {
		t.Errorf("role counts = %v, want 2 forwarders and 2 recursives", got.ByRole)
	}
}

// TestIndexKeysSurviveArenaReuse is the regression test for the key
// aliasing trap: AddQ2 receives names that alias a reused decode arena, and
// a map key stored without a copy — or re-assigned through such a name —
// is silently rewritten by the next decode. Every earlier lookup must
// still hit after other names have been decoded into the same message.
func TestIndexKeysSurviveArenaReuse(t *testing.T) {
	var msg dnswire.Message
	decode := func(name string) string {
		if err := dnswire.UnpackInto(&msg, dnswire.NewQuery(1, name, dnswire.TypeA).MustPack()); err != nil {
			t.Fatal(err)
		}
		q, _ := msg.Question1()
		return q.Name
	}
	ix := NewIndex()
	const n = 64
	name := func(i int) string { return dnssrv.FormatProbeName(1, i, sld) }
	for i := 0; i < n; i++ {
		src := ipv4.Addr(1000 + i)
		ix.AddQ2(decode(name(i)), src)
		// A second source and a repeat, both through an aliased name:
		// the existing-key paths.
		ix.AddQ2(decode(name(i)), src+1)
		ix.AddQ2(decode(name(i)), src)
	}
	for i := 0; i < n; i++ {
		decode(fmt.Sprintf("x%d.example.net", i))
	}
	for i := 0; i < n; i++ {
		want := []ipv4.Addr{ipv4.Addr(1000 + i), ipv4.Addr(1001 + i)}
		if got := ix.sources(name(i)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sources %v, want %v", name(i), got, want)
		}
	}
	if len(ix.slot) != n {
		t.Errorf("index holds %d qnames, want %d", len(ix.slot), n)
	}
}

func TestClassifyDeduplicatesResponders(t *testing.T) {
	// Two R2 packets from the same source yield one verdict.
	q := dnswire.NewQuery(1, dnssrv.FormatProbeName(0, 1, sld), dnswire.TypeA)
	resp := dnswire.NewResponse(q)
	resp.Header.Rcode = dnswire.RcodeRefused
	pkt := capture.Packet{Kind: capture.KindR2, Src: ipv4.MustParseAddr("9.9.9.9"), Payload: resp.MustPack()}
	var r2 capture.Log
	r2.Append(pkt)
	r2.Append(pkt)
	s := Classify(&r2, nil)
	if len(s.Verdicts) != 1 {
		t.Errorf("verdicts = %d", len(s.Verdicts))
	}
	if s.Verdicts[0].Role != RoleNonResolving {
		t.Errorf("role = %v", s.Verdicts[0].Role)
	}
}

func TestRoleString(t *testing.T) {
	if Role(9).String() != "role(9)" {
		t.Error("unknown role string")
	}
}

// Fabricators returns the responders with the §IV-C manipulation
// signature (answers with no authoritative contact).
func (s *Summary) Fabricators() []ipv4.Addr {
	var out []ipv4.Addr
	for _, v := range s.Verdicts {
		if v.Role == RoleFabricator {
			out = append(out, v.Responder)
		}
	}
	return out
}
