package dnssrv

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
)

// The reference resolver: a pure model of Recursive's documented
// algorithm (DESIGN.md §8, "Resolver model"), with no netsim and no
// timers, checked against the engine on seeded random zone graphs.

// serverMode selects how a graph server departs from a well-behaved
// authoritative server.
type serverMode uint8

const (
	modeNormal      serverMode = iota
	modeNoAA                   // answers without AA (not authoritative)
	modeLame                   // Refused to everything: a lame delegation
	modeTruncUDP               // TC=1 over UDP, full answers over TCP
	modeTruncAlways            // TC=1 over UDP and over TCP
)

type nameKind uint8

const (
	nameA      nameKind = iota
	nameCNAME           // a CNAME and no A record
	nameNoData          // the name exists with no A record
)

type gName struct {
	kind nameKind
	addr ipv4.Addr
	ttl  uint32
}

// gNS is one NS record of a delegation; glue 0 means glueless.
type gNS struct {
	name string
	glue ipv4.Addr
}

// gCut is a delegation: names under match are referred with NS records
// owned by owner. owner differs from match only for the sideways referral;
// match equal to the server's own zone is a delegation loop.
type gCut struct {
	match, owner string
	ns           []gNS
}

// gServer is one name server of a zone graph.
type gServer struct {
	addr  ipv4.Addr
	zone  string // "" is the root
	mode  serverMode
	cuts  []gCut
	names map[string]gName
}

// zoneGraph is a generated hierarchy: the servers (an address without one
// is unrouted), the names to resolve in order, and the engine's DupQueries.
type zoneGraph struct {
	root    ipv4.Addr
	servers map[ipv4.Addr]*gServer
	order   []*gServer
	qnames  []string
	dup     int
}

// reply is the server's response to an A query for qname.
func (s *gServer) reply(id uint16, qname string, tcp bool) *dnswire.Message {
	m := &dnswire.Message{
		Header:    dnswire.Header{ID: id, QR: true},
		Questions: []dnswire.Question{{Name: qname, Type: dnswire.TypeA, Class: dnswire.ClassIN}},
	}
	switch {
	case s.mode == modeTruncAlways || s.mode == modeTruncUDP && !tcp:
		m.Header.TC = true
		return m
	case s.mode == modeLame || s.zone != "" && !inZone(qname, s.zone):
		m.Header.Rcode = dnswire.RcodeRefused
		return m
	}
	var cut *gCut
	for i := range s.cuts {
		if c := &s.cuts[i]; inZone(qname, c.match) && (cut == nil || len(c.match) > len(cut.match)) {
			cut = c
		}
	}
	if cut != nil {
		for _, ns := range cut.ns {
			m.Authority = append(m.Authority, dnswire.RR{
				Name: cut.owner, Type: dnswire.TypeNS, Class: dnswire.ClassIN, TTL: 172800, Target: ns.name,
			})
			if ns.glue != 0 {
				m.Additional = append(m.Additional, dnswire.RR{
					Name: ns.name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 172800, A: uint32(ns.glue),
				})
			}
		}
		return m
	}
	m.Header.AA = s.mode != modeNoAA
	n, ok := s.names[qname]
	switch {
	case !ok:
		m.Header.Rcode = dnswire.RcodeNXDomain
	case n.kind == nameA:
		m.AnswerA(uint32(n.addr), n.ttl)
	case n.kind == nameCNAME:
		m.Answers = append(m.Answers, dnswire.RR{
			Name: qname, Type: dnswire.TypeCNAME, Class: dnswire.ClassIN, TTL: n.ttl, Target: "target." + s.zone,
		})
	}
	return m
}

// refLeg is one upstream attempt: copies UDP queries sent together, or
// one TCP query.
type refLeg struct {
	server ipv4.Addr
	qname  string
	tcp    bool
	copies int
}

func (l refLeg) String() string {
	if l.tcp {
		return fmt.Sprintf("tcp %v %s", l.server, l.qname)
	}
	return fmt.Sprintf("udp×%d %v %s", l.copies, l.server, l.qname)
}

// refCache is the reference's state across resolutions; shapes tallies
// the paths its walks took.
type refCache struct {
	referrals map[string]ipv4.Addr
	answers   map[string]ipv4.Addr
	negative  map[string]dnswire.Rcode
	shapes    map[string]int
}

func newRefCache() *refCache {
	return &refCache{
		referrals: make(map[string]ipv4.Addr),
		answers:   make(map[string]ipv4.Addr),
		negative:  make(map[string]dnswire.Rcode),
		shapes:    make(map[string]int),
	}
}

// covers is the reference's own bailiwick test: name is zone or under it.
func covers(zone, name string) bool {
	return zone != "" && (name == zone || strings.HasSuffix(name, "."+zone))
}

// refResolve is the documented algorithm over the graph: start at the
// deepest cached referral; pass a non-NoError rcode through, caching
// NXDOMAIN only when AA is set; answer with the first A record; otherwise
// descend to the first NS whose glue is present, caching the referral only
// when its zone covers qname; fail with ServFail when nothing usable is
// left and at depth > 8. DupQueries copies go out from depth 2 on; an
// unanswered leg is retried twice, one copy each; a truncated leg moves to
// TCP and is re-dialed at most twice while TCP answers stay truncated.
// Answers with TTL 0 are never reused; every other TTL outlives the test.
func refResolve(g *zoneGraph, c *refCache, qname string) (Result, []refLeg) {
	servFail := Result{Rcode: dnswire.RcodeServFail}
	if a, ok := c.answers[qname]; ok {
		c.shapes["answer cache hit"]++
		return Result{Addr: a, Rcode: dnswire.RcodeNoError, OK: true}, nil
	}
	if rc, ok := c.negative[qname]; ok {
		c.shapes["negative cache hit"]++
		return Result{Rcode: rc}, nil
	}
	server, best := g.root, ""
	for zone, addr := range c.referrals {
		if covers(zone, qname) && len(zone) > len(best) {
			server, best = addr, zone
		}
	}
	if best != "" {
		c.shapes["start at cached referral"]++
	}
	var legs []refLeg
	for depth := 0; depth <= 8; depth++ {
		copies := 1
		if depth >= 2 && g.dup > 1 {
			copies = g.dup
			c.shapes["duplicated leg"]++
		}
		legs = append(legs, refLeg{server, qname, false, copies})
		s := g.servers[server]
		if s == nil {
			c.shapes["unrouted server"]++
			legs = append(legs, refLeg{server, qname, false, 1}, refLeg{server, qname, false, 1})
			return servFail, legs
		}
		m := s.reply(0, qname, false)
		for tcp := 0; m.Header.TC; tcp++ {
			if tcp == 3 {
				c.shapes["truncated over TCP"]++
				return servFail, legs
			}
			c.shapes["TCP fallback"]++
			legs = append(legs, refLeg{server, qname, true, 1})
			m = s.reply(0, qname, true)
		}
		switch h := m.Header; {
		case h.Rcode == dnswire.RcodeNXDomain && h.AA:
			c.shapes["NXDOMAIN"]++
			c.negative[qname] = h.Rcode
			return Result{Rcode: h.Rcode}, legs
		case h.Rcode == dnswire.RcodeNXDomain:
			c.shapes["NXDOMAIN without AA"]++
			return Result{Rcode: h.Rcode}, legs
		case h.Rcode != dnswire.RcodeNoError:
			c.shapes["lame server"]++
			return Result{Rcode: h.Rcode}, legs
		}
		for _, rr := range m.Answers {
			if rr.Type == dnswire.TypeA {
				c.shapes["answer"]++
				if rr.TTL > 0 {
					c.answers[qname] = ipv4.Addr(rr.A)
				}
				return Result{Addr: ipv4.Addr(rr.A), Rcode: dnswire.RcodeNoError, OK: true}, legs
			}
		}
		if len(m.Answers) > 0 {
			c.shapes["CNAME-only answer"]++
			return servFail, legs
		}
		zone, next := "", ipv4.Addr(0)
		for _, ns := range m.Authority {
			for _, glue := range m.Additional {
				if glue.Name == ns.Target {
					zone, next = ns.Name, ipv4.Addr(glue.A)
					break
				}
			}
			if next != 0 {
				break
			}
			c.shapes["glueless NS skipped"]++
		}
		switch {
		case len(m.Authority) == 0:
			c.shapes["NODATA"]++
			return servFail, legs
		case next == 0:
			c.shapes["no glue at all"]++
			return servFail, legs
		}
		if covers(zone, qname) {
			c.shapes["referral"]++
			c.referrals[zone] = next
		} else {
			c.shapes["sideways referral"]++
		}
		server = next
	}
	c.shapes["delegation loop"]++
	return servFail, legs
}

// genGraph builds a seeded zone graph: a root, two or three TLDs and
// subzones up to three labels deep, each delegated glued, with a glueless
// NS first, fully glueless, to an unrouted address, or into a loop, and
// served by a normal, non-AA, lame, UDP-truncating or always-truncating
// server. One zone also refers a name sideways to an unrelated TLD. The
// qnames visit every name once, in shuffled order, then repeat half of
// them.
func genGraph(seed int64) *zoneGraph {
	rng := rand.New(rand.NewSource(seed))
	g := &zoneGraph{servers: make(map[ipv4.Addr]*gServer), dup: 1 + rng.Intn(2)}
	nextAddr := ipv4.MustParseAddr("10.1.0.1")
	newServer := func(zone string, mode serverMode) *gServer {
		s := &gServer{addr: nextAddr, zone: zone, mode: mode, names: make(map[string]gName)}
		nextAddr++
		g.servers[s.addr] = s
		g.order = append(g.order, s)
		return s
	}
	deadAddr := ipv4.MustParseAddr("10.9.0.1")
	var candidates []string
	populate := func(s *gServer) {
		ttl := uint32(3600)
		if rng.Intn(3) == 0 {
			ttl = 0
		}
		s.names["www."+s.zone] = gName{kind: nameA, addr: ipv4.Addr(rng.Uint32() | 1), ttl: ttl}
		s.names["alias."+s.zone] = gName{kind: nameCNAME, ttl: 300}
		s.names["empty."+s.zone] = gName{kind: nameNoData}
		for _, l := range []string{"www.", "alias.", "empty.", "nx."} {
			candidates = append(candidates, l+s.zone)
		}
	}
	pickMode := func() serverMode {
		switch r := rng.Intn(20); {
		case r < 11:
			return modeNormal
		case r < 13:
			return modeNoAA
		case r < 15:
			return modeLame
		case r < 18:
			return modeTruncUDP
		default:
			return modeTruncAlways
		}
	}

	root := newServer("", modeNormal)
	if rng.Intn(8) == 0 {
		root.mode = modeTruncUDP
	}
	g.root = root.addr
	// usable servers answer from their zone data, over UDP or TCP.
	usable := func(s *gServer) bool {
		return s.mode == modeNormal || s.mode == modeNoAA || s.mode == modeTruncUDP
	}
	var tlds, reachable []*gServer
	var grow func(parent *gServer, depth int, live bool)
	grow = func(parent *gServer, depth int, live bool) {
		n := rng.Intn(3)
		if depth == 0 {
			n = 2 + rng.Intn(2)
		}
		for i := 0; i < n && depth < 3; i++ {
			zone := fmt.Sprintf("z%d", i)
			if parent.zone != "" {
				zone += "." + parent.zone
			}
			child := newServer(zone, pickMode())
			r := rng.Intn(10)
			if depth == 0 {
				tlds = append(tlds, child)
				if i == 0 {
					// One TLD is always reachable, for the sideways referral.
					child.mode, r = modeNormal, 0
				}
			}
			cut := gCut{match: zone, owner: zone}
			glued := true
			switch {
			case r < 6:
				cut.ns = []gNS{{"ns1." + zone, child.addr}}
			case r == 6:
				cut.ns = []gNS{{"ns0." + zone, 0}, {"ns1." + zone, child.addr}}
			case r == 7:
				cut.ns, glued = []gNS{{"ns1." + zone, 0}}, false
			case r == 8 && depth > 0:
				cut.ns, glued = []gNS{{"ns1." + zone, deadAddr}}, false
				deadAddr++
			default:
				// A loop: the zone's server refers the zone to a twin that
				// refers it back.
				twin := newServer(zone, modeNormal)
				child.mode = modeNormal
				child.cuts = append(child.cuts, gCut{match: zone, owner: zone, ns: []gNS{{"ns2." + zone, twin.addr}}})
				twin.cuts = append(twin.cuts, gCut{match: zone, owner: zone, ns: []gNS{{"ns1." + zone, child.addr}}})
				cut.ns = []gNS{{"ns1." + zone, child.addr}}
			}
			parent.cuts = append(parent.cuts, cut)
			populate(child)
			if len(child.cuts) == 0 {
				childLive := live && usable(parent) && glued && usable(child)
				if childLive {
					reachable = append(reachable, child)
				}
				grow(child, depth+1, childLive)
			}
		}
	}
	grow(root, 0, true)

	// The sideways referral: a zone under one TLD refers "side.<zone>"
	// with an NS set owned by another TLD, glued to an unrelated server.
	from := reachable[rng.Intn(len(reachable))]
	var owner *gServer
	for _, t := range tlds {
		if !inZone(from.zone, t.zone) {
			owner = t
		}
	}
	glue := g.order[1+rng.Intn(len(g.order)-1)].addr
	from.cuts = append(from.cuts, gCut{
		match: "side." + from.zone, owner: owner.zone, ns: []gNS{{"ns.side." + owner.zone, glue}},
	})

	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	g.qnames = append(candidates, "x.side."+from.zone, "www."+owner.zone, "nx."+owner.zone)
	for _, i := range rng.Perm(len(candidates))[:len(candidates)/2] {
		g.qnames = append(g.qnames, candidates[i])
	}
	return g
}

// sentQuery is one upstream query the engine sent, as the network saw it.
type sentQuery struct {
	at     time.Duration
	server ipv4.Addr
	id     uint16
	qname  string
	tcp    bool
}

// queryTap is an impairment that impairs nothing: first in the pipeline,
// it records every UDP query the resolver sends, before any loss.
type queryTap struct{ log *[]sentQuery }

func (t queryTap) Apply(dg *netsim.Datagram, now time.Duration, _ *rand.Rand, _ *netsim.Fate) {
	if dg.Src != resAddr {
		return
	}
	if m, err := dnswire.Unpack(dg.Payload); err == nil && !m.Header.QR {
		if q, ok := m.Question1(); ok {
			*t.log = append(*t.log, sentQuery{now, dg.Dst, m.Header.ID, q.Name, false})
		}
	}
}

// serveGraph registers every graph server on sim, over UDP and TCP; TCP
// queries are logged as they arrive.
func serveGraph(sim *netsim.Sim, g *zoneGraph, log *[]sentQuery) {
	for _, s := range g.order {
		sim.Register(s.addr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
			q, err := dnswire.Unpack(dg.Payload)
			if err != nil || q.Header.QR {
				return
			}
			if qst, ok := q.Question1(); ok {
				n.Send(dg.Src, dg.DstPort, dg.SrcPort, s.reply(q.Header.ID, qst.Name, false).MustPack())
			}
		}))
		sim.Listen(s.addr, DNSPort, func(c *netsim.Conn) {
			parser := &dnswire.StreamParser{}
			c.OnData(func(b []byte) {
				msgs, err := parser.Feed(b)
				if err != nil {
					c.Close()
					return
				}
				for _, q := range msgs {
					qst, ok := q.Question1()
					if !ok || q.Header.QR {
						continue
					}
					*log = append(*log, sentQuery{sim.Now(), s.addr, q.Header.ID, qst.Name, true})
					if wire, err := s.reply(q.Header.ID, qst.Name, true).PackTCP(); err == nil {
						c.Send(wire)
					}
				}
			})
		})
	}
}

// legsOf folds a query log into legs: UDP copies of one ID sent at one
// instant to one server are one leg.
func legsOf(log []sentQuery) []refLeg {
	var legs []refLeg
	for i, q := range log {
		if i > 0 && !q.tcp {
			if p := log[i-1]; !p.tcp && p.at == q.at && p.id == q.id && p.server == q.server {
				legs[len(legs)-1].copies++
				continue
			}
		}
		legs = append(legs, refLeg{q.server, q.qname, q.tcp, 1})
	}
	return legs
}

// checkReference resolves the graph's qnames in order on one engine over
// a network with the given impairments (nil: loss-free) and compares each
// outcome with the reference. Loss-free, the result and the upstream legs
// must match exactly; under impairments the result must match or be
// ServFail, and no leg may send more than (Retries+1)×DupQueries UDP
// queries. Either way done runs once per resolution and nothing is left
// outstanding. It returns the reference's shape tally.
func checkReference(t testing.TB, seed int64, imps []netsim.Impairment) map[string]int {
	t.Helper()
	g := genGraph(seed)
	var log []sentQuery
	sim := netsim.New(netsim.Config{
		Seed:        seed,
		Latency:     netsim.ConstantLatency(time.Millisecond),
		Impairments: append([]netsim.Impairment{queryTap{&log}}, imps...),
	})
	serveGraph(sim, g, &log)
	var rec *Recursive
	node := sim.Register(resAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		if msg, err := dnswire.Unpack(dg.Payload); err == nil && msg.Header.QR {
			rec.HandleResponse(msg)
		}
	}))
	rec = NewRecursive(node, g.root)
	rec.DupQueries = g.dup
	cache := newRefCache()
	for _, qname := range g.qnames {
		want, wantLegs := refResolve(g, cache, qname)
		log = log[:0]
		var got Result
		calls := 0
		rec.Resolve(qname, func(r Result) { got = r; calls++ })
		if err := sim.Run(0); err != nil {
			t.Fatalf("seed %d %s: %v", seed, qname, err)
		}
		if calls != 1 {
			t.Fatalf("seed %d %s: done called %d times", seed, qname, calls)
		}
		if n := rec.Outstanding(); n != 0 {
			t.Fatalf("seed %d %s: %d queries outstanding at quiescence", seed, qname, n)
		}
		if imps == nil {
			if got != want {
				t.Fatalf("seed %d %s: engine %+v, reference %+v", seed, qname, got, want)
			}
			if gotLegs := legsOf(log); !slices.Equal(gotLegs, wantLegs) {
				t.Fatalf("seed %d %s: engine legs %v, reference legs %v", seed, qname, gotLegs, wantLegs)
			}
			continue
		}
		if got != want && got != (Result{Rcode: dnswire.RcodeServFail}) {
			t.Fatalf("seed %d %s: engine %+v, reference %+v or ServFail", seed, qname, got, want)
		}
		perLeg := make(map[uint16]int)
		for _, q := range log {
			if !q.tcp {
				perLeg[q.id]++
			}
		}
		for id, n := range perLeg {
			if n > (rec.Retries+1)*rec.DupQueries {
				t.Fatalf("seed %d %s: leg %d sent %d UDP queries", seed, qname, id, n)
			}
		}
	}
	return cache.shapes
}

// lossyNetworks are the impairments of the lossy check. No Corruptor: DNS
// has no integrity check, so a flipped bit can legitimately change an
// answer.
func lossyNetworks() map[string][]netsim.Impairment {
	return map[string][]netsim.Impairment{
		"iid":     {&netsim.IIDLoss{P: 0.2}},
		"burst":   {&netsim.GilbertElliott{PGoodBad: 0.05, PBadGood: 0.3, LossGood: 0.01, LossBad: 0.7}},
		"dup":     {&netsim.Duplicator{P: 0.3, Copies: 2}},
		"reorder": {&netsim.Reorderer{P: 0.3, Window: 5 * time.Millisecond}},
	}
}

// TestRecursiveMatchesReference is the differential check: on 64 seeded
// graphs the engine agrees with the reference loss-free, and stays within
// {reference, ServFail} under loss, duplication and reordering. Together
// the graphs must walk every shape the generator builds.
func TestRecursiveMatchesReference(t *testing.T) {
	shapes := make(map[string]int)
	for seed := int64(1); seed <= 64; seed++ {
		for k, n := range checkReference(t, seed, nil) {
			shapes[k] += n
		}
	}
	for _, shape := range []string{
		"answer cache hit", "negative cache hit", "start at cached referral",
		"unrouted server", "TCP fallback", "truncated over TCP",
		"NXDOMAIN", "NXDOMAIN without AA", "lame server", "answer",
		"CNAME-only answer", "NODATA", "glueless NS skipped", "no glue at all",
		"duplicated leg", "referral", "sideways referral", "delegation loop",
	} {
		if shapes[shape] == 0 {
			t.Errorf("no graph walked %q", shape)
		}
	}
	for name, imps := range lossyNetworks() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 16; seed++ {
				checkReference(t, seed, netsim.CloneImpairments(imps))
			}
		})
	}
}

// FuzzRecursiveReference runs the differential check on the graph of any
// seed, loss-free and under each lossy network.
func FuzzRecursiveReference(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkReference(t, seed, nil)
		for _, imps := range lossyNetworks() {
			checkReference(t, seed, imps)
		}
	})
}

// graphZoneFiles renders the graph's zones (everything but the root) as
// master files in the subset ParseZoneFile reads: SOA, NS and A records.
// Each returned zone carries its A-record count.
func graphZoneFiles(g *zoneGraph) (files [][]byte, aRecords []int) {
	for _, s := range g.order {
		if s.zone == "" {
			continue
		}
		var b bytes.Buffer
		fmt.Fprintf(&b, "$ORIGIN %s.\n$TTL 3600\n", s.zone)
		fmt.Fprintf(&b, "@ IN SOA ns1.%s. hostmaster.%s. ( 1 3600 600 86400 60 )\n", s.zone, s.zone)
		fmt.Fprintf(&b, "@ IN NS ns1.%s.\n", s.zone)
		n := 0
		for _, name := range sortedNames(s.names) {
			if rec := s.names[name]; rec.kind == nameA {
				fmt.Fprintf(&b, "%s. %d IN A %s\n", name, rec.ttl, rec.addr)
				n++
			}
		}
		for _, cut := range s.cuts {
			for _, ns := range cut.ns {
				fmt.Fprintf(&b, "%s. IN NS %s.\n", cut.owner, ns.name)
				if ns.glue != 0 {
					fmt.Fprintf(&b, "%s. IN A %s\n", ns.name, ns.glue)
					n++
				}
			}
		}
		files, aRecords = append(files, b.Bytes()), append(aRecords, n)
	}
	return files, aRecords
}

func sortedNames(m map[string]gName) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestGraphZoneFilesParse keeps the zone-file fuzz seeds meaningful: every
// rendered graph zone parses with all its A records.
func TestGraphZoneFilesParse(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		files, counts := graphZoneFiles(genGraph(seed))
		for i, file := range files {
			z, err := ParseZoneFile(bytes.NewReader(file))
			if err != nil {
				t.Fatalf("seed %d zone %d: %v\n%s", seed, i, err, file)
			}
			if len(z.A) != counts[i] {
				t.Errorf("seed %d zone %d: parsed %d A records, rendered %d", seed, i, len(z.A), counts[i])
			}
		}
	}
}
