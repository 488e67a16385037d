// Package behavior implements the resolver behaviour profiles the
// measurement observes in the wild. Every simulated host that answers the
// prober is a Resolver with a Profile describing exactly how it deviates
// from (or conforms to) RFC 1035: which RA/AA bits it sets, what rcode it
// returns, whether it really performs recursion (generating the Q2/R1
// flows at the authoritative server), and what it puts in the answer
// section — the ground truth, a fixed wrong address, a URL-shaped CNAME, a
// garbage TXT string, malformed RDATA, or nothing at all.
//
// The paper's taxonomy maps onto profiles as:
//   - honest open resolver:      Upstream≥1, AnswerTruth, RA=1
//   - RA0-but-answers (§IV-B1):  AnswerTruth/Fixed with RA=0
//   - AA1-claimer (§IV-B2):      AA=1 on a non-authoritative answer
//   - wrong-rcode (§IV-B3):      answer present with nonzero rcode, or
//     NoError with no answer
//   - manipulator (§IV-C):       Upstream=0, AnswerFixed to a malicious or
//     arbitrary address ("predetermined answer ... for every query")
//   - empty-question (§IV-B4):   OmitQuestion
//   - refuser/servfail/silent:   the no-answer population
package behavior

import (
	"strings"

	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
)

// AnswerKind selects what a profile places in the answer section.
type AnswerKind uint8

// Answer kinds.
const (
	// AnswerNone leaves the answer section empty.
	AnswerNone AnswerKind = iota + 1
	// AnswerTruth returns the genuinely resolved address (requires
	// Upstream ≥ 1) — the honest behaviour.
	AnswerTruth
	// AnswerFixed returns Addr regardless of the question — the
	// manipulation behaviour (Table VII's IP form).
	AnswerFixed
	// AnswerCNAME returns a CNAME to Name (Table VII's URL form).
	AnswerCNAME
	// AnswerTXT returns a TXT record containing Name (Table VII's string
	// form).
	AnswerTXT
	// AnswerMalformed returns an A record with undecodable RDATA (Table
	// VII's 2013 N/A form).
	AnswerMalformed
)

// Profile is a complete description of one resolver's response behaviour.
type Profile struct {
	// RA and AA are the header bits the resolver sets on its responses.
	RA, AA bool
	// Rcode is the response code it reports.
	Rcode dnswire.Rcode
	// Answer selects the answer-section content.
	Answer AnswerKind
	// Addr is the fixed answer address for AnswerFixed.
	Addr ipv4.Addr
	// Name is the CNAME target or TXT payload.
	Name string
	// OmitQuestion drops the question section from the response (§IV-B4).
	OmitQuestion bool
	// Upstream is the number of duplicate authoritative-leg queries the
	// resolver issues per probe; 0 means it never contacts the hierarchy.
	Upstream int
	// Version is the software banner returned for version.bind CH TXT
	// queries (the fingerprinting probe of Takano et al., the paper's
	// reference [8]); empty means the resolver refuses the query.
	Version string
	// ForwardTo, when nonzero, makes the host a forwarder (the CPE-proxy
	// population Schomp et al. distinguish from true recursives, paper
	// §VI): queries are relayed to the upstream resolver and its answers
	// relayed back verbatim. Answer and Upstream are ignored.
	ForwardTo ipv4.Addr
}

// Resolver is a netsim host executing a Profile. One Resolver serves one
// simulated IP address.
type Resolver struct {
	profile Profile
	// rec is the recursion engine, attached to the Scratch's tables when
	// the profile resolves (Upstream > 0) and zero otherwise.
	rec dnssrv.Recursive

	// Forwarder state: upstream query ID → original client.
	fwdPending map[uint16]fwdClient
	fwdNextID  uint16

	scratch *Scratch // decode/encode messages, possibly shared

	// Queries and Responses count probe-side traffic (Q1 in, R2 out).
	Queries   uint64
	Responses uint64
	// ForwardDrops counts queries dropped because the forwarding table was
	// full (the safety valve against forwarding loops).
	ForwardDrops uint64
}

// Scratch is what a Resolver shares with its neighbours: rmsg is the
// inbound decode target, qmsg and respMsg rebuild the query and response on
// the answer path, and rec holds the recursion engines' caches and
// in-flight legs. Every Resolver of one netsim.Sim may share one Scratch,
// because the simulator never delivers a datagram or fires a timer inside a
// handler, so each use ends before the next handler starts. A deferred
// recursion callback must not read rmsg (later packets, to any resolver
// sharing it, decode over it); it reads its by-value qinfo capture instead.
// Resolvers of different Sims must not share one: Sims may run
// concurrently.
type Scratch struct {
	rmsg    dnswire.Message
	qmsg    dnswire.Message
	respMsg dnswire.Message
	rec     dnssrv.Tables
}

type fwdClient struct {
	id               uint16
	src              ipv4.Addr
	srcPort, dstPort uint16
}

// qinfo is the by-value capture of an inbound query: everything respond
// needs to build the R2 once recursion completes, safe to hold across
// events while the decode scratch is reused.
type qinfo struct {
	id     uint16
	rd     bool
	hasQ   bool
	name   string
	qtype  dnswire.Type
	qclass dnswire.Class
	src    ipv4.Addr
	// reply ports: R2 goes out (dstPort → srcPort) of the query datagram.
	srcPort, dstPort uint16
}

func captureQuery(msg *dnswire.Message, dg netsim.Datagram) qinfo {
	qi := qinfo{
		id: msg.Header.ID, rd: msg.Header.RD,
		src: dg.Src, srcPort: dg.SrcPort, dstPort: dg.DstPort,
	}
	if q, ok := msg.Question1(); ok {
		qi.hasQ, qi.name, qi.qtype, qi.qclass = true, q.Name, q.Type, q.Class
	}
	return qi
}

// maxForwardPending bounds the forwarding table; a forwarding loop fills
// it and further queries are dropped instead of circulating forever.
const maxForwardPending = 64

// NewResolver registers a resolver with profile at addr. rootAddr points the
// recursion engine at the hierarchy (only used when profile.Upstream > 0).
// The resolver gets a private Scratch.
func NewResolver(sim *netsim.Sim, addr ipv4.Addr, rootAddr ipv4.Addr, profile Profile) *Resolver {
	return NewResolverTuned(sim, addr, rootAddr, profile, nil, new(Scratch))
}

// NewResolverTuned is NewResolver with a hook to adjust the recursion
// engine's knobs (retry backoff, jitter, timeouts) before the resolver goes
// live — how a fault-injected campaign hardens its whole population — and
// a Scratch shared with the other resolvers of sim. tune is only called
// for profiles that actually embed an engine; nil leaves the defaults.
func NewResolverTuned(sim *netsim.Sim, addr ipv4.Addr, rootAddr ipv4.Addr, profile Profile, tune func(*dnssrv.Recursive), scratch *Scratch) *Resolver {
	r := &Resolver{profile: profile, scratch: scratch}
	node := sim.Register(addr, r)
	if profile.Upstream > 0 {
		scratch.rec.Attach(&r.rec, node, rootAddr)
		r.rec.DupQueries = profile.Upstream
		if tune != nil {
			tune(&r.rec)
		}
	}
	return r
}

// Profile returns the resolver's behaviour profile.
func (r *Resolver) Profile() Profile { return r.profile }

// CacheStats returns the recursion engine's answer-cache hits and the
// resolutions that went upstream; both are zero for profiles that never
// resolve.
func (r *Resolver) CacheStats() (hits, upstream uint64) {
	return r.rec.CacheHits, r.rec.Resolutions - r.rec.CacheHits
}

// HandleDatagram implements netsim.Host. Decoding reuses the shared
// scratch message; every consumer below either finishes with it
// synchronously or captures what it needs by value.
func (r *Resolver) HandleDatagram(n *netsim.Node, dg netsim.Datagram) {
	msg := &r.scratch.rmsg
	if err := dnswire.UnpackInto(msg, dg.Payload); err != nil {
		return
	}
	if msg.Header.QR {
		// An upstream response: recursion engine first, then the
		// forwarding table. Both consume msg before returning.
		if r.profile.Upstream > 0 && r.rec.HandleResponse(msg) {
			return
		}
		r.relayBack(n, msg)
		return
	}
	r.Queries++
	if q, ok := msg.Question1(); ok && q.Class == dnswire.ClassCH {
		r.respondVersion(n, dg, msg, q)
		return
	}
	if r.profile.ForwardTo != 0 {
		r.forward(n, dg, msg)
		return
	}
	qi := captureQuery(msg, dg)
	if r.profile.Upstream > 0 {
		// The callback may fire now (cache hit) or events later, after the
		// scratch has been re-decoded — it reads only the qinfo capture.
		// The captured name aliases the decode arena (dnswire.UnpackInto),
		// so the deferred path must pin its own copy.
		qi.name = strings.Clone(qi.name)
		r.rec.Resolve(qi.name, func(res dnssrv.Result) {
			r.respond(n, qi, res)
		})
		return
	}
	r.respond(n, qi, dnssrv.Result{})
}

// forward relays the query to the configured upstream under a fresh ID.
func (r *Resolver) forward(n *netsim.Node, dg netsim.Datagram, msg *dnswire.Message) {
	if r.fwdPending == nil {
		r.fwdPending = make(map[uint16]fwdClient)
	}
	if len(r.fwdPending) >= maxForwardPending {
		r.ForwardDrops++
		return
	}
	r.fwdNextID++
	if r.fwdNextID == 0 {
		r.fwdNextID = 1
	}
	upstreamID := r.fwdNextID
	r.fwdPending[upstreamID] = fwdClient{
		id: msg.Header.ID, src: dg.Src, srcPort: dg.SrcPort, dstPort: dg.DstPort,
	}
	fwd := *msg
	fwd.Header.ID = upstreamID
	wire, err := fwd.Pack()
	if err != nil {
		return
	}
	n.Send(r.profile.ForwardTo, dg.DstPort, dnssrv.DNSPort, wire)
}

// relayBack returns an upstream answer to the original client verbatim
// (only the transaction ID is restored) — the behaviour of a dumb CPE
// proxy, which is exactly why upstream flag deviations propagate to
// clients unchanged.
func (r *Resolver) relayBack(n *netsim.Node, msg *dnswire.Message) {
	client, ok := r.fwdPending[msg.Header.ID]
	if !ok {
		return
	}
	delete(r.fwdPending, msg.Header.ID)
	relay := *msg
	relay.Header.ID = client.id
	wire, err := relay.Pack()
	if err != nil {
		return
	}
	r.Responses++
	n.Send(client.src, client.dstPort, client.srcPort, wire)
}

// respondVersion answers a CHAOS-class query: version.bind (and the
// version.server alias) returns the software banner when the profile
// exposes one; everything else in class CH is refused, matching common
// resolver configurations.
func (r *Resolver) respondVersion(n *netsim.Node, dg netsim.Datagram, msg *dnswire.Message, q dnswire.Question) {
	resp := dnswire.NewResponse(msg)
	name := q.Name
	exposes := r.profile.Version != "" &&
		(name == "version.bind" || name == "version.server") &&
		(q.Type == dnswire.TypeTXT || q.Type == dnswire.TypeANY)
	if exposes {
		resp.Header.AA = true
		resp.Answers = append(resp.Answers, dnswire.RR{
			Name: name, Type: dnswire.TypeTXT, Class: dnswire.ClassCH,
			TTL: 0, Target: r.profile.Version,
		})
	} else {
		resp.Header.Rcode = dnswire.RcodeRefused
	}
	wire, err := resp.Pack()
	if err != nil {
		return
	}
	r.Responses++
	n.Send(dg.Src, dg.DstPort, dg.SrcPort, wire)
}

// respond builds and sends the R2 according to the profile. The query is
// reassembled from its qinfo capture into scratch, the response encoded
// into a pooled payload buffer; the emitted bytes are identical to the
// allocating BuildResponse(q, …).Pack() path for single-question queries
// (which all probe traffic is).
func (r *Resolver) respond(n *netsim.Node, qi qinfo, res dnssrv.Result) {
	qmsg, resp := &r.scratch.qmsg, &r.scratch.respMsg
	qmsg.Header = dnswire.Header{ID: qi.id, RD: qi.rd}
	qmsg.Questions = qmsg.Questions[:0]
	if qi.hasQ {
		qmsg.Questions = append(qmsg.Questions,
			dnswire.Question{Name: qi.name, Type: qi.qtype, Class: qi.qclass})
	}
	BuildResponseInto(resp, qmsg, r.profile, res)
	wire, err := resp.Append(n.PayloadBuf())
	if err != nil {
		return
	}
	r.Responses++
	n.SendPooled(qi.src, qi.dstPort, qi.srcPort, wire)
}

// BuildResponse constructs the R2 message a profile produces for query q,
// given the recursion result res (zero Result when Upstream is 0). It is
// shared by the discrete-event Resolver and the streaming synthetic mode
// (whose per-cluster Template is built with it), guaranteeing both modes
// emit byte-identical behaviour.
func BuildResponse(q *dnswire.Message, p Profile, res dnssrv.Result) *dnswire.Message {
	resp := new(dnswire.Message)
	BuildResponseInto(resp, q, p, res)
	return resp
}

// malformedRDATA is the undecodable A-record payload of AnswerMalformed.
// Shared and read-only: the encoder only ever reads RR.Data.
var malformedRDATA = []byte{0x00, 0x00}

// BuildResponseInto is BuildResponse writing into resp, whose section
// slices are reused across calls — the simulated resolvers answer every
// probe through one shared scratch message, and Template rebuilds through
// its own.
// resp must not alias q and must not be read after a subsequent call.
// The encoded bytes are identical to BuildResponse's (an omitted question
// section is length-0 rather than nil, which encodes the same).
func BuildResponseInto(resp *dnswire.Message, q *dnswire.Message, p Profile, res dnssrv.Result) {
	resp.Header = dnswire.Header{ID: q.Header.ID, QR: true, RD: q.Header.RD}
	resp.Questions = append(resp.Questions[:0], q.Questions...)
	resp.Answers = resp.Answers[:0]
	resp.Authority = resp.Authority[:0]
	resp.Additional = resp.Additional[:0]
	resp.Header.RA = p.RA
	resp.Header.AA = p.AA
	resp.Header.Rcode = p.Rcode
	if p.OmitQuestion {
		resp.Questions = resp.Questions[:0]
	}
	qname := ""
	if qst, ok := q.Question1(); ok {
		qname = qst.Name
	}
	switch p.Answer {
	case AnswerNone:
	case AnswerTruth:
		if res.OK {
			resp.AnswerA(uint32(res.Addr), 60)
		} else {
			// Recursion failed under an honest profile: report the failure
			// honestly (this happens around cluster-reload windows).
			resp.Header.Rcode = dnswire.RcodeServFail
		}
	case AnswerFixed:
		resp.AnswerA(uint32(p.Addr), 300)
	case AnswerCNAME:
		resp.Answers = append(resp.Answers, dnswire.RR{
			Name: qname, Type: dnswire.TypeCNAME, Class: dnswire.ClassIN,
			TTL: 300, Target: p.Name,
		})
	case AnswerTXT:
		resp.Answers = append(resp.Answers, dnswire.RR{
			Name: qname, Type: dnswire.TypeTXT, Class: dnswire.ClassIN,
			TTL: 300, Target: p.Name,
		})
	case AnswerMalformed:
		resp.Answers = append(resp.Answers, dnswire.RR{
			Name: qname, Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: 300, Data: malformedRDATA,
		})
	}
}

// Canned profile constructors for the taxonomy's common cases. The
// population compiler builds most profiles field-by-field; these are the
// named behaviours used in examples and tests.

// Honest returns a conforming open resolver: recursion on, RA set, truthful
// answers.
func Honest(upstream int) Profile {
	if upstream < 1 {
		upstream = 1
	}
	return Profile{RA: true, Answer: AnswerTruth, Upstream: upstream}
}

// Refuser returns a resolver that answers Refused with recursion
// unavailable — the single largest behaviour class in both campaigns.
func Refuser() Profile {
	return Profile{Rcode: dnswire.RcodeRefused, Answer: AnswerNone}
}

// Manipulator returns a resolver that redirects every query to addr without
// performing any resolution, with the flag pattern Table X found dominant
// (RA=0, AA=1, NoError).
func Manipulator(addr ipv4.Addr) Profile {
	return Profile{AA: true, Answer: AnswerFixed, Addr: addr}
}

// Forwarder returns a CPE-style proxy that relays queries to upstream and
// answers back verbatim.
func Forwarder(upstream ipv4.Addr) Profile {
	return Profile{ForwardTo: upstream}
}
