package dnssrv

import (
	"strings"
	"time"

	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
)

// DNSPort is the well-known DNS port.
const DNSPort = 53

// Tap observes packets at a server, standing in for the paper's tcpdump
// capture at the authoritative name server (Fig. 2: Q2 and R1).
type Tap interface {
	// Packet is called for each DNS message the server receives (inbound
	// true: a Q2) or sends (inbound false: an R1).
	Packet(inbound bool, at time.Duration, dg netsim.Datagram, msg *dnswire.Message)
}

// Referral describes a delegation: queries for names under Zone are to be
// sent to the name server at Addr (its glue address).
type Referral struct {
	Zone   string
	NSName string
	Addr   ipv4.Addr
}

// ReferralServer is a root or TLD name server: it answers every query with
// a downward referral (authority NS + glue A), or Refused when the name is
// outside all of its delegations. It stands in for the real root and .net
// infrastructure of Fig. 1, which the paper deliberately leaves out of its
// capture scope.
type ReferralServer struct {
	node      *netsim.Node
	referrals []Referral

	// Per-packet scratch; handlers finish with both before returning.
	qmsg, respMsg dnswire.Message
}

// NewReferralServer registers a referral server at addr on sim.
func NewReferralServer(sim *netsim.Sim, addr ipv4.Addr, referrals []Referral) *ReferralServer {
	s := &ReferralServer{referrals: append([]Referral(nil), referrals...)}
	s.node = sim.Register(addr, s)
	return s
}

// Addr returns the server's address.
func (s *ReferralServer) Addr() ipv4.Addr { return s.node.Addr() }

// HandleDatagram implements netsim.Host.
func (s *ReferralServer) HandleDatagram(n *netsim.Node, dg netsim.Datagram) {
	q := &s.qmsg
	if err := dnswire.UnpackInto(q, dg.Payload); err != nil || q.Header.QR {
		return
	}
	resp := &s.respMsg
	dnswire.NewResponseInto(resp, q)
	qst, ok := q.Question1()
	if !ok {
		resp.Header.Rcode = dnswire.RcodeFormErr
		reply(n, dg, resp)
		return
	}
	for _, r := range s.referrals {
		if qst.Name == r.Zone || strings.HasSuffix(qst.Name, "."+r.Zone) {
			resp.Authority = append(resp.Authority, dnswire.RR{
				Name: r.Zone, Type: dnswire.TypeNS, Class: dnswire.ClassIN,
				TTL: 172800, Target: r.NSName,
			})
			resp.Additional = append(resp.Additional, dnswire.RR{
				Name: r.NSName, Type: dnswire.TypeA, Class: dnswire.ClassIN,
				TTL: 172800, A: uint32(r.Addr),
			})
			reply(n, dg, resp)
			return
		}
	}
	resp.Header.Rcode = dnswire.RcodeRefused
	reply(n, dg, resp)
}

// reply encodes resp into a pooled payload buffer and returns it to the
// query's source; the buffer is recycled once the receiver is done with it.
func reply(n *netsim.Node, dg netsim.Datagram, resp *dnswire.Message) {
	wire, err := resp.Append(n.PayloadBuf())
	if err != nil {
		return
	}
	n.SendPooled(dg.Src, dg.DstPort, dg.SrcPort, wire)
}

// AuthServer is the measurement's authoritative name server: it serves the
// probe SLD with the two-tier subdomain cluster scheme of Fig. 3. Only the
// active cluster's subdomains resolve; queries for other clusters return
// NXDomain, and during a cluster reload (§III-B: about one minute per 5M
// subdomains) the server is silent, exactly like a BIND instance busy
// loading a zone.
type AuthServer struct {
	node *netsim.Node
	sld  string
	tap  Tap

	activeCluster int
	clusterSize   int
	anyName       bool
	reloadTime    time.Duration
	reloadUntil   time.Duration
	reloads       int

	// Per-packet scratch for the UDP path (the TCP path shares respMsg;
	// both encode before the next decode).
	qmsg, respMsg dnswire.Message

	// Stats.
	queries uint64
}

// AuthConfig parameterizes the authoritative server.
type AuthConfig struct {
	Addr ipv4.Addr
	// SLD is the zone origin (ucfsealresearch.net in the paper).
	SLD string
	// ClusterSize is the number of subdomains per cluster (5M in the paper).
	ClusterSize int
	// ReloadTime is how long a cluster load keeps the server silent.
	ReloadTime time.Duration
	// FirstCluster is the cluster pre-loaded at startup: 0 for a whole
	// campaign, a shard's namespace base in the parallel simulation (each
	// shard probes a disjoint cluster range so merged captures never collide
	// on a qname). Like cluster 0 of a serial run, the initial load is free —
	// the server starts ready, with no reload silence.
	FirstCluster int
	// Tap, if set, observes Q2/R1 packets.
	Tap Tap
	// AnyName disables the probe-name cluster discipline: every name under
	// the SLD resolves to its TruthAddr. Used for general-purpose zones
	// (e.g. the client-workload simulation), not for measurement campaigns.
	AnyName bool
}

// NewAuthServer registers the authoritative server on sim, with cluster
// cfg.FirstCluster loaded and ready.
func NewAuthServer(sim *netsim.Sim, cfg AuthConfig) *AuthServer {
	s := &AuthServer{
		sld:           dnswire.CanonicalName(cfg.SLD),
		tap:           cfg.Tap,
		clusterSize:   cfg.ClusterSize,
		activeCluster: cfg.FirstCluster,
	}
	if s.clusterSize <= 0 {
		s.clusterSize = 1 << 20
	}
	s.anyName = cfg.AnyName
	s.reloadTime = cfg.ReloadTime
	s.node = sim.Register(cfg.Addr, s)
	// DNS over TCP (RFC 7766): serve the zone on a stream listener too,
	// for clients retrying truncated UDP responses.
	sim.Listen(cfg.Addr, DNSPort, s.acceptTCP)
	return s
}

// acceptTCP serves framed queries on one connection.
func (s *AuthServer) acceptTCP(c *netsim.Conn) {
	parser := &dnswire.StreamParser{}
	c.OnData(func(b []byte) {
		msgs, err := parser.Feed(b)
		if err != nil {
			c.Close()
			return
		}
		for _, q := range msgs {
			if q.Header.QR {
				continue
			}
			s.queries++
			if !s.buildResponseInto(&s.respMsg, q) {
				continue
			}
			wire, err := s.respMsg.PackTCP()
			if err != nil {
				continue
			}
			c.Send(wire)
		}
	})
}

// Addr returns the server's address.
func (s *AuthServer) Addr() ipv4.Addr { return s.node.Addr() }

// ActiveCluster returns the loaded cluster number.
func (s *AuthServer) ActiveCluster() int { return s.activeCluster }

// QueriesSeen returns the number of Q2 packets received.
func (s *AuthServer) QueriesSeen() uint64 { return s.queries }

// SetCluster loads cluster c: the server goes silent for ReloadTime of
// virtual time (the paper's one-minute zone load), then serves c.
func (s *AuthServer) SetCluster(c int) {
	if c == s.activeCluster && s.reloads > 0 {
		return
	}
	s.activeCluster = c
	s.reloads++
	s.reloadUntil = s.node.Now() + s.reloadTime
}

// HandleDatagram implements netsim.Host (the UDP service). Scratch decode
// and encode: the tap observers copy what they keep before returning.
func (s *AuthServer) HandleDatagram(n *netsim.Node, dg netsim.Datagram) {
	q := &s.qmsg
	if err := dnswire.UnpackInto(q, dg.Payload); err != nil || q.Header.QR {
		return
	}
	s.queries++
	if s.tap != nil {
		s.tap.Packet(true, n.Now(), dg, q)
	}
	if !s.buildResponseInto(&s.respMsg, q) {
		return
	}
	// UDP responses honor the client's EDNS budget (RFC 1035 §4.2.1 /
	// RFC 6891); oversized answers truncate and set TC.
	wire, err := s.respMsg.AppendTruncated(n.PayloadBuf(), q.MaxResponseSize())
	if err != nil {
		return
	}
	if s.tap != nil {
		s.tap.Packet(false, n.Now(), netsim.Datagram{
			Src: n.Addr(), Dst: dg.Src, SrcPort: dg.DstPort, DstPort: dg.SrcPort,
			Payload: wire,
		}, &s.respMsg)
	}
	n.SendPooled(dg.Src, dg.DstPort, dg.SrcPort, wire)
}

// buildResponseInto constructs the answer for one query into resp; it
// returns false while a zone reload keeps the server silent.
func (s *AuthServer) buildResponseInto(resp *dnswire.Message, q *dnswire.Message) bool {
	if s.node.Now() < s.reloadUntil {
		// Zone load in progress: BIND answers nothing.
		return false
	}
	dnswire.NewResponseInto(resp, q)
	qst, ok := q.Question1()
	switch {
	case !ok:
		resp.Header.Rcode = dnswire.RcodeFormErr
	case qst.Name != s.sld && !strings.HasSuffix(qst.Name, "."+s.sld):
		// Not our zone: a lame query; refuse.
		resp.Header.Rcode = dnswire.RcodeRefused
	default:
		resp.Header.AA = true // we are authoritative for the SLD
		if s.anyName {
			if qst.Type == dnswire.TypeA || qst.Type == dnswire.TypeANY {
				resp.AnswerA(uint32(TruthAddr(qst.Name)), 300)
			}
			break
		}
		pn, err := ParseProbeName(qst.Name, s.sld)
		switch {
		case err != nil:
			// The SLD apex or a non-probe name: NXDomain.
			resp.Header.Rcode = dnswire.RcodeNXDomain
		case pn.Cluster != s.activeCluster || pn.Index < 0 || pn.Index >= s.clusterSize:
			// Fig. 3: only the active cluster's zone file is loaded.
			resp.Header.Rcode = dnswire.RcodeNXDomain
		default:
			if qst.Type == dnswire.TypeA || qst.Type == dnswire.TypeANY {
				resp.AnswerA(uint32(TruthAddr(qst.Name)), 60)
			}
		}
	}
	return true
}
