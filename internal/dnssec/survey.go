package dnssec

import (
	"fmt"
	"time"

	"openresolver/internal/behavior"
	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
)

// Validator survey, after the studies the paper cites in §VI (Fukuda et
// al., "A technique for counting DNSSEC validators"; Yu et al.,
// "Check-Repeat"): a controlled zone serves one name with a valid
// signature and one with a deliberately corrupted signature; a resolver
// that answers the first but rejects the second (ServFail) validates.

// SignedAuthServer is an authoritative server for one signed zone: every
// name resolves to its TruthAddr with an RRSIG; names under the "bogus"
// label are served with a corrupted signature.
type SignedAuthServer struct {
	key     *KeyPair
	queries uint64
}

// BogusLabel marks names served with corrupted signatures.
const BogusLabel = "bogus"

// NewSignedAuthServer registers the signed zone at addr.
func NewSignedAuthServer(sim *netsim.Sim, addr ipv4.Addr, key *KeyPair) *SignedAuthServer {
	s := &SignedAuthServer{key: key}
	sim.Register(addr, s)
	return s
}

// QueriesSeen returns the number of queries served.
func (s *SignedAuthServer) QueriesSeen() uint64 { return s.queries }

// HandleDatagram implements netsim.Host.
func (s *SignedAuthServer) HandleDatagram(n *netsim.Node, dg netsim.Datagram) {
	q, err := dnswire.Unpack(dg.Payload)
	if err != nil || q.Header.QR {
		return
	}
	s.queries++
	resp := dnswire.NewResponse(q)
	resp.Header.AA = true
	qst, ok := q.Question1()
	if !ok {
		resp.Header.Rcode = dnswire.RcodeFormErr
	} else if qst.Type == dnswire.TypeDNSKEY {
		resp.Answers = append(resp.Answers, s.key.DNSKEY())
	} else if qst.Type == dnswire.TypeA || qst.Type == dnswire.TypeANY {
		a := dnswire.RR{
			Name: qst.Name, Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: 60, A: uint32(dnssrv.TruthAddr(qst.Name)),
		}
		resp.Answers = append(resp.Answers, a)
		// Sign regardless of the DO bit (signed zones serve RRSIGs to
		// DO-setting queries; our survey always sets DO).
		if e, hasEDNS := q.GetEDNS(); hasEDNS && e.DO {
			sig, err := s.key.Sign(qst.Name, []dnswire.RR{a}, n.Now())
			if err == nil {
				if isBogusName(qst.Name) {
					// Corrupt the signature: flip bits in the tail.
					sig.Data[len(sig.Data)-1] ^= 0xFF
					sig.Data[len(sig.Data)-2] ^= 0xFF
				}
				resp.Answers = append(resp.Answers, sig)
			}
		}
	}
	wire, err := resp.Pack()
	if err != nil {
		return
	}
	n.Send(dg.Src, dg.DstPort, dg.SrcPort, wire)
}

func isBogusName(name string) bool {
	return len(name) >= len(BogusLabel) && name[:len(BogusLabel)] == BogusLabel
}

// SurveyConfig parameterizes the validator count.
type SurveyConfig struct {
	// Resolvers is the surveyed pool size.
	Resolvers int
	// ValidatorFraction is the share of resolvers that validate.
	ValidatorFraction float64
	// Seed drives the simulation.
	Seed int64
}

// SurveyResult is the outcome of the count.
type SurveyResult struct {
	Probed int
	// Validators answered the valid name and rejected the bogus one.
	Validators int
	// NonValidating answered both names.
	NonValidating int
	// Inconclusive covers every other response pattern.
	Inconclusive int
}

// Rate returns the measured validator share.
func (r *SurveyResult) Rate() float64 {
	if r.Probed == 0 {
		return 0
	}
	return float64(r.Validators) / float64(r.Probed)
}

// Survey addresses.
var (
	surveyAuthAddr   = ipv4.MustParseAddr("45.76.3.3")
	surveyProberAddr = ipv4.MustParseAddr("132.170.3.11")
	resolverBase     = ipv4.MustParseAddr("33.0.0.0")
)

// RunSurvey builds the pool, probes each resolver with a valid and a bogus
// name (the check-repeat methodology), and tabulates validators.
func RunSurvey(cfg SurveyConfig) (*SurveyResult, error) {
	if cfg.Resolvers <= 0 {
		return nil, fmt.Errorf("dnssec: resolvers must be positive")
	}
	if cfg.ValidatorFraction < 0 || cfg.ValidatorFraction > 1 {
		return nil, fmt.Errorf("dnssec: validator fraction out of range")
	}
	sim := netsim.New(netsim.Config{
		Seed:    cfg.Seed,
		Latency: netsim.UniformLatency(2*time.Millisecond, 20*time.Millisecond),
	})
	key, err := GenerateKey("signed-zone.net", cfg.Seed)
	if err != nil {
		return nil, err
	}
	NewSignedAuthServer(sim, surveyAuthAddr, key)
	validator := NewValidator(key)

	// The pool: honest open resolvers pointed directly at the signed zone's
	// server, all requesting signatures, the first nValidators validating.
	nValidators := int(float64(cfg.Resolvers) * cfg.ValidatorFraction)
	targets := make([]ipv4.Addr, cfg.Resolvers)
	scratch := new(behavior.Scratch)
	for i := range targets {
		addr := resolverBase + ipv4.Addr(i+1)
		targets[i] = addr
		tune := func(rec *dnssrv.Recursive) {
			rec.DNSSEC = true
			if i < nValidators {
				rec.Validate = validator.ValidateMessage
			}
		}
		behavior.NewResolverTuned(sim, addr, surveyAuthAddr, behavior.Honest(1), tune, scratch)
	}

	// Probe: two queries per resolver, unique names to defeat caches.
	type probeState struct {
		validOK, bogusOK, bogusServFail, answered int
	}
	states := make(map[ipv4.Addr]*probeState, len(targets))
	prober := sim.Register(surveyProberAddr, netsim.HostFunc(func(n *netsim.Node, dg netsim.Datagram) {
		msg, err := dnswire.Unpack(dg.Payload)
		if err != nil || !msg.Header.QR {
			return
		}
		st := states[dg.Src]
		if st == nil {
			return
		}
		st.answered++
		q, ok := msg.Question1()
		if !ok {
			return
		}
		_, hasA := msg.FirstA()
		switch {
		case isBogusName(q.Name) && hasA:
			st.bogusOK++
		case isBogusName(q.Name) && msg.Header.Rcode == dnswire.RcodeServFail:
			st.bogusServFail++
		case hasA:
			st.validOK++
		}
	}))
	var id uint16
	for i, target := range targets {
		states[target] = &probeState{}
		for _, name := range []string{
			fmt.Sprintf("valid%06d.signed-zone.net", i),
			fmt.Sprintf("%s%06d.signed-zone.net", BogusLabel, i),
		} {
			id++
			q := dnswire.NewQuery(id, name, dnswire.TypeA)
			prober.Send(target, 40000, dnssrv.DNSPort, q.MustPack())
		}
	}
	if err := sim.Run(0); err != nil {
		return nil, err
	}

	res := &SurveyResult{Probed: len(targets)}
	for _, st := range states {
		switch {
		case st.validOK == 1 && st.bogusServFail == 1:
			res.Validators++
		case st.validOK == 1 && st.bogusOK == 1:
			res.NonValidating++
		default:
			res.Inconclusive++
		}
	}
	return res, nil
}
