// Package classify infers each responder's role from the correlation of
// the two capture points of Fig. 2: the prober's R2 log and the
// authoritative server's Q2 log, joined by qname (§III-B's flow grouping).
//
// It formalizes two of the paper's methodological arguments as a
// measurement:
//
//   - §IV-C ("DNS Manipulation"): every probe qname is freshly created, so
//     a responder that returns an answer *without its flow ever reaching
//     the authoritative server* cannot be serving a cache — it fabricates
//     answers. "It is more plausible to say that the open resolver itself
//     is under the adversary's control."
//
//   - §VI (Schomp et al.): responders split into true recursives (the Q2
//     source is the responder itself) and forwarders/proxies (the Q2 for
//     their flow arrives from a different address — the hidden egress
//     resolver).
package classify

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"openresolver/internal/capture"
	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
)

// Role is a responder's inferred role.
type Role uint8

// Responder roles.
const (
	// RoleRecursive resolved the probe itself: the auth server saw the
	// flow's Q2 from the responder's own address.
	RoleRecursive Role = iota + 1
	// RoleForwarder relayed the probe: the flow's Q2 arrived from a
	// different address (the egress resolver behind the proxy).
	RoleForwarder
	// RoleFabricator answered with records although its flow never reached
	// the authoritative server — the §IV-C manipulation signature.
	RoleFabricator
	// RoleNonResolving responded without an answer and without resolving
	// (refusers, ServFail-ers, and the §IV-B deviants without answers).
	RoleNonResolving
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleRecursive:
		return "recursive"
	case RoleForwarder:
		return "forwarder"
	case RoleFabricator:
		return "fabricator"
	case RoleNonResolving:
		return "non-resolving"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// Verdict is one responder's classification.
type Verdict struct {
	Responder ipv4.Addr
	Role      Role
	// Egress lists the distinct upstream sources observed at the
	// authoritative server for this responder's flows (for forwarders,
	// the hidden resolvers).
	Egress []ipv4.Addr
	// HadAnswer reports whether the R2 carried answer records.
	HadAnswer bool
}

// Summary aggregates verdicts by role.
type Summary struct {
	Verdicts []Verdict
	ByRole   map[Role]int
}

// Index is the authoritative side of the join, built incrementally: every
// probe qname seen in a Q2, mapped to the distinct sources that sent it, in
// arrival order. It holds one small record per qname instead of the Q2
// packets themselves, so a capture point can feed it live and drop the
// packets.
type Index struct {
	// slot maps a qname to its entry in first. Keys are owned copies:
	// callers pass names that alias a reused decode arena.
	slot map[string]int32
	// first holds each qname's first Q2 source, the only one almost every
	// qname ever has.
	first []ipv4.Addr
	// more holds the further distinct sources of the rare qname that has
	// several (a forwarder fanning out to more than one egress resolver).
	more map[int32][]ipv4.Addr
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{slot: make(map[string]int32)}
}

// AddQ2 records that a Q2 for qname arrived from src. qname may alias a
// reused decode buffer: the index copies it on first sight and never
// re-assigns through it.
func (ix *Index) AddQ2(qname string, src ipv4.Addr) {
	i, ok := ix.slot[qname]
	if !ok {
		ix.slot[strings.Clone(qname)] = int32(len(ix.first))
		ix.first = append(ix.first, src)
		return
	}
	if ix.first[i] == src || containsAddr(ix.more[i], src) {
		return
	}
	if ix.more == nil {
		ix.more = make(map[int32][]ipv4.Addr)
	}
	ix.more[i] = append(ix.more[i], src)
}

// sources returns qname's distinct Q2 sources in arrival order, or nil.
func (ix *Index) sources(qname string) []ipv4.Addr {
	i, ok := ix.slot[qname]
	if !ok {
		return nil
	}
	return append([]ipv4.Addr{ix.first[i]}, ix.more[i]...)
}

// Classify joins the prober-side R2 packets with the indexed Q2 sources by
// qname and classifies every responder, by its first decodable R2.
// Verdicts are sorted by responder.
func (ix *Index) Classify(r2 *capture.Log) *Summary {
	var (
		msg      dnswire.Message
		verdicts []Verdict
	)
	seen := make(map[ipv4.Addr]bool)
	for it := r2.Iter(); it.Next(); {
		p := it.Packet()
		if p.Kind != capture.KindR2 || seen[p.Src] {
			continue
		}
		if dnswire.UnpackInto(&msg, p.Payload) != nil {
			continue
		}
		var sources []ipv4.Addr
		if q, ok := msg.Question1(); ok {
			sources = ix.sources(q.Name)
		}
		hadAnswer := len(msg.Answers) > 0

		var role Role
		switch {
		case len(sources) == 0 && hadAnswer:
			role = RoleFabricator
		case len(sources) == 0:
			role = RoleNonResolving
		case len(sources) == 1 && sources[0] == p.Src:
			role = RoleRecursive
		default:
			role = RoleForwarder
		}
		seen[p.Src] = true
		verdicts = append(verdicts, Verdict{
			Responder: p.Src,
			Role:      role,
			Egress:    sources,
			HadAnswer: hadAnswer,
		})
	}
	slices.SortFunc(verdicts, func(a, b Verdict) int { return cmp.Compare(a.Responder, b.Responder) })
	return Summarize(verdicts)
}

// Classify joins the prober-side R2 packets with the authoritative-side Q2
// packets by qname and classifies every responder. Either log may be nil.
func Classify(r2, auth *capture.Log) *Summary {
	ix := NewIndex()
	var msg dnswire.Message
	for it := auth.Iter(); it.Next(); {
		p := it.Packet()
		if p.Kind != capture.KindQ2 || dnswire.UnpackInto(&msg, p.Payload) != nil {
			continue
		}
		if q, ok := msg.Question1(); ok {
			ix.AddQ2(q.Name, p.Src)
		}
	}
	return ix.Classify(r2)
}

// Merge folds per-part summaries, in part order, into one: a responder
// keeps the verdict of the first part that classified it, and the result
// is sorted by responder. Summaries of captures split by qname — where
// every qname's Q2s and R2s fall in the same part — merge to exactly the
// Summary of the whole capture.
func Merge(parts []*Summary) *Summary {
	var verdicts []Verdict
	seen := make(map[ipv4.Addr]bool)
	for _, s := range parts {
		for _, v := range s.Verdicts {
			if !seen[v.Responder] {
				seen[v.Responder] = true
				verdicts = append(verdicts, v)
			}
		}
	}
	slices.SortFunc(verdicts, func(a, b Verdict) int { return cmp.Compare(a.Responder, b.Responder) })
	return Summarize(verdicts)
}

// Summarize wraps verdicts, already sorted by responder, in a Summary with
// their per-role counts.
func Summarize(verdicts []Verdict) *Summary {
	s := &Summary{Verdicts: verdicts, ByRole: make(map[Role]int)}
	for _, v := range verdicts {
		s.ByRole[v.Role]++
	}
	return s
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

// Render formats the role counts.
func (s *Summary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Responder roles (prober × auth capture correlation):\n")
	for _, role := range []Role{RoleRecursive, RoleForwarder, RoleFabricator, RoleNonResolving} {
		fmt.Fprintf(&b, "  %-14s %d\n", role, s.ByRole[role])
	}
	return b.String()
}

func containsAddr(list []ipv4.Addr, a ipv4.Addr) bool {
	for _, x := range list {
		if x == a {
			return true
		}
	}
	return false
}
