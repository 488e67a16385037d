package dnssrv

import (
	"testing"
	"time"

	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
)

// sharedEngines attaches two engines, on two nodes of one hierarchy, to
// one Tables.
func sharedEngines(t *testing.T) (*netsim.Sim, *netsim.Node, [2]*Recursive) {
	t.Helper()
	sim, _ := buildHierarchy(t, nil)
	var tables Tables
	var recs [2]*Recursive
	var node *netsim.Node
	for i := range recs {
		rec := new(Recursive)
		n := sim.Register(resAddr+ipv4.Addr(i), netsim.HostFunc(func(_ *netsim.Node, dg netsim.Datagram) {
			if msg, err := dnswire.Unpack(dg.Payload); err == nil && msg.Header.QR {
				rec.HandleResponse(msg)
			}
		}))
		tables.Attach(rec, n, rootAddr)
		recs[i], node = rec, n
	}
	return sim, node, recs
}

// resolveNow resolves qname on rec, runs the network to quiescence and
// returns the result and the upstream queries it took.
func resolveNow(t *testing.T, sim *netsim.Sim, rec *Recursive, qname string) (Result, uint64) {
	t.Helper()
	before := rec.UpstreamQueries
	var got Result
	calls := 0
	rec.Resolve(qname, func(r Result) { got = r; calls++ })
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("%s: done called %d times", qname, calls)
	}
	return got, rec.UpstreamQueries - before
}

// TestSharedTablesIsolateEngines: two engines sharing one Tables resolve
// the same names, and no answer, negative or referral entry of one ever
// serves the other.
func TestSharedTablesIsolateEngines(t *testing.T) {
	sim, _, recs := sharedEngines(t)
	a, b := recs[0], recs[1]
	name := FormatProbeName(0, 7, testSLD)
	nx := FormatProbeName(9, 1, testSLD) // inactive cluster → NXDomain

	if res, legs := resolveNow(t, sim, a, name); !res.OK || legs != 3 {
		t.Fatalf("A cold: %+v in %d legs, want an answer in 3", res, legs)
	}
	// B walks from the root: neither A's answer nor its referrals serve it.
	if res, legs := resolveNow(t, sim, b, name); !res.OK || legs != 3 || b.CacheHits != 0 {
		t.Fatalf("B after A: %+v in %d legs, %d cache hits; want an answer in 3 legs, 0 hits", res, legs, b.CacheHits)
	}
	if res, legs := resolveNow(t, sim, a, nx); res.Rcode != dnswire.RcodeNXDomain || legs != 1 {
		t.Fatalf("A nx: %+v in %d legs, want NXDomain in 1", res, legs)
	}
	// A's negative entry does not serve B either.
	if res, legs := resolveNow(t, sim, b, nx); res.Rcode != dnswire.RcodeNXDomain || legs != 1 || b.CacheHits != 0 {
		t.Fatalf("B nx after A: %+v in %d legs, %d cache hits; want NXDomain in 1 leg, 0 hits", res, legs, b.CacheHits)
	}
	// Each engine's own entries still serve it.
	for _, rec := range recs {
		for _, q := range []string{name, nx} {
			if _, legs := resolveNow(t, sim, rec, q); legs != 0 {
				t.Errorf("repeat of %s took %d legs, want a cache hit", q, legs)
			}
		}
		if rec.CacheHits != 2 || rec.Outstanding() != 0 {
			t.Errorf("cache hits %d, outstanding %d; want 2 and 0", rec.CacheHits, rec.Outstanding())
		}
	}
}

// TestSharedTablesExpireByEngine: A caches an answer and a negative answer,
// B caches the same two names later; once A's entries are past their TTL
// and B's are not, A re-queries and B is still served from its cache.
func TestSharedTablesExpireByEngine(t *testing.T) {
	for _, c := range []struct {
		kind string
		name string
		ttl  time.Duration
	}{
		{"answer", FormatProbeName(0, 7, testSLD), 60 * time.Second},
		{"negative", FormatProbeName(9, 1, testSLD), negativeTTL},
	} {
		sim, node, recs := sharedEngines(t)
		a, b := recs[0], recs[1]
		wait := func(d time.Duration) {
			node.After(d, func() {})
			if err := sim.Run(0); err != nil {
				t.Fatal(err)
			}
		}
		resolveNow(t, sim, a, c.name)
		wait(c.ttl / 2)
		resolveNow(t, sim, b, c.name)
		wait(c.ttl/2 + time.Second) // A's entry has expired, B's has not
		if _, legs := resolveNow(t, sim, a, c.name); legs != 1 || a.CacheHits != 0 {
			t.Errorf("%s: A after its TTL took %d legs with %d cache hits, want 1 leg, 0 hits", c.kind, legs, a.CacheHits)
		}
		if _, legs := resolveNow(t, sim, b, c.name); legs != 0 || b.CacheHits != 1 {
			t.Errorf("%s: B inside its TTL took %d legs with %d cache hits, want a cache hit", c.kind, legs, b.CacheHits)
		}
	}
}

// TestSharedTablesRejectOtherEnginesID: both engines number their legs
// from 1, so B's first leg has an ID A also uses; a response carrying it
// is B's, and A rejects it.
func TestSharedTablesRejectOtherEnginesID(t *testing.T) {
	sim, _, recs := sharedEngines(t)
	a, b := recs[0], recs[1]
	name := FormatProbeName(0, 7, testSLD)
	var got Result
	b.Resolve(name, func(r Result) { got = r })
	forged := dnswire.NewResponse(dnswire.NewQuery(1, name, dnswire.TypeA))
	forged.AnswerA(uint32(ipv4.MustParseAddr("6.6.6.6")), 60)
	if a.HandleResponse(forged) {
		t.Fatal("A accepted a response to B's transaction ID")
	}
	if a.Outstanding() != 0 || b.Outstanding() != 1 {
		t.Fatalf("outstanding A %d, B %d; want 0 and 1", a.Outstanding(), b.Outstanding())
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if want := TruthAddr(name); !got.OK || got.Addr != want {
		t.Errorf("B resolved %+v, want %v", got, want)
	}
}
