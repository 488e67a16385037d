package behavior

import (
	"runtime"
	"testing"
	"time"

	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
)

// resolveWorld is a simulated shard's view of reaching resolvers: a
// hierarchy (root → TLD → auth), a client, and n resolver addresses with
// one cold probe query each, encoded up front so the client allocates
// nothing. Every resolver is built on the world's one Scratch, as the
// dormant stubs of a shard build theirs.
type resolveWorld struct {
	sim      *netsim.Sim
	client   *netsim.Node
	scratch  Scratch
	addrs    []ipv4.Addr
	wires    [][]byte
	next     int
	answered int
}

func newResolveWorld(tb testing.TB, n int) *resolveWorld {
	tb.Helper()
	sim := netsim.New(netsim.Config{Seed: 1, Latency: netsim.UniformLatency(10*time.Millisecond, 80*time.Millisecond)})
	dnssrv.NewReferralServer(sim, rootAddr, []dnssrv.Referral{
		{Zone: "net", NSName: "a.gtld-servers.net", Addr: tldAddr},
	})
	dnssrv.NewReferralServer(sim, tldAddr, []dnssrv.Referral{
		{Zone: testSLD, NSName: "ns1." + testSLD, Addr: authAddr},
	})
	dnssrv.NewAuthServer(sim, dnssrv.AuthConfig{Addr: authAddr, SLD: testSLD, ClusterSize: n})
	w := &resolveWorld{sim: sim, addrs: make([]ipv4.Addr, n), wires: make([][]byte, n)}
	w.client = sim.Register(proberAddr, netsim.HostFunc(func(_ *netsim.Node, dg netsim.Datagram) {
		// NoError (low rcode bits of byte 3) with one answer record.
		if p := dg.Payload; len(p) >= 8 && p[3]&0xF == 0 && p[6] == 0 && p[7] == 1 {
			w.answered++
		}
	}))
	// Every address is registered up front, as a shard registers its
	// dormant stubs; reaching one replaces the host on the same node.
	dormant := netsim.HostFunc(func(*netsim.Node, netsim.Datagram) {})
	for i := range w.addrs {
		w.addrs[i] = resvAddr + ipv4.Addr(i)
		sim.Register(w.addrs[i], dormant)
		w.wires[i] = dnswire.NewQuery(uint16(i), dnssrv.FormatProbeName(0, i, testSLD), dnswire.TypeA).MustPack()
	}
	return w
}

// reach builds the next honest resolver on the world's shared Scratch,
// sends it its probe, and runs the network until the resolution and every
// timer it armed are done.
func (w *resolveWorld) reach(tb testing.TB) {
	addr := w.addrs[w.next]
	NewResolverTuned(w.sim, addr, rootAddr, Honest(2), nil, &w.scratch)
	w.client.Send(addr, 40000, dnssrv.DNSPort, w.wires[w.next])
	w.next++
	if err := w.sim.Run(0); err != nil {
		tb.Fatal(err)
	}
}

// TestReachedResolverBudget is the per-resolver memory budget of a warmed
// shard: reaching a new honest resolver and resolving one cold name
// through root → TLD → auth costs at most 3 heap allocations — the
// Resolver, its pinned qname and the answer callback — and leaves at most
// 640 bytes live. Allocations are counted per batch of 16 resolvers
// because AllocsPerRun truncates its mean; live bytes are the heap growth
// after GC over 4,000 resolvers.
func TestReachedResolverBudget(t *testing.T) {
	const (
		warm      = 256
		allocRuns = 20
		live      = 4000
	)
	w := newResolveWorld(t, warm+(allocRuns+1)*16+live)
	for range warm {
		w.reach(t)
	}
	per16 := testing.AllocsPerRun(allocRuns, func() {
		for range 16 {
			w.reach(t)
		}
	})
	if per16 > 3*16 {
		t.Errorf("reaching a resolver allocates %.2f times, want ≤ 3", per16/16)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range live {
		w.reach(t)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perResolver := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / live
	t.Logf("per reached resolver: %.2f allocations, %d B live", per16/16, perResolver)
	if perResolver > 640 {
		t.Errorf("a reached resolver keeps %d B live, want ≤ 640", perResolver)
	}
	if w.answered != w.next {
		t.Errorf("%d of %d resolutions answered", w.answered, w.next)
	}
	runtime.KeepAlive(w)
}

// BenchmarkRecursiveResolve is recursive resolution per query through the
// netsim shell: each op is a newly reached honest resolver answering one
// probe by resolving its cold name through root → TLD → auth. A world
// holds 4,096 resolvers; when they are used up the next world is built off
// the clock, so memory stays bounded at any b.N.
func BenchmarkRecursiveResolve(b *testing.B) {
	const perWorld = 4096
	b.ReportAllocs()
	var w *resolveWorld
	for i := 0; i < b.N; i++ {
		if w == nil || w.next == perWorld {
			b.StopTimer()
			if w != nil && w.answered != w.next {
				b.Fatalf("%d of %d resolutions answered", w.answered, w.next)
			}
			w = newResolveWorld(b, perWorld)
			b.StartTimer()
		}
		w.reach(b)
	}
	if w.answered != w.next {
		b.Fatalf("%d of %d resolutions answered", w.answered, w.next)
	}
}
