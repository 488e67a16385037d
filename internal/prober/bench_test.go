package prober

import (
	"testing"
	"time"

	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
	"openresolver/internal/scan"
)

// BenchmarkProberSend times a running campaign's send path per probe
// sent: ticks, sweeps, sends, and timeouts that return the subdomains,
// with every target either a silent host that never answers (routed) or
// an address with no host (unrouted). The universe walk restarts when it
// runs out, so any b.N is one steady campaign.
func BenchmarkProberSend(b *testing.B) {
	b.Run("routed", func(b *testing.B) { benchProberSend(b, true) })
	b.Run("unrouted", func(b *testing.B) { benchProberSend(b, false) })
}

func benchProberSend(b *testing.B, routed bool) {
	sim := netsim.New(netsim.Config{Seed: 1, Latency: netsim.UniformLatency(10*time.Millisecond, 80*time.Millisecond)})
	u, err := scan.NewUniverse(42, 16, nil)
	if err != nil {
		b.Fatal(err)
	}
	if routed {
		silent := netsim.HostFunc(func(*netsim.Node, netsim.Datagram) {})
		for it := u.Iterate(); ; {
			a, ok := it.Next()
			if !ok {
				break
			}
			sim.Register(a, silent)
		}
	}
	p, err := Start(sim, Config{
		Addr: proberAddr, Universe: u, SLD: sld, ClusterSize: 1 << 16,
		PacketsPerSec: 100_000, Timeout: 200 * time.Millisecond,
		Skip: func(a ipv4.Addr) bool { return a == proberAddr },
	})
	if err != nil {
		b.Fatal(err)
	}
	run := func(n uint64) {
		for p.sent < n {
			if p.exhausted {
				p.it, p.exhausted = u.Iterate(), false
			}
			if _, err := sim.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
	run(1 << 17) // warm the payload pool, the wheel's slots and the event queue
	b.ReportAllocs()
	b.ResetTimer()
	run(p.sent + uint64(b.N))
}
