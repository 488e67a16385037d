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
// an address with no host (unrouted). The impaired case sends to
// unrouted targets through perfbench's sim-chaos-2018 pipeline with three
// retries, so most sends are retransmissions and every one runs the fault
// pipeline. The universe walk restarts when it runs out, so any b.N is one
// steady campaign.
func BenchmarkProberSend(b *testing.B) {
	b.Run("routed", func(b *testing.B) { benchProberSend(b, true, "") })
	b.Run("unrouted", func(b *testing.B) { benchProberSend(b, false, "") })
	b.Run("impaired", func(b *testing.B) { benchProberSend(b, false, chaosStack) })
}

// chaosStack is perfbench's sim-chaos-2018 impairment pipeline.
const chaosStack = "ge:0.05,0.2,0.125,1.0;dup:0.1;reorder:0.2,40ms;corrupt:0.05;brownout:5s,20s,0.8"

func benchProberSend(b *testing.B, routed bool, impairments string) {
	cfg := netsim.Config{Seed: 1, Latency: netsim.UniformLatency(10*time.Millisecond, 80*time.Millisecond)}
	retries := 0
	if impairments != "" {
		imps, err := netsim.ParseImpairments(impairments)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Impairments, retries = imps, 3
	}
	sim := netsim.New(cfg)
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
		PacketsPerSec: 100_000, Timeout: 200 * time.Millisecond, Retries: retries,
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
