package core

import (
	"runtime"
	"testing"

	"openresolver/internal/analysis"
	"openresolver/internal/behavior"
	"openresolver/internal/geo"
	"openresolver/internal/ipv4"
	"openresolver/internal/obs"
	"openresolver/internal/paperdata"
	"openresolver/internal/population"
	"openresolver/internal/scan"
	"openresolver/internal/threatintel"
)

// synthProbeCohorts covers every answer kind, and the empty-question form,
// for the per-probe tests and benchmarks.
var synthProbeCohorts = []struct {
	name    string
	profile behavior.Profile
}{
	{"truth", behavior.Honest(1)},
	{"no-answer", behavior.Refuser()},
	{"fixed", behavior.Manipulator(ipv4.MustParseAddr("203.0.113.7"))},
	{"empty-question", behavior.Profile{
		RA: true, OmitQuestion: true, Answer: behavior.AnswerFixed,
		Addr: ipv4.MustParseAddr("192.168.1.1"),
	}},
	{"cname", behavior.Profile{RA: true, Answer: behavior.AnswerCNAME, Name: "www.example-ads.com"}},
	{"txt", behavior.Profile{AA: true, Answer: behavior.AnswerTXT, Name: "it works"}},
	{"malformed", behavior.Profile{RA: true, Answer: behavior.AnswerMalformed}},
}

// probeRig is the per-probe tests' shared setup: an assigner over an
// unpinned universe and the accumulator configuration.
type probeRig struct {
	assigner *population.Assigner
	accCfg   analysis.Config
}

func newProbeRig(tb testing.TB, shift uint8) *probeRig {
	tb.Helper()
	pop := &population.Population{Year: paperdata.Y2018, Cohorts: []population.Cohort{{Count: 1 << 12}}}
	u, err := scan.NewUniverse(1, shift, ipv4.NewReservedBlocklist())
	if err != nil {
		tb.Fatal(err)
	}
	reg := geo.DefaultRegistry()
	a, err := population.NewAssigner(u, reg, pop, ProberAddr, RootAddr, TLDAddr, AuthAddr)
	if err != nil {
		tb.Fatal(err)
	}
	feed := threatintel.NewFeed(paperdata.Y2018, 1)
	return &probeRig{assigner: a, accCfg: analysis.Config{Year: paperdata.Y2018, Threat: feed.DB, Geo: reg}}
}

// worker returns a fresh synthWorker, drawing from the rig's first address
// on, and an unpinned cohort with profile p to probe it with.
func (r *probeRig) worker(p behavior.Profile, clusterSize uint64) (*synthWorker, *population.Cohort) {
	return &synthWorker{
		clusterSize: clusterSize,
		assigner:    r.assigner.Fork(),
		acc:         analysis.NewAccumulator(r.accCfg),
	}, &population.Cohort{Profile: p}
}

// TestSynthProbeZeroAlloc pins the steady-state synthetic probe path —
// address draw, template rebuild, patch, metrics and accumulate —
// at zero allocations per probe, with and without metrics, for every answer
// kind. One measured run is a whole cluster, so every run crosses one
// cluster rollover and rebuilds the template: any allocation in a rebuild
// shows as a whole allocation per run, not a fraction rounded away.
func TestSynthProbeZeroAlloc(t *testing.T) {
	const clusterSize = 16
	rig := newProbeRig(t, 12)
	for _, tc := range synthProbeCohorts {
		for _, withObs := range []bool{false, true} {
			w, c := rig.worker(tc.profile, clusterSize)
			if withObs {
				w.obs = obs.NewRegistry().NewShard("synth-0")
			}
			var g uint64
			cluster := func() {
				for i := 0; i < clusterSize; i++ {
					if err := w.probe(c, g); err != nil {
						t.Fatal(err)
					}
					g++
				}
			}
			for i := 0; i < 4; i++ {
				cluster() // grow the scratch buffers to their steady state
			}
			if avg := testing.AllocsPerRun(100, cluster); avg != 0 {
				t.Errorf("%s (metrics %v): %.2f allocs per cluster of %d probes, want 0", tc.name, withObs, avg, clusterSize)
			}
		}
	}
}

// BenchmarkSynthProbe measures the synthetic engine's per-probe path —
// address draw, decoded response, metrics and accumulate — for each
// answer kind, at the cluster size of a shift-10 campaign.
func BenchmarkSynthProbe(b *testing.B) {
	// A shift-8 universe has about 14M eligible addresses; the worker
	// starts over on a fresh fork of the rig's assigner every 4M probes.
	const restart = 1 << 22
	rig := newProbeRig(b, 8)
	clusterSize := uint64(Config{SampleShift: 10}.scaledClusterSize())
	for _, tc := range synthProbeCohorts {
		b.Run(tc.name, func(b *testing.B) {
			w, c := rig.worker(tc.profile, clusterSize)
			w.obs = obs.NewRegistry().NewShard("synth-0")
			runtime.GC() // no collection left over from setup runs inside the timed loop
			b.ReportAllocs()
			b.ResetTimer()
			for g := uint64(0); g < uint64(b.N); g++ {
				if g > 0 && g%restart == 0 {
					b.StopTimer()
					w.assigner = rig.assigner.Fork()
					b.StartTimer()
				}
				if err := w.probe(c, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
