package core

import (
	"math"
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

// probeStream runs probes of one unpinned cohort through a synthWorker,
// shard by shard, the way the synthetic engine runs a shard: each shard's
// source addresses are drawn, then synthesized, read in place.
type probeStream struct {
	w    *synthWorker
	pop  *population.Population
	a    *population.Assigner
	buf  []ipv4.Addr // the running shard's draws, then at most 3 drawn past it
	n    int         // the running shard's draws in buf
	step uint64      // the next walk step
	one  [1][]ipv4.Addr
	g    uint64 // the next shard's first global probe index
}

// stream returns a stream on a fresh synthWorker, for shards of up to
// maxShard probes, that draws from the rig's first address on and probes
// a cohort with profile p.
func (r *probeRig) stream(p behavior.Profile, clusterSize, maxShard uint64) *probeStream {
	return &probeStream{
		w: &synthWorker{
			clusterSize: clusterSize,
			acc:         analysis.NewAccumulator(r.accCfg),
		},
		pop: &population.Population{Cohorts: []population.Cohort{{Count: math.MaxUint64, Profile: p}}},
		a:   r.assigner,
		buf: make([]ipv4.Addr, 0, maxShard+3),
	}
}

// next draws and synthesizes the next n probes as one shard. It walks as
// many steps as draws are missing, rounded up to a group of four, so it
// draws at most three past the shard, which the next shard takes first.
func (s *probeStream) next(n uint64) error {
	p := shardPlan{start: s.g, end: s.g + n, offset: s.g}
	s.g += n
	s.buf = s.buf[:copy(s.buf, s.buf[s.n:])]
	for uint64(len(s.buf)) < n {
		hi := min(s.step+(n-uint64(len(s.buf))+3)&^3, s.a.Steps())
		if hi == s.step {
			return population.ErrUniverseExhausted
		}
		s.buf, s.step = s.a.AppendSteps(s.buf, s.step, hi), hi
	}
	s.n = int(n)
	s.one[0] = s.buf[:n]
	s.w.src.walk = s.one[:]
	return s.w.run(s.pop, p)
}

// TestSynthProbeZeroAlloc pins the steady-state synthetic probe path —
// address draw, template rebuild, patch, metrics and accumulate — at zero
// allocations per probe, with and without
// metrics, for every answer kind. One measured run is a whole cluster,
// drawn and synthesized as one shard, so every run crosses one cluster
// rollover and rebuilds the template: any allocation in a rebuild shows as
// a whole allocation per run, not a fraction rounded away.
func TestSynthProbeZeroAlloc(t *testing.T) {
	const clusterSize = 16
	rig := newProbeRig(t, 12)
	for _, tc := range synthProbeCohorts {
		for _, withObs := range []bool{false, true} {
			s := rig.stream(tc.profile, clusterSize, clusterSize)
			if withObs {
				s.w.obs = obs.NewRegistry().NewShard("synth-0")
			}
			cluster := func() {
				if err := s.next(clusterSize); err != nil {
					t.Fatal(err)
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
// answer kind, at the cluster size of a shift-10 campaign. Each cluster's
// addresses are drawn as one shard's are.
func BenchmarkSynthProbe(b *testing.B) {
	// A shift-8 universe has about 14M eligible addresses; the worker
	// starts over at the walk's first address every 4M probes.
	const restart = 1 << 22
	rig := newProbeRig(b, 8)
	clusterSize := uint64(Config{SampleShift: 10}.scaledClusterSize())
	for _, tc := range synthProbeCohorts {
		b.Run(tc.name, func(b *testing.B) {
			s := rig.stream(tc.profile, clusterSize, clusterSize)
			s.w.obs = obs.NewRegistry().NewShard("synth-0")
			runtime.GC() // no collection left over from setup runs inside the timed loop
			b.ReportAllocs()
			b.ResetTimer()
			for s.g < uint64(b.N) {
				if s.g > 0 && s.g%restart < clusterSize {
					s.buf, s.n, s.step = s.buf[:0], 0, 0
				}
				if err := s.next(min(clusterSize, uint64(b.N)-s.g)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
