package core

import (
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

// TestSynthProbeZeroAlloc pins the steady-state synthetic probe path —
// address draw, qname, response build, encode, metrics, decode and
// accumulate — at zero allocations per probe, with and without metrics.
func TestSynthProbeZeroAlloc(t *testing.T) {
	feed := threatintel.NewFeed(paperdata.Y2018, 1)
	cohorts := []struct {
		name   string
		cohort population.Cohort
	}{
		{"a-answer", population.Cohort{Profile: behavior.Honest(1)}},
		{"no-answer", population.Cohort{Profile: behavior.Refuser()}},
		{"empty-question", population.Cohort{Profile: behavior.Profile{
			RA: true, OmitQuestion: true, Answer: behavior.AnswerFixed,
			Addr: ipv4.MustParseAddr("192.168.1.1"),
		}}},
	}
	for _, tc := range cohorts {
		for _, withObs := range []bool{false, true} {
			c := tc.cohort
			c.Count = 1 << 12
			pop := &population.Population{Year: paperdata.Y2018, Cohorts: []population.Cohort{c}}
			u, err := scan.NewUniverse(1, 12, ipv4.NewReservedBlocklist())
			if err != nil {
				t.Fatal(err)
			}
			reg := geo.DefaultRegistry()
			a, err := population.NewAssigner(u, reg, pop, ProberAddr, RootAddr, TLDAddr, AuthAddr)
			if err != nil {
				t.Fatal(err)
			}
			w := &synthWorker{
				clusterSize: 64,
				assigner:    a,
				acc:         analysis.NewAccumulator(analysis.Config{Year: paperdata.Y2018, Threat: feed.DB, Geo: reg}),
				buf:         make([]byte, 0, 512),
				name:        make([]byte, 0, 64),
			}
			if withObs {
				w.obs = obs.NewRegistry().NewShard("synth-0")
			}
			var g uint64
			probe := func() {
				if err := w.probe(&c, g); err != nil {
					t.Fatal(err)
				}
				g++
			}
			for i := 0; i < 64; i++ {
				probe() // grow the scratch buffers to their steady state
			}
			if avg := testing.AllocsPerRun(1000, probe); avg != 0 {
				t.Errorf("%s (metrics %v): %.2f allocs per probe, want 0", tc.name, withObs, avg)
			}
		}
	}
}
