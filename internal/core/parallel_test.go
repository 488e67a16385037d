package core

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"openresolver/internal/analysis"
	"openresolver/internal/behavior"
	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/geo"
	"openresolver/internal/ipv4"
	"openresolver/internal/paperdata"
	"openresolver/internal/population"
	"openresolver/internal/scan"
	"openresolver/internal/threatintel"
)

func TestProbeQIDWrapsExplicitly(t *testing.T) {
	// The serial engine historically incremented a bare uint16 starting at
	// zero: probe 0 carries ID 1 and the ID passes through 0 every 65,536
	// probes. ProbeQID must reproduce that sequence from the global index.
	cases := []struct {
		idx  uint64
		want uint16
	}{
		{0, 1}, {1, 2}, {65534, 65535}, {65535, 0}, {65536, 1},
		{2*65536 - 1, 0}, {2 * 65536, 1}, {10*65536 + 41, 42},
	}
	for _, c := range cases {
		if got := ProbeQID(c.idx); got != c.want {
			t.Errorf("ProbeQID(%d) = %d, want %d", c.idx, got, c.want)
		}
	}
	// Against the reference serial increment over a full wrap.
	var qid uint16
	for i := uint64(0); i < 3*65536+17; i++ {
		qid++
		if got := ProbeQID(i); got != qid {
			t.Fatalf("ProbeQID(%d) = %d, serial increment gives %d", i, got, qid)
		}
	}
}

// synthCase is one population the synthetic engine is checked against.
type synthCase struct {
	name string
	cfg  Config
	pop  *population.Population
	feed *threatintel.Feed
}

// synthCases returns both calibration years at a test scale, plus two
// hand-cut populations: one whose cohorts are a few probes each, so cohort
// boundaries fall inside shards and country-pinned and unpinned draws
// interleave within one shard, and one with fewer probes than the plan
// has shards.
func synthCases(t *testing.T) []synthCase {
	t.Helper()
	var cases []synthCase
	for _, y := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		cfg := Config{Year: y, SampleShift: 8, Seed: 5}
		pop, feed, err := buildDeps(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, synthCase{fmt.Sprintf("%d", y), cfg, pop, feed})
	}
	cfg := Config{Year: paperdata.Y2018, SampleShift: 12, Seed: 7}
	full, feed, err := buildDeps(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Build pins every malicious cohort to a country, so its reports never
	// see which unpinned address a probe drew. Unpinning every other one
	// makes the malicious geolocation table depend on the stride walk.
	cut := func(counts ...uint64) *population.Population {
		pop := &population.Population{Year: full.Year, Shift: full.Shift}
		for i, c := range full.Cohorts {
			c.Count = min(c.Count, counts[i%len(counts)])
			if i%2 == 0 {
				c.Country = ""
			}
			pop.Cohorts = append(pop.Cohorts, c)
			pop.ExpectedR2 += c.Count
		}
		pop.ExpectedQ2 = pop.ExpectedR2
		return pop
	}
	// Cohort sizes coprime to the shard length put every boundary mid-shard.
	cases = append(cases, synthCase{"mid-shard-cohorts", cfg, cut(7, 1, 13, 0, 29, 3), feed})
	small := cut(1)
	small.Cohorts = small.Cohorts[:synthShards/2-1]
	small.ExpectedR2 = uint64(len(small.Cohorts))
	small.ExpectedQ2 = small.ExpectedR2
	cases = append(cases, synthCase{"fewer-probes-than-shards", cfg, small, feed})
	return cases
}

// referenceSynthesize is the synthetic engine reduced to its definition:
// Assign handing out a source address per probe in cohort order, the
// allocating encode and decode APIs, and one accumulator. It has no shard
// plan, no pool, no segment walk and no scratch reuse.
func referenceSynthesize(t *testing.T, cfg Config, pop *population.Population, threat *threatintel.DB) *analysis.Report {
	t.Helper()
	reg := geo.DefaultRegistry()
	u, err := scan.NewUniverse(uint64(cfg.Seed), cfg.SampleShift, ipv4.NewReservedBlocklist())
	if err != nil {
		t.Fatal(err)
	}
	a, err := population.NewAssigner(u, reg, pop, ProberAddr, RootAddr, TLDAddr, AuthAddr)
	if err != nil {
		t.Fatal(err)
	}
	acc := analysis.NewAccumulator(analysis.Config{Year: cfg.Year, Threat: threat, Geo: reg})
	size := cfg.scaledClusterSize()
	var g int
	err = a.Assign(pop, func(ci int, src ipv4.Addr) error {
		q := dnswire.NewQuery(ProbeQID(uint64(g)), dnssrv.FormatProbeName(g/size, g%size, paperdata.SLD), dnswire.TypeA)
		p, res := pop.Cohorts[ci].Profile, dnssrv.Result{}
		if p.Answer == behavior.AnswerTruth {
			res = dnssrv.Result{Addr: dnssrv.TruthAddr(q.Questions[0].Name), OK: true}
		}
		wire, err := behavior.BuildResponse(q, p, res).Pack()
		if err != nil {
			return err
		}
		acc.AddR2(src, wire)
		g++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return acc.Report(syntheticCampaignCounts(cfg, pop, size))
}

func TestSyntheticWorkersDeterministic(t *testing.T) {
	// The acceptance invariant of the synthetic engine: for every worker
	// count the report is deep-equal to the reference synthesizer's, which
	// shares neither the shard plan nor the pool nor the segment walk.
	for _, sc := range synthCases(t) {
		want := referenceSynthesize(t, sc.cfg, sc.pop, sc.feed.DB)
		if want.Correctness.R2 == 0 {
			t.Fatalf("%s: empty reference", sc.name)
		}
		for _, workers := range []int{1, 2, 7, 13, runtime.GOMAXPROCS(0)} {
			cfg := sc.cfg
			cfg.Workers = workers
			ds, err := SynthesizePopulation(cfg, sc.pop, sc.feed.DB)
			if err != nil {
				t.Fatalf("%s workers %d: %v", sc.name, workers, err)
			}
			if !reflect.DeepEqual(ds.Report, want) {
				t.Errorf("%s: report with %d workers differs from the reference", sc.name, workers)
			}
		}
	}
}

// TestSyntheticPooledWorkerReuse runs several populations through one
// pooled worker (Workers: 1, with the collector held off so the pool keeps
// it) and requires each report to equal the reference. The worker keys its
// response template by cohort pointer and cluster, so a template that
// outlived its population could answer the next population's probes with
// the old profile. The last two runs share one cohort slice, with its
// profile changed in place between them: the same cohort address and
// cluster, as when the collector recycles an earlier population's memory.
func TestSyntheticPooledWorkerReuse(t *testing.T) {
	byName := map[string]synthCase{}
	for _, sc := range synthCases(t) {
		byName[sc.name] = sc
	}
	var runs []synthCase
	for _, name := range []string{"2018", "2013", "mid-shard-cohorts"} {
		runs = append(runs, byName[name])
	}
	cut := byName["mid-shard-cohorts"]
	one := &population.Population{Year: cut.pop.Year, Shift: cut.pop.Shift, ExpectedR2: 100, ExpectedQ2: 100,
		Cohorts: []population.Cohort{{Count: 100, Profile: behavior.Honest(1)}}}
	runs = append(runs, synthCase{"one-cohort", cut.cfg, one, cut.feed}, synthCase{"recycled-cohort", cut.cfg, one, cut.feed})

	for i, sc := range runs {
		if sc.name == "recycled-cohort" {
			one.Cohorts[0].Profile = behavior.Manipulator(ipv4.MustParseAddr("203.0.113.7"))
		}
		want := referenceSynthesize(t, sc.cfg, sc.pop, sc.feed.DB)
		cfg := sc.cfg
		cfg.Workers = 1
		gc := debug.SetGCPercent(-1)
		ds, err := SynthesizePopulation(cfg, sc.pop, sc.feed.DB)
		debug.SetGCPercent(gc)
		if err != nil {
			t.Fatalf("run %d (%s): %v", i, sc.name, err)
		}
		if !reflect.DeepEqual(ds.Report, want) {
			t.Errorf("run %d (%s): report differs from the reference", i, sc.name)
		}
	}
}

func TestSyntheticWorkersDefaultsToAllCores(t *testing.T) {
	// Workers 0 (the default) must behave like GOMAXPROCS workers and still
	// match the serial report.
	cfg := Config{Year: paperdata.Y2018, SampleShift: 9, Seed: 11}
	def, err := RunSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	serial, err := RunSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.Report, serial.Report) {
		t.Error("default-workers report differs from serial")
	}
}

func TestSyntheticMoreWorkersThanProbes(t *testing.T) {
	// A tiny population with a huge worker count: shards clamp to the
	// probe count and empty shards are never planned.
	feed := threatintel.NewFeed(paperdata.Y2018, 3)
	pop := &population.Population{
		Year:  paperdata.Y2018,
		Shift: 12,
		Cohorts: []population.Cohort{
			{Count: 3, Class: population.ClassCorrect,
				Profile: behavior.Honest(1)},
		},
		ExpectedR2: 3,
	}
	ds, err := SynthesizePopulation(
		Config{Year: paperdata.Y2018, SampleShift: 12, Seed: 3, Workers: 64},
		pop, feed.DB)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Report.Correctness.R2 != 3 {
		t.Errorf("analyzed %d probes, want 3", ds.Report.Correctness.R2)
	}
}

// TestSyntheticEmptyPopulation: a population with no cohorts plans no
// shards and synthesizes to the empty report the reference gives.
func TestSyntheticEmptyPopulation(t *testing.T) {
	cfg := Config{Year: paperdata.Y2018, SampleShift: 12, Seed: 3}
	feed := threatintel.NewFeed(cfg.Year, cfg.Seed)
	pop := &population.Population{Year: cfg.Year, Shift: cfg.SampleShift}
	ds, err := SynthesizePopulation(cfg, pop, feed.DB)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Report.Correctness.R2 != 0 || ds.ClustersUsed != 0 {
		t.Errorf("empty population: R2 %d, %d clusters, want none", ds.Report.Correctness.R2, ds.ClustersUsed)
	}
	if want := referenceSynthesize(t, cfg, pop, feed.DB); !reflect.DeepEqual(ds.Report, want) {
		t.Error("empty population's report differs from the reference")
	}
}

func TestPlanShardsCoversEveryProbeOnce(t *testing.T) {
	for _, sc := range synthCases(t) {
		pop := sc.pop
		var total uint64
		for _, c := range pop.Cohorts {
			total += c.Count
		}
		plans := planShards(pop)
		if want := min(uint64(synthShards), total); uint64(len(plans)) != want {
			t.Fatalf("%s: %d shards for %d probes, want %d", sc.name, len(plans), total, want)
		}
		// Replaying every shard's cohort spans in plan order must rebuild
		// the cohort list exactly: contiguous, balanced, nothing twice.
		var covered uint64
		seen := make([]uint64, len(pop.Cohorts))
		for i, p := range plans {
			if p.start != covered {
				t.Fatalf("%s shard %d: start %d, want %d", sc.name, i, p.start, covered)
			}
			if n := p.end - p.start; n < total/uint64(len(plans)) || n > total/uint64(len(plans))+1 {
				t.Fatalf("%s shard %d: %d probes, unbalanced for %d shards", sc.name, i, n, len(plans))
			}
			if seen[p.cohort] != p.offset {
				t.Fatalf("%s shard %d: starts at offset %d of cohort %d, want %d",
					sc.name, i, p.offset, p.cohort, seen[p.cohort])
			}
			g, ci := p.start, p.cohort
			err := p.each(pop, func(c *population.Cohort, n uint64) error {
				if c != &pop.Cohorts[ci] {
					return fmt.Errorf("span out of cohort order")
				}
				seen[ci] += n
				g += n
				ci++
				return nil
			})
			if err != nil || g != p.end {
				t.Fatalf("%s shard %d: spans cover [%d,%d), want [%d,%d)", sc.name, i, p.start, g, p.start, p.end)
			}
			covered = p.end
		}
		if covered != total {
			t.Fatalf("%s: covered %d of %d probes", sc.name, covered, total)
		}
		for ci, c := range pop.Cohorts {
			if seen[ci] != c.Count {
				t.Fatalf("%s cohort %d: %d of %d probes planned", sc.name, ci, seen[ci], c.Count)
			}
		}
	}
}
