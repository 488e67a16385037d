package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"openresolver/internal/analysis"
	"openresolver/internal/behavior"
	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/geo"
	"openresolver/internal/ipv4"
	"openresolver/internal/obs"
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
	// makes the malicious geolocation table depend on the cursor walk.
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
// one assigner drawing a source address per probe in cohort order, the
// allocating encode and decode APIs, and one accumulator. It has no shard
// plan, no pool, no cursor forks and no scratch reuse.
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
	for _, c := range pop.Cohorts {
		for i := uint64(0); i < c.Count; i++ {
			src, err := a.Next(c.Country)
			if err != nil {
				t.Fatal(err)
			}
			q := dnswire.NewQuery(ProbeQID(uint64(g)), dnssrv.FormatProbeName(g/size, g%size, paperdata.SLD), dnswire.TypeA)
			res := dnssrv.Result{}
			if c.Profile.Answer == behavior.AnswerTruth {
				res = dnssrv.Result{Addr: dnssrv.TruthAddr(q.Questions[0].Name), OK: true}
			}
			wire, err := behavior.BuildResponse(q, c.Profile, res).Pack()
			if err != nil {
				t.Fatal(err)
			}
			acc.AddR2(src, wire)
			g++
		}
	}
	return acc.Report(syntheticCampaignCounts(cfg, pop, size))
}

func TestSyntheticWorkersDeterministic(t *testing.T) {
	// The acceptance invariant of the synthetic engine: for every worker
	// count the report is deep-equal to the reference synthesizer's, which
	// shares neither the shard plan nor the pool nor the cursor walk.
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

func TestShardCursorsReplaySerialWalk(t *testing.T) {
	// The cursor chain: every shard's draw, requested in any order and more
	// than once, must equal the source addresses one serial assigner draws
	// for that shard's range. Requested in the pool's ascending order, every
	// shard must be drawn straight from the running cursor: the chain never
	// walks past a shard or redraws one, so each draw is computed once.
	for _, sc := range synthCases(t) {
		u, err := scan.NewUniverse(uint64(sc.cfg.Seed), sc.cfg.SampleShift, ipv4.NewReservedBlocklist())
		if err != nil {
			t.Fatal(err)
		}
		newAssigner := func() *population.Assigner {
			a, err := population.NewAssigner(u, geo.DefaultRegistry(), sc.pop, ProberAddr, RootAddr, TLDAddr, AuthAddr)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		plans := planShards(sc.pop)
		// The serial walk's draws, per shard.
		serial := newAssigner()
		want := make([][]ipv4.Addr, len(plans))
		var largest int
		for i, p := range plans {
			err := p.each(sc.pop, func(c *population.Cohort, n uint64) error {
				for ; n > 0; n-- {
					a, err := serial.Next(c.Country)
					if err != nil {
						return err
					}
					want[i] = append(want[i], a)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			largest = max(largest, len(want[i]))
		}
		// Every request draws into one buffer sized to the largest shard,
		// as a pooled worker's is.
		buf := make([]ipv4.Addr, largest)
		msh := obs.NewShard("chain")
		request := func(chain *cursorChain, order string, i int) {
			t.Helper()
			clear(buf)
			if err := chain.draw(i, buf, msh); err != nil {
				t.Fatalf("%s %s shard %d: %v", sc.name, order, i, err)
			}
			for j, w := range want[i] {
				if buf[j] != w {
					t.Fatalf("%s %s shard %d draw %d: chain drew %v, serial walk drew %v", sc.name, order, i, j, buf[j], w)
				}
			}
		}

		n := len(plans)
		chain := &cursorChain{pop: sc.pop, plans: plans, cursor: newAssigner()}
		for i := range n {
			request(chain, "ascending", i)
		}
		skippedRedrawn := func() (uint64, uint64) {
			return msh.Counter(obs.CSynthShardsSkipped), msh.Counter(obs.CSynthShardsRedrawn)
		}
		if sk, rd := skippedRedrawn(); len(chain.starts) != n || sk != 0 || rd != 0 {
			t.Errorf("%s ascending: %d shard starts, %d skipped, %d redrawn; want %d, 0, 0",
				sc.name, len(chain.starts), sk, rd, n)
		}

		// Ascending, then a jump ahead, a step back, a repeat, and the rest
		// in reverse.
		order := []int{0, 1, n / 2, 2, 1}
		for i := n - 1; i >= 0; i-- {
			order = append(order, i)
		}
		chain = &cursorChain{pop: sc.pop, plans: plans, cursor: newAssigner()}
		msh = obs.NewShard("chain")
		hi, skipped, redrawn := -1, uint64(0), uint64(0)
		for _, i := range order {
			if i >= n {
				continue
			}
			if i <= hi {
				redrawn++
			} else {
				skipped += uint64(i - hi - 1)
			}
			request(chain, "mixed", i)
			// The walk goes only as far as the highest shard requested.
			hi = max(hi, i)
			if len(chain.starts) != hi+1 {
				t.Fatalf("%s: after shard %d the chain walked to %d shard starts, want %d", sc.name, i, len(chain.starts), hi+1)
			}
		}
		if sk, rd := skippedRedrawn(); sk != skipped || rd != redrawn {
			t.Errorf("%s mixed: %d skipped, %d redrawn; want %d, %d", sc.name, sk, rd, skipped, redrawn)
		}
	}
}

// TestSyntheticColdCampaignDrawsEachShardOnce: at shift 10 a shard's draw
// is short, so two pool workers often reach the cursor chain's lock out
// of order. The claim on the earlier shard makes the later request wait
// for it, and a cold campaign computes every shard once: none walked past,
// none redrawn.
func TestSyntheticColdCampaignDrawsEachShardOnce(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		reg := obs.NewRegistry()
		if _, err := RunSynthetic(Config{Year: paperdata.Y2018, SampleShift: 10, Seed: seed, Workers: 2, Obs: reg}); err != nil {
			t.Fatal(err)
		}
		m := reg.Merged()
		if sk, rd := m.Counter(obs.CSynthShardsSkipped), m.Counter(obs.CSynthShardsRedrawn); sk != 0 || rd != 0 {
			t.Errorf("seed %d: %d shards skipped, %d redrawn; want 0, 0", seed, sk, rd)
		}
	}
}

// TestCursorChainReleasesWaiters: a request past a claimed frontier shard
// waits for it, and is released when that shard is drawn, when the
// campaign is cancelled (the claimed shard may then never be drawn, so
// the request walks past it), and when the walk fails.
func TestCursorChainReleasesWaiters(t *testing.T) {
	sc := synthCases(t)[1] // 2018
	plans := planShards(sc.pop)
	// newChain's cursor is the campaign's assigner, or with broken set, an
	// assigner over a four-address universe that reserves no country
	// addresses, so shard 0's draw fails.
	newChain := func(broken bool, done <-chan struct{}) *cursorChain {
		shift, pop := sc.cfg.SampleShift, sc.pop
		if broken {
			shift, pop = 30, &population.Population{}
		}
		u, err := scan.NewUniverse(uint64(sc.cfg.Seed), shift, ipv4.NewReservedBlocklist())
		if err != nil {
			t.Fatal(err)
		}
		a, err := population.NewAssigner(u, geo.DefaultRegistry(), pop, ProberAddr, RootAddr, TLDAddr, AuthAddr)
		if err != nil {
			t.Fatal(err)
		}
		c := &cursorChain{pop: sc.pop, plans: plans, cursor: a, done: done}
		c.claim(0)
		c.claim(1)
		return c
	}
	size := int(plans[0].end - plans[0].start)
	for _, p := range plans {
		size = max(size, int(p.end-p.start))
	}
	// wait starts a request for shard 1 and checks that it is still
	// waiting for shard 0 a little later.
	wait := func(c *cursorChain, msh *obs.Shard) chan error {
		t.Helper()
		errc := make(chan error, 1)
		go func() { errc <- c.draw(1, make([]ipv4.Addr, size), msh) }()
		select {
		case err := <-errc:
			t.Fatalf("request for shard 1 returned (%v) while claimed shard 0 was undrawn", err)
		case <-time.After(50 * time.Millisecond):
		}
		return errc
	}
	released := func(errc chan error) error {
		t.Helper()
		select {
		case err := <-errc:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("request for shard 1 still waiting: deadlock")
			return nil
		}
	}

	t.Run("drawn", func(t *testing.T) {
		c, msh := newChain(false, nil), obs.NewShard("t")
		errc := wait(c, msh)
		if err := c.draw(0, make([]ipv4.Addr, size), msh); err != nil {
			t.Fatal(err)
		}
		if err := released(errc); err != nil {
			t.Fatal(err)
		}
		if sk, rd := msh.Counter(obs.CSynthShardsSkipped), msh.Counter(obs.CSynthShardsRedrawn); sk != 0 || rd != 0 {
			t.Errorf("%d skipped, %d redrawn; want 0, 0", sk, rd)
		}
	})
	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		c, msh := newChain(false, ctx.Done()), obs.NewShard("t")
		errc := wait(c, msh)
		cancel()
		if err := released(errc); err != nil {
			t.Fatal(err)
		}
		if sk := msh.Counter(obs.CSynthShardsSkipped); sk != 1 {
			t.Errorf("cancelled: %d shards skipped, want 1", sk)
		}
	})
	t.Run("failed", func(t *testing.T) {
		c, msh := newChain(true, nil), obs.NewShard("t")
		errc := wait(c, msh)
		err0 := c.draw(0, make([]ipv4.Addr, size), msh)
		if err0 == nil {
			t.Fatal("shard 0 drew its addresses from the broken assigner")
		}
		if err := released(errc); err != err0 {
			t.Errorf("waiter returned %v, want shard 0's error %v", err, err0)
		}
	})
}
