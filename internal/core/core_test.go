package core

import (
	"testing"

	"openresolver/internal/behavior"
	"openresolver/internal/capture"
	"openresolver/internal/classify"
	"openresolver/internal/paperdata"
	"openresolver/internal/population"
)

func TestSyntheticFullScale2018Exact(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale synthesis takes ~10s")
	}
	ds, err := RunSynthetic(Config{Year: paperdata.Y2018, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := ds.Report
	y := paperdata.Y2018

	// Table II.
	camp := paperdata.Campaigns[y]
	if r.Campaign.Q1 != camp.Q1 || r.Campaign.Q2 != camp.Q2R1 || r.Campaign.R2 != camp.R2 {
		t.Errorf("Table II: Q1=%d Q2=%d R2=%d, want %d/%d/%d",
			r.Campaign.Q1, r.Campaign.Q2, r.Campaign.R2, camp.Q1, camp.Q2R1, camp.R2)
	}

	// Table III.
	if r.Correctness != paperdata.CorrectnessByYear[y] {
		t.Errorf("Table III: %+v, want %+v", r.Correctness, paperdata.CorrectnessByYear[y])
	}
	// Table IV.
	if r.RA != paperdata.RATable[y] {
		t.Errorf("Table IV: %+v, want %+v", r.RA, paperdata.RATable[y])
	}
	// Table V (reconciled).
	if r.AA != paperdata.ReconciledAA(y) {
		t.Errorf("Table V: %+v, want %+v", r.AA, paperdata.ReconciledAA(y))
	}
	// Table VI (reconciled).
	if r.Rcode != paperdata.ReconciledRcode(y) {
		t.Errorf("Table VI: %+v, want %+v", r.Rcode, paperdata.ReconciledRcode(y))
	}
	// Table VII.
	forms := paperdata.IncorrectFormsByYear[y]
	if r.Forms.IP != forms.IP || r.Forms.URL != forms.URL {
		t.Errorf("Table VII IP/URL: %+v, want %+v", r.Forms, forms)
	}
	if r.Forms.Str.Packets != forms.Str.Packets ||
		r.Forms.Str.Unique != paperdata.ReconciledStrUnique(y) {
		t.Errorf("Table VII string: %+v", r.Forms.Str)
	}
	// Table VIII.
	if len(r.Top10) != 10 {
		t.Fatalf("top10 has %d rows", len(r.Top10))
	}
	for i, want := range paperdata.Top10[y] {
		got := r.Top10[i]
		if got.Addr != want.Addr || got.Count != want.Count {
			t.Errorf("Table VIII rank %d: %s×%d, want %s×%d",
				i+1, got.Addr, got.Count, want.Addr, want.Count)
		}
		if got.Org != want.Org {
			t.Errorf("Table VIII rank %d org: %q, want %q", i+1, got.Org, want.Org)
		}
		if got.Reported != want.Reported || got.Private != want.Private {
			t.Errorf("Table VIII rank %d flags: reported=%v private=%v", i+1, got.Reported, got.Private)
		}
	}
	// Table IX.
	for cat, want := range paperdata.MaliciousTable[y] {
		if got := r.Malicious[cat]; got != want {
			t.Errorf("Table IX %s: %+v, want %+v", cat, got, want)
		}
	}
	if r.MaliciousTotal != paperdata.MaliciousTotals[y] {
		t.Errorf("Table IX total: %+v", r.MaliciousTotal)
	}
	// Table X.
	if r.MalFlags != paperdata.MaliciousFlags2018 {
		t.Errorf("Table X: %+v, want %+v", r.MalFlags, paperdata.MaliciousFlags2018)
	}
	if r.MalNonZeroRcode != 0 {
		t.Errorf("malicious nonzero rcodes: %d", r.MalNonZeroRcode)
	}
	// Geolocation.
	gotGeo := map[string]uint64{}
	for _, g := range r.MaliciousGeo {
		gotGeo[g.Country] = g.R2
	}
	for _, want := range paperdata.MaliciousGeo[y] {
		if gotGeo[want.Country] != want.R2 {
			t.Errorf("geo %s: %d, want %d", want.Country, gotGeo[want.Country], want.R2)
		}
	}
	if len(r.MaliciousGeo) != len(paperdata.MaliciousGeo[y]) {
		t.Errorf("geo countries: %d, want %d", len(r.MaliciousGeo), len(paperdata.MaliciousGeo[y]))
	}
	// Empty-question breakdown (reconciled).
	e := paperdata.ReconciledEmptyQuestion()
	if r.EmptyQ != e {
		t.Errorf("empty-question: %+v, want %+v", r.EmptyQ, e)
	}
	// §IV-B1 estimates.
	if r.Estimates != paperdata.Estimates[y] {
		t.Errorf("estimates: %+v, want %+v", r.Estimates, paperdata.Estimates[y])
	}
	if r.Undecodable != 0 {
		t.Errorf("undecodable: %d", r.Undecodable)
	}
}

func TestSyntheticFullScale2013Exact(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale synthesis takes ~25s")
	}
	ds, err := RunSynthetic(Config{Year: paperdata.Y2013, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := ds.Report
	y := paperdata.Y2013
	if r.Correctness != paperdata.CorrectnessByYear[y] {
		t.Errorf("Table III: %+v, want %+v", r.Correctness, paperdata.CorrectnessByYear[y])
	}
	if r.RA != paperdata.RATable[y] {
		t.Errorf("Table IV: %+v", r.RA)
	}
	if r.AA != paperdata.ReconciledAA(y) {
		t.Errorf("Table V: %+v", r.AA)
	}
	if r.Rcode != paperdata.ReconciledRcode(y) {
		t.Errorf("Table VI: %+v", r.Rcode)
	}
	// The N/A form (undecodable RDATA) is 2013-specific.
	if r.Forms.NA.Packets != paperdata.NotDecoded2013 {
		t.Errorf("N/A form: %d, want %d", r.Forms.NA.Packets, paperdata.NotDecoded2013)
	}
	for cat, want := range paperdata.MaliciousTable[y] {
		if got := r.Malicious[cat]; got != want {
			t.Errorf("Table IX %s: %+v, want %+v", cat, got, want)
		}
	}
	for i, want := range paperdata.Top10[y] {
		if got := r.Top10[i]; got.Addr != want.Addr || got.Count != want.Count {
			t.Errorf("top10 rank %d: %s×%d, want %s×%d", i+1, got.Addr, got.Count, want.Addr, want.Count)
		}
	}
}

func TestSyntheticScaled(t *testing.T) {
	for _, y := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		ds, err := RunSynthetic(Config{Year: y, SampleShift: 8, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if ds.Report.Correctness.R2+ds.Report.EmptyQ.Total != ds.Population.ExpectedR2 {
			t.Errorf("%d: analyzed %d+%d != population %d",
				y, ds.Report.Correctness.R2, ds.Report.EmptyQ.Total, ds.Population.ExpectedR2)
		}
		// Error rate survives scaling within rounding.
		full := paperdata.CorrectnessByYear[y].ErrPct()
		got := ds.Report.Correctness.ErrPct()
		if diff := got - full; diff < -0.5 || diff > 0.5 {
			t.Errorf("%d: scaled Err %.3f vs paper %.3f", y, got, full)
		}
	}
}

// popExpected recomputes the expected report aggregates directly from the
// cohorts, as an independent oracle for simulation mode.
func popExpected(pop *population.Population) (correct, incorrect, without uint64) {
	for _, c := range pop.Cohorts {
		switch c.Class {
		case population.ClassCorrect:
			correct += c.Count
		case population.ClassMalicious, population.ClassIncorrect:
			incorrect += c.Count
		case population.ClassNoAnswer:
			without += c.Count
		}
	}
	return
}

func TestSimulation2018EndToEnd(t *testing.T) {
	ds, err := RunSimulation(Config{Year: paperdata.Y2018, SampleShift: 13, Seed: 3, KeepPackets: true})
	if err != nil {
		t.Fatal(err)
	}
	r := ds.Report
	pop := ds.Population

	// Every resolver must have answered: R2 equals the population size.
	if r.Campaign.R2 != pop.ExpectedR2 {
		t.Errorf("R2 = %d, want %d", r.Campaign.R2, pop.ExpectedR2)
	}
	// Q2/R1 at the authoritative server match the calibrated plan exactly.
	if r.Campaign.Q2 != pop.ExpectedQ2 || r.Campaign.R1 != pop.ExpectedQ2 {
		t.Errorf("Q2/R1 = %d/%d, want %d", r.Campaign.Q2, r.Campaign.R1, pop.ExpectedQ2)
	}
	// Q1 equals the universe's allowed count minus the four infra addresses
	// that happen to fall inside the sampled coset (usually none).
	if r.Campaign.Q1 == 0 || r.Campaign.Q1 > 1<<19 {
		t.Errorf("Q1 = %d implausible", r.Campaign.Q1)
	}

	wantCorrect, wantIncorrect, wantWithout := popExpected(pop)
	if r.Correctness.Correct != wantCorrect {
		t.Errorf("correct = %d, want %d", r.Correctness.Correct, wantCorrect)
	}
	if r.Correctness.Incorr != wantIncorrect {
		t.Errorf("incorrect = %d, want %d", r.Correctness.Incorr, wantIncorrect)
	}
	if r.Correctness.Without != wantWithout {
		t.Errorf("without = %d, want %d", r.Correctness.Without, wantWithout)
	}

	// The §III-B result: a handful of clusters per sub-simulation instead
	// of hundreds. Each of the campaign's shards consumes at least one
	// cluster from its private namespace, so the campaign total is bounded
	// by shards × the serial engine's handful.
	if ds.ClustersUsed > 4*simMaxShards {
		t.Errorf("clusters used = %d, want ≤ %d at this scale", ds.ClustersUsed, 4*simMaxShards)
	}
	if ds.SubdomainsReused == 0 {
		t.Error("no subdomain reuse observed")
	}

	// Raw packets were retained and group into flows by qname.
	if len(ds.R2Packets) != int(r.Campaign.R2) {
		t.Fatalf("retained %d packets, want %d", len(ds.R2Packets), r.Campaign.R2)
	}
	flows := capture.GroupFlows(ds.R2Packets)
	if emptyQ := flows[""]; ds.Report.EmptyQ.Total > 0 && emptyQ == nil {
		t.Error("empty-question flow group missing")
	}
}

func TestSimulation2013SendLoss(t *testing.T) {
	ds, err := RunSimulation(Config{Year: paperdata.Y2013, SampleShift: 13, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The modeled 2013 send loss must suppress ~0.69% of probes.
	sent := ds.Report.Campaign.Q1
	if sent == 0 {
		t.Fatal("no probes sent")
	}
	// R2 within 3% of the population (some resolvers were never probed).
	r2 := float64(ds.Report.Campaign.R2)
	want := float64(ds.Population.ExpectedR2)
	if r2 < want*0.95 || r2 > want {
		t.Errorf("R2 = %.0f, want within [%.0f, %.0f]", r2, want*0.95, want)
	}
}

func TestSimulationRequiresScale(t *testing.T) {
	if _, err := RunSimulation(Config{Year: paperdata.Y2018, SampleShift: 2}); err == nil {
		t.Error("full-scale simulation accepted")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a, err := RunSynthetic(Config{Year: paperdata.Y2018, SampleShift: 9, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSynthetic(Config{Year: paperdata.Y2018, SampleShift: 9, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.Correctness != b.Report.Correctness || a.Report.RA != b.Report.RA {
		t.Error("synthetic runs with equal seeds diverged")
	}
}

func TestRenderAllSmoke(t *testing.T) {
	ds, err := RunSynthetic(Config{Year: paperdata.Y2018, SampleShift: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	out := ds.Report.RenderAll()
	if len(out) < 1000 {
		t.Errorf("render too short: %d bytes", len(out))
	}
	for _, want := range []string{"Table I", "Table II", "Table VI", "Table X", "Open-resolver estimates"} {
		if !contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Year: paperdata.Y2018}
	if c.pps() != 100000 {
		t.Errorf("default pps = %d", c.pps())
	}
	c.PacketsPerSec = 5
	if c.pps() != 5 {
		t.Errorf("override pps = %d", c.pps())
	}
	if (Config{Year: paperdata.Y2013}).sendSkip() == 0 {
		t.Error("2013 send skip is zero")
	}
	if (Config{Year: paperdata.Y2018}).sendSkip() != 0 {
		t.Error("2018 send skip nonzero")
	}
	if (Config{Year: paperdata.Y2018, SampleShift: 30}).scaledClusterSize() < 16 {
		t.Error("cluster size floor violated")
	}
}

func TestSimulationMatchesSyntheticExactly(t *testing.T) {
	// The two execution modes share the population, the assigner and the
	// analysis pipeline; for the loss-free 2018 campaign every regenerated
	// table must be identical between them.
	cfg := Config{Year: paperdata.Y2018, SampleShift: 13, Seed: 21}
	sim, err := RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := RunSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Report.Correctness != syn.Report.Correctness {
		t.Errorf("Table III differs: sim %+v vs synth %+v", sim.Report.Correctness, syn.Report.Correctness)
	}
	if sim.Report.RA != syn.Report.RA || sim.Report.AA != syn.Report.AA {
		t.Error("flag tables differ between modes")
	}
	if sim.Report.Rcode != syn.Report.Rcode {
		t.Error("rcode tables differ between modes")
	}
	if sim.Report.Forms != syn.Report.Forms {
		t.Errorf("forms differ: sim %+v vs synth %+v", sim.Report.Forms, syn.Report.Forms)
	}
	if sim.Report.MaliciousTotal != syn.Report.MaliciousTotal || sim.Report.MalFlags != syn.Report.MalFlags {
		t.Error("malicious tables differ between modes")
	}
	if len(sim.Report.Top10) != len(syn.Report.Top10) {
		t.Fatal("top-10 lengths differ")
	}
	for i := range sim.Report.Top10 {
		if sim.Report.Top10[i] != syn.Report.Top10[i] {
			t.Errorf("top-10 rank %d differs: %+v vs %+v",
				i+1, sim.Report.Top10[i], syn.Report.Top10[i])
		}
	}
	if len(sim.Report.MaliciousGeo) != len(syn.Report.MaliciousGeo) {
		t.Fatal("geo lengths differ")
	}
	for i := range sim.Report.MaliciousGeo {
		if sim.Report.MaliciousGeo[i] != syn.Report.MaliciousGeo[i] {
			t.Errorf("geo row %d differs", i)
		}
	}
	if sim.Report.EmptyQ != syn.Report.EmptyQ {
		t.Error("empty-question stats differ between modes")
	}
	if sim.Report.Estimates != syn.Report.Estimates {
		t.Error("estimates differ between modes")
	}
}

func TestSimulationRoleClassification(t *testing.T) {
	ds, err := RunSimulation(Config{Year: paperdata.Y2018, SampleShift: 13, Seed: 6, KeepPackets: true})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Roles == nil {
		t.Fatal("no role classification")
	}
	// Expected roles from the cohorts: resolving cohorts are recursives;
	// with-answer non-resolving cohorts are fabricators (the §IV-C
	// signature); the rest are non-resolving. The population contains no
	// forwarders.
	var wantRecursive, wantFabricator, wantNonResolving int
	for _, c := range ds.Population.Cohorts {
		n := int(c.Count)
		switch {
		case c.Profile.Upstream > 0:
			wantRecursive += n
		case c.Profile.Answer != 0 && c.Profile.Answer != behavior.AnswerNone:
			wantFabricator += n
		default:
			wantNonResolving += n
		}
	}
	got := ds.Roles.ByRole
	if got[classify.RoleRecursive] != wantRecursive {
		t.Errorf("recursive = %d, want %d", got[classify.RoleRecursive], wantRecursive)
	}
	if got[classify.RoleFabricator] != wantFabricator {
		t.Errorf("fabricator = %d, want %d", got[classify.RoleFabricator], wantFabricator)
	}
	if got[classify.RoleNonResolving] != wantNonResolving {
		t.Errorf("non-resolving = %d, want %d", got[classify.RoleNonResolving], wantNonResolving)
	}
	if got[classify.RoleForwarder] != 0 {
		t.Errorf("forwarders = %d, want 0", got[classify.RoleForwarder])
	}
	checkRolesGolden(t, "2018/shift13/seed6", ds)
}
