package population

import (
	"runtime"
	"testing"

	"openresolver/internal/behavior"
	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
	"openresolver/internal/paperdata"
)

func buildFull(t *testing.T, y paperdata.Year) *Population {
	t.Helper()
	pop, err := Build(Config{Year: y, Seed: 11})
	if err != nil {
		t.Fatalf("Build(%d): %v", y, err)
	}
	return pop
}

func TestFullScaleTotals(t *testing.T) {
	for _, y := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		pop := buildFull(t, y)
		if pop.ExpectedR2 != paperdata.Campaigns[y].R2 {
			t.Errorf("%d: R2 = %d, want %d", y, pop.ExpectedR2, paperdata.Campaigns[y].R2)
		}
		if pop.ExpectedQ2 != paperdata.Campaigns[y].Q2R1 {
			t.Errorf("%d: Q2 = %d, want %d", y, pop.ExpectedQ2, paperdata.Campaigns[y].Q2R1)
		}
	}
}

func TestFullScaleTableIII(t *testing.T) {
	for _, y := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		pop := buildFull(t, y)
		s := pop.Stats()
		c := paperdata.CorrectnessByYear[y]
		if got := s.ByClass[ClassCorrect]; got != c.Correct {
			t.Errorf("%d: correct = %d, want %d", y, got, c.Correct)
		}
		if got := s.ByClass[ClassMalicious] + s.ByClass[ClassIncorrect]; got != c.Incorr {
			t.Errorf("%d: incorrect = %d, want %d", y, got, c.Incorr)
		}
		if got := s.ByClass[ClassNoAnswer]; got != c.Without {
			t.Errorf("%d: no-answer = %d, want %d", y, got, c.Without)
		}
		if got := s.ByClass[ClassEmptyQuestion]; got != paperdata.Campaigns[y].R2EmptyQ {
			t.Errorf("%d: empty-question = %d, want %d", y, got, paperdata.Campaigns[y].R2EmptyQ)
		}
	}
}

// marginals recomputes Table IV/V-style marginals from cohorts, excluding
// empty-question cohorts (the paper's tables exclude them too).
func marginals(pop *Population) (ra, aa map[bool]paperdata.FlagRow) {
	ra = map[bool]paperdata.FlagRow{}
	aa = map[bool]paperdata.FlagRow{}
	upd := func(m map[bool]paperdata.FlagRow, key bool, c Cohort) {
		row := m[key]
		switch c.Class {
		case ClassCorrect:
			row.Correct += c.Count
		case ClassMalicious, ClassIncorrect:
			row.Incorr += c.Count
		case ClassNoAnswer:
			row.Without += c.Count
		}
		m[key] = row
	}
	for _, c := range pop.Cohorts {
		if c.Class == ClassEmptyQuestion {
			continue
		}
		upd(ra, c.Profile.RA, c)
		upd(aa, c.Profile.AA, c)
	}
	return ra, aa
}

func TestFullScaleTableIVandV(t *testing.T) {
	for _, y := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		pop := buildFull(t, y)
		ra, aa := marginals(pop)
		wantRA := paperdata.RATable[y]
		if ra[false] != wantRA.Flag0 || ra[true] != wantRA.Flag1 {
			t.Errorf("%d RA: got %+v/%+v, want %+v/%+v",
				y, ra[false], ra[true], wantRA.Flag0, wantRA.Flag1)
		}
		wantAA := paperdata.ReconciledAA(y)
		if aa[false] != wantAA.Flag0 || aa[true] != wantAA.Flag1 {
			t.Errorf("%d AA: got %+v/%+v, want %+v/%+v",
				y, aa[false], aa[true], wantAA.Flag0, wantAA.Flag1)
		}
	}
}

func TestFullScaleTableVI(t *testing.T) {
	for _, y := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		pop := buildFull(t, y)
		var with, without [10]uint64
		for _, c := range pop.Cohorts {
			if c.Class == ClassEmptyQuestion {
				continue
			}
			if c.Profile.Answer == behavior.AnswerNone {
				without[c.Profile.Rcode] += c.Count
			} else {
				with[c.Profile.Rcode] += c.Count
			}
		}
		want := paperdata.ReconciledRcode(y)
		if with != want.With {
			t.Errorf("%d W rcodes: got %v, want %v", y, with, want.With)
		}
		if without != want.Without {
			t.Errorf("%d W/O rcodes: got %v, want %v", y, without, want.Without)
		}
	}
}

func TestFullScaleTableVIIForms(t *testing.T) {
	for _, y := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		pop := buildFull(t, y)
		var ipPkts, urlPkts, strPkts, naPkts uint64
		ipUnique := map[ipv4.Addr]bool{}
		urlUnique := map[string]bool{}
		strUnique := map[string]bool{}
		for _, c := range pop.Cohorts {
			if c.Class != ClassMalicious && c.Class != ClassIncorrect {
				continue
			}
			switch c.Profile.Answer {
			case behavior.AnswerFixed:
				ipPkts += c.Count
				ipUnique[c.Profile.Addr] = true
			case behavior.AnswerCNAME:
				urlPkts += c.Count
				urlUnique[c.Profile.Name] = true
			case behavior.AnswerTXT:
				strPkts += c.Count
				strUnique[c.Profile.Name] = true
			case behavior.AnswerMalformed:
				naPkts += c.Count
			}
		}
		want := paperdata.IncorrectFormsByYear[y]
		if ipPkts != want.IP.Packets || uint64(len(ipUnique)) != want.IP.Unique {
			t.Errorf("%d IP form: %d/%d unique %d/%d",
				y, ipPkts, want.IP.Packets, len(ipUnique), want.IP.Unique)
		}
		if urlPkts != want.URL.Packets || uint64(len(urlUnique)) != want.URL.Unique {
			t.Errorf("%d URL form: %d/%d unique %d/%d",
				y, urlPkts, want.URL.Packets, len(urlUnique), want.URL.Unique)
		}
		if strPkts != want.Str.Packets || uint64(len(strUnique)) != paperdata.ReconciledStrUnique(y) {
			t.Errorf("%d string form: %d/%d unique %d/%d",
				y, strPkts, want.Str.Packets, len(strUnique), paperdata.ReconciledStrUnique(y))
		}
		if naPkts != want.NA.Packets {
			t.Errorf("%d N/A form: %d/%d", y, naPkts, want.NA.Packets)
		}
	}
}

func TestFullScaleTop10(t *testing.T) {
	for _, y := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		pop := buildFull(t, y)
		counts := map[ipv4.Addr]uint64{}
		for _, c := range pop.Cohorts {
			if c.Class != ClassMalicious && c.Class != ClassIncorrect {
				continue
			}
			if c.Profile.Answer == behavior.AnswerFixed {
				counts[c.Profile.Addr] += c.Count
			}
		}
		for _, want := range paperdata.Top10[y] {
			addr := ipv4.MustParseAddr(want.Addr)
			if got := counts[addr]; got != want.Count {
				t.Errorf("%d top-10 %s: %d, want %d", y, want.Addr, got, want.Count)
			}
		}
	}
}

func TestFullScaleTableIX(t *testing.T) {
	for _, y := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		pop := buildFull(t, y)
		pkts := map[paperdata.MalCategory]uint64{}
		uniq := map[paperdata.MalCategory]map[ipv4.Addr]bool{}
		for _, c := range pop.Cohorts {
			if c.Class != ClassMalicious {
				continue
			}
			pkts[c.Category] += c.Count
			if uniq[c.Category] == nil {
				uniq[c.Category] = map[ipv4.Addr]bool{}
			}
			uniq[c.Category][c.Profile.Addr] = true
		}
		for cat, want := range paperdata.MaliciousTable[y] {
			if pkts[cat] != want.R2 {
				t.Errorf("%d %s R2 = %d, want %d", y, cat, pkts[cat], want.R2)
			}
			if uint64(len(uniq[cat])) != want.IPs {
				t.Errorf("%d %s unique = %d, want %d", y, cat, len(uniq[cat]), want.IPs)
			}
		}
	}
}

func TestFullScaleTableX(t *testing.T) {
	pop := buildFull(t, paperdata.Y2018)
	var m paperdata.MalFlags
	for _, c := range pop.Cohorts {
		if c.Class != ClassMalicious {
			continue
		}
		if c.Profile.RA {
			m.RA1 += c.Count
		} else {
			m.RA0 += c.Count
		}
		if c.Profile.AA {
			m.AA1 += c.Count
		} else {
			m.AA0 += c.Count
		}
		if c.Profile.Rcode != dnswire.RcodeNoError {
			t.Errorf("malicious cohort with rcode %v", c.Profile.Rcode)
		}
	}
	if m != paperdata.MaliciousFlags2018 {
		t.Errorf("malicious flags = %+v, want %+v", m, paperdata.MaliciousFlags2018)
	}
}

func TestFullScaleGeo(t *testing.T) {
	for _, y := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		pop := buildFull(t, y)
		got := map[string]uint64{}
		for _, c := range pop.Cohorts {
			if c.Class == ClassMalicious {
				got[c.Country] += c.Count
			}
		}
		for _, g := range paperdata.MaliciousGeo[y] {
			if got[g.Country] != g.R2 {
				t.Errorf("%d %s: %d, want %d", y, g.Country, got[g.Country], g.R2)
			}
		}
		if got[""] != 0 {
			t.Errorf("%d: %d malicious resolvers without a country", y, got[""])
		}
	}
}

func TestEmptyQuestionCohorts(t *testing.T) {
	pop := buildFull(t, paperdata.Y2018)
	e := paperdata.ReconciledEmptyQuestion()
	var total, withAns, ra1, aa1 uint64
	var rcodes [10]uint64
	for _, c := range pop.Cohorts {
		if c.Class != ClassEmptyQuestion {
			continue
		}
		if !c.Profile.OmitQuestion {
			t.Error("empty-question cohort without OmitQuestion")
		}
		total += c.Count
		if c.Profile.Answer != behavior.AnswerNone {
			withAns += c.Count
		}
		if c.Profile.RA {
			ra1 += c.Count
		}
		if c.Profile.AA {
			aa1 += c.Count
		}
		rcodes[c.Profile.Rcode] += c.Count
	}
	if total != e.Total || withAns != e.WithAnswer || ra1 != e.RA1 || aa1 != e.AA1 {
		t.Errorf("empty-question: total=%d withAns=%d ra1=%d aa1=%d", total, withAns, ra1, aa1)
	}
	if rcodes != e.Rcodes {
		t.Errorf("empty-question rcodes = %v, want %v", rcodes, e.Rcodes)
	}
}

func TestUpstreamCalibration(t *testing.T) {
	for _, y := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		pop := buildFull(t, y)
		for _, c := range pop.Cohorts {
			resolving := cohortResolves(c)
			if resolving && c.Profile.Upstream < 1 {
				t.Errorf("%d: resolving cohort %s with upstream %d", y, c.Class, c.Profile.Upstream)
			}
			if !resolving && c.Profile.Upstream != 0 {
				t.Errorf("%d: non-resolving cohort %s with upstream %d", y, c.Class, c.Profile.Upstream)
			}
			if c.Class == ClassCorrect && c.Profile.Answer != behavior.AnswerTruth {
				t.Errorf("correct cohort with answer kind %v", c.Profile.Answer)
			}
		}
	}
}

func TestScaledPopulation(t *testing.T) {
	const shift = 10
	for _, y := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		pop, err := Build(Config{Year: y, SampleShift: shift, Seed: 5})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		wantR2 := (paperdata.Campaigns[y].R2 + 512) >> shift
		if pop.ExpectedR2 != wantR2 {
			t.Errorf("%d: scaled R2 = %d, want %d", y, pop.ExpectedR2, wantR2)
		}
		wantQ2 := (paperdata.Campaigns[y].Q2R1 + 512) >> shift
		if pop.ExpectedQ2 != wantQ2 {
			t.Errorf("%d: scaled Q2 = %d, want %d", y, pop.ExpectedQ2, wantQ2)
		}
		// Proportions must hold within rounding: correct fraction.
		s := pop.Stats()
		fullCorrect := float64(paperdata.CorrectnessByYear[y].Correct) / float64(paperdata.CorrectnessByYear[y].R2)
		gotCorrect := float64(s.ByClass[ClassCorrect]) / float64(s.Total)
		if diff := gotCorrect - fullCorrect; diff < -0.01 || diff > 0.01 {
			t.Errorf("%d: scaled correct fraction %.4f vs %.4f", y, gotCorrect, fullCorrect)
		}
		for _, c := range pop.Cohorts {
			if c.Count == 0 {
				t.Error("zero-count cohort survived scaling")
			}
		}

		// Hierarchical scaling must preserve the small classes'
		// proportions too: the malicious share may deviate from its exact
		// scaled target only by rounding of the category×cell×country
		// groups, not by the long tail's remainder pressure.
		var mal uint64
		for _, c := range pop.Cohorts {
			if c.Class == ClassMalicious {
				mal += c.Count
			}
		}
		wantMal := (paperdata.MaliciousTotals[y].R2 + 512) >> shift
		if diff := int64(mal) - int64(wantMal); diff < -3 || diff > 3 {
			t.Errorf("%d: scaled malicious = %d, want ≈%d", y, mal, wantMal)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(Config{Year: paperdata.Y2018, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(Config{Year: paperdata.Y2018, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cohorts) != len(b.Cohorts) {
		t.Fatalf("cohort counts differ: %d vs %d", len(a.Cohorts), len(b.Cohorts))
	}
	for i := range a.Cohorts {
		if a.Cohorts[i] != b.Cohorts[i] {
			t.Fatalf("cohort %d differs", i)
		}
	}
}

func TestBuildRejectsUnknownYear(t *testing.T) {
	if _, err := Build(Config{Year: 1999}); err == nil {
		t.Error("unknown year accepted")
	}
}

func TestIncorrectAddrsAvoidTruthRange(t *testing.T) {
	truthRange := ipv4.MustParseBlock("96.0.0.0/6")
	pop := buildFull(t, paperdata.Y2018)
	for _, c := range pop.Cohorts {
		if c.Profile.Answer == behavior.AnswerFixed && c.Class != ClassEmptyQuestion {
			if truthRange.Contains(c.Profile.Addr) {
				t.Fatalf("incorrect answer %v lies in the ground-truth range", c.Profile.Addr)
			}
		}
	}
}

// TestScaledBuildBytes bounds what a scaled compile allocates: 2013 at
// shift 8 keeps 360 of its 28,696 full-scale cohorts, so a build that
// materialised the full-scale list (about 10.7 MB) or copied its payload
// streams would blow the budget.
func TestScaledBuildBytes(t *testing.T) {
	const (
		builds = 4
		budget = 2 << 20 // bytes per build
	)
	build := func(seed int64) {
		if _, err := Build(Config{Year: paperdata.Y2013, SampleShift: 8, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	build(0) // first-use initialisation outside the measurement
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seed := int64(1); seed <= builds; seed++ {
		build(seed)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / builds; per > budget {
		t.Errorf("2013 shift-8 build allocates %d bytes, budget %d", per, budget)
	}
}

func BenchmarkBuildFull2018(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(Config{Year: paperdata.Y2018, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildScaled2018(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(Config{Year: paperdata.Y2018, SampleShift: 10, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildScaled2013 is the compile the sim-2013 campaign opens
// with: 2013 at shift 8.
func BenchmarkBuildScaled2013(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(Config{Year: paperdata.Y2013, SampleShift: 8, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
