package paperdata

import (
	"math"
	"testing"
)

// These tests pin down the internal consistency of the transcribed paper
// numbers: every relation the population compiler depends on must hold
// after reconciliation.

// R2WithQuestion returns the R2 packets carrying a question section — the
// universe of the behavioral analyses (Tables III–X).
func (c Campaign) R2WithQuestion() uint64 { return c.R2 - c.R2EmptyQ }

// IncorrNoError returns the number of incorrect answers carrying rcode
// NoError, derived from the reconciled Table VI: W[NoError] minus all
// correct answers (which are NoError by construction of the ground truth).
func IncorrNoError(y Year) uint64 {
	return ReconciledRcode(y).With[0] - CorrectnessByYear[y].Correct
}

// MalTop10Packets returns the occurrences of the named malicious top-10
// IPs (a subset of Table IX's malware row).
func MalTop10Packets(y Year) uint64 {
	var n uint64
	for _, c := range NamedMalicious[y] {
		n += c
	}
	return n
}

func TestTableIIIInternal(t *testing.T) {
	for y, c := range CorrectnessByYear {
		if c.Without+c.With() != c.R2 {
			t.Errorf("%d: W/O %d + W %d != R2 %d", y, c.Without, c.With(), c.R2)
		}
	}
	// Printed error rates.
	if got := CorrectnessByYear[Y2013].ErrPct(); math.Abs(got-1.029) > 0.001 {
		t.Errorf("2013 Err = %.3f, want 1.029", got)
	}
	if got := CorrectnessByYear[Y2018].ErrPct(); math.Abs(got-3.879) > 0.001 {
		t.Errorf("2018 Err = %.3f, want 3.879", got)
	}
}

func TestTableIIConsistency(t *testing.T) {
	c18 := Campaigns[Y2018]
	if c18.R2WithQuestion() != 6505764 {
		t.Errorf("2018 with-question = %d", c18.R2WithQuestion())
	}
	if CorrectnessByYear[Y2018].R2 != c18.R2WithQuestion() {
		t.Error("Table III universe != Table II R2 minus empty-question")
	}
	if CorrectnessByYear[Y2013].R2 != Campaigns[Y2013].R2 {
		t.Error("2013 Table III universe != Table II R2")
	}
}

func TestRAMarginalsMatchTableIII(t *testing.T) {
	for y, ra := range RATable {
		c := CorrectnessByYear[y]
		if ra.Flag0.Correct+ra.Flag1.Correct != c.Correct {
			t.Errorf("%d RA correct marginal mismatch", y)
		}
		if ra.Flag0.Incorr+ra.Flag1.Incorr != c.Incorr {
			t.Errorf("%d RA incorrect marginal mismatch", y)
		}
		if ra.Flag0.Without+ra.Flag1.Without != c.Without {
			t.Errorf("%d RA without marginal mismatch", y)
		}
		if ra.Flag0.Total()+ra.Flag1.Total() != c.R2 {
			t.Errorf("%d RA total mismatch", y)
		}
	}
	// Printed totals and error rates of Table IV.
	if RATable[Y2013].Flag1.Total() != 12270335 {
		t.Errorf("2013 RA1 total = %d", RATable[Y2013].Flag1.Total())
	}
	if RATable[Y2018].Flag0.Total() != 3503581 || RATable[Y2018].Flag1.Total() != 3002183 {
		t.Error("2018 RA totals mismatch")
	}
	if got := RATable[Y2018].Flag0.ErrPct(); math.Abs(got-94.225) > 0.001 {
		t.Errorf("2018 RA0 Err = %.3f, want 94.225", got)
	}
	if got := RATable[Y2013].Flag0.ErrPct(); math.Abs(got-31.346) > 0.001 {
		t.Errorf("2013 RA0 Err = %.3f, want 31.346", got)
	}
	if got := RATable[Y2018].Flag1.ErrPct(); math.Abs(got-1.643) > 0.001 {
		t.Errorf("2018 RA1 Err = %.3f, want 1.643", got)
	}
}

func TestReconciledAAMatchesTableIII(t *testing.T) {
	for _, y := range []Year{Y2013, Y2018} {
		aa := ReconciledAA(y)
		c := CorrectnessByYear[y]
		if aa.Flag0.Correct+aa.Flag1.Correct != c.Correct {
			t.Errorf("%d AA correct marginal mismatch after reconciliation", y)
		}
		if aa.Flag0.Incorr+aa.Flag1.Incorr != c.Incorr {
			t.Errorf("%d AA incorrect marginal mismatch", y)
		}
		if aa.Flag0.Without+aa.Flag1.Without != c.Without {
			t.Errorf("%d AA without marginal mismatch", y)
		}
	}
	// Printed values that must survive reconciliation.
	if AATable[Y2018].Flag1.Total() != 249193 {
		t.Errorf("2018 AA1 total = %d", AATable[Y2018].Flag1.Total())
	}
	if AATable[Y2013].Flag1.Total() != 381124 {
		t.Errorf("2013 AA1 total = %d", AATable[Y2013].Flag1.Total())
	}
	if got := AATable[Y2018].Flag1.ErrPct(); math.Abs(got-78.938) > 0.001 {
		t.Errorf("2018 AA1 Err = %.3f, want 78.938", got)
	}
	// D11: the paper's printed 20.539% divides by the AA1 row total rather
	// than by W as every other Err cell does.
	printed := float64(AATable[Y2013].Flag1.Incorr) / float64(AATable[Y2013].Flag1.Total()) * 100
	if math.Abs(printed-20.539) > 0.005 {
		t.Errorf("2013 AA1 printed-style Err = %.3f, want 20.539", printed)
	}
}

func TestReconciledRcodeSums(t *testing.T) {
	for _, y := range []Year{Y2013, Y2018} {
		r := ReconciledRcode(y)
		c := CorrectnessByYear[y]
		var w, wo uint64
		for i := 0; i < 10; i++ {
			w += r.With[i]
			wo += r.Without[i]
		}
		if w != c.With() {
			t.Errorf("%d reconciled W rcode sum %d != %d", y, w, c.With())
		}
		if wo != c.Without {
			t.Errorf("%d reconciled W/O rcode sum %d != %d", y, wo, c.Without)
		}
	}
	// The reconciliations touch only the documented cells.
	r13 := ReconciledRcode(Y2013)
	if r13.With[0] != 11778877 {
		t.Errorf("2013 reconciled W NoError = %d, want 11778877", r13.With[0])
	}
	if r13.Without[5] != 3168065 {
		t.Errorf("2013 reconciled W/O Refused = %d, want 3168065", r13.Without[5])
	}
	r18 := ReconciledRcode(Y2018)
	if r18.With[0] != 2860940 {
		t.Errorf("2018 W NoError changed: %d", r18.With[0])
	}
	if r18.Without[5] != 2934283 {
		t.Errorf("2018 reconciled W/O Refused = %d, want 2934283", r18.Without[5])
	}
}

func TestIncorrNoErrorCoversMalicious(t *testing.T) {
	// Every malicious packet has rcode NoError (§IV-C3), so the incorrect
	// NoError budget must cover Table IX's totals.
	for _, y := range []Year{Y2013, Y2018} {
		if IncorrNoError(y) < MaliciousTotals[y].R2 {
			t.Errorf("%d: incorrect NoError %d < malicious %d",
				y, IncorrNoError(y), MaliciousTotals[y].R2)
		}
	}
	// 2018 exact split established in the design: 26,926 mal + 81,452
	// non-mal NoError + 2,715 non-mal nonzero = 111,093.
	if got := IncorrNoError(Y2018); got != 108378 {
		t.Errorf("2018 incorrect NoError = %d, want 108378", got)
	}
	if got := IncorrNoError(Y2013); got != 107288 {
		t.Errorf("2013 incorrect NoError = %d, want 107288", got)
	}
}

func TestTableVIIInternal(t *testing.T) {
	for y, f := range IncorrectFormsByYear {
		if f.Total() != CorrectnessByYear[y].Incorr {
			t.Errorf("%d: form total %d != incorrect %d", y, f.Total(), CorrectnessByYear[y].Incorr)
		}
	}
	if ReconciledStrUnique(Y2013) != 10 {
		t.Errorf("2013 string unique = %d, want capped 10", ReconciledStrUnique(Y2013))
	}
	if ReconciledStrUnique(Y2018) != 29 {
		t.Errorf("2018 string unique = %d", ReconciledStrUnique(Y2018))
	}
}

func TestTop10Consistency(t *testing.T) {
	for y, rows := range Top10 {
		if len(rows) != 10 {
			t.Fatalf("%d: %d top rows", y, len(rows))
		}
		var sum uint64
		prev := ^uint64(0)
		for i, r := range rows {
			sum += r.Count
			if r.Count > prev {
				t.Errorf("%d: rank %d count %d exceeds rank %d", y, i+1, r.Count, i)
			}
			prev = r.Count
		}
		if sum != Top10Total[y] {
			t.Errorf("%d: top-10 sum %d != %d", y, sum, Top10Total[y])
		}
	}
	// Stated 2013 constraints: 20.20.20.20 above 5k, stated ranks 7-9.
	rows := Top10[Y2013]
	if rows[0].Addr != "74.220.199.15" || rows[0].Count != 9651 {
		t.Error("2013 rank 1 wrong")
	}
	var twenty uint64
	for _, r := range rows {
		if r.Addr == "20.20.20.20" {
			twenty = r.Count
		}
	}
	if twenty <= 5000 {
		t.Errorf("20.20.20.20 count %d not >5k", twenty)
	}
	if rows[6].Count != 995 || rows[7].Count != 811 || rows[8].Count != 748 {
		t.Error("2013 stated ranks 7-9 wrong")
	}
}

func TestMaliciousTableInternal(t *testing.T) {
	for y, cats := range MaliciousTable {
		var ips, r2 uint64
		for _, c := range cats {
			ips += c.IPs
			r2 += c.R2
		}
		if ips != MaliciousTotals[y].IPs {
			t.Errorf("%d: category IPs sum %d != %d", y, ips, MaliciousTotals[y].IPs)
		}
		if r2 != MaliciousTotals[y].R2 {
			t.Errorf("%d: category R2 sum %d != %d", y, r2, MaliciousTotals[y].R2)
		}
		if MaliciousTotals[y].R2 > CorrectnessByYear[y].Incorr {
			t.Errorf("%d: malicious exceeds incorrect", y)
		}
	}
}

func TestMaliciousFlagsInternal(t *testing.T) {
	m := MaliciousFlags2018
	total := MaliciousTotals[Y2018].R2
	if m.RA0+m.RA1 != total {
		t.Errorf("RA split %d+%d != %d", m.RA0, m.RA1, total)
	}
	if m.AA0+m.AA1 != total {
		t.Errorf("AA split %d+%d != %d", m.AA0, m.AA1, total)
	}
	// Malicious flag marginals must fit inside the incorrect-answer cells.
	ra := RATable[Y2018]
	if m.RA0 > ra.Flag0.Incorr || m.RA1 > ra.Flag1.Incorr {
		t.Error("malicious RA marginals exceed incorrect RA cells")
	}
	aa := ReconciledAA(Y2018)
	if m.AA0 > aa.Flag0.Incorr || m.AA1 > aa.Flag1.Incorr {
		t.Error("malicious AA marginals exceed incorrect AA cells")
	}
}

func TestNamedMaliciousWithinMalware(t *testing.T) {
	for y, named := range NamedMalicious {
		var sum uint64
		for _, c := range named {
			sum += c
		}
		if sum > MaliciousTable[y][CatMalware].R2 {
			t.Errorf("%d: named malicious %d exceed malware row %d",
				y, sum, MaliciousTable[y][CatMalware].R2)
		}
	}
	if MalTop10Packets(Y2018) != 22805 { // §IV-C1's stated total
		t.Errorf("2018 named malicious = %d, want 22805", MalTop10Packets(Y2018))
	}
}

func TestGeoSums(t *testing.T) {
	wantCountries := map[Year]int{Y2013: 36, Y2018: 31}
	for y, rows := range MaliciousGeo {
		var sum uint64
		seen := map[string]bool{}
		for _, g := range rows {
			sum += g.R2
			if seen[g.Country] {
				t.Errorf("%d: duplicate country %s", y, g.Country)
			}
			seen[g.Country] = true
		}
		if sum != MaliciousTotals[y].R2 {
			t.Errorf("%d: geo sum %d != malicious total %d", y, sum, MaliciousTotals[y].R2)
		}
		if len(rows) != wantCountries[y] {
			t.Errorf("%d: %d countries, want %d", y, len(rows), wantCountries[y])
		}
	}
}

func TestTailIPStats(t *testing.T) {
	for _, y := range []Year{Y2013, Y2018} {
		packets, unique := TailIPStats(y)
		if unique == 0 || packets < unique {
			t.Errorf("%d: tail packets %d, unique %d infeasible", y, packets, unique)
		}
	}
	p18, u18 := TailIPStats(Y2018)
	if p18 != 56000 || u18 != 14680 {
		t.Errorf("2018 tail = %d/%d, want 56000/14680", p18, u18)
	}
}

func TestEmptyQuestionReconciliation(t *testing.T) {
	e := ReconciledEmptyQuestion()
	if e.RA0+e.RA1 != e.Total {
		t.Errorf("RA split %d+%d != %d", e.RA0, e.RA1, e.Total)
	}
	var rsum uint64
	for _, v := range e.Rcodes {
		rsum += v
	}
	if rsum != e.Total {
		t.Errorf("rcode sum %d != %d", rsum, e.Total)
	}
	if e.RA0 != 310 || e.Rcodes[2] != 302 {
		t.Errorf("reconciliation landed wrong: RA0=%d ServFail=%d", e.RA0, e.Rcodes[2])
	}
	if e.Private192+e.Private10 != e.PrivateNets {
		t.Error("private split inconsistent")
	}
	if e.PrivateNets+e.BadFormat+e.Unroutable != e.WithAnswer {
		t.Error("with-answer split inconsistent")
	}
}

func TestEstimatesDeriveFromTableIV(t *testing.T) {
	for _, y := range []Year{Y2013, Y2018} {
		ra := RATable[y]
		e := Estimates[y]
		if e.StrictRA1Correct != ra.Flag1.Correct {
			t.Errorf("%d strict estimate mismatch", y)
		}
		if e.RAOnly != ra.Flag1.Total() {
			t.Errorf("%d RA-only estimate mismatch", y)
		}
		if e.CorrectOnly != CorrectnessByYear[y].Correct {
			t.Errorf("%d correct-only estimate mismatch", y)
		}
	}
}

func TestDiscrepanciesDocumented(t *testing.T) {
	if len(Discrepancies) < 8 {
		t.Errorf("only %d discrepancies documented", len(Discrepancies))
	}
	ids := map[string]bool{}
	for _, d := range Discrepancies {
		if d.ID == "" || d.Where == "" || d.Issue == "" || d.Resolution == "" {
			t.Errorf("incomplete discrepancy %+v", d)
		}
		if ids[d.ID] {
			t.Errorf("duplicate discrepancy id %s", d.ID)
		}
		ids[d.ID] = true
	}
}

func TestQ2Ratios(t *testing.T) {
	// Table II's parenthetical percentages.
	c13, c18 := Campaigns[Y2013], Campaigns[Y2018]
	if got := float64(c13.Q2R1) / float64(c13.Q1) * 100; math.Abs(got-1.0357) > 0.0005 {
		t.Errorf("2013 Q2%% = %.4f", got)
	}
	if got := float64(c18.Q2R1) / float64(c18.Q1) * 100; math.Abs(got-0.3525) > 0.0005 {
		t.Errorf("2018 Q2%% = %.4f", got)
	}
	if got := float64(c13.R2) / float64(c13.Q1) * 100; math.Abs(got-0.453) > 0.0005 {
		t.Errorf("2013 R2%% = %.4f", got)
	}
	if got := float64(c18.R2) / float64(c18.Q1) * 100; math.Abs(got-0.1757) > 0.0005 {
		t.Errorf("2018 R2%% = %.4f", got)
	}
}
