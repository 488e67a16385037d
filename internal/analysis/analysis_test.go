package analysis

import (
	"math/rand"
	"strings"
	"testing"

	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/geo"
	"openresolver/internal/ipv4"
	"openresolver/internal/paperdata"
	"openresolver/internal/threatintel"
)

const sld = "ucfsealresearch.net"

func response(qname string, build func(*dnswire.Message)) []byte {
	q := dnswire.NewQuery(1, qname, dnswire.TypeA)
	r := dnswire.NewResponse(q)
	build(r)
	return r.MustPack()
}

func newAcc(t *testing.T) *Accumulator {
	t.Helper()
	db := threatintel.NewDB()
	db.Add(ipv4.MustParseAddr("208.91.197.91"),
		threatintel.Report{Category: paperdata.CatMalware, Source: "Cymon", Count: 5})
	db.Add(ipv4.MustParseAddr("66.66.66.66"),
		threatintel.Report{Category: paperdata.CatPhishing, Source: "Cymon", Count: 5})
	return NewAccumulator(Config{Year: paperdata.Y2018, Threat: db, Geo: geo.DefaultRegistry()})
}

func TestClassification(t *testing.T) {
	acc := newAcc(t)
	q1 := dnssrv.FormatProbeName(0, 1, sld)
	src := ipv4.MustParseAddr("28.0.0.1") // US seat

	// Correct answer.
	acc.AddR2(src, response(q1, func(r *dnswire.Message) {
		r.Header.RA = true
		r.AnswerA(uint32(dnssrv.TruthAddr(q1)), 60)
	}))
	// Incorrect benign IP.
	acc.AddR2(src, response(q1, func(r *dnswire.Message) {
		r.AnswerA(uint32(ipv4.MustParseAddr("216.194.64.193")), 60)
	}))
	// Malicious IP with AA set.
	acc.AddR2(src, response(q1, func(r *dnswire.Message) {
		r.Header.AA = true
		r.AnswerA(uint32(ipv4.MustParseAddr("208.91.197.91")), 60)
	}))
	// URL form.
	acc.AddR2(src, response(q1, func(r *dnswire.Message) {
		r.Answers = append(r.Answers, dnswire.RR{
			Name: q1, Type: dnswire.TypeCNAME, Class: dnswire.ClassIN, TTL: 60, Target: "u.dcoin.co",
		})
	}))
	// String form.
	acc.AddR2(src, response(q1, func(r *dnswire.Message) {
		r.Answers = append(r.Answers, dnswire.RR{
			Name: q1, Type: dnswire.TypeTXT, Class: dnswire.ClassIN, TTL: 60, Target: "wild",
		})
	}))
	// N/A form (malformed RDATA).
	acc.AddR2(src, response(q1, func(r *dnswire.Message) {
		r.Answers = append(r.Answers, dnswire.RR{
			Name: q1, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60, Data: []byte{0},
		})
	}))
	// No answer, Refused.
	acc.AddR2(src, response(q1, func(r *dnswire.Message) {
		r.Header.Rcode = dnswire.RcodeRefused
	}))
	// Undecodable garbage.
	acc.AddR2(src, []byte{1, 2, 3})

	r := acc.Report(CampaignCounts{})
	if r.Correctness.Correct != 1 {
		t.Errorf("correct = %d", r.Correctness.Correct)
	}
	if r.Correctness.Incorr != 5 {
		t.Errorf("incorrect = %d", r.Correctness.Incorr)
	}
	if r.Correctness.Without != 1 {
		t.Errorf("without = %d", r.Correctness.Without)
	}
	if r.Undecodable != 1 {
		t.Errorf("undecodable = %d", r.Undecodable)
	}
	if r.Forms.IP.Packets != 2 || r.Forms.IP.Unique != 2 {
		t.Errorf("IP form = %+v", r.Forms.IP)
	}
	if r.Forms.URL.Packets != 1 || r.Forms.Str.Packets != 1 || r.Forms.NA.Packets != 1 {
		t.Errorf("forms = %+v", r.Forms)
	}
	if r.MaliciousTotal.IPs != 1 || r.MaliciousTotal.R2 != 1 {
		t.Errorf("malicious = %+v", r.MaliciousTotal)
	}
	if r.Malicious[paperdata.CatMalware].R2 != 1 {
		t.Errorf("malware row = %+v", r.Malicious[paperdata.CatMalware])
	}
	if r.MalFlags.AA1 != 1 || r.MalFlags.RA0 != 1 {
		t.Errorf("mal flags = %+v", r.MalFlags)
	}
	if len(r.MaliciousGeo) != 1 || r.MaliciousGeo[0].Country != "US" {
		t.Errorf("mal geo = %+v", r.MaliciousGeo)
	}
	if r.Rcode.Without[5] != 1 {
		t.Errorf("refused W/O = %d", r.Rcode.Without[5])
	}
}

func TestFlagAttribution(t *testing.T) {
	acc := newAcc(t)
	q1 := dnssrv.FormatProbeName(0, 2, sld)
	src := ipv4.MustParseAddr("1.2.3.4")

	// RA=0 with a correct answer: the §IV-B1 deviant.
	acc.AddR2(src, response(q1, func(r *dnswire.Message) {
		r.AnswerA(uint32(dnssrv.TruthAddr(q1)), 60)
	}))
	// RA=1 without an answer.
	acc.AddR2(src, response(q1, func(r *dnswire.Message) {
		r.Header.RA = true
	}))
	r := acc.Report(CampaignCounts{})
	if r.RA.Flag0.Correct != 1 || r.RA.Flag1.Without != 1 {
		t.Errorf("RA table = %+v", r.RA)
	}
	if r.Estimates.RAOnly != 1 || r.Estimates.CorrectOnly != 1 || r.Estimates.StrictRA1Correct != 0 {
		t.Errorf("estimates = %+v", r.Estimates)
	}
}

func TestEmptyQuestionAnalysis(t *testing.T) {
	acc := newAcc(t)
	src := ipv4.MustParseAddr("1.2.3.4")
	noQ := func(build func(*dnswire.Message)) []byte {
		m := &dnswire.Message{Header: dnswire.Header{ID: 1, QR: true}}
		build(m)
		return m.MustPack()
	}
	acc.AddR2(src, noQ(func(m *dnswire.Message) { // private 192.168
		m.Header.RA = true
		m.Answers = []dnswire.RR{{Name: "x", Type: dnswire.TypeA, Class: dnswire.ClassIN, A: uint32(ipv4.MustParseAddr("192.168.1.1"))}}
	}))
	acc.AddR2(src, noQ(func(m *dnswire.Message) { // private 10/8
		m.Header.RA = true
		m.Answers = []dnswire.RR{{Name: "x", Type: dnswire.TypeA, Class: dnswire.ClassIN, A: uint32(ipv4.MustParseAddr("10.9.9.9"))}}
	}))
	acc.AddR2(src, noQ(func(m *dnswire.Message) { // bad format (TXT)
		m.Header.RA = true
		m.Answers = []dnswire.RR{{Name: "x", Type: dnswire.TypeTXT, Class: dnswire.ClassIN, Target: "0000"}}
	}))
	acc.AddR2(src, noQ(func(m *dnswire.Message) { // unroutable
		m.Header.RA = true
		m.Answers = []dnswire.RR{{Name: "x", Type: dnswire.TypeA, Class: dnswire.ClassIN, A: uint32(ipv4.MustParseAddr("250.1.2.3"))}}
	}))
	acc.AddR2(src, noQ(func(m *dnswire.Message) { // ServFail, no answer
		m.Header.Rcode = dnswire.RcodeServFail
	}))
	acc.AddR2(src, noQ(func(m *dnswire.Message) { // AA set, Refused
		m.Header.AA = true
		m.Header.Rcode = dnswire.RcodeRefused
	}))

	r := acc.Report(CampaignCounts{})
	e := r.EmptyQ
	if e.Total != 6 || e.WithAnswer != 4 {
		t.Errorf("totals: %+v", e)
	}
	if e.Private192 != 1 || e.Private10 != 1 || e.PrivateNets != 2 {
		t.Errorf("private: %+v", e)
	}
	if e.BadFormat != 1 || e.Unroutable != 1 {
		t.Errorf("badformat/unroutable: %+v", e)
	}
	if e.RA1 != 4 || e.RA0 != 2 || e.AA1 != 1 {
		t.Errorf("flags: %+v", e)
	}
	if e.Rcodes[2] != 1 || e.Rcodes[5] != 1 || e.Rcodes[0] != 4 {
		t.Errorf("rcodes: %v", e.Rcodes)
	}
	// Empty-question packets stay out of the main tables.
	if r.Correctness.R2 != 0 {
		t.Errorf("main universe polluted: %+v", r.Correctness)
	}
}

func TestTop10OrderingAndAnnotations(t *testing.T) {
	acc := newAcc(t)
	q1 := dnssrv.FormatProbeName(0, 3, sld)
	src := ipv4.MustParseAddr("1.2.3.4")
	add := func(addr string, times int) {
		for i := 0; i < times; i++ {
			acc.AddR2(src, response(q1, func(r *dnswire.Message) {
				r.AnswerA(uint32(ipv4.MustParseAddr(addr)), 60)
			}))
		}
	}
	add("216.194.64.193", 5)
	add("208.91.197.91", 3)
	add("192.168.1.1", 2)
	add("8.8.8.8", 1)

	r := acc.Report(CampaignCounts{})
	if len(r.Top10) != 4 {
		t.Fatalf("top10 = %d rows", len(r.Top10))
	}
	if r.Top10[0].Addr != "216.194.64.193" || r.Top10[0].Count != 5 {
		t.Errorf("rank 1 = %+v", r.Top10[0])
	}
	if r.Top10[0].Org != "Tera-byte Dot Com" || r.Top10[0].Reported {
		t.Errorf("rank 1 annotations = %+v", r.Top10[0])
	}
	if !r.Top10[1].Reported {
		t.Error("208.91.197.91 not marked reported")
	}
	if !r.Top10[2].Private || r.Top10[2].Org != "private network" {
		t.Errorf("private row = %+v", r.Top10[2])
	}
}

func TestCNAMEPlusARecordIsIPForm(t *testing.T) {
	// A CNAME chain ending in an A record counts as an IP answer.
	acc := newAcc(t)
	q1 := dnssrv.FormatProbeName(0, 4, sld)
	acc.AddR2(ipv4.MustParseAddr("1.2.3.4"), response(q1, func(r *dnswire.Message) {
		r.Answers = append(r.Answers, dnswire.RR{
			Name: q1, Type: dnswire.TypeCNAME, Class: dnswire.ClassIN, Target: "cdn.example.net",
		})
		r.Answers = append(r.Answers, dnswire.RR{
			Name: "cdn.example.net", Type: dnswire.TypeA, Class: dnswire.ClassIN,
			A: uint32(dnssrv.TruthAddr(q1)),
		})
	}))
	r := acc.Report(CampaignCounts{})
	if r.Correctness.Correct != 1 {
		t.Errorf("CNAME chain not recognized as correct: %+v", r.Correctness)
	}
}

func TestRenderers(t *testing.T) {
	acc := newAcc(t)
	q1 := dnssrv.FormatProbeName(0, 5, sld)
	acc.AddR2(ipv4.MustParseAddr("28.0.0.1"), response(q1, func(r *dnswire.Message) {
		r.Header.RA = true
		r.AnswerA(uint32(ipv4.MustParseAddr("208.91.197.91")), 60)
	}))
	r := acc.Report(CampaignCounts{Q1: 1000, Q2: 2, R1: 2, R2: 1})
	all := r.RenderAll()
	for _, want := range []string{
		"Table I", "592,708,865", "Table III", "Table IV", "Table V", "Table VI",
		"Table VII", "Table VIII", "208.91.197.91", "Table IX", "Malware",
		"Table X", "US(1)",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("RenderAll missing %q", want)
		}
	}
	if !strings.Contains(RenderTableI(), "240.0.0.0/4") {
		t.Error("Table I missing a reserved block")
	}
}

func TestCommas(t *testing.T) {
	tests := map[uint64]string{
		0: "0", 1: "1", 999: "999", 1000: "1,000",
		3702258432: "3,702,258,432", 123456: "123,456",
	}
	for n, want := range tests {
		if got := commas(n); got != want {
			t.Errorf("commas(%d) = %q, want %q", n, got, want)
		}
	}
}

func BenchmarkAddR2(b *testing.B) {
	acc := NewAccumulator(Config{Year: paperdata.Y2018})
	q1 := dnssrv.FormatProbeName(0, 1, sld)
	wire := response(q1, func(r *dnswire.Message) {
		r.Header.RA = true
		r.AnswerA(uint32(dnssrv.TruthAddr(q1)), 60)
	})
	src := ipv4.MustParseAddr("1.2.3.4")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc.AddR2(src, wire)
	}
}

func TestRender2013Tables(t *testing.T) {
	acc := NewAccumulator(Config{Year: paperdata.Y2013, Threat: threatintel.NewDB(), Geo: geo.DefaultRegistry()})
	q1 := dnssrv.FormatProbeName(0, 6, sld)
	// An N/A-form answer (malformed RDATA), 2013's signature behaviour.
	acc.AddR2(ipv4.MustParseAddr("28.0.0.2"), response(q1, func(r *dnswire.Message) {
		r.Answers = append(r.Answers, dnswire.RR{
			Name: q1, Type: dnswire.TypeA, Class: dnswire.ClassIN, Data: []byte{1, 2},
		})
	}))
	rep := acc.Report(CampaignCounts{Q1: 100, R2: 1})
	out := rep.RenderTableVII()
	if !strings.Contains(out, "N/A") {
		t.Errorf("2013 Table VII missing the N/A row:\n%s", out)
	}
	all := rep.RenderAll()
	if !strings.Contains(all, "(2013)") {
		t.Error("render not labeled with the campaign year")
	}
}

func TestEstimatesWithEmptyInput(t *testing.T) {
	acc := NewAccumulator(Config{Year: paperdata.Y2018})
	rep := acc.Report(CampaignCounts{})
	if rep.Estimates.RAOnly != 0 || rep.Correctness.R2 != 0 {
		t.Errorf("empty report: %+v", rep.Estimates)
	}
	if len(rep.Top10) != 0 || len(rep.MaliciousGeo) != 0 {
		t.Error("empty report has rows")
	}
	// Rendering an empty report must not divide by zero.
	if out := rep.RenderAll(); len(out) == 0 {
		t.Error("empty render")
	}
}

// TestAccumulatorTruthMemo feeds one accumulator A answers for a stream
// that mixes consecutive probe names with names of other clusters, names
// without the SLD suffix, names shorter than it, and probe names with a
// corrupted byte, answered with their own truth address, a neighbour's,
// one a bit away, or an arbitrary one. Every answer must count as correct
// exactly when dnssrv.IsTruthAddr says so.
func TestAccumulatorTruthMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	acc := newAcc(t)
	src := ipv4.MustParseAddr("28.0.0.1")
	prev := dnssrv.FormatProbeName(0, 0, sld)
	idx := 0
	for step := range 5000 {
		idx++
		name := dnssrv.FormatProbeName(5, idx, sld)
		switch rng.Intn(10) {
		case 0:
			name = dnssrv.FormatProbeName(rng.Intn(1100), rng.Intn(10_000_000), sld)
		case 1:
			name = dnssrv.FormatProbeName(rng.Intn(1100), idx, "example.org")
		case 2:
			name = ("." + sld)[rng.Intn(len(sld)):]
		case 3:
			b := []byte(name)
			b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
			name = string(b)
		}
		msg := dnswire.NewResponse(dnswire.NewQuery(1, name, dnswire.TypeA))
		name = msg.Questions[0].Name // as the accumulator sees it
		var addr ipv4.Addr
		switch rng.Intn(4) {
		case 0:
			addr = dnssrv.TruthAddr(prev)
		case 1:
			addr = dnssrv.TruthAddr(name) ^ 1
		case 2:
			addr = ipv4.Addr(rng.Uint32())
		default:
			addr = dnssrv.TruthAddr(name)
		}
		before := acc.correct
		acc.AddMessage(src, msg.AnswerA(uint32(addr), 60))
		if got, want := acc.correct > before, dnssrv.IsTruthAddr(addr, name); got != want {
			t.Fatalf("step %d: %v for %q after %q counted correct %v, IsTruthAddr says %v", step, addr, name, prev, got, want)
		}
		prev = name
	}
}
