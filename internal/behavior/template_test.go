package behavior_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"openresolver/internal/behavior"
	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
	"openresolver/internal/paperdata"
	"openresolver/internal/population"
)

// encoderResponse is the reference a template must reproduce: the
// allocating BuildResponse(...).Pack() path for the probe's query, with the
// ground-truth recursion result for AnswerTruth.
func encoderResponse(t *testing.T, p behavior.Profile, cluster, idx int, id uint16) []byte {
	t.Helper()
	q := dnswire.NewQuery(id, dnssrv.FormatProbeName(cluster, idx, paperdata.SLD), dnswire.TypeA)
	res := dnssrv.Result{}
	if p.Answer == behavior.AnswerTruth {
		res = dnssrv.Result{Addr: dnssrv.TruthAddr(q.Questions[0].Name), OK: true}
	}
	wire, err := behavior.BuildResponse(q, p, res).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// checkTemplate builds p's template for each cluster and requires, for every
// index under IDs 0, 1 and 0xFFFF, that Message equal the decoded encoder
// response field by field and that Len be its length. The probes of a
// cluster run in sequence, so a Message that failed to patch a field would
// carry the previous probe's value.
func checkTemplate(t *testing.T, tmpl *behavior.Template, p behavior.Profile, clusters, indexes []int) {
	t.Helper()
	var want dnswire.Message
	for _, c := range clusters {
		if err := tmpl.Build(p, c, paperdata.SLD); err != nil {
			t.Fatalf("%+v cluster %d: %v", p, c, err)
		}
		for _, idx := range indexes {
			for _, id := range []uint16{0, 1, 0xFFFF} {
				wire := encoderResponse(t, p, c, idx, id)
				if err := dnswire.UnpackInto(&want, wire); err != nil {
					t.Fatalf("%+v cluster %d index %d: %v", p, c, idx, err)
				}
				if diff := messageDiff(tmpl.Message(id, idx), &want); diff != "" || tmpl.Len() != len(wire) {
					t.Fatalf("%+v cluster %d index %d id %#x: %s (Len %d, want %d)", p, c, idx, id, diff, tmpl.Len(), len(wire))
				}
			}
		}
	}
}

// messageDiff names the first field in which got and want differ: the
// header, a question, or any of a record's fields; "" if none does.
func messageDiff(got, want *dnswire.Message) string {
	if got.Header != want.Header {
		return fmt.Sprintf("header %+v, want %+v", got.Header, want.Header)
	}
	if !slices.Equal(got.Questions, want.Questions) {
		return fmt.Sprintf("questions %v, want %v", got.Questions, want.Questions)
	}
	sections := []struct {
		name      string
		got, want []dnswire.RR
	}{
		{"answer", got.Answers, want.Answers},
		{"authority", got.Authority, want.Authority},
		{"additional", got.Additional, want.Additional},
	}
	for _, s := range sections {
		if len(s.got) != len(s.want) {
			return fmt.Sprintf("%d %s records, want %d", len(s.got), s.name, len(s.want))
		}
		for i, g := range s.got {
			w := s.want[i]
			if g.Name != w.Name || g.Type != w.Type || g.Class != w.Class || g.TTL != w.TTL ||
				!bytes.Equal(g.Data, w.Data) || g.A != w.A || g.Target != w.Target ||
				g.Pref != w.Pref || g.Malformed != w.Malformed {
				return fmt.Sprintf("%s %d: %+v, want %+v", s.name, i, g, w)
			}
		}
	}
	return ""
}

// testIndexes returns the edge indexes plus n random ones.
func testIndexes(rng *rand.Rand, n int) []int {
	idx := []int{0, 1, 9_999_999}
	for range n {
		idx = append(idx, rng.Intn(10_000_000))
	}
	return idx
}

// TestTemplateMessageMatchesDecoder pins Message against the decoded
// encoder output for every answer kind, with the question kept and omitted,
// across flag and rcode combinations, for 3- and 4-digit cluster labels,
// edge and random indexes, and edge IDs. The CNAME and TXT names include a
// copy of the index-0 qname, which must keep its decoded value while every
// name that carries the index follows it.
func TestTemplateMessageMatchesDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	flags := []struct {
		ra, aa bool
		rcode  dnswire.Rcode
	}{
		{false, false, dnswire.RcodeNoError},
		{true, false, dnswire.RcodeNoError},
		{false, true, dnswire.RcodeRefused},
		{true, true, dnswire.RcodeServFail},
		{true, false, dnswire.RcodeNXDomain},
	}
	kinds := []behavior.AnswerKind{
		behavior.AnswerNone, behavior.AnswerTruth, behavior.AnswerFixed,
		behavior.AnswerCNAME, behavior.AnswerTXT, behavior.AnswerMalformed,
	}
	var tmpl behavior.Template
	for _, kind := range kinds {
		for _, omit := range []bool{false, true} {
			for _, f := range flags {
				for _, name := range []string{"www.example-ads.com", "or000.0000000." + paperdata.SLD} {
					p := behavior.Profile{
						RA: f.ra, AA: f.aa, Rcode: f.rcode, Answer: kind, OmitQuestion: omit,
						Addr: ipv4.MustParseAddr("203.0.113.7"), Name: name,
					}
					checkTemplate(t, &tmpl, p, []int{0, 999, 1000}, testIndexes(rng, 4))
				}
			}
		}
	}
}

// TestTemplateMessageMatchesDecoderPopulations runs the same comparison over
// every distinct profile population.Build emits for both calibration years.
func TestTemplateMessageMatchesDecoderPopulations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var tmpl behavior.Template
	for _, y := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		pop, err := population.Build(population.Config{Year: y, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, c := range pop.Cohorts {
			key := fmt.Sprintf("%+v", c.Profile)
			if seen[key] {
				continue
			}
			seen[key] = true
			checkTemplate(t, &tmpl, c.Profile, []int{0, 1000}, testIndexes(rng, 2))
		}
		if len(seen) < 10 {
			t.Errorf("%v: only %d distinct profiles", y, len(seen))
		}
	}
}

// TestTemplateOdometer walks Message through consecutive indexes across
// every carry of the index digits (…09→…10 up to 0999999→1000000, and on
// to 9999999), jumps back, and patches after a rebuild; every response
// must carry its own index's qname and ground-truth address.
func TestTemplateOdometer(t *testing.T) {
	var tmpl behavior.Template
	cluster := 3
	if err := tmpl.Build(behavior.Honest(1), cluster, paperdata.SLD); err != nil {
		t.Fatal(err)
	}
	check := func(idx int) {
		t.Helper()
		m := tmpl.Message(uint16(idx), idx)
		name := dnssrv.FormatProbeName(cluster, idx, paperdata.SLD)
		if m.Questions[0].Name != name || len(m.Answers) != 1 || m.Answers[0].A != uint32(dnssrv.TruthAddr(name)) {
			t.Fatalf("index %d: question %q, answers %+v; want %q answered with %v",
				idx, m.Questions[0].Name, m.Answers, name, dnssrv.TruthAddr(name))
		}
	}
	for idx := 0; idx <= 1100; idx++ {
		check(idx)
	}
	for pow := 10_000; pow <= 10_000_000; pow *= 10 {
		for idx := pow - 12; idx < min(pow+3, 10_000_000); idx++ {
			check(idx)
		}
	}
	// A jump back, then a consecutive run from there.
	for idx := 5; idx <= 12; idx++ {
		check(idx)
	}
	// Build writes the digits itself and checks its template on index
	// 1234567; the index before that one, patched just before, must not
	// let that check advance the digits Build wrote. After the rebuild
	// the digits, like the answer, belong to the new cluster.
	check(1_234_566)
	cluster = 4
	if err := tmpl.Build(behavior.Honest(1), cluster, paperdata.SLD); err != nil {
		t.Fatal(err)
	}
	check(1_234_568)
	for idx := 13; idx <= 20; idx++ {
		check(idx)
	}
}

// TestTemplateTruthMemo drives Message with random runs of consecutive
// indexes that cross 9→0 carries, index jumps (PutProbeIndex), repeats of
// the last index, and rebuilds between calls, to clusters of every label
// width, under another SLD and for a profile without a truth answer: every
// truth answer must be dnssrv.TruthAddr of the response's own qname.
func TestTemplateTruthMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var tmpl behavior.Template
	truth := false
	idx := 0
	for step := 0; step < 4000; step++ {
		switch r := rng.Intn(100); {
		case r < 3 || step == 0:
			sld := paperdata.SLD
			if rng.Intn(4) == 0 {
				sld = "example.org"
			}
			p := behavior.Honest(1)
			if truth = rng.Intn(5) != 0; !truth {
				p = behavior.Refuser()
			}
			if err := tmpl.Build(p, []int{0, 7, 999, 1022, 65535}[rng.Intn(5)], sld); err != nil {
				t.Fatal(err)
			}
		case r < 10:
			idx = rng.Intn(10_000_000)
		case r < 15:
			idx = []int{9, 99, 999_999, 9_999_998}[rng.Intn(4)] // carries follow
		case r < 20:
			// The same index again.
		default:
			idx = (idx + 1) % 10_000_000
		}
		m := tmpl.Message(uint16(idx), idx)
		if !truth {
			continue
		}
		name := m.Questions[0].Name
		if !strings.Contains(name, fmt.Sprintf(".%07d.", idx)) || len(m.Answers) != 1 || m.Answers[0].A != uint32(dnssrv.TruthAddr(name)) {
			t.Fatalf("step %d index %d: question %q, answers %+v; want the index's name answered with %v",
				step, idx, name, m.Answers, dnssrv.TruthAddr(name))
		}
	}
}

// TestTemplateBuildErrors: a response that cannot be encoded leaves no
// template to patch, and Build says so instead of producing one.
func TestTemplateBuildErrors(t *testing.T) {
	var tmpl behavior.Template
	long := strings.Repeat("x", 64) + ".net" // a label over 63 octets
	if err := tmpl.Build(behavior.Honest(1), 0, long); err == nil {
		t.Error("unencodable SLD: Build succeeded")
	}
	bad := behavior.Profile{Answer: behavior.AnswerCNAME, Name: strings.Repeat("y", 64) + ".com"}
	if err := tmpl.Build(bad, 0, paperdata.SLD); err == nil {
		t.Error("unencodable CNAME target: Build succeeded")
	}
}

// TestTemplateZeroAlloc pins a warm template's rebuild and patch at zero
// allocations: the synthetic engine rebuilds at every cohort and cluster
// change and patches once per probe.
func TestTemplateZeroAlloc(t *testing.T) {
	var tmpl behavior.Template
	profiles := []behavior.Profile{
		behavior.Honest(1), behavior.Refuser(),
		{RA: true, OmitQuestion: true, Answer: behavior.AnswerCNAME, Name: "www.example-ads.com"},
	}
	c := 0
	run := func() {
		p := profiles[c%len(profiles)]
		if err := tmpl.Build(p, c%1100, paperdata.SLD); err != nil {
			t.Fatal(err)
		}
		tmpl.Message(uint16(c), c*7919%10_000_000)
		c++
	}
	for range 10 {
		run()
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Errorf("%.2f allocs per rebuild and patch, want 0", avg)
	}
}
