package analysis

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"openresolver/internal/behavior"
	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/geo"
	"openresolver/internal/ipv4"
	"openresolver/internal/paperdata"
	"openresolver/internal/threatintel"
)

// mergeR2 is one synthetic response for the merge property tests.
type mergeR2 struct {
	src  ipv4.Addr
	wire []byte
}

// genMergeStream fabricates a packet stream exercising every accumulator
// path: correct and incorrect IP answers (some malicious), CNAME/TXT/
// malformed forms, no-answer responses across rcodes and flags, empty
// question sections, and undecodable payloads.
func genMergeStream(t *testing.T, cfg Config, n int, seed int64) []mergeR2 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	malicious := cfg.Threat.Addrs()
	out := make([]mergeR2, 0, n)
	for i := 0; i < n; i++ {
		src := ipv4.Addr(0x08000000 + uint32(i))
		qname := dnssrv.FormatProbeName(i%7, i%1000, paperdata.SLD)
		q := dnswire.NewQuery(uint16(i+1), qname, dnswire.TypeA)
		p := behavior.Profile{
			RA:    rng.Intn(2) == 0,
			AA:    rng.Intn(2) == 0,
			Rcode: dnswire.Rcode(rng.Intn(6)),
		}
		switch rng.Intn(10) {
		case 0, 1:
			p.Answer = behavior.AnswerTruth
		case 2:
			p.Answer = behavior.AnswerFixed
			p.Addr = malicious[rng.Intn(len(malicious))]
			p.Rcode = dnswire.RcodeNoError
		case 3:
			p.Answer = behavior.AnswerFixed
			p.Addr = ipv4.Addr(0xC0000200 + uint32(rng.Intn(4)))
		case 4:
			p.Answer = behavior.AnswerCNAME
			p.Name = "redirect" + string(rune('a'+rng.Intn(3))) + ".example.com"
		case 5:
			p.Answer = behavior.AnswerTXT
			p.Name = "garbage-" + string(rune('a'+rng.Intn(3)))
		case 6:
			p.Answer = behavior.AnswerMalformed
		case 7:
			p.Answer = behavior.AnswerNone
			p.OmitQuestion = true
		default:
			p.Answer = behavior.AnswerNone
		}
		res := dnssrv.Result{}
		if p.Answer == behavior.AnswerTruth {
			res = dnssrv.Result{Addr: dnssrv.TruthAddr(qname), OK: true}
		}
		wire, err := behavior.BuildResponse(q, p, res).Pack()
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(50) == 0 {
			wire = wire[:4] // undecodable: shorter than a header
		}
		out = append(out, mergeR2{src: src, wire: wire})
	}
	return out
}

func mergeCfg() Config {
	return Config{
		Year:   paperdata.Y2018,
		Threat: threatintel.NewFeed(paperdata.Y2018, 1).DB,
		Geo:    geo.DefaultRegistry(),
	}
}

// TestMergeEqualsSingleAccumulator is the merge property: splitting a
// stream at arbitrary boundaries, accumulating each piece independently,
// and merging the shard accumulators in order equals the
// single-accumulator result, report for report.
func TestMergeEqualsSingleAccumulator(t *testing.T) {
	cfg := mergeCfg()
	stream := genMergeStream(t, cfg, 4000, 42)
	camp := CampaignCounts{Q1: 100000, Q2: 5000, R1: 5000, R2: uint64(len(stream))}

	single := NewAccumulator(cfg)
	for _, p := range stream {
		single.AddR2(p.src, p.wire)
	}
	want := single.Report(camp)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		shards := 1 + rng.Intn(9)
		// Random ordered split points, including possibly empty shards.
		cuts := make([]int, 0, shards+1)
		cuts = append(cuts, 0)
		for i := 1; i < shards; i++ {
			cuts = append(cuts, rng.Intn(len(stream)+1))
		}
		cuts = append(cuts, len(stream))
		sort.Ints(cuts)
		merged := NewAccumulator(cfg)
		for i := 1; i < len(cuts); i++ {
			shard := NewAccumulator(cfg)
			for _, p := range stream[cuts[i-1]:cuts[i]] {
				shard.AddR2(p.src, p.wire)
			}
			merged.Merge(shard)
		}
		got := merged.Report(camp)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d shards, cuts %v): merged report differs from single-accumulator report",
				trial, shards, cuts)
		}
	}
}

// TestMergeEmpty checks the identity: merging empty accumulators changes
// nothing, in either direction.
func TestMergeEmpty(t *testing.T) {
	cfg := mergeCfg()
	stream := genMergeStream(t, cfg, 500, 3)
	camp := CampaignCounts{R2: uint64(len(stream))}

	full := NewAccumulator(cfg)
	for _, p := range stream {
		full.AddR2(p.src, p.wire)
	}
	want := full.Report(camp)

	full.Merge(NewAccumulator(cfg))
	if !reflect.DeepEqual(full.Report(camp), want) {
		t.Error("merging an empty accumulator changed the report")
	}

	other := NewAccumulator(cfg)
	for _, p := range stream {
		other.AddR2(p.src, p.wire)
	}
	empty := NewAccumulator(cfg)
	empty.Merge(other)
	if !reflect.DeepEqual(empty.Report(camp), want) {
		t.Error("merging into an empty accumulator lost state")
	}
}

// TestAddR2MatchesUnpack feeds the same stream through AddR2, which decodes
// every packet into the accumulator's one scratch message, and through a
// reference that decodes each packet into a fresh message with
// dnswire.Unpack, and requires identical reports: nothing the accumulator
// keeps may alias the scratch that the next packet overwrites.
func TestAddR2MatchesUnpack(t *testing.T) {
	cfg := mergeCfg()
	stream := genMergeStream(t, cfg, 2000, 99)
	camp := CampaignCounts{R2: uint64(len(stream))}

	ref := NewAccumulator(cfg)
	got := NewAccumulator(cfg)
	for _, p := range stream {
		if msg, err := dnswire.Unpack(p.wire); err != nil {
			ref.tab.Undecodable++
		} else {
			ref.AddMessage(p.src, msg)
		}
		got.AddR2(p.src, p.wire)
	}
	if !reflect.DeepEqual(got.Report(camp), ref.Report(camp)) {
		t.Error("AddR2 report differs from the Unpack + AddMessage report")
	}
}
