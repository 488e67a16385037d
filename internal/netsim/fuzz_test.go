package netsim

import (
	"testing"
)

// FuzzParseImpairments: impairment specs arrive from CLI flags and, through
// sweep specs, from service tenants. No spec may panic the parser; every
// accepted spec must carry only probabilities in [0, 1] (never NaN) and a
// bounded duplication fan-out; and parsing is a pure function of the spec,
// so two parses describe identically.
func FuzzParseImpairments(f *testing.F) {
	f.Add(goodImpairmentSpec)
	for _, s := range badImpairmentSpecs {
		f.Add(s)
	}
	// The stacked chaos impairments of the campaign benchmark and of the
	// crash matrix.
	f.Add("ge:0.05,0.2,0.125,1.0;dup:0.1;reorder:0.2,40ms;corrupt:0.05;brownout:5s,20s,0.8")
	f.Add("ge:0.02,0.3,0.05,0.9;dup:0.05;reorder:0.1,30ms;corrupt:0.02")
	f.Add("loss:0.2@5s..;dup:1,16@1m..2m")

	f.Fuzz(func(t *testing.T, spec string) {
		imps, err := ParseImpairments(spec)
		if err != nil {
			return
		}
		for _, imp := range imps {
			checkParsedImpairment(t, spec, imp)
		}
		again, err := ParseImpairments(spec)
		if err != nil {
			t.Fatalf("spec %q: second parse failed: %v", spec, err)
		}
		if a, b := DescribeImpairments(imps), DescribeImpairments(again); a != b {
			t.Fatalf("spec %q: parses describe differently:\n%s\n%s", spec, a, b)
		}
	})
}

// checkParsedImpairment asserts the parser's output invariants on one
// pipeline element.
func checkParsedImpairment(t *testing.T, spec string, imp Impairment) {
	t.Helper()
	prob := func(what string, p float64) {
		if !(p >= 0 && p <= 1) {
			t.Fatalf("spec %q: %s probability %v outside [0, 1]", spec, what, p)
		}
	}
	switch v := imp.(type) {
	case *IIDLoss:
		prob("loss", v.P)
	case *GilbertElliott:
		prob("ge good→bad", v.PGoodBad)
		prob("ge bad→good", v.PBadGood)
		prob("ge good loss", v.LossGood)
		prob("ge bad loss", v.LossBad)
	case *Duplicator:
		prob("dup", v.P)
		if v.Copies < 1 || v.Copies > maxDupCopies {
			t.Fatalf("spec %q: dup copies %d outside [1, %d]", spec, v.Copies, maxDupCopies)
		}
	case *Reorderer:
		prob("reorder", v.P)
	case *Corruptor:
		prob("corrupt", v.P)
	case *Brownout:
		prob("brownout", v.Loss)
	case *Blackhole:
	case *Windowed:
		checkParsedImpairment(t, spec, v.Inner)
	default:
		t.Fatalf("spec %q: parser built unexpected %T", spec, imp)
	}
}
