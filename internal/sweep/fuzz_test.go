package sweep

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParseSpecFile: spec files arrive from orsweep -spec and, as
// spec_text, from service tenants. No input may panic the parser; a
// rejected input yields an error and no spec; and an accepted input is a
// pure function of its text, so two parses expand to the same grid key.
func FuzzParseSpecFile(f *testing.F) {
	f.Add(goodSpecFile)
	for _, tc := range badSpecFiles {
		f.Add(tc.in)
	}
	f.Add("mode synth\nyears 2015.5 2018\nworkers 0 3\npps 5000")
	f.Add("years 2018 2018")

	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParseSpecFile(strings.NewReader(text))
		if err != nil {
			if spec != nil {
				t.Fatalf("rejected spec %q returned %+v", text, spec)
			}
			return
		}
		again, err := ParseSpecFile(strings.NewReader(text))
		if err != nil {
			t.Fatalf("spec %q: second parse failed: %v", text, err)
		}
		a, errA := gridKey(spec)
		b, errB := gridKey(again)
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("spec %q: parses expand differently:\n%s (%v)\n%s (%v)", text, a, errA, b, errB)
		}
	})
}

// gridKey renders what the service's spec key hashes: the normalized
// scalars and every cell key in grid order.
func gridKey(s *Spec) (string, error) {
	cells, err := s.Cells()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s shift=%d seed=%d pps=%d max-events=%d\n",
		s.Mode, s.Shift, s.Seed, s.PPS, s.MaxEvents)
	for _, c := range cells {
		fmt.Fprintln(&b, c.Key())
	}
	return b.String(), nil
}
