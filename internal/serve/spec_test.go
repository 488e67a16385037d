package serve

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// equivalentJobSpecs spell one grid three ways: as structured fields, as
// spec-file text, and as text with a field override.
var equivalentJobSpecs = []*JobSpec{
	{
		Years: []string{"2018"},
		Loss:  []string{"none", "loss:0.3"},
		Retry: []string{"0", "2+adaptive"},
		Shift: 16,
		Seed:  1,
	},
	{
		SpecText: strings.Join([]string{
			"# equivalence fixture",
			"years 2018",
			"loss none loss:0.3",
			"retry 0 2+adaptive",
			"shift 16",
			"seed 1",
		}, "\n"),
	},
	{
		SpecText: "years 2013\nloss none loss:0.3\nretry 0 2+adaptive\nshift 16\nseed 1",
		Years:    []string{"2018"}, // field overrides the text's year axis
	},
}

// TestCompileEquivalence pins the submission grammar: the same grid spelled
// as structured fields, as spec-file text, or as text with field overrides
// compiles to the same spec key, so the digest cache collapses all three.
func TestCompileEquivalence(t *testing.T) {
	keys := make([]string, 0, 3)
	for i, js := range equivalentJobSpecs {
		spec, err := js.Compile()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		key, err := SpecKey(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		keys = append(keys, key)
	}
	if keys[0] != keys[1] || keys[1] != keys[2] {
		t.Errorf("equivalent submissions hashed differently:\n fields   %s\n text     %s\n override %s",
			keys[0], keys[1], keys[2])
	}
}

// TestCompileDistinguishesSeeds guards the cache key against the classic
// false-hit: identical grids under different seeds (or shifts) must not
// collide, because their campaign bytes differ.
func TestCompileDistinguishesSeeds(t *testing.T) {
	base := func() *JobSpec {
		return &JobSpec{Years: []string{"2018"}, Loss: []string{"none"}, Retry: []string{"0"}, Shift: 16, Seed: 1}
	}
	key := func(js *JobSpec) string {
		t.Helper()
		spec, err := js.Compile()
		if err != nil {
			t.Fatal(err)
		}
		k, err := SpecKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	ref := key(base())
	seed := base()
	seed.Seed = 2
	if key(seed) == ref {
		t.Error("different seeds produced the same spec key")
	}
	shift := base()
	shift.Shift = 14
	if key(shift) == ref {
		t.Error("different shifts produced the same spec key")
	}
}

// badJobSpecs each fail validation at submission; FuzzJobSpec seeds from
// them.
var badJobSpecs = []*JobSpec{
	{Years: []string{"1999"}},                            // out-of-range year
	{Loss: []string{"bogus:1"}},                          // unknown impairment
	{Retry: []string{"-1"}},                              // negative budget
	{CellWorkers: []int{-2}},                             // negative workers
	{Mode: "quantum"},                                    // unknown mode
	{SpecText: "years 2018 2018"},                        // duplicate axis value
	{Mode: "synth", Loss: []string{"loss:0.5"}},          // synth has no network
	{SpecText: "retry 2+adaptive\nretry 2+adaptive\n#x"}, // duplicate retry
}

// TestCompileRejectsBadSpecs: validation errors surface at submission.
func TestCompileRejectsBadSpecs(t *testing.T) {
	for i, js := range badJobSpecs {
		if _, err := js.Compile(); err == nil {
			t.Errorf("bad spec %d compiled without error", i)
		}
	}
}

// TestTenantLimiter drives the token bucket on a fake clock: burst passes,
// the next submission is refused, elapsed time refills fractionally, and
// MaxActive holds independently of the rate.
func TestTenantLimiter(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newTenantLimiter(TenantPolicy{SubmitsPerSec: 2, Burst: 2, MaxActive: 3},
		func() time.Time { return now })

	for i := 0; i < 2; i++ {
		if err := l.admit("a"); err != nil {
			t.Fatalf("burst submission %d refused: %v", i, err)
		}
	}
	if err := l.admit("a"); !errors.Is(err, ErrAdmission) {
		t.Fatalf("over-rate submission got %v, want ErrAdmission", err)
	}
	// An independent tenant has its own bucket.
	if err := l.admit("b"); err != nil {
		t.Fatalf("tenant b refused by tenant a's bucket: %v", err)
	}
	// Half a second accrues one token at 2/s.
	now = now.Add(500 * time.Millisecond)
	if err := l.admit("a"); err != nil {
		t.Fatalf("refill not credited: %v", err)
	}
	// MaxActive: tenant a now holds 3 active jobs; a fourth is refused
	// even after the bucket refills.
	now = now.Add(time.Hour)
	if err := l.admit("a"); !errors.Is(err, ErrAdmission) {
		t.Fatalf("fourth active job got %v, want ErrAdmission (MaxActive=3)", err)
	}
	l.release("a")
	if err := l.admit("a"); err != nil {
		t.Fatalf("slot released but admission still refused: %v", err)
	}
}

// TestTenantLimiterUnlimited: the zero policy admits everything.
func TestTenantLimiterUnlimited(t *testing.T) {
	l := newTenantLimiter(TenantPolicy{}, func() time.Time { return time.Unix(0, 0) })
	for i := 0; i < 100; i++ {
		if err := l.admit("x"); err != nil {
			t.Fatalf("zero policy refused submission %d: %v", i, err)
		}
	}
}
