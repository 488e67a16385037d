package sweep

import (
	"strings"
	"testing"

	"openresolver/internal/paperdata"
)

func TestParseYear(t *testing.T) {
	for _, tc := range []struct {
		in      string
		wantErr bool
		label   string
		pure    bool
	}{
		{in: "2013", label: "2013", pure: true},
		{in: "2018", label: "2018", pure: true},
		{in: "2015.5", label: "2015.5", pure: false},
		{in: "2014", label: "2014.0", pure: false},
		{in: "2012", wantErr: true},
		{in: "2019", wantErr: true},
		{in: "2013.0", wantErr: true}, // boundary: use the pure form
		{in: "nope", wantErr: true},
		{in: "", wantErr: true},
	} {
		y, err := ParseYear(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("ParseYear(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if y.Label != tc.label || y.Pure != tc.pure {
			t.Errorf("ParseYear(%q) = %+v, want label %q pure %v", tc.in, y, tc.label, tc.pure)
		}
	}
}

func TestParseRetryPolicy(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    string // canonical label; "" means error expected
		wantErr bool
	}{
		{in: "0", want: "0"},
		{in: "none", want: "0"},
		{in: "3", want: "3"},
		{in: "2+adaptive+backoff", want: "2+adaptive+backoff"},
		{in: "2+backoff+adaptive", want: "2+adaptive+backoff"}, // canonicalized
		{in: "5+adaptive", want: "5+adaptive"},
		{in: "-1", wantErr: true},
		{in: "2+turbo", wantErr: true},
		{in: "x", wantErr: true},
	} {
		p, err := ParseRetryPolicy(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("ParseRetryPolicy(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && p.Label() != tc.want {
			t.Errorf("ParseRetryPolicy(%q).Label() = %q, want %q", tc.in, p.Label(), tc.want)
		}
	}
}

func TestParseLoss(t *testing.T) {
	for _, in := range []string{"", "none"} {
		l, err := ParseLoss(in)
		if err != nil || !l.Pristine() || l.Label != "none" {
			t.Errorf("ParseLoss(%q) = %+v, %v; want pristine none", in, l, err)
		}
	}
	l, err := ParseLoss("loss:0.2")
	if err != nil || l.Pristine() {
		t.Fatalf("ParseLoss(loss:0.2) = %+v, %v", l, err)
	}
	if _, err := ParseLoss("bogus:1"); err == nil {
		t.Error("ParseLoss(bogus:1) should fail")
	}
}

func TestCellsValidation(t *testing.T) {
	mustLoss := func(s string) LossVal {
		l, err := ParseLoss(s)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	var huge Spec
	for i := 0; i < 300; i++ {
		huge.Workers = append(huge.Workers, i)
		huge.Retry = append(huge.Retry, RetryPolicy{Retries: i})
	}
	for _, tc := range []struct {
		name    string
		spec    Spec
		wantErr string
	}{
		{
			name:    "empty years axis",
			spec:    Spec{Years: []YearVal{}},
			wantErr: "no values",
		},
		{
			name:    "empty workers axis",
			spec:    Spec{Workers: []int{}},
			wantErr: "no values",
		},
		{
			name: "duplicate cell",
			spec: Spec{Loss: []LossVal{{Label: "none"}, {Label: "none"}}},
			// two pristine loss values expand to the same grid point
			wantErr: "duplicate cell",
		},
		{
			name:    "negative workers",
			spec:    Spec{Workers: []int{1, -2}},
			wantErr: "negative",
		},
		{
			name:    "sim shift too small",
			spec:    Spec{Shift: 4},
			wantErr: "shift",
		},
		{
			name:    "unknown mode",
			spec:    Spec{Mode: "quantum"},
			wantErr: "unknown mode",
		},
		{
			name:    "synth rejects impairments",
			spec:    Spec{Mode: "synth", Loss: []LossVal{mustLoss("loss:0.2")}},
			wantErr: "needs sim mode",
		},
		{
			name:    "grid too large",
			spec:    huge, // 90,000 cells
			wantErr: "exceeds",
		},
		{
			name:    "synth rejects retries",
			spec:    Spec{Mode: "synth", Retry: []RetryPolicy{{Retries: 2}}},
			wantErr: "needs sim mode",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.Cells()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Cells() err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestCellsExpansionOrder(t *testing.T) {
	spec := Spec{
		Years: []YearVal{
			{Label: "2018", Pure: true, Year: paperdata.Y2018},
			{Label: "2013", Pure: true, Year: paperdata.Y2013},
		},
		Loss:    []LossVal{{Label: "none"}},
		Retry:   []RetryPolicy{{}, {Retries: 2}},
		Workers: []int{1, 4},
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"year=2018 loss=none retry=0 workers=1",
		"year=2018 loss=none retry=0 workers=4",
		"year=2018 loss=none retry=2 workers=1",
		"year=2018 loss=none retry=2 workers=4",
		"year=2013 loss=none retry=0 workers=1",
		"year=2013 loss=none retry=0 workers=4",
		"year=2013 loss=none retry=2 workers=1",
		"year=2013 loss=none retry=2 workers=4",
	}
	if len(cells) != len(want) {
		t.Fatalf("got %d cells, want %d", len(cells), len(want))
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
		if c.Key() != want[i] {
			t.Errorf("cell %d = %q, want %q", i, c.Key(), want[i])
		}
	}
	// Slugs must be distinct and filesystem-safe.
	seen := map[string]bool{}
	for _, c := range cells {
		s := c.Slug()
		if seen[s] {
			t.Errorf("duplicate slug %q", s)
		}
		seen[s] = true
		if strings.ContainsAny(s, "/:;, ") {
			t.Errorf("slug %q not filesystem-safe", s)
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	spec := Spec{}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("default grid has %d cells, want 1", len(cells))
	}
	if got := cells[0].Key(); got != "year=2018 loss=none retry=0 workers=1" {
		t.Errorf("default cell = %q", got)
	}
	if spec.Mode != "sim" || spec.Shift != 14 || spec.Seed != 1 || spec.MaxEvents != 1<<21 {
		t.Errorf("defaults not normalized: %+v", spec)
	}
}

// goodSpecFile exercises every directive kind; badSpecFiles each fail on
// line 1. FuzzParseSpecFile seeds from both.
const goodSpecFile = `
# robustness grid
mode sim
shift 15
seed 7
years 2018 2013
loss none loss:0.2
retry 0 2+adaptive
workers 1
workers 4   # axis lines append
`

var badSpecFiles = []struct {
	name, in, wantErr string
}{
	{"unknown directive", "speed 9", "unknown directive"},
	{"axis without values", "years", "no values"},
	{"scalar with two values", "shift 14 15", "exactly one value"},
	{"bad year", "years 1999", "1999"},
	{"bad loss", "loss bogus:1", "bogus"},
	{"bad retry", "retry 1+turbo", "turbo"},
	{"bad workers", "workers -3", "non-negative"},
	{"bad shift", "shift many", "shift"},
	{"bad seed", "seed 1.5", "seed"},
	{"bad max-events", "max-events -1", "max-events"},
}

func TestParseSpecFile(t *testing.T) {
	spec, err := ParseSpecFile(strings.NewReader(goodSpecFile))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Mode != "sim" || spec.Shift != 15 || spec.Seed != 7 {
		t.Errorf("scalars = %+v", spec)
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*2*2 {
		t.Errorf("grid has %d cells, want 16", len(cells))
	}

	for _, tc := range badSpecFiles {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpecFile(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseSpecFile(%q) err = %v, want containing %q", tc.in, err, tc.wantErr)
			}
			if err != nil && !strings.Contains(err.Error(), "line 1") {
				t.Errorf("error %v does not carry the line number", err)
			}
		})
	}
}
