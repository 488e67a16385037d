// Package sweep expands a declarative campaign grid — calibration year ×
// network impairment × retry policy × worker count — into a deterministic
// list of cells, executes them over a bounded worker pool reusing the
// campaign engines of internal/core, and renders a comparison matrix
// against the loss-free baseline cell of each year. Cells are bit-identical
// to the same campaign run standalone (pinned against internal/core's
// golden digests), cell scheduling never affects output ordering, and
// completed cells persist as JSON artifacts so an interrupted sweep can
// resume without re-running them (DESIGN.md §10).
package sweep

import (
	"bufio"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"

	"openresolver/internal/drift"
	"openresolver/internal/netsim"
	"openresolver/internal/paperdata"
)

// YearVal is one value of the calibration-year axis. Pure years select the
// paper's calibrated 2013 or 2018 population; fractional labels such as
// "2015.5" interpolate between them through drift.Interpolator.
type YearVal struct {
	Label  string
	Pure   bool
	Year   paperdata.Year // pure years only
	Weight float64        // 2018 share, interpolated years only
}

// ParseYear parses a year axis value: "2013", "2018", or a fractional
// calendar position in (2013, 2018) such as "2015.5".
func ParseYear(s string) (YearVal, error) {
	switch s {
	case "2013":
		return YearVal{Label: s, Pure: true, Year: paperdata.Y2013}, nil
	case "2018":
		return YearVal{Label: s, Pure: true, Year: paperdata.Y2018}, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return YearVal{}, fmt.Errorf("sweep: year %q is neither 2013, 2018 nor a fractional position", s)
	}
	if f <= 2013 || f >= 2018 {
		return YearVal{}, fmt.Errorf("sweep: interpolated year %q outside (2013, 2018)", s)
	}
	w := (f - 2013) / 5
	return YearVal{Label: drift.Label(w), Weight: w}, nil
}

// LossVal is one value of the impairment axis: "none" (the loss-free
// baseline candidate) or a netsim.ParseImpairments spec.
type LossVal struct {
	Label string
	Imps  []netsim.Impairment
}

// Pristine reports whether the value leaves the network untouched.
func (l LossVal) Pristine() bool { return len(l.Imps) == 0 }

// ParseLoss parses a loss axis value through the same impairment grammar
// the campaign CLIs expose; "none" and "" mean the pristine network.
func ParseLoss(s string) (LossVal, error) {
	if s == "" || s == "none" {
		return LossVal{Label: "none"}, nil
	}
	imps, err := netsim.ParseImpairments(s)
	if err != nil {
		return LossVal{}, fmt.Errorf("sweep: loss %q: %w", s, err)
	}
	if len(imps) == 0 {
		return LossVal{Label: "none"}, nil
	}
	return LossVal{Label: s, Imps: imps}, nil
}

// RetryPolicy is one value of the retry axis: the prober's retransmission
// budget plus the adaptive-RTO and upstream-backoff switches.
type RetryPolicy struct {
	Retries  int
	Adaptive bool
	Backoff  bool
}

// Label renders the policy in its canonical spec form.
func (p RetryPolicy) Label() string {
	s := strconv.Itoa(p.Retries)
	if p.Adaptive {
		s += "+adaptive"
	}
	if p.Backoff {
		s += "+backoff"
	}
	return s
}

// zero reports whether the policy is the paper's single-shot prober.
func (p RetryPolicy) zero() bool { return p == RetryPolicy{} }

// ParseRetryPolicy parses a retry axis value: a retransmission budget
// optionally extended with "+adaptive" (Jacobson/Karn RTO) and "+backoff"
// (resolver upstream backoff) in any order, e.g. "0", "5+adaptive",
// "2+adaptive+backoff". "none" is an alias for "0".
func ParseRetryPolicy(s string) (RetryPolicy, error) {
	parts := strings.Split(s, "+")
	head := strings.TrimSpace(parts[0])
	var p RetryPolicy
	if head == "none" {
		head = "0"
	}
	n, err := strconv.Atoi(head)
	if err != nil || n < 0 {
		return p, fmt.Errorf("sweep: retry %q: want <budget>[+adaptive][+backoff]", s)
	}
	p.Retries = n
	for _, opt := range parts[1:] {
		switch strings.TrimSpace(opt) {
		case "adaptive":
			p.Adaptive = true
		case "backoff":
			p.Backoff = true
		default:
			return RetryPolicy{}, fmt.Errorf("sweep: retry %q: unknown option %q", s, opt)
		}
	}
	return p, nil
}

// Spec is the declarative sweep grid: four axes plus the scalars every
// cell shares. Nil axes take defaults when the grid is expanded (2018 /
// none / single-shot / one worker); explicitly empty axes are an error.
type Spec struct {
	Years   []YearVal
	Loss    []LossVal
	Retry   []RetryPolicy
	Workers []int

	// Mode selects the campaign engine: "sim" (default; impairments and
	// retry policies apply) or "synth" (the streaming engine, where the
	// workers axis scales and the network axes must stay pristine).
	Mode string
	// Shift scales every cell to 1/2^Shift (default 14; sim needs ≥ 6).
	Shift uint8
	// Seed drives every cell's randomness (default 1).
	Seed int64
	// PPS overrides the probe rate (0 = paper value).
	PPS uint64
	// MaxEvents bounds each sim cell's event queue (default 2^21; forced
	// to 0 in synth mode, whose engine rejects any fault plan).
	MaxEvents int
}

// Cell is one expanded grid point. Index is the cell's position in the
// deterministic expansion order (years outermost, workers innermost) and
// fixes its place in the matrix regardless of execution scheduling.
type Cell struct {
	Index   int
	Year    YearVal
	Loss    LossVal
	Retry   RetryPolicy
	Workers int
}

// Key is the cell's canonical identity within its spec's shared scalars.
func (c Cell) Key() string {
	return fmt.Sprintf("year=%s loss=%s retry=%s workers=%d",
		c.Year.Label, c.Loss.Label, c.Retry.Label(), c.Workers)
}

// Slug is a filesystem-safe name for the cell's artifact, combining a
// readable prefix with a short hash of the full key (impairment specs
// collapse to underscores, so the hash keeps distinct cells distinct).
func (c Cell) Slug() string {
	clean := func(s string) string {
		return strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
				return r
			default:
				return '_'
			}
		}, s)
	}
	sum := sha256.Sum256([]byte(c.Key()))
	return fmt.Sprintf("%s-%s-%s-w%d-%s",
		clean(c.Year.Label), clean(c.Loss.Label), clean(c.Retry.Label()),
		c.Workers, hex.EncodeToString(sum[:4]))
}

// normalize fills defaulted fields in place.
func (s *Spec) normalize() {
	if s.Mode == "" {
		s.Mode = "sim"
	}
	if s.Shift == 0 {
		s.Shift = 14
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Years == nil {
		s.Years = []YearVal{{Label: "2018", Pure: true, Year: paperdata.Y2018}}
	}
	if s.Loss == nil {
		s.Loss = []LossVal{{Label: "none"}}
	}
	if s.Retry == nil {
		s.Retry = []RetryPolicy{{}}
	}
	if s.Workers == nil {
		s.Workers = []int{1}
	}
	if s.MaxEvents == 0 && s.Mode == "sim" {
		s.MaxEvents = 1 << 21
	}
	if s.Mode == "synth" {
		s.MaxEvents = 0
	}
}

// maxCells bounds a grid's expansion. Specs arrive from files and HTTP
// bodies, and a few kilobytes of axis values can multiply out to billions
// of cells; real grids are a few dozen.
const maxCells = 1 << 16

// Cells validates the spec and expands the grid in deterministic order:
// years outermost, then loss, then retry, then workers. Duplicate grid
// points, empty axes and grids over maxCells cells are errors, as are
// network axes in synth mode.
func (s *Spec) Cells() ([]Cell, error) {
	s.normalize()
	switch s.Mode {
	case "sim":
		if s.Shift < 6 {
			return nil, fmt.Errorf("sweep: sim mode needs shift ≥ 6 (got %d)", s.Shift)
		}
	case "synth":
		for _, l := range s.Loss {
			if !l.Pristine() {
				return nil, fmt.Errorf("sweep: loss %q needs sim mode (the synthetic engine has no network to impair)", l.Label)
			}
		}
		for _, p := range s.Retry {
			if !p.zero() {
				return nil, fmt.Errorf("sweep: retry policy %q needs sim mode", p.Label())
			}
		}
	default:
		return nil, fmt.Errorf("sweep: unknown mode %q (want sim or synth)", s.Mode)
	}
	for name, n := range map[string]int{
		"years": len(s.Years), "loss": len(s.Loss),
		"retry": len(s.Retry), "workers": len(s.Workers),
	} {
		if n == 0 {
			return nil, fmt.Errorf("sweep: axis %q has no values (empty grid)", name)
		}
	}
	for _, w := range s.Workers {
		if w < 0 {
			return nil, fmt.Errorf("sweep: workers %d is negative", w)
		}
	}
	n := 1
	for _, axis := range []int{len(s.Years), len(s.Loss), len(s.Retry), len(s.Workers)} {
		if n *= axis; n > maxCells {
			return nil, fmt.Errorf("sweep: grid exceeds %d cells", maxCells)
		}
	}

	var cells []Cell
	seen := make(map[string]bool)
	for _, y := range s.Years {
		for _, l := range s.Loss {
			for _, p := range s.Retry {
				for _, w := range s.Workers {
					c := Cell{Index: len(cells), Year: y, Loss: l, Retry: p, Workers: w}
					if key := c.Key(); seen[key] {
						return nil, fmt.Errorf("sweep: duplicate cell %s", key)
					} else {
						seen[key] = true
					}
					cells = append(cells, c)
				}
			}
		}
	}
	return cells, nil
}

// addAxis parses vals in the grammar of the named axis — years, loss,
// retry or workers, spelled as in a spec file — and appends them to that
// axis. It is the one axis parser behind spec files, orsweep's axis flags
// and the service's JobSpec.
func (s *Spec) addAxis(axis string, vals ...string) error {
	switch axis {
	case "years":
		return parseInto(&s.Years, ParseYear, vals)
	case "loss":
		return parseInto(&s.Loss, ParseLoss, vals)
	case "retry":
		return parseInto(&s.Retry, ParseRetryPolicy, vals)
	case "workers":
		return parseInto(&s.Workers, parseWorkers, vals)
	}
	return fmt.Errorf("sweep: unknown axis %q", axis)
}

func parseInto[T any](axis *[]T, parse func(string) (T, error), vals []string) error {
	for _, v := range vals {
		x, err := parse(v)
		if err != nil {
			return err
		}
		*axis = append(*axis, x)
	}
	return nil
}

func parseWorkers(v string) (int, error) {
	w, err := strconv.Atoi(v)
	if err != nil || w < 0 {
		return 0, fmt.Errorf("sweep: workers %q: want a non-negative integer", v)
	}
	return w, nil
}

// OverrideAxes replaces each axis whose value list is non-empty and keeps
// the others: the rule by which orsweep's axis flags and JobSpec's axis
// fields override a spec file.
func (s *Spec) OverrideAxes(years, loss, retry, workers []string) error {
	var o Spec
	if err := cmp.Or(o.addAxis("years", years...), o.addAxis("loss", loss...),
		o.addAxis("retry", retry...), o.addAxis("workers", workers...)); err != nil {
		return err
	}
	if o.Years != nil {
		s.Years = o.Years
	}
	if o.Loss != nil {
		s.Loss = o.Loss
	}
	if o.Retry != nil {
		s.Retry = o.Retry
	}
	if o.Workers != nil {
		s.Workers = o.Workers
	}
	return nil
}

// ParseSpecFile reads the small text grid format: one directive per line,
// values space-separated, '#' comments. Axis directives (years, loss,
// retry, workers) append across repeated lines; scalar directives (mode,
// shift, seed, pps, max-events) take the last value. Example:
//
//	# 2×2 robustness grid
//	mode sim
//	shift 14
//	years 2018 2013
//	loss none ge:0.05,0.2,0.125,1.0
//	retry 0 5+adaptive+backoff
//	workers 1
func ParseSpecFile(r io.Reader) (*Spec, error) {
	s := &Spec{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		dir, vals := fields[0], fields[1:]
		fail := func(err error) (*Spec, error) {
			return nil, fmt.Errorf("sweep: spec line %d: %w", line, err)
		}
		switch dir {
		case "years", "loss", "retry", "workers":
			if len(vals) == 0 {
				return fail(fmt.Errorf("axis %q has no values", dir))
			}
			if err := s.addAxis(dir, vals...); err != nil {
				return fail(err)
			}
			continue
		}
		if len(vals) != 1 {
			return fail(fmt.Errorf("directive %q wants exactly one value", dir))
		}
		switch dir {
		case "mode":
			s.Mode = vals[0]
		case "shift":
			n, err := strconv.ParseUint(vals[0], 10, 8)
			if err != nil {
				return fail(fmt.Errorf("shift %q: %w", vals[0], err))
			}
			s.Shift = uint8(n)
		case "seed":
			n, err := strconv.ParseInt(vals[0], 10, 64)
			if err != nil {
				return fail(fmt.Errorf("seed %q: %w", vals[0], err))
			}
			s.Seed = n
		case "pps":
			n, err := strconv.ParseUint(vals[0], 10, 64)
			if err != nil {
				return fail(fmt.Errorf("pps %q: %w", vals[0], err))
			}
			s.PPS = n
		case "max-events":
			n, err := strconv.Atoi(vals[0])
			if err != nil || n < 0 {
				return fail(fmt.Errorf("max-events %q: want a non-negative integer", vals[0]))
			}
			s.MaxEvents = n
		default:
			return fail(fmt.Errorf("unknown directive %q", dir))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sweep: read spec: %w", err)
	}
	return s, nil
}
