// Package serve is the resolver-observatory service daemon behind
// cmd/orserved: a multi-tenant HTTP/JSON API that turns the batch campaign
// and sweep engines (internal/core, internal/sweep) into a long-running
// spec-driven service. Clients submit the same declarative grid specs
// orsweep runs, the manager executes them as concurrent bounded jobs over
// a shared worker budget, progress and partial result matrices stream from
// the per-job observability registries mid-run, jobs cancel and resume
// through core.Config.Ctx and the shard checkpoint store, and completed
// results are content-address-cached by their spec key so an identical
// (spec, seed) submission returns instantly without re-simulation. A job
// run through the API produces byte-identical result tables to the same
// spec run through orsweep — the golden test in golden_test.go pins it
// (DESIGN.md §14, API.md).
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"openresolver/internal/sweep"
)

// JobSpec is the wire form of a sweep spec: the body of POST /v1/jobs.
// Axes and scalars mirror orsweep's flags and reuse internal/sweep's
// parsers and validation, so anything orsweep accepts on its command line
// is expressible here. Alternatively SpecText carries a complete spec file
// in the sweep.ParseSpecFile grammar; explicit axis and scalar fields then
// override it, exactly like orsweep's flags override -spec.
type JobSpec struct {
	// SpecText, when non-empty, is a whole spec file (one directive per
	// line, '#' comments — the orsweep -spec grammar).
	SpecText string `json:"spec_text,omitempty"`

	// Axis values, each parsed by the same grammar as the orsweep flag of
	// the same name. Non-empty fields override the SpecText axis.
	Years       []string `json:"years,omitempty"`        // "2013", "2018", fractional "2015.5"
	Loss        []string `json:"loss,omitempty"`         // "none" or a netsim impairment spec
	Retry       []string `json:"retry,omitempty"`        // "<budget>[+adaptive][+backoff]"
	CellWorkers []int    `json:"cell_workers,omitempty"` // per-campaign worker axis

	// Scalars shared by every cell; zero values take the sweep defaults
	// (mode sim, shift 14, seed 1, paper pps, 2^21 max events). Non-zero
	// fields override the SpecText scalar.
	Mode      string `json:"mode,omitempty"`
	Shift     uint8  `json:"shift,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	PPS       uint64 `json:"pps,omitempty"`
	MaxEvents int    `json:"max_events,omitempty"`
}

// Compile turns the wire spec into a validated sweep.Spec, expanding the
// grid once to surface every validation error (unknown axis values,
// duplicate cells, synth-mode network axes) at submission time rather than
// inside the job.
func (js *JobSpec) Compile() (*sweep.Spec, error) {
	s := &sweep.Spec{}
	if js.SpecText != "" {
		parsed, err := sweep.ParseSpecFile(strings.NewReader(js.SpecText))
		if err != nil {
			return nil, err
		}
		s = parsed
	}
	workers := make([]string, len(js.CellWorkers))
	for i, w := range js.CellWorkers {
		workers[i] = strconv.Itoa(w)
	}
	if err := s.OverrideAxes(js.Years, js.Loss, js.Retry, workers); err != nil {
		return nil, err
	}
	if js.Mode != "" {
		s.Mode = js.Mode
	}
	if js.Shift != 0 {
		s.Shift = js.Shift
	}
	if js.Seed != 0 {
		s.Seed = js.Seed
	}
	if js.PPS != 0 {
		s.PPS = js.PPS
	}
	if js.MaxEvents != 0 {
		s.MaxEvents = js.MaxEvents
	}
	if _, err := s.Cells(); err != nil {
		return nil, err
	}
	return s, nil
}

// SpecKey is the canonical content address of a compiled spec: a sha256
// over the normalized shared scalars and every expanded cell key in grid
// order. Two submissions that expand to the same grid — however they were
// spelled (spec text vs fields, defaulted vs explicit values) — collide on
// the key, which is what lets the digest cache serve a repeat of an
// identical (spec, seed) submission without re-simulation. Campaign output
// is a pure function of exactly the fields hashed here (worker counts are
// part of the grid key only because they are an axis of the matrix
// rendering; the campaign bytes themselves are worker-invariant).
func SpecKey(s *sweep.Spec) (string, error) {
	cells, err := s.Cells()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "mode=%s shift=%d seed=%d pps=%d max-events=%d\n",
		s.Mode, s.Shift, s.Seed, s.PPS, s.MaxEvents)
	for _, c := range cells {
		fmt.Fprintln(h, c.Key())
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
