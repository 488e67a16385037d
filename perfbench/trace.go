package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"openresolver/internal/obs"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call (the program itself is not instrumented).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the timed and traced runs share one code path.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its ID.
func (t *tracer) begin(layer, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// children returns the closed spans named name directly under parent.
func (t *tracer) children(parent int, name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == parent && s.Name == name && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// get returns span id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		out[s.Layer] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// splitOpen divides the OpenShardCampaign span id at the first phase the
// program's own tracer in reg recorded (scan-universe). What precedes it is
// buildDeps' threat feed, population and universe build, which
// SimulatePopulation's callers do ahead of the campaign; it becomes a
// population-layer "rebuild" child, so the open's remaining self time is
// the campaign's own open. reg must have recorded nothing before the open.
func (t *tracer) splitOpen(id int, reg *obs.Registry) {
	if t == nil {
		return
	}
	phases := reg.Tracer().Spans()
	if len(phases) == 0 {
		return
	}
	at := reg.Start().Add(phases[0].Start).Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	open := t.spans[id]
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: id, Layer: "population", Name: "rebuild",
		Start: open.Start, End: min(max(at, open.Start), open.End),
	})
}

// ownOpen is the open span id less its rebuild child: the campaign's own
// open, as the program's phases measure it.
func (t *tracer) ownOpen(id int) time.Duration {
	d := t.get(id).dur()
	for _, r := range t.children(id, "rebuild") {
		d -= r.dur()
	}
	return d
}

// covered measures the union of the children's intervals clipped to p.
func covered(p span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if k.End != 0 && hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, reach int64
	for _, v := range ivs {
		if v.lo > reach {
			reach = v.lo
		}
		if v.hi > reach {
			total += v.hi - reach
			reach = v.hi
		}
	}
	return time.Duration(total)
}

// write stores the spans as JSON in dir/file.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, file)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
