package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"openresolver/internal/obs"
)

// smokeBaseline is the Makefile's SMOKE_BASELINE: the FaultDigest of the
// loss-free 2018 cell of the smoke grid at shift 14, seed 1.
const smokeBaseline = "d19bd873ab802eecb15921fb73145c7ca0ae4b5eed4d5b6aa670791ad1557d47"

// tiny shrinks a workload so the whole matrix runs in seconds; the fleet
// grid at shift 14 is exactly the Makefile's smoke grid.
func tiny(w workload) workload {
	switch w.mode {
	case "synth":
		w.shift = 12
	default:
		w.shift = 14
	}
	return w
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesHarness pins BENCHMARK.json to the workloads and per-layer
// metrics the harness defines.
func TestSpecMatchesHarness(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, harness %q", got, want)
	}
	if len(s.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, harness %d", len(s.PerLayer), len(layerMetrics))
	}
	for i, m := range s.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), harness %s (%s)", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

// TestRecordedDigestsCover checks that digests.json has a reference for
// every workload and recorded seed, and nothing else.
func TestRecordedDigestsCover(t *testing.T) {
	want := map[string]bool{}
	for _, name := range workloadNames() {
		for seed := int64(0); seed < recordedSeeds; seed++ {
			want[digestKey(workloads[name], seed)] = true
		}
	}
	for k := range want {
		if recordedDigests[k] == "" {
			t.Errorf("digests.json lacks %q", k)
		}
	}
	for k := range recordedDigests {
		if !want[k] {
			t.Errorf("digests.json has stray entry %q", k)
		}
	}
}

// TestWorkloadsTiny runs every workload at a tiny scale, untraced and
// traced. Each run must be correct and emit every metric of its kind,
// finite and with its unit, and tracing must not change the output bytes.
func TestWorkloadsTiny(t *testing.T) {
	s := loadSpec(t)
	units := func(traced bool) map[string]string {
		m := map[string]string{}
		if traced {
			for _, x := range s.PerLayer {
				m[x.Name] = x.Unit
			}
		} else {
			for _, x := range s.EndToEnd {
				m[x.Name] = x.Unit
			}
		}
		return m
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			digests := map[bool]string{}
			for _, traced := range []bool{false, true} {
				b := &bench{
					w: tiny(workloads[name]), seed: 1, traced: traced,
					recorded: recordedDigests, stateRoot: t.TempDir(), log: io.Discard,
				}
				res, err := b.run()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
				}
				want := units(traced)
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for n, unit := range want {
					m, ok := res.Metrics[n]
					switch {
					case !ok:
						t.Errorf("traced=%v: metric %s missing", traced, n)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("traced=%v: metric %s = %v", traced, n, m.Value)
					case m.Unit != unit:
						t.Errorf("traced=%v: metric %s unit %q, want %q", traced, n, m.Unit, unit)
					}
				}
				if !traced && res.Metrics["setup_s"].Value <= 0 {
					t.Errorf("setup_s = %v, want > 0", res.Metrics["setup_s"].Value)
				}
				digests[traced] = b.digest
			}
			if digests[false] == "" || digests[false] != digests[true] {
				t.Errorf("untraced digest %.16s, traced %.16s", digests[false], digests[true])
			}
			if name == "fleet-2x2" && !strings.HasPrefix(digests[false], smokeBaseline+",") {
				t.Errorf("fleet smoke grid's first cell is not the smoke baseline: %.64s", digests[false])
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Layer: "serve", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "fabric", Start: 10, End: 50},
		{ID: 2, Parent: 0, Layer: "fabric", Start: 40, End: 70},
		{ID: 3, Parent: 0, Layer: "fabric", Start: 90, End: 120},
	}}
	self := tr.selfTimes()
	// serve: 100 minus the union [10,70) ∪ [90,100) = 30.
	if got := self["serve"]; got != 30*time.Nanosecond {
		t.Errorf("serve self time = %v, want 30ns", got)
	}
	if got := self["fabric"]; got != 100*time.Nanosecond {
		t.Errorf("fabric self time = %v, want 100ns", got)
	}
}

// TestSplitOpen checks that the part of an open before the program's first
// phase is booked to the population layer, and the rest stays the open's.
func TestSplitOpen(t *testing.T) {
	tr := newTracer()
	id := tr.begin("core", "open", -1)
	time.Sleep(20 * time.Millisecond) // the rebuild
	reg := obs.NewRegistry()
	sp := reg.Tracer().Begin("scan-universe")
	time.Sleep(10 * time.Millisecond)
	reg.Tracer().End(sp)
	tr.end(id)
	tr.splitOpen(id, reg)

	rebuild := tr.children(id, "rebuild")
	if len(rebuild) != 1 || rebuild[0].Layer != "population" || rebuild[0].dur() < 20*time.Millisecond {
		t.Fatalf("rebuild spans %+v, want one population span of at least 20ms", rebuild)
	}
	own := tr.ownOpen(id)
	if own < 10*time.Millisecond || own != tr.get(id).dur()-rebuild[0].dur() {
		t.Errorf("own open %v, want the open less its rebuild and at least 10ms", own)
	}
	if self := tr.selfTimes(); self["core"] != own || self["population"] != rebuild[0].dur() {
		t.Errorf("self times %v, want core %v and population %v", self, own, rebuild[0].dur())
	}
}

func TestHistQuantile(t *testing.T) {
	var sh obs.Shard
	for v := int64(1); v <= 100; v++ {
		sh.Observe(obs.HQueueDepth, v)
	}
	snap := sh.Histogram(obs.HQueueDepth).Snapshot()
	if got := histQuantile(snap, 0.5); got < 32 || got > 64 {
		t.Errorf("p50 = %v, want inside the [32,64) bucket", got)
	}
	if got := histQuantile(snap, 1); got != 100 {
		t.Errorf("p100 = %v, want the maximum 100", got)
	}
	if got := quantile([]float64{5, 1, 3, 2, 4}, 0.99); got != 5 {
		t.Errorf("nearest-rank p99 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
