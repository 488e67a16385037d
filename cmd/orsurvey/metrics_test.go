package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"openresolver/internal/obs"
)

// TestMetricsEndpointSim runs a complete simulated campaign with the
// metrics server up and scrapes every endpoint through the metricsUp hook,
// which fires after the campaign's output is finished — so the snapshot
// must hold the full run: non-zero counters, populated histograms, and
// closed phase spans.
func TestMetricsEndpointSim(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulation")
	}
	defer func(old func(string)) { metricsUp = old }(metricsUp)

	var snap obs.Snapshot
	var vars, pprofIndex string
	metricsUp = func(addr string) {
		get := func(path string) []byte {
			t.Helper()
			resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d", path, resp.StatusCode)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("GET %s: read: %v", path, err)
			}
			return body
		}
		if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
			t.Fatalf("/metrics is not snapshot JSON: %v", err)
		}
		vars = string(get("/debug/vars"))
		pprofIndex = string(get("/debug/pprof/"))
		if body := get("/debug/pprof/cmdline"); len(body) == 0 {
			t.Error("/debug/pprof/cmdline empty")
		}
	}

	err := run([]string{"-mode", "sim", "-shift", "13", "-seed", "1",
		"-metrics-addr", "127.0.0.1:0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	sent := snap.Counters[obs.CounterName(obs.CProbeSent)]
	if sent == 0 {
		t.Error("snapshot has no probe.sent count after a full campaign")
	}
	if snap.Counters[obs.CounterName(obs.CSimDelivered)] == 0 {
		t.Error("snapshot has no sim.delivered count")
	}
	if snap.Counters[obs.CounterName(obs.CSimWallNanos)] == 0 {
		t.Error("snapshot has no sim.wall_nanos (clock-ratio denominator)")
	}
	if snap.Histograms[obs.HistName(obs.HRTT)].Count == 0 {
		t.Error("RTT histogram empty after a full campaign")
	}
	if snap.Histograms[obs.HistName(obs.HQueueDepth)].Count == 0 {
		t.Error("event-queue-depth histogram empty")
	}
	want := map[string]bool{"scan-universe": false, "population-place": false,
		"simulate": false, "report": false}
	for _, ph := range snap.Phases {
		if _, ok := want[ph.Name]; ok {
			want[ph.Name] = true
			if !ph.Done {
				t.Errorf("phase %s not closed", ph.Name)
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("phase %s missing from snapshot", name)
		}
	}
	if len(snap.Shards) == 0 {
		t.Error("snapshot lists no shards")
	}
	if !strings.Contains(vars, `"openresolver"`) {
		t.Error("/debug/vars missing the published registry")
	}
	if !strings.Contains(pprofIndex, "goroutine") {
		t.Error("/debug/pprof/ missing profile index")
	}
}

// TestMetricsEndpointSynth covers the synthetic engine's metrics: one shard
// per plan shard, whatever -workers is, and the response-size histogram.
func TestMetricsEndpointSynth(t *testing.T) {
	defer func(old func(string)) { metricsUp = old }(metricsUp)

	var snap obs.Snapshot
	metricsUp = func(addr string) {
		resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatalf("decode /metrics: %v", err)
		}
	}

	err := run([]string{"-year", "2018", "-shift", "12", "-workers", "3",
		"-metrics-addr", "127.0.0.1:0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters[obs.CounterName(obs.CSynthProbes)] == 0 {
		t.Error("snapshot has no synth.probes count")
	}
	if snap.Histograms[obs.HistName(obs.HRespBytes)].Count == 0 {
		t.Error("response-size histogram empty")
	}
	// The synthetic plan is 64 shards for any population of 64 probes or
	// more; -workers 3 only sets how many run at once.
	if len(snap.Shards) != 64 {
		t.Errorf("want 64 plan shards, got %d", len(snap.Shards))
	}
	for i, sh := range snap.Shards {
		if want := fmt.Sprintf("synth-%d", i); sh.Label != want {
			t.Errorf("shard %d label = %q, want %q (deterministic shard order)", i, sh.Label, want)
		}
	}
}

// TestMetricsBadAddr checks the listen error path through the CLI.
func TestMetricsBadAddr(t *testing.T) {
	if err := run([]string{"-shift", "12", "-metrics-addr", "256.0.0.1:bogus"}, io.Discard); err == nil {
		t.Error("invalid metrics address accepted")
	}
}

// TestProgressFlag drives -progress and checks the stderr ticker output.
func TestProgressFlag(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-year", "2018", "-shift", "10", "-progress", "1ms"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "obs[") {
		t.Errorf("no progress lines on stderr:\n%q", buf.String())
	}
}
