package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sweepArgs is a fast 2×2 grid (shift 16): pristine vs lossy network,
// single-shot vs retrying prober, pool of two.
func sweepArgs(extra ...string) []string {
	return append([]string{
		"-shift", "16", "-seed", "1", "-workers", "2",
		"-loss", "none", "-loss", "loss:0.3",
		"-retry", "0", "-retry", "2+adaptive",
	}, extra...)
}

func TestSweepCLIMatrix(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(sweepArgs(), &out, &errb); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errb.String())
	}
	text := out.String()
	if !strings.Contains(text, "sweep matrix: mode=sim shift=16 seed=1 cells=4") {
		t.Errorf("matrix header missing:\n%s", text)
	}
	for _, want := range []string{"loss:0.3", "2+adaptive", "idx", "digest", "Δbase"} {
		if !strings.Contains(text, want) {
			t.Errorf("matrix missing %q:\n%s", want, text)
		}
	}
	// The baseline star lands on the pristine single-shot cell (row 0).
	if !strings.Contains(text, "*") {
		t.Errorf("no baseline marker in matrix:\n%s", text)
	}
	// Wall-clock stays on stderr, never in the matrix.
	if strings.Contains(text, "finished in") {
		t.Errorf("wall-clock leaked into stdout:\n%s", text)
	}
	if !strings.Contains(errb.String(), "sweep finished in") {
		t.Errorf("stderr missing the wall-clock note:\n%s", errb.String())
	}
}

// TestSweepCLIJSONAndDeterminism runs the same grid twice — pool of one,
// then pool of four with -diff — and requires identical matrix bytes.
func TestSweepCLIJSONAndDeterminism(t *testing.T) {
	dir := t.TempDir()
	j1, j4 := filepath.Join(dir, "m1.json"), filepath.Join(dir, "m4.json")

	var out1, out4, errb bytes.Buffer
	if err := run(append(sweepArgs("-json", j1), "-workers", "1"), &out1, &errb); err != nil {
		t.Fatal(err)
	}
	if err := run(append(sweepArgs("-json", j4, "-diff"), "-workers", "4"), &out4, &errb); err != nil {
		t.Fatal(err)
	}
	d1, err := os.ReadFile(j1)
	if err != nil {
		t.Fatal(err)
	}
	d4, err := os.ReadFile(j4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d4) {
		t.Error("matrix JSON differs across pool sizes")
	}
	var m struct {
		Cells []struct {
			Baseline   bool   `json:"baseline"`
			Digest     string `json:"digest"`
			DeltaCount int    `json:"delta_count"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(d1, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 4 || !m.Cells[0].Baseline || len(m.Cells[0].Digest) != 64 {
		t.Errorf("unexpected matrix JSON shape: %+v", m.Cells)
	}
	// -diff appends the per-cell tables after the (identical) matrix.
	if !strings.HasPrefix(out4.String(), out1.String()) {
		t.Error("-diff output does not extend the plain matrix")
	}
	if !strings.Contains(out4.String(), "vs baseline:") {
		t.Errorf("-diff output missing delta tables:\n%s", out4.String())
	}
}

// TestSweepCLISpecFileAndResume drives the spec-file path end to end, then
// resumes with one artifact deleted and requires byte-identical stdout.
func TestSweepCLISpecFileAndResume(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.sweep")
	artDir := filepath.Join(dir, "runs")
	specText := `# CLI test grid
mode sim
shift 16
seed 1
loss none loss:0.3
retry 0 2+adaptive
workers 1
`
	if err := os.WriteFile(specPath, []byte(specText), 0o644); err != nil {
		t.Fatal(err)
	}

	var cold, errb bytes.Buffer
	if err := run([]string{"-spec", specPath, "-out", artDir, "-workers", "2"}, &cold, &errb); err != nil {
		t.Fatalf("cold run: %v\nstderr:\n%s", err, errb.String())
	}
	ents, err := os.ReadDir(artDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 4 {
		t.Fatalf("cold run left %d artifacts, want 4", len(ents))
	}
	if err := os.Remove(filepath.Join(artDir, ents[0].Name())); err != nil {
		t.Fatal(err)
	}

	var resumed, errResume bytes.Buffer
	if err := run([]string{"-spec", specPath, "-out", artDir, "-workers", "2", "-resume"},
		&resumed, &errResume); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if !bytes.Equal(cold.Bytes(), resumed.Bytes()) {
		t.Errorf("resumed stdout differs from cold run:\n--- cold\n%s--- resumed\n%s", cold.String(), resumed.String())
	}
	if n := strings.Count(errResume.String(), "resumed from artifact"); n != 3 {
		t.Errorf("resume log reports %d resumed cells, want 3:\n%s", n, errResume.String())
	}

	// A scalar flag overrides the spec file: -shift 17 halves every cell.
	var shifted bytes.Buffer
	if err := run([]string{"-spec", specPath, "-shift", "17", "-workers", "2"}, &shifted, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(shifted.String(), "shift=17") {
		t.Errorf("-shift did not override the spec file:\n%s", shifted.String())
	}
}

// A scalar flag given on the command line overrides the spec file even
// when it is 0, which restores the default: -pps 0 runs at the paper rate
// and -max-events 0 at the default queue bound, not at the file's values
// (a 7-event queue would fail the cell).
func TestSweepCLIExplicitZeroOverridesSpec(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.sweep")
	if err := os.WriteFile(specPath, []byte("shift 16\nseed 1\npps 5000\nmax-events 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	artifact := func(args ...string) (pps uint64, maxEvents int, digest string) {
		t.Helper()
		out := filepath.Join(t.TempDir(), "runs")
		var stdout, stderr bytes.Buffer
		if err := run(append(args, "-out", out, "-workers", "1"), &stdout, &stderr); err != nil {
			t.Fatalf("run(%v): %v\nstderr:\n%s", args, err, stderr.String())
		}
		ents, err := os.ReadDir(out)
		if err != nil || len(ents) != 1 {
			t.Fatalf("want one artifact, got %d (%v)", len(ents), err)
		}
		data, err := os.ReadFile(filepath.Join(out, ents[0].Name()))
		if err != nil {
			t.Fatal(err)
		}
		var a struct {
			PPS       uint64 `json:"pps"`
			MaxEvents int    `json:"max_events"`
			Digest    string `json:"digest"`
		}
		if err := json.Unmarshal(data, &a); err != nil {
			t.Fatal(err)
		}
		return a.PPS, a.MaxEvents, a.Digest
	}
	pps, maxEvents, digest := artifact("-spec", specPath, "-pps", "0", "-max-events", "0")
	if pps != 0 || maxEvents != 1<<21 {
		t.Errorf("explicit zeros kept the spec file's scalars: pps=%d max-events=%d", pps, maxEvents)
	}
	if _, _, want := artifact("-shift", "16", "-seed", "1"); digest != want {
		t.Errorf("explicit zeros gave digest %s, want the paper-rate digest %s", digest, want)
	}
}

func TestSweepCLIErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"resume without out", []string{"-resume"}, "-resume needs -out"},
		{"bad year", []string{"-year", "1999"}, "1999"},
		{"bad loss", []string{"-loss", "bogus:1"}, "bogus"},
		{"bad retry", []string{"-retry", "1+turbo"}, "turbo"},
		{"bad cell-workers", []string{"-cell-workers", "x"}, "non-negative"},
		{"shift overflow", []string{"-shift", "276"}, "0 to 255"},
		{"duplicate cells", []string{"-loss", "none", "-loss", "none"}, "duplicate cell"},
		{"positional junk", []string{"extra"}, "unexpected argument"},
		{"missing spec file", []string{"-spec", "/nonexistent/grid.sweep"}, "no such file"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			err := run(tc.args, &out, &errb)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) err = %v, want containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestSweepCLIMetrics exercises -metrics-addr: the per-cell shards are
// visible in the JSON snapshot and the OpenMetrics exposition serves under
// a Prometheus Accept header.
func TestSweepCLIMetrics(t *testing.T) {
	scraped := make(chan error, 1)
	old := metricsUp
	metricsUp = func(addr string) {
		scraped <- func() error {
			resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
			if err != nil {
				return err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			var snap struct {
				Shards []struct {
					Label string `json:"label"`
				} `json:"shards"`
			}
			if err := json.Unmarshal(body, &snap); err != nil {
				return fmt.Errorf("snapshot JSON: %w", err)
			}
			var cellShards int
			for _, sh := range snap.Shards {
				if strings.HasPrefix(sh.Label, "cell-") {
					cellShards++
				}
			}
			if cellShards != 4 {
				return fmt.Errorf("snapshot has %d cell shards, want 4", cellShards)
			}

			req, err := http.NewRequest("GET", fmt.Sprintf("http://%s/metrics", addr), nil)
			if err != nil {
				return err
			}
			req.Header.Set("Accept", "application/openmetrics-text")
			resp2, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			expo, err := io.ReadAll(resp2.Body)
			resp2.Body.Close()
			if err != nil {
				return err
			}
			if !strings.Contains(string(expo), "openresolver_probe_sent_total") {
				return fmt.Errorf("exposition missing probe counter:\n%s", expo)
			}
			return nil
		}()
	}
	defer func() { metricsUp = old }()

	var out, errb bytes.Buffer
	if err := run(sweepArgs("-metrics-addr", "127.0.0.1:0"), &out, &errb); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errb.String())
	}
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
}
