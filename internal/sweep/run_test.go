package sweep

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"openresolver/internal/core"
	"openresolver/internal/obs"
)

// faultGolden mirrors internal/core's pinned adverse-network digest
// (golden_test.go). TestSweepGoldenCell runs the identical campaign as a
// sweep cell and must reproduce it bit-for-bit — if a change legitimately
// re-derives the core constant, update this copy in the same commit.
const faultGolden = "e0ded77dface81a22b5a7685afab9b7014aadb9cd6c243c24295dc23fc13f9df"

// goldenSpec is the sweep-cell restatement of core's TestFaultGolden
// configuration: 2018 population, shift 14, seed 1, the stacked
// Gilbert–Elliott/dup/reorder/corrupt impairment line, and the full
// retransmission machinery.
func goldenSpec(t *testing.T) *Spec {
	t.Helper()
	loss, err := ParseLoss("ge:0.02,0.3,0.05,0.9;dup:0.05;reorder:0.1,30ms;corrupt:0.02")
	if err != nil {
		t.Fatal(err)
	}
	retry, err := ParseRetryPolicy("2+adaptive+backoff")
	if err != nil {
		t.Fatal(err)
	}
	year, err := ParseYear("2018")
	if err != nil {
		t.Fatal(err)
	}
	return &Spec{
		Years: []YearVal{year},
		Loss:  []LossVal{loss},
		Retry: []RetryPolicy{retry},
		Shift: 14,
		Seed:  1,
	}
}

// TestSweepGoldenCell is the bit-identity contract of the sweep runner: a
// cell must reproduce the standalone campaign exactly, so the digest a
// sweep reports is directly comparable with core's golden tests.
func TestSweepGoldenCell(t *testing.T) {
	results, err := Run(RunConfig{Spec: goldenSpec(t), PoolWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	if got := results[0].Digest; got != faultGolden {
		t.Errorf("sweep cell diverged from the standalone campaign\n got %s\nwant %s", got, faultGolden)
	}
	if results[0].ProbeStats.Retransmits == 0 {
		t.Error("golden cell reports no retransmissions; the fault plan was not applied")
	}
}

// smallSpec is a fast 2×2 grid (shift 16) used by the scheduling and
// resume tests: pristine vs lossy network, single-shot vs retrying prober.
func smallSpec(t testing.TB) *Spec {
	t.Helper()
	lossy, err := ParseLoss("loss:0.3")
	if err != nil {
		t.Fatal(err)
	}
	return &Spec{
		Loss:  []LossVal{{Label: "none"}, lossy},
		Retry: []RetryPolicy{{}, {Retries: 2, Adaptive: true}},
		Shift: 16,
		Seed:  1,
	}
}

func matrixBytes(t *testing.T, spec *Spec, results []Result) (text, js []byte) {
	t.Helper()
	m := BuildMatrix(spec, results)
	var buf bytes.Buffer
	if err := m.RenderText(&buf); err != nil {
		t.Fatal(err)
	}
	data, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), data
}

// TestSweepWorkersInvariance pins the scheduling contract: the matrix (text
// and JSON) is byte-identical whether cells run one at a time or all at
// once on the pool.
func TestSweepWorkersInvariance(t *testing.T) {
	spec1 := smallSpec(t)
	r1, err := Run(RunConfig{Spec: spec1, PoolWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec8 := smallSpec(t)
	r8, err := Run(RunConfig{Spec: spec8, PoolWorkers: 8, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t1, j1 := matrixBytes(t, spec1, r1)
	t8, j8 := matrixBytes(t, spec8, r8)
	if !bytes.Equal(t1, t8) {
		t.Errorf("text matrix differs across pool sizes:\n--- workers=1\n%s--- workers=8\n%s", t1, t8)
	}
	if !bytes.Equal(j1, j8) {
		t.Error("JSON matrix differs across pool sizes")
	}
}

// TestSweepMatrixBaseline checks the comparison semantics: the pristine
// cell of each year is the baseline (zero deltas), and a lossy cell
// differs from it.
func TestSweepMatrixBaseline(t *testing.T) {
	spec := smallSpec(t)
	results, err := Run(RunConfig{Spec: spec, PoolWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := BuildMatrix(spec, results)
	if len(m.Cells) != 4 {
		t.Fatalf("matrix has %d cells, want 4", len(m.Cells))
	}
	if !m.Cells[0].Baseline || m.Cells[0].DeltasVsBase != 0 {
		t.Errorf("cell 0 should be the zero-delta baseline: %+v", m.Cells[0])
	}
	for _, c := range m.Cells[1:] {
		if c.Baseline {
			t.Errorf("cell %d should not be baseline", c.Index)
		}
	}
	lossy := m.Cells[2] // loss=loss:0.3 retry=0
	if lossy.Loss != "loss:0.3" {
		t.Fatalf("cell 2 is %q, want the lossy cell", lossy.Loss)
	}
	if lossy.DeltasVsBase == 0 {
		t.Error("lossy cell reports zero deltas vs the pristine baseline")
	}
	if lossy.FaultDrops == 0 {
		t.Error("lossy cell reports zero fault drops")
	}
	var buf bytes.Buffer
	if err := m.RenderDeltas(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "vs baseline:") {
		t.Errorf("RenderDeltas output missing per-cell sections:\n%s", buf.String())
	}
}

// TestSweepResume checks the -resume contract end to end: a cold run
// persists one artifact per cell; deleting some and resuming re-runs only
// the missing cells; and the resumed matrix is byte-identical to the cold
// one.
func TestSweepResume(t *testing.T) {
	dir := t.TempDir()
	coldSpec := smallSpec(t)
	cold, err := Run(RunConfig{Spec: coldSpec, PoolWorkers: 2, ArtifactDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	coldText, coldJSON := matrixBytes(t, coldSpec, cold)

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 4 {
		t.Fatalf("cold run left %d artifacts, want 4", len(ents))
	}

	// Delete one artifact and corrupt another: both cells must re-run.
	cells, err := coldSpec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(artifactPath(dir, cells[1])); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(artifactPath(dir, cells[2]), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	resumeSpec := smallSpec(t)
	resumed, err := Run(RunConfig{
		Spec: resumeSpec, PoolWorkers: 2, ArtifactDir: dir, Resume: true, Log: &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false, false, true} {
		if resumed[i].Resumed != want {
			t.Errorf("cell %d Resumed = %v, want %v", i, resumed[i].Resumed, want)
		}
	}
	if n := strings.Count(log.String(), "resumed from artifact"); n != 2 {
		t.Errorf("log reports %d resumed cells, want 2:\n%s", n, log.String())
	}

	resText, resJSON := matrixBytes(t, resumeSpec, resumed)
	if !bytes.Equal(coldText, resText) {
		t.Errorf("resumed text matrix differs from cold run:\n--- cold\n%s--- resumed\n%s", coldText, resText)
	}
	if !bytes.Equal(coldJSON, resJSON) {
		t.Error("resumed JSON matrix differs from cold run")
	}

	// The re-run cells rewrote their artifacts; a second resume runs nothing.
	all, err := Run(RunConfig{Spec: smallSpec(t), PoolWorkers: 2, ArtifactDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range all {
		if !all[i].Resumed {
			t.Errorf("cell %d re-ran on a fully-populated artifact dir", i)
		}
	}

	// Artifacts encode the spec scalars: a different seed invalidates all.
	other := smallSpec(t)
	other.Seed = 9
	fresh, err := Run(RunConfig{Spec: other, PoolWorkers: 2, ArtifactDir: t.TempDir(), Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := Run(RunConfig{Spec: func() *Spec { s := smallSpec(t); s.Seed = 9; return s }(),
		PoolWorkers: 2, ArtifactDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reloaded {
		if reloaded[i].Resumed {
			t.Errorf("cell %d resumed from an artifact written under a different seed", i)
		}
		if reloaded[i].Digest != fresh[i].Digest {
			t.Errorf("cell %d digest differs between artifact-dir and fresh seed-9 runs", i)
		}
	}
}

// TestSweepTruncatedArtifactWarns is the damaged-artifact regression test:
// a hand-truncated cell artifact (the classic crash-mid-write debris) must be
// treated as "rerun this cell" — with a logged warning naming the cell —
// and the resumed matrix must still be byte-identical to the cold run.
func TestSweepTruncatedArtifactWarns(t *testing.T) {
	dir := t.TempDir()
	coldSpec := smallSpec(t)
	cold, err := Run(RunConfig{Spec: coldSpec, PoolWorkers: 2, ArtifactDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	coldText, coldJSON := matrixBytes(t, coldSpec, cold)

	cells, err := coldSpec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	path := artifactPath(dir, cells[1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	resumeSpec := smallSpec(t)
	resumed, err := Run(RunConfig{
		Spec: resumeSpec, PoolWorkers: 2, ArtifactDir: dir, Resume: true, Log: &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed[1].Resumed {
		t.Error("cell 1 resumed from a truncated artifact")
	}
	if !strings.Contains(log.String(), "artifact unusable") ||
		!strings.Contains(log.String(), "rerunning cell") {
		t.Errorf("truncated artifact produced no warning:\n%s", log.String())
	}
	resText, resJSON := matrixBytes(t, resumeSpec, resumed)
	if !bytes.Equal(coldText, resText) || !bytes.Equal(coldJSON, resJSON) {
		t.Error("matrix after truncated-artifact rerun differs from cold run")
	}
}

// TestSweepInterruptAndResume drives the graceful-shutdown path end to
// end: a context cancelled mid-sweep stops dispatching, the in-flight cell
// drains at a shard boundary leaving sub-cell checkpoints, Run hands back
// partial results with core.ErrInterrupted, completed cells already have
// artifacts on disk, and a -resume run restores the interrupted cell's
// checkpointed shards and reproduces the cold matrix byte-for-byte.
func TestSweepInterruptAndResume(t *testing.T) { checkInterruptAndResume(t, smallSpec) }

// TestSynthSweepInterruptAndResume is the same contract for a synthetic
// sweep: synth cells checkpoint per shard too.
func TestSynthSweepInterruptAndResume(t *testing.T) {
	checkInterruptAndResume(t, smallSynthSpec)
}

// smallSynthSpec is a fast synthetic grid: the 2018 and 2013 populations
// at shift 8.
func smallSynthSpec(t testing.TB) *Spec {
	var years []YearVal
	for _, y := range []string{"2018", "2013"} {
		year, err := ParseYear(y)
		if err != nil {
			t.Fatal(err)
		}
		years = append(years, year)
	}
	return &Spec{Mode: "synth", Years: years, Shift: 8, Seed: 1}
}

// checkInterruptAndResume runs the interrupt-and-resume contract on the
// grid newSpec builds (a fresh Spec per run, since Run normalizes it).
func checkInterruptAndResume(t *testing.T, newSpec func(testing.TB) *Spec) {
	coldSpec := newSpec(t)
	cold, err := Run(RunConfig{Spec: coldSpec, PoolWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	coldText, coldJSON := matrixBytes(t, coldSpec, cold)

	// Cancel as soon as the first shard checkpoint of the first cell lands:
	// mid-cell, between shard boundaries.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stopPoll, polled := make(chan struct{}), make(chan struct{})
	sawCkpt := false
	go func() {
		defer close(polled)
		defer cancel()
		for {
			select {
			case <-stopPoll:
				return
			case <-time.After(200 * time.Microsecond):
			}
			if m, _ := filepath.Glob(filepath.Join(dir, "ckpt-*", "shard-*.ckpt")); len(m) > 0 {
				sawCkpt = true
				return
			}
		}
	}()
	intSpec := newSpec(t)
	var log bytes.Buffer
	partial, err := Run(RunConfig{
		Spec: intSpec, PoolWorkers: 1, ArtifactDir: dir, Ctx: ctx, Log: &log,
	})
	close(stopPoll)
	<-polled
	if err == nil {
		if !sawCkpt {
			t.Fatal("sweep with an artifact directory wrote no shard checkpoint")
		}
		// The whole sweep outran the cancellation — possible on a very
		// fast host; the graceful path then had nothing to interrupt.
		t.Skip("sweep completed before cancellation landed")
	}
	if !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("interrupted sweep returned %v, want core.ErrInterrupted", err)
	}
	if len(partial) != len(cold) {
		t.Fatalf("partial results have %d slots, want %d", len(partial), len(cold))
	}
	for i := range partial {
		if partial[i].Report != nil {
			if _, statErr := os.Stat(artifactPath(dir, partial[i].Cell)); statErr != nil {
				t.Errorf("completed cell %d has no artifact on disk: %v", i, statErr)
			}
		}
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "ckpt-*", "shard-*.ckpt")); len(m) == 0 {
		t.Error("interrupted cell left no sub-cell checkpoints behind")
	}

	var resumeLog bytes.Buffer
	resumeSpec := newSpec(t)
	resumed, err := Run(RunConfig{
		Spec: resumeSpec, PoolWorkers: 2, ArtifactDir: dir, Resume: true, Log: &resumeLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resumeLog.String(), "restored from checkpoint") {
		t.Errorf("resume did not restore the interrupted cell's shards:\n%s", resumeLog.String())
	}
	resText, resJSON := matrixBytes(t, resumeSpec, resumed)
	if !bytes.Equal(coldText, resText) || !bytes.Equal(coldJSON, resJSON) {
		t.Error("matrix after interrupt+resume differs from cold run")
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "ckpt-*")); len(m) != 0 {
		t.Errorf("completed sweep left checkpoint directories behind: %v", m)
	}
}

// TestSweepWatchdogFlagsSlowCell pins the watchdog contract: a cell
// running longer than the threshold is flagged on the log — and only
// flagged, never killed (the sweep still completes with correct output).
func TestSweepWatchdogFlagsSlowCell(t *testing.T) {
	var log bytes.Buffer
	spec := smallSpec(t)
	results, err := Run(RunConfig{
		Spec: spec, PoolWorkers: 1, Watchdog: time.Nanosecond, Log: &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "stuck?") {
		t.Errorf("1ns watchdog never fired:\n%s", log.String())
	}
	for i := range results {
		if results[i].Report == nil {
			t.Errorf("cell %d was killed by the watchdog; it must only warn", i)
		}
	}
}
