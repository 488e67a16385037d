package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"openresolver/internal/core"
)

func TestRunSynth(t *testing.T) {
	if err := run([]string{"-year", "2018", "-shift", "10"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunSynthWorkers(t *testing.T) {
	if err := run([]string{"-year", "2018", "-shift", "12", "-workers", "3"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunSimWithCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulation")
	}
	path := filepath.Join(t.TempDir(), "r2.orlog")
	if err := run([]string{"-mode", "sim", "-shift", "13", "-capture", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The file is the header, then the campaign's R2 log as one packet
	// stream, byte for byte.
	cfg, err := core.Spec{Year: 2018, Shift: 13, Seed: 1, Keep: true}.Config()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := core.RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.R2Packets.Len() == 0 {
		t.Fatal("the campaign kept no R2s")
	}
	if want := ds.R2Packets.AppendStream([]byte("ORDNSCAP\x02")); !bytes.Equal(got, want) {
		t.Errorf("capture file is %d bytes, want the %d-byte header and packet stream", len(got), len(want))
	}
}

// A capture that cannot be written fails the run: here the path is a
// directory, so the write is refused.
func TestRunCaptureWriteError(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulation")
	}
	if err := run([]string{"-mode", "sim", "-shift", "14", "-capture", t.TempDir()}, io.Discard); err == nil {
		t.Error("a capture written to a directory reported success")
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-mode", "nope"}, io.Discard); err == nil {
		t.Error("bad mode accepted")
	}
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-year", "1999"}, io.Discard); err == nil {
		t.Error("unknown year accepted")
	}
	// A shift past 255 must not wrap: 276 would run at 1/2^20 and 256 at
	// full scale.
	if err := run([]string{"-shift", "276"}, io.Discard); err == nil || !strings.Contains(err.Error(), "0 to 255") {
		t.Errorf("-shift 276: got %v, want an out-of-range error", err)
	}
}

// The synthetic engine captures no packets, so -capture outside sim mode
// is refused before any campaign runs and no capture file is written.
func TestRunCaptureNeedsSim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r2.orlog")
	err := run([]string{"-shift", "12", "-capture", path}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-mode sim") {
		t.Fatalf("-capture in synth mode: got %v, want a -mode sim refusal", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("refused run left a capture file (stat: %v)", err)
	}
}

// -checkpoint-dir works in synth mode too: the campaign checkpoints every
// shard and removes the directory once it completes.
func TestRunSynthCheckpointDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := run([]string{"-shift", "12", "-checkpoint-dir", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("completed campaign left its checkpoint directory (stat: %v)", err)
	}
}

// "none" names the pristine network in every CLI. The synthetic engine
// rejects any impairment, so the run succeeding shows "none" compiled to
// an empty fault plan.
func TestRunLossModelNone(t *testing.T) {
	if err := run([]string{"-shift", "12", "-loss-model", "none"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestUsageListsWorkers(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-h"}, &buf); err != nil {
		t.Fatalf("-h returned error: %v", err)
	}
	usage := buf.String()
	for _, flag := range []string{"-workers", "-year", "-mode", "-shift"} {
		if !strings.Contains(usage, flag) {
			t.Errorf("usage output missing %s:\n%s", flag, usage)
		}
	}
	if !strings.Contains(usage, "all cores") {
		t.Errorf("-workers usage does not explain the 0 default:\n%s", usage)
	}
}

func TestRunWithExports(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	csvDir := filepath.Join(dir, "csv")
	if err := run([]string{"-year", "2018", "-shift", "12", "-json", jsonPath, "-csvdir", csvDir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(jsonPath); err != nil || st.Size() == 0 {
		t.Errorf("json export: %v", err)
	}
	for _, table := range []string{"correctness", "top10", "geo"} {
		if st, err := os.Stat(filepath.Join(csvDir, table+".csv")); err != nil || st.Size() == 0 {
			t.Errorf("csv %s: %v", table, err)
		}
	}
}
