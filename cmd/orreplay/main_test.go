package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"openresolver/internal/core"
	"openresolver/internal/paperdata"
)

// TestReplayRoundTrip produces a capture from a small simulation, replays
// it, and requires the replay's Tables III–X to be the campaign's own:
// they read nothing but the R2s, so a capture file that loses or alters a
// response shows here.
func TestReplayRoundTrip(t *testing.T) {
	ds, err := core.RunSimulation(core.Config{
		Year: paperdata.Y2018, SampleShift: 14, Seed: 5, KeepPackets: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.R2Packets.Len() == 0 {
		t.Fatal("the campaign kept no R2s")
	}
	path := filepath.Join(t.TempDir(), "r2.orlog")
	if err := os.WriteFile(path, ds.R2Packets.AppendFile(nil), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-year", "2018", "-seed", "5", path}, &out); err != nil {
		t.Fatal(err)
	}
	r := ds.Report
	want := strings.Join([]string{
		r.RenderTableIII(), r.RenderTableIV(), r.RenderTableV(), r.RenderTableVI(),
		r.RenderTableVII(), r.RenderTableVIII(), r.RenderTableIX(), r.RenderTableX(),
	}, "\n")
	if !strings.Contains(out.String(), want) {
		t.Errorf("replayed Tables III–X differ from the campaign's:\n--- replay\n%s\n--- campaign\n%s", out.String(), want)
	}
}

func TestReplayErrors(t *testing.T) {
	if err := run([]string{}, io.Discard); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"/nonexistent.orlog"}, io.Discard); err == nil {
		t.Error("nonexistent file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.orlog")
	if err := os.WriteFile(bad, []byte("not a capture"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, io.Discard); err == nil {
		t.Error("garbage file accepted")
	}
}
