package main

import (
	"os"
	"path/filepath"
	"testing"

	"openresolver/internal/capture"
	"openresolver/internal/core"
	"openresolver/internal/paperdata"
)

func TestReplayRoundTrip(t *testing.T) {
	// Produce a capture from a small simulation, then replay it.
	ds, err := core.RunSimulation(core.Config{
		Year: paperdata.Y2018, SampleShift: 14, Seed: 5, KeepPackets: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r2.orlog")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := capture.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for it := ds.R2Packets.Iter(); it.Next(); {
		if err := w.Write(it.Packet()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-year", "2018", "-seed", "5", path}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"/nonexistent.orlog"}); err == nil {
		t.Error("nonexistent file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.orlog")
	if err := os.WriteFile(bad, []byte("not a capture"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}); err == nil {
		t.Error("garbage file accepted")
	}
}
