package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"openresolver/internal/analysis"
	"openresolver/internal/netsim"
	"openresolver/internal/prober"
)

// parentArtifact is the artifact layout written while Result carried no
// JSON form of its own: the same fields, plus net_stats, clusters_used and
// subdomains_reused, which nothing read.
type parentArtifact struct {
	Version   int    `json:"version"`
	Key       string `json:"key"`
	Mode      string `json:"mode"`
	Shift     uint8  `json:"shift"`
	Seed      int64  `json:"seed"`
	PPS       uint64 `json:"pps"`
	MaxEvents int    `json:"max_events"`

	Digest           string            `json:"digest"`
	Report           *analysis.Report  `json:"report"`
	NetStats         netsim.Stats      `json:"net_stats"`
	FaultStats       netsim.FaultStats `json:"fault_stats"`
	ProbeStats       prober.Stats      `json:"probe_stats"`
	ClustersUsed     int               `json:"clusters_used"`
	SubdomainsReused uint64            `json:"subdomains_reused"`
	VirtualNanos     uint64            `json:"virtual_nanos"`
	WallNanos        uint64            `json:"wall_nanos"`
}

// TestSweepResumesParentFormatArtifacts: artifacts in the older layout,
// with its three extra counters, still resume every cell, and the resumed
// matrix is byte-identical to the cold run's.
func TestSweepResumesParentFormatArtifacts(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec(t)
	cold, err := Run(RunConfig{Spec: spec, PoolWorkers: 2, ArtifactDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	coldText, coldJSON := matrixBytes(t, spec, cold)
	for _, res := range cold {
		st := res.ProbeStats
		old, err := json.MarshalIndent(parentArtifact{
			Version: artifactVersion, Key: res.Cell.Key(),
			Mode: spec.Mode, Shift: spec.Shift, Seed: spec.Seed, PPS: spec.PPS, MaxEvents: spec.MaxEvents,
			Digest: res.Digest, Report: res.Report,
			NetStats:   netsim.Stats{Sent: st.Sent + st.Retransmits, Delivered: st.Received},
			FaultStats: res.FaultStats, ProbeStats: st,
			ClustersUsed: st.ClustersUsed, SubdomainsReused: st.Reused,
			VirtualNanos: res.VirtualNanos, WallNanos: res.WallNanos,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(artifactPath(dir, res.Cell), old, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var log bytes.Buffer
	resumed, err := Run(RunConfig{Spec: smallSpec(t), PoolWorkers: 2, ArtifactDir: dir, Resume: true, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	for i := range resumed {
		if !resumed[i].Resumed {
			t.Errorf("cell %d re-ran instead of resuming from its older-layout artifact:\n%s", i, log.String())
		}
	}
	text, js := matrixBytes(t, spec, resumed)
	if !bytes.Equal(coldText, text) || !bytes.Equal(coldJSON, js) {
		t.Errorf("matrix resumed from older-layout artifacts differs:\n--- cold\n%s--- resumed\n%s", coldText, text)
	}
}

// FuzzLoadArtifact feeds untrusted bytes to loadArtifact as the artifact
// of each of three cells: both cells of a small synthetic grid and one
// cell of the same grid under another seed. Properties: no panic; a load that succeeds
// names exactly that cell, its spec's scalars and the current version,
// carries a digest and a report, and round-trips through writeArtifact;
// and no bytes load as more than one of the three.
func FuzzLoadArtifact(f *testing.F) {
	spec := smallSynthSpec(f)
	other := smallSynthSpec(f)
	other.Seed = 9
	cells, err := spec.Cells()
	if err != nil {
		f.Fatal(err)
	}
	otherCells, err := other.Cells()
	if err != nil {
		f.Fatal(err)
	}
	targets := []struct {
		spec *Spec
		cell Cell
	}{{spec, cells[0]}, {spec, cells[1]}, {other, otherCells[0]}}

	dir := f.TempDir()
	results, err := Run(RunConfig{Spec: spec, PoolWorkers: 2, ArtifactDir: dir})
	if err != nil {
		f.Fatal(err)
	}
	for _, res := range results {
		data, err := os.ReadFile(artifactPath(dir, res.Cell))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(bytes.Replace(data, []byte(`"version": 1`), []byte(`"version": 2`), 1))
		f.Add(bytes.Replace(data, []byte(`"seed": 1`), []byte(`"seed": 9`), 1))
		f.Add(bytes.Replace(data, []byte(`"report": {`), []byte(`"report": null, "x": {`), 1))
	}
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		accepted := 0
		for _, tg := range targets {
			if err := os.WriteFile(artifactPath(dir, tg.cell), data, 0o644); err != nil {
				t.Fatal(err)
			}
			res, ok, err := loadArtifact(tg.spec, tg.cell, dir)
			if !ok {
				if err == nil {
					t.Fatalf("cell %s: an existing artifact was refused without a reason", tg.cell.Key())
				}
				continue
			}
			accepted++
			checkLoadedArtifact(t, tg.spec, tg.cell, data, res)
		}
		if accepted > 1 {
			t.Fatalf("one artifact loaded as %d different cells", accepted)
		}
	})
}

// checkLoadedArtifact requires an accepted artifact to name cell c of spec
// under the current version, to carry a digest and a report, and to load
// back the same Result after writeArtifact rewrites it.
func checkLoadedArtifact(t *testing.T, spec *Spec, c Cell, data []byte, res Result) {
	var id struct {
		Version   int    `json:"version"`
		Key       string `json:"key"`
		Mode      string `json:"mode"`
		Shift     uint8  `json:"shift"`
		Seed      int64  `json:"seed"`
		PPS       uint64 `json:"pps"`
		MaxEvents int    `json:"max_events"`
	}
	if err := json.Unmarshal(data, &id); err != nil {
		t.Fatalf("cell %s: accepted bytes that are not an artifact: %v", c.Key(), err)
	}
	if id.Version != artifactVersion || id.Key != c.Key() || id.Mode != spec.Mode || id.Shift != spec.Shift ||
		id.Seed != spec.Seed || id.PPS != spec.PPS || id.MaxEvents != spec.MaxEvents {
		t.Fatalf("cell %s: accepted an artifact of %+v", c.Key(), id)
	}
	if !reflect.DeepEqual(res.Cell, c) || res.Resumed || res.Digest == "" || res.Report == nil {
		t.Fatalf("cell %s: accepted an incomplete result %+v", c.Key(), res)
	}
	dir := t.TempDir()
	if err := writeArtifact(spec, &res, dir); err != nil {
		t.Fatalf("cell %s: accepted result does not rewrite: %v", c.Key(), err)
	}
	again, ok, err := loadArtifact(spec, c, dir)
	if !ok || !reflect.DeepEqual(again, res) {
		t.Fatalf("cell %s: rewritten artifact loads as %+v (ok=%v, %v), want %+v", c.Key(), again, ok, err, res)
	}
}
