package core

// Checkpoint/restore and crash-recovery tests (DESIGN.md §13). The
// recovery contract under test: a campaign interrupted at any shard
// boundary — gracefully (context cancel) or violently (process kill,
// via the subprocess crash matrix in crash_test.go) — and rerun with the
// same configuration produces campaign bytes identical to an
// uninterrupted run, and a damaged checkpoint (torn, short, corrupt,
// mismatched configuration) is never merged: it is detected, logged, and
// its shard re-executes.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
	"openresolver/internal/obs"
	"openresolver/internal/paperdata"
	"openresolver/internal/scan"
)

// ckptTestConfig is the shared campaign the checkpoint tests interrupt and
// resume: small enough to run many times, large enough for a multi-shard
// plan (16 shards at the paper's 2013 rate).
func ckptTestConfig() Config {
	return Config{Year: paperdata.Y2013, SampleShift: 14, Seed: 11, KeepPackets: true}
}

func mustSimulate(t *testing.T, cfg Config) *Dataset {
	t.Helper()
	ds, err := RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// notifyFS wraps a CheckpointFS and invokes a hook after every successful
// rename — i.e. at every persisted shard boundary.
type notifyFS struct {
	CheckpointFS
	onRename func(n int)
	renames  int
}

func (f *notifyFS) Rename(oldpath, newpath string) error {
	if err := f.CheckpointFS.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.renames++
	if f.onRename != nil {
		f.onRename(f.renames)
	}
	return nil
}

// interruptCampaign starts the campaign through run (RunSimulation or
// RunSynthetic) with checkpointing into dir and cancels its context after
// `after` shards have been persisted, returning the checkpoint log. The
// campaign must return ErrInterrupted.
func interruptCampaign(t *testing.T, run func(Config) (*Dataset, error), cfg Config, dir string, after int) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var log bytes.Buffer
	fs := &notifyFS{CheckpointFS: osCheckpointFS{}}
	fs.onRename = func(n int) {
		if n >= after {
			cancel()
		}
	}
	cfg.Ctx = ctx
	cfg.Checkpoints = CheckpointPlan{Dir: dir, FS: fs, Log: &log}
	// Workers 1 so cancellation after `after` persisted shards leaves the
	// rest genuinely unrun (a wide pool could drain everything in flight).
	cfg.Workers = 1
	_, err := run(cfg)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted campaign: got error %v, want ErrInterrupted", err)
	}
	if fs.renames < after {
		t.Fatalf("campaign persisted %d shards before interrupt, want ≥ %d", fs.renames, after)
	}
	return log.String()
}

// countCheckpoints returns how many shard checkpoint files exist in dir.
func countCheckpoints(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// TestCheckpointResumeIdentical is the core recovery property, for both
// engines: interrupt a campaign partway, resume it with the same
// configuration, and the merged dataset — report, digest and rendered
// tables — is identical to an uninterrupted run's. Checkpoints are cleaned
// up after the successful merge. The synthetic campaign is also resumed
// from a non-prefix set of restored shards, so its segment walk passes
// the restored shards' draws between the ones it reads.
func TestCheckpointResumeIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		run    func(Config) (*Dataset, error)
		sparse []int // shards restored in the non-prefix resume; nil skips it
	}{
		{"sim", ckptTestConfig(), RunSimulation, nil},
		{"synth", Config{Year: paperdata.Y2018, SampleShift: 10, Seed: 11}, runSynthUnpinned, []int{1, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cold, err := tc.run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			interruptCampaign(t, tc.run, tc.cfg, dir, 3)
			if n := countCheckpoints(t, dir); n < 3 {
				t.Fatalf("after interrupt: %d checkpoint files, want ≥ 3", n)
			}

			var log bytes.Buffer
			resumed := tc.cfg
			resumed.Checkpoints = CheckpointPlan{Dir: dir, Log: &log}
			ds, err := tc.run(resumed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ds.Report, cold.Report) {
				t.Error("resumed campaign's report differs from cold run")
			}
			if got, want := FaultDigest(ds), FaultDigest(cold); got != want {
				t.Errorf("resumed campaign diverged from cold run\n got %s\nwant %s", got, want)
			}
			if cold.Report.RenderAll() != ds.Report.RenderAll() {
				t.Error("resumed campaign rendered tables differ from cold run")
			}
			if cold.Roles != nil && rolesDigest(ds.Roles) != rolesDigest(cold.Roles) {
				t.Error("resumed campaign's responder roles differ from cold run")
			}
			if got := strings.Count(log.String(), "restored from checkpoint"); got < 3 {
				t.Errorf("resume restored %d shards, want ≥ 3:\n%s", got, log.String())
			}
			if n := countCheckpoints(t, dir); n != 0 {
				t.Errorf("completed campaign left %d checkpoint files behind", n)
			}
			if tc.sparse != nil {
				resumeSparse(t, tc.run, tc.cfg, tc.sparse, cold)
			}
		})
	}
}

// runSynthUnpinned runs cfg's synthetic campaign with every other cohort's
// country pin dropped. Build pins every malicious cohort to a country, so
// the report of its population never sees which unpinned address a probe
// drew; unpinned malicious cohorts put the stride walk into the malicious
// geolocation table, so a resume that misplaces a shard's draws shows.
func runSynthUnpinned(cfg Config) (*Dataset, error) {
	pop, feed, err := buildDeps(cfg)
	if err != nil {
		return nil, err
	}
	for i := range pop.Cohorts {
		if i%2 == 0 {
			pop.Cohorts[i].Country = ""
		}
	}
	return SynthesizePopulation(cfg, pop, feed.DB)
}

// resumeSparse checkpoints every shard of a campaign, deletes all but the
// listed shards' files, and resumes: the resumed report must equal the cold
// run's, and the resume must walk each segment of the stride walk once, as
// the checkpointing run did.
func resumeSparse(t *testing.T, run func(Config) (*Dataset, error), cfg Config, shards []int, cold *Dataset) {
	t.Helper()
	dir := t.TempDir()
	keep := cfg
	keep.Checkpoints = CheckpointPlan{Dir: dir, Keep: true}
	keep.Obs = obs.NewRegistry()
	if _, err := run(keep); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	restored := make(map[string]bool)
	for _, i := range shards {
		restored[fmt.Sprintf("shard-%03d.ckpt", i)] = true
	}
	for _, m := range matches {
		if !restored[filepath.Base(m)] {
			if err := os.Remove(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := countCheckpoints(t, dir); n != len(shards) {
		t.Fatalf("kept %d checkpoint files, want %d (shards %v)", n, len(shards), shards)
	}
	var log bytes.Buffer
	cfg.Workers = 1
	cfg.Checkpoints = CheckpointPlan{Dir: dir, Log: &log}
	cfg.Obs = obs.NewRegistry()
	ds, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(log.String(), "restored from checkpoint"); got != len(shards) {
		t.Errorf("resume restored %d shards, want %d:\n%s", got, len(shards), log.String())
	}
	// The restored shards' metrics, walks of the checkpointing run
	// included, are merged back in; the resume's own walks are the rest.
	walked, want := cfg.Obs.Merged().Counter(obs.CSynthSegmentsWalked), keep.Obs.Merged().Counter(obs.CSynthSegmentsWalked)
	for _, i := range shards {
		walked -= cfg.Obs.Shards()[i].Counter(obs.CSynthSegmentsWalked)
	}
	if walked != want || want == 0 {
		t.Errorf("resume from shards %v walked %d segments, the cold run %d", shards, walked, want)
	}
	if !reflect.DeepEqual(ds.Report, cold.Report) {
		t.Errorf("campaign resumed from shards %v: report differs from cold run", shards)
	}
}

// TestCheckpointKeep pins the Keep escape hatch: a completed campaign
// retains its shard files when asked, and a rerun over them restores every
// shard without executing any.
func TestCheckpointKeep(t *testing.T) {
	cfg := ckptTestConfig()
	cfg.SampleShift = 16 // cheap: this test runs the campaign twice
	dir := t.TempDir()
	cfg.Checkpoints = CheckpointPlan{Dir: dir, Keep: true}
	first, err := RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := countCheckpoints(t, dir)
	if n == 0 {
		t.Fatal("Keep: no checkpoint files retained")
	}
	var log bytes.Buffer
	cfg.Checkpoints.Log = &log
	second, err := RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if FaultDigest(first) != FaultDigest(second) {
		t.Error("fully-restored campaign diverged from the run that wrote it")
	}
	if got := strings.Count(log.String(), "restored from checkpoint"); got != n {
		t.Errorf("restored %d shards, want all %d:\n%s", got, n, log.String())
	}
}

// faultWriter fails or mangles checkpoint writes in a configurable way.
type faultWriter struct {
	f         CheckpointFile
	tornAfter int  // > 0: silently drop bytes beyond this prefix
	failWrite bool // return ENOSPC from Write
}

func (w *faultWriter) Write(p []byte) (int, error) {
	if w.failWrite {
		return len(p) / 2, syscall.ENOSPC
	}
	if w.tornAfter > 0 && w.tornAfter < len(p) {
		// A torn write: only a prefix reaches the disk, but the writer
		// reports full success — the failure mode fsync-then-rename cannot
		// prevent, only detection at load can.
		if _, err := w.f.Write(p[:w.tornAfter]); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return w.f.Write(p)
}

func (w *faultWriter) Sync() error  { return w.f.Sync() }
func (w *faultWriter) Close() error { return w.f.Close() }

// faultFS injects write-side faults into every checkpoint file.
type faultFS struct {
	CheckpointFS
	tornAfter  int
	shortWrite bool // Write reports fewer bytes than given, no error
	failWrite  bool
	failRename bool
}

func (f *faultFS) Create(name string) (CheckpointFile, error) {
	file, err := f.CheckpointFS.Create(name)
	if err != nil {
		return nil, err
	}
	if f.shortWrite {
		return shortWriter{file}, nil
	}
	return &faultWriter{f: file, tornAfter: f.tornAfter, failWrite: f.failWrite}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if f.failRename {
		return syscall.EIO
	}
	return f.CheckpointFS.Rename(oldpath, newpath)
}

// shortWriter accepts only half of every write and says so.
type shortWriter struct{ f CheckpointFile }

func (w shortWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p[:len(p)/2])
	return n, err
}
func (w shortWriter) Sync() error  { return w.f.Sync() }
func (w shortWriter) Close() error { return w.f.Close() }

// TestCheckpointWriteFaultsSurvive drives a full campaign through every
// write-side failure mode — ENOSPC, short writes, rename failure — and
// checks the contract: the campaign completes with byte-identical output
// (checkpoint loss never costs correctness, only resumability), every
// failure is logged, and no checkpoint or temp file debris survives.
func TestCheckpointWriteFaultsSurvive(t *testing.T) {
	cfg := ckptTestConfig()
	cfg.SampleShift = 16
	want := FaultDigest(mustSimulate(t, cfg))

	cases := []struct {
		name    string
		fs      faultFS
		logWant string
	}{
		{"enospc", faultFS{failWrite: true}, "no space left"},
		{"short-write", faultFS{shortWrite: true}, "short write"},
		{"rename-fails", faultFS{failRename: true}, "rename"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var log bytes.Buffer
			run := cfg
			tc.fs.CheckpointFS = osCheckpointFS{}
			run.Checkpoints = CheckpointPlan{Dir: dir, FS: &tc.fs, Log: &log}
			ds, err := RunSimulation(run)
			if err != nil {
				t.Fatalf("campaign must survive checkpoint write failure: %v", err)
			}
			if got := FaultDigest(ds); got != want {
				t.Errorf("write faults changed campaign bytes\n got %s\nwant %s", got, want)
			}
			if !strings.Contains(log.String(), "continuing without") ||
				!strings.Contains(strings.ToLower(log.String()), tc.logWant) {
				t.Errorf("log missing %q / continuing-without notice:\n%s", tc.logWant, log.String())
			}
			entries, err := os.ReadDir(dir)
			if err != nil && !errors.Is(err, os.ErrNotExist) {
				t.Fatal(err)
			}
			for _, e := range entries {
				t.Errorf("debris left in checkpoint dir: %s", e.Name())
			}
		})
	}
}

// TestCheckpointTornWriteRerunsShard is the torn-write half of the
// contract: checkpoints whose payload silently lost its tail are detected
// at load (JSON truncation or payload digest mismatch), logged, discarded,
// and their shards re-executed — the resumed campaign still reproduces the
// cold run's bytes. Corrupt state is never silently merged.
func TestCheckpointTornWriteRerunsShard(t *testing.T) {
	cfg := ckptTestConfig()
	want := FaultDigest(mustSimulate(t, cfg))

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	torn := &faultFS{CheckpointFS: osCheckpointFS{}, tornAfter: 512}
	fs := &notifyFS{CheckpointFS: torn}
	fs.onRename = func(n int) {
		if n >= 3 {
			cancel()
		}
	}
	run := cfg
	run.Ctx = ctx
	run.Workers = 1
	run.Checkpoints = CheckpointPlan{Dir: dir, FS: fs}
	if _, err := RunSimulation(run); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("got %v, want ErrInterrupted", err)
	}
	if n := countCheckpoints(t, dir); n < 3 {
		t.Fatalf("%d torn checkpoint files on disk, want ≥ 3", n)
	}

	var log bytes.Buffer
	resumed := cfg
	resumed.Checkpoints = CheckpointPlan{Dir: dir, Log: &log}
	ds, err := RunSimulation(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got := FaultDigest(ds); got != want {
		t.Errorf("campaign resumed over torn checkpoints diverged\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(log.String(), "rerunning shard") {
		t.Errorf("torn checkpoints were not reported for rerun:\n%s", log.String())
	}
	if strings.Contains(log.String(), "restored from checkpoint") {
		t.Errorf("a torn checkpoint was restored:\n%s", log.String())
	}
}

// TestCheckpointFlippedByteRejected corrupts one byte of a valid
// checkpoint file (a bit-rot / partial-overwrite stand-in) in each of two
// places: the header (the campaign key) of one file and the middle of the
// packet section of another. The first no longer names this campaign and
// the second no longer matches its payload digest — both must reject the
// file and rerun the shard.
func TestCheckpointFlippedByteRejected(t *testing.T) {
	cfg := ckptTestConfig()
	want := FaultDigest(mustSimulate(t, cfg))

	dir := t.TempDir()
	interruptCampaign(t, RunSimulation, cfg, dir, 2)
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.ckpt"))
	if err != nil || len(files) < 2 {
		t.Fatalf("%d checkpoints to corrupt, want ≥ 2 (err=%v)", len(files), err)
	}
	flip := func(file string, at func(data []byte) int) {
		t.Helper()
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		data[at(data)] ^= 0xFF
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flip(files[0], func([]byte) int { return envKeyOff + 7 })
	flip(files[1], func(data []byte) int {
		stateLen, k := binary.Uvarint(data[envHeaderLen:])
		packets := envHeaderLen + k + int(stateLen)
		if packets >= len(data)-1 {
			t.Fatalf("%s holds no packet section", files[1])
		}
		return (packets + len(data)) / 2
	})

	var log bytes.Buffer
	resumed := cfg
	resumed.Checkpoints = CheckpointPlan{Dir: dir, Log: &log}
	ds, err := RunSimulation(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got := FaultDigest(ds); got != want {
		t.Errorf("campaign resumed over corrupt checkpoints diverged\n got %s\nwant %s", got, want)
	}
	for _, reason := range []string{"different campaign", "payload digest mismatch"} {
		if !strings.Contains(log.String(), reason) {
			t.Errorf("no checkpoint rejected for %q:\n%s", reason, log.String())
		}
	}
	if !strings.Contains(log.String(), "rerunning shard") {
		t.Errorf("corrupt checkpoints were not reported for rerun:\n%s", log.String())
	}
}

// TestCheckpointCampaignMismatchReruns: checkpoints are bound to their
// campaign key, so resuming a *different* configuration over them must
// rerun everything — never merge another campaign's shards.
func TestCheckpointCampaignMismatchReruns(t *testing.T) {
	cfg := ckptTestConfig()
	dir := t.TempDir()
	interruptCampaign(t, RunSimulation, cfg, dir, 2)

	other := cfg
	other.Seed = cfg.Seed + 1
	want := FaultDigest(mustSimulate(t, other))

	var log bytes.Buffer
	other.Checkpoints = CheckpointPlan{Dir: dir, Log: &log}
	ds, err := RunSimulation(other)
	if err != nil {
		t.Fatal(err)
	}
	if got := FaultDigest(ds); got != want {
		t.Errorf("foreign checkpoints leaked into a different campaign\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(log.String(), "different campaign") {
		t.Errorf("campaign-key mismatch was not reported:\n%s", log.String())
	}
	if strings.Contains(log.String(), "restored from checkpoint") {
		t.Errorf("a foreign checkpoint was restored:\n%s", log.String())
	}
}

// TestSimCampaignKeyPinned pins the simulated campaign key recipe byte for
// byte: a change would orphan every checkpoint and make fabric processes of
// different builds refuse each other, so changing the recipe on purpose
// means bumping checkpointVersion and these values.
func TestSimCampaignKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{ckptTestConfig(), "199fd3dc551f9f1ecb8b87d073f7e48f26371ce0317f6867e7a1f900dd260052"},
		{Config{Year: paperdata.Y2018, SampleShift: 12, Seed: 3, PacketsPerSec: 5000, KeepPackets: true,
			Faults: FaultPlan{Retries: 2, AdaptiveTimeout: true}},
			"60684d0ec3e9ee3a3b1027b0072977ef626067af9696ec4d63adce6e4c23e809"},
	} {
		u, err := scan.NewUniverse(uint64(tc.cfg.Seed), tc.cfg.SampleShift, ipv4.NewReservedBlocklist())
		if err != nil {
			t.Fatal(err)
		}
		if got := campaignKey("sim", tc.cfg, simPlanLines(planSimShards(tc.cfg, u))); got != tc.want {
			t.Errorf("%+v: sim campaign key %s, want %s", tc.cfg, got, tc.want)
		}
	}
}

// TestSynthEnvelopeRejectedBySimCampaign: the two engines' keys are
// disjoint, so a synthetic shard's envelope never records into a simulated
// campaign with the same scalars, while its own campaign accepts it.
func TestSynthEnvelopeRejectedBySimCampaign(t *testing.T) {
	cfg := Config{Year: paperdata.Y2018, SampleShift: 12, Seed: 3}
	pop, feed, err := buildDeps(cfg)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := openSynthCampaign(cfg, pop, feed.DB)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := openSimCampaign(cfg, pop, feed.DB)
	if err != nil {
		t.Fatal(err)
	}
	if syn.CampaignKey() == sim.CampaignKey() {
		t.Fatal("synthetic and simulated campaigns share a key")
	}
	env, err := syn.RunShardEnvelope(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.LoadEnvelope(0, env); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Errorf("sim campaign loaded a synth envelope: err = %v", err)
	}
	if sim.Recorded(0) {
		t.Error("rejected envelope recorded shard 0")
	}
	if err := syn.LoadEnvelope(0, env); err != nil {
		t.Errorf("synth campaign refused its own envelope: %v", err)
	}
}

// TestCheckpointCampaignKeyCoversPlan pins what the campaign key must
// react to: any knob that changes campaign bytes or the shard plan
// (year, seed, shift, rate, capture, fault plan) changes the key; the
// pure scheduling knobs (Workers) must not.
func TestCheckpointCampaignKeyCoversPlan(t *testing.T) {
	base := ckptTestConfig()
	u := func(c Config) string {
		uni, err := scan.NewUniverse(uint64(c.Seed), c.SampleShift, ipv4.NewReservedBlocklist())
		if err != nil {
			t.Fatal(err)
		}
		return campaignKey("sim", c, simPlanLines(planSimShards(c, uni)))
	}
	key := u(base)

	same := base
	same.Workers = 7
	if u(same) != key {
		t.Error("Workers changed the campaign key; scheduling must not invalidate checkpoints")
	}

	imps, err := netsim.ParseImpairments("loss:0.1")
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]Config{}
	v := base
	v.Year = paperdata.Y2018
	variants["year"] = v
	v = base
	v.Seed++
	variants["seed"] = v
	v = base
	v.SampleShift++
	variants["shift"] = v
	v = base
	v.PacketsPerSec = 999
	variants["pps"] = v
	v = base
	v.KeepPackets = !v.KeepPackets
	variants["keep-packets"] = v
	v = base
	v.Faults = FaultPlan{Impairments: imps, Retries: 1}
	variants["faults"] = v
	for name, vc := range variants {
		if u(vc) == key {
			t.Errorf("%s change did not change the campaign key", name)
		}
	}
}
