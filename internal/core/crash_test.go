package core

// The process-crash fault-injection harness (DESIGN.md §13). Graceful
// cancellation is tested in checkpoint_test.go; this file proves the
// stronger property: a campaign whose *process is killed* — no deferred
// cleanup, no final flush, a temp file possibly mid-write — resumes from
// its shard checkpoints and still reproduces the uninterrupted run's
// campaign digest, byte for byte, for both paper years, under the full
// chaos stack, and for a synthetic campaign.
//
// Mechanism: the test re-executes its own binary (os.Args[0]) restricted
// to TestCrashChild, which runs the campaign with a checkpoint filesystem
// that calls os.Exit(137) at a chosen shard boundary — right after the
// k-th checkpoint rename lands, mimicking `kill -9` between shards. The
// parent restarts the child with fresh seeded-random kill points until a
// run completes, then compares the survivor's digest against an
// in-process cold run.

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"openresolver/internal/paperdata"
)

// crashChaosSpec is the PR 3 chaos stack the matrix reuses: burst loss,
// duplication, reordering, and corruption against the full retransmission
// machinery (same stack TestFaultWorkerEquivalence pins).
const crashChaosSpec = "ge:0.02,0.3,0.05,0.9;dup:0.05;reorder:0.1,30ms;corrupt:0.02"

// crashScenario is one campaign the crash matrix kills and resumes.
type crashScenario struct {
	name  string
	year  paperdata.Year
	chaos bool // run under crashChaosSpec
	synth bool // the synthetic engine instead of the simulation
	// killRange bounds each attempt's kill point (1..killRange shard
	// boundaries), sized to the plan so 40 attempts reach the end.
	killRange int
}

// crashScenarios is the matrix. The simulations plan 16 shards; the
// synthetic campaign's 64 get a wider kill range, so it averages about ten
// attempts and still dies at three or more boundaries.
var crashScenarios = []crashScenario{
	{name: "2013-pristine", year: paperdata.Y2013, killRange: 3},
	{name: "2018-pristine", year: paperdata.Y2018, killRange: 3},
	{name: "2018-chaos", year: paperdata.Y2018, chaos: true, killRange: 3},
	{name: "synth-2018", year: paperdata.Y2018, synth: true, killRange: 12},
}

// config builds the campaign under test, shared verbatim by the parent's
// cold run and the child's crashing runs so the digests are comparable by
// construction.
func (sc crashScenario) config(t *testing.T) Config {
	if sc.synth {
		return Config{Year: sc.year, SampleShift: 10, Seed: 23}
	}
	cfg := Config{Year: sc.year, SampleShift: 14, Seed: 23, KeepPackets: true}
	if sc.chaos {
		cfg.Faults = chaosPlan(t, crashChaosSpec)
	}
	return cfg
}

// run runs cfg through the scenario's engine.
func (sc crashScenario) run(cfg Config) (*Dataset, error) {
	if sc.synth {
		return RunSynthetic(cfg)
	}
	return RunSimulation(cfg)
}

// killFS crashes the process immediately after the kill-th checkpoint
// rename of this process completes — the moment a shard boundary has just
// been persisted. Exit code 137 mirrors SIGKILL; nothing downstream of
// the rename (merge, cleanup, remaining shards) runs.
type killFS struct {
	CheckpointFS
	kill    int
	renames int
}

func (f *killFS) Rename(oldpath, newpath string) error {
	if err := f.CheckpointFS.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.renames++
	if f.kill > 0 && f.renames >= f.kill {
		os.Exit(137)
	}
	return nil
}

// TestCrashChild is the subprocess body, inert unless the parent set the
// environment contract. It runs the scenario named by ORSIM_CRASH_SCENARIO
// with checkpointing into ORSIM_CRASH_DIR and a killFS armed at
// ORSIM_CRASH_KILL (0 = never), printing the final fault digest on
// completion.
func TestCrashChild(t *testing.T) {
	if os.Getenv("ORSIM_CRASH_CHILD") != "1" {
		t.Skip("crash-harness child; run via TestCrashMatrix")
	}
	i := slices.IndexFunc(crashScenarios, func(sc crashScenario) bool {
		return sc.name == os.Getenv("ORSIM_CRASH_SCENARIO")
	})
	if i < 0 {
		t.Fatalf("ORSIM_CRASH_SCENARIO %q names no scenario", os.Getenv("ORSIM_CRASH_SCENARIO"))
	}
	sc := crashScenarios[i]
	kill, err := strconv.Atoi(os.Getenv("ORSIM_CRASH_KILL"))
	if err != nil {
		t.Fatalf("ORSIM_CRASH_KILL: %v", err)
	}
	cfg := sc.config(t)
	cfg.Checkpoints = CheckpointPlan{
		Dir: os.Getenv("ORSIM_CRASH_DIR"),
		FS:  &killFS{CheckpointFS: osCheckpointFS{}, kill: kill},
		Log: os.Stderr,
	}
	ds, err := sc.run(cfg)
	if err != nil {
		t.Fatalf("child campaign: %v", err)
	}
	fmt.Printf("CRASH_DIGEST %s\n", FaultDigest(ds))
}

var crashDigestRe = regexp.MustCompile(`CRASH_DIGEST ([0-9a-f]{64})`)

// TestCrashMatrix kills and resumes each scenario's campaign at
// seeded-random shard boundaries until it completes, requiring at least
// three kills along the way, and asserts the surviving digest equals an
// uninterrupted in-process run's. This is the end-to-end crash-recovery
// acceptance test: checkpoints written by a killed process — including
// whatever temp-file debris the kill left — must reconstruct the campaign
// exactly or not at all.
func TestCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash matrix skipped in -short mode")
	}
	for _, sc := range crashScenarios {
		t.Run(sc.name, func(t *testing.T) {
			cold, err := sc.run(sc.config(t))
			if err != nil {
				t.Fatal(err)
			}
			want := FaultDigest(cold)

			dir := t.TempDir()
			rng := rand.New(rand.NewSource(int64(sc.year) * 1009))
			kills, digest := 0, ""
			for attempt := 0; attempt < 40 && digest == ""; attempt++ {
				// Small kill points force many distinct crash boundaries;
				// every attempt is guaranteed ≥1 shard of forward progress.
				kill := rng.Intn(sc.killRange) + 1
				out, err := runCrashChild(t, sc.name, dir, kill)
				if m := crashDigestRe.FindSubmatch(out); m != nil {
					digest = string(m[1])
					break
				}
				if err == nil {
					t.Fatalf("child exited cleanly without a digest:\n%s", out)
				}
				kills++
			}
			if digest == "" {
				t.Fatal("campaign never completed across 40 crash/resume attempts")
			}
			if kills < 3 {
				t.Fatalf("campaign completed after %d kills; the matrix requires ≥ 3", kills)
			}
			if digest != want {
				t.Errorf("crash-resumed campaign diverged after %d kills\n got %s\nwant %s",
					kills, digest, want)
			}
			t.Logf("recovered across %d process kills, digest %s", kills, digest[:16])
		})
	}
}

// runCrashChild re-executes the test binary restricted to TestCrashChild
// with the scenario in its environment, returning the combined output and
// the child's exit error (non-nil on a kill).
func runCrashChild(t *testing.T, scenario, dir string, kill int) ([]byte, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashChild$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		"ORSIM_CRASH_CHILD=1",
		"ORSIM_CRASH_SCENARIO="+scenario,
		"ORSIM_CRASH_DIR="+dir,
		fmt.Sprintf("ORSIM_CRASH_KILL=%d", kill),
	)
	return cmd.CombinedOutput()
}
