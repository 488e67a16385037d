package core

// Ordered-fold tests (DESIGN.md §12): whatever order a campaign's shards
// arrive in — run here, restored from checkpoints, received as envelopes,
// duplicated — the fold yields the in-order campaign's bytes and keeps only
// the runs that arrived before a shard below them.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openresolver/internal/analysis"
	"openresolver/internal/paperdata"
)

// releaseLog watches the accumulators of recorded runs with finalizers:
// released[i] is set once shard i's run has been collected.
type releaseLog struct {
	tracked  []bool
	released []atomic.Bool
	heldSeen int // checks that found a tracked run held above the prefix
}

func newReleaseLog(n int) *releaseLog {
	return &releaseLog{tracked: make([]bool, n), released: make([]atomic.Bool, n)}
}

// track arms a finalizer on run's accumulator, which only the run
// references.
func (l *releaseLog) track(i int, run *shardRun) {
	l.tracked[i] = true
	runtime.SetFinalizer(run.acc, func(*analysis.Accumulator) { l.released[i].Store(true) })
}

// trackHeld tracks every run sc holds.
func (l *releaseLog) trackHeld(sc *ShardCampaign) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for i, run := range sc.held {
		if run != nil && !l.tracked[i] {
			l.track(i, run)
		}
	}
}

// check requires every tracked run below sc's folded prefix to be
// collected (garbage-collecting until its finalizer has run, for up to a
// few seconds) and no tracked run at or above it to be.
func (l *releaseLog) check(t *testing.T, sc *ShardCampaign) {
	t.Helper()
	sc.mu.Lock()
	folded := sc.folded
	sc.mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		runtime.GC()
		live := -1
		for j := 0; j < folded; j++ {
			if l.tracked[j] && !l.released[j].Load() {
				live = j
				break
			}
		}
		if live < 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %d is folded (prefix %d) but its run is still reachable", live, folded)
		}
	}
	for j := folded; j < len(l.tracked); j++ {
		if l.tracked[j] && j > folded {
			l.heldSeen++
		}
		if l.released[j].Load() {
			t.Fatalf("shard %d's run was collected before the fold reached it (prefix %d)", j, folded)
		}
	}
}

// recordTracked records envelope env for shard i as LoadEnvelope does,
// tracking the run before it enters the campaign.
func recordTracked(t *testing.T, sc *ShardCampaign, l *releaseLog, i int, env []byte) {
	t.Helper()
	ck, err := validateShardEnvelope(sc.key, i, env)
	if err != nil {
		t.Fatal(err)
	}
	run := restoreShardRun(sc.accCfg, ck)
	l.track(i, run)
	if err := sc.record(i, run, ck.Obs); err != nil {
		t.Fatal(err)
	}
}

// runTracked runs shard i in place, as the local driver does, and records
// the run, tracking it first.
func runTracked(t *testing.T, sc *ShardCampaign, l *releaseLog, i int) {
	t.Helper()
	run, err := sc.engine.runShard(i, sc.obsShards[i])
	if err != nil {
		t.Fatal(err)
	}
	l.track(i, run)
	if err := sc.record(i, run, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFoldArrivalOrder records the shards of a shift-10 campaign of each
// year in random orders — some restored from checkpoint files when the
// campaign opens, the rest loaded from envelopes or run in place one by
// one, with duplicate envelopes of recorded shards mixed in — and requires
// the folded Dataset to equal the in-order local run's: FaultDigest, report
// JSON, R2 log bytes and roles. After every record, no run below the folded prefix may
// be reachable. Last, racing goroutines deliver every envelope at once.
func TestFoldArrivalOrder(t *testing.T) {
	for _, year := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		t.Run(fmt.Sprint(year), func(t *testing.T) {
			cfg := Config{Year: year, SampleShift: 10, Seed: 1, KeepPackets: true}
			want, err := RunSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := want.Report.JSON()
			if err != nil {
				t.Fatal(err)
			}
			src, err := OpenShardCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := src.NumShards()
			envs := make([][]byte, n)
			for i := range envs {
				if envs[i], err = src.RunShardEnvelope(i); err != nil {
					t.Fatal(err)
				}
			}

			rng := rand.New(rand.NewSource(int64(year)))
			heldSeen := 0
			for trial := 0; trial < 4; trial++ {
				dir := t.TempDir()
				var recorded []int
				restored := make([]bool, n)
				for i := range restored {
					if rng.Intn(4) == 0 {
						restored[i] = true
						recorded = append(recorded, i)
						if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("shard-%03d.ckpt", i)), envs[i], 0o644); err != nil {
							t.Fatal(err)
						}
					}
				}
				c := cfg
				c.Checkpoints = CheckpointPlan{Dir: dir}
				sc, err := OpenShardCampaign(c)
				if err != nil {
					t.Fatal(err)
				}
				l := newReleaseLog(n)
				l.trackHeld(sc)
				l.check(t, sc)
				for _, i := range rng.Perm(n) {
					if restored[i] {
						continue
					}
					switch rng.Intn(3) {
					case 0:
						recordTracked(t, sc, l, i, envs[i])
					case 1:
						runTracked(t, sc, l, i)
					default:
						if err := sc.LoadEnvelope(i, envs[i]); err != nil {
							t.Fatal(err)
						}
						l.trackHeld(sc)
					}
					recorded = append(recorded, i)
					if rng.Intn(2) == 0 {
						d := recorded[rng.Intn(len(recorded))]
						if err := sc.LoadEnvelope(d, envs[d]); !errors.Is(err, ErrShardRecorded) {
							t.Fatalf("duplicate envelope for shard %d: err = %v, want ErrShardRecorded", d, err)
						}
					}
					l.check(t, sc)
				}
				heldSeen += l.heldSeen
				got, err := sc.Merge()
				if err != nil {
					t.Fatal(err)
				}
				if g, w := FaultDigest(got), FaultDigest(want); g != w {
					t.Errorf("trial %d: FaultDigest %s, want %s", trial, g, w)
				}
				if gotJSON, err := got.Report.JSON(); err != nil || !bytes.Equal(gotJSON, wantJSON) {
					t.Errorf("trial %d: report JSON differs from the in-order run's (err %v)", trial, err)
				}
				if !bytes.Equal(got.R2Packets.AppendStream(nil), want.R2Packets.AppendStream(nil)) {
					t.Errorf("trial %d: R2 log bytes differ from the in-order run's", trial)
				}
				if !reflect.DeepEqual(got.Roles, want.Roles) {
					t.Errorf("trial %d: roles differ from the in-order run's", trial)
				}
			}
			if heldSeen == 0 {
				t.Error("no run was ever held out of order; the orders proved nothing about release")
			}

			// Racing deliveries: four goroutines each load every envelope,
			// in orders of their own. Each shard is recorded exactly once.
			sc, err := OpenShardCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const racers = 4
			var loaded, dups atomic.Int64
			var wg sync.WaitGroup
			for r := 0; r < racers; r++ {
				order := rng.Perm(n)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, i := range order {
						switch err := sc.LoadEnvelope(i, envs[i]); {
						case err == nil:
							loaded.Add(1)
						case errors.Is(err, ErrShardRecorded):
							dups.Add(1)
						default:
							t.Error(err)
						}
					}
				}()
			}
			wg.Wait()
			if loaded.Load() != int64(n) || dups.Load() != int64((racers-1)*n) {
				t.Fatalf("racing loads recorded %d and refused %d, want %d and %d", loaded.Load(), dups.Load(), n, (racers-1)*n)
			}
			got, err := sc.Merge()
			if err != nil {
				t.Fatal(err)
			}
			if g, w := FaultDigest(got), FaultDigest(want); g != w {
				t.Errorf("racing loads: FaultDigest %s, want %s", g, w)
			}
		})
	}
}

// BenchmarkShardFold times the coordinator half of a simulated campaign
// through the public seam only: LoadEnvelope of every shard envelope of a
// shift-10 2013 campaign that keeps packets, then Merge. The envelopes are
// run once and each iteration's campaign is opened off the clock.
func BenchmarkShardFold(b *testing.B) {
	cfg := Config{Year: paperdata.Y2013, SampleShift: 10, Seed: 1, KeepPackets: true}
	src, err := OpenShardCampaign(cfg)
	if err != nil {
		b.Fatal(err)
	}
	envs := make([][]byte, src.NumShards())
	for i := range envs {
		if envs[i], err = src.RunShardEnvelope(i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		sc, err := OpenShardCampaign(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for i, env := range envs {
			if err := sc.LoadEnvelope(i, env); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sc.Merge(); err != nil {
			b.Fatal(err)
		}
	}
}
