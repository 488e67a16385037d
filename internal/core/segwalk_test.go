package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"openresolver/internal/geo"
	"openresolver/internal/ipv4"
	"openresolver/internal/obs"
	"openresolver/internal/paperdata"
	"openresolver/internal/population"
	"openresolver/internal/scan"
)

// walkRig is an assigner with no country reservations whose avoid set
// holds some of the walk's own addresses, the serial walk's draws from it,
// and where each segment's draws begin.
type walkRig struct {
	a      *population.Assigner
	segLen uint64
	serial []ipv4.Addr // the serial walk: Assign's unpinned draws, to its end or to limit draws
	ended  bool        // the serial walk reached the end of the universe
	bounds []uint64    // bounds[s]: draws before segment s, while within serial
}

func newWalkRig(t *testing.T, shift uint8, limit int, segLen uint64) *walkRig {
	t.Helper()
	u, err := scan.NewUniverse(3, shift, ipv4.NewReservedBlocklist())
	if err != nil {
		t.Fatal(err)
	}
	probe, err := population.NewAssigner(u, geo.DefaultRegistry(), &population.Population{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := assignUnpinned(probe, 64)
	if err != nil {
		t.Fatal(err)
	}
	var infra []ipv4.Addr
	for i := 2; i < len(first); i += 7 {
		infra = append(infra, first[i])
	}
	r := &walkRig{segLen: segLen}
	if r.a, err = population.NewAssigner(u, geo.DefaultRegistry(), &population.Population{}, infra...); err != nil {
		t.Fatal(err)
	}
	r.serial, err = assignUnpinned(r.a, limit)
	if r.ended = errors.Is(err, population.ErrUniverseExhausted); err != nil && !r.ended {
		t.Fatal(err)
	}
	// The segments, concatenated, are the serial walk.
	var walked []ipv4.Addr
	for s := uint64(0); len(walked) < len(r.serial) && s*segLen < r.a.Steps(); s++ {
		r.bounds = append(r.bounds, uint64(len(walked)))
		walked = r.a.AppendSteps(walked, s*segLen, (s+1)*segLen)
	}
	if r.ended && len(walked) != len(r.serial) || !slices.Equal(walked[:len(r.serial)], r.serial) {
		t.Fatalf("shift %d: the segments' %d draws are not the serial walk's %d", shift, len(walked), len(r.serial))
	}
	return r
}

// assignUnpinned returns the addresses a.Assign gives one unpinned cohort of
// n, up to its error.
func assignUnpinned(a *population.Assigner, n int) ([]ipv4.Addr, error) {
	var out []ipv4.Addr
	err := a.Assign(&population.Population{Cohorts: []population.Cohort{{Count: uint64(n)}}}, func(_ int, addr ipv4.Addr) error {
		out = append(out, addr)
		return nil
	})
	return out, err
}

// cuts returns shard boundaries over the rig's draws: shards that start
// mid-group-of-four and around segment boundaries, some empty, some
// spanning several segments, and random ones; with past set, the last
// shard runs past the walk's end.
func (r *walkRig) cuts(rng *rand.Rand, past bool) []uint64 {
	n := uint64(len(r.serial))
	first := []uint64{0, 1, 2, 3, 3, 5, 9, n}
	for _, b := range r.bounds[1:] {
		first = append(first, b-1, b, b+1, b+2)
	}
	for range 20 {
		first = append(first, uint64(rng.Int63n(int64(n))))
	}
	if past {
		first = append(first, n+5)
	}
	slices.Sort(first)
	return first
}

// check requests shard i and compares its draws with the serial walk's,
// after holding them for hold, as a shard's synthesis does.
func (r *walkRig) check(t *testing.T, w *segWalk, i int, msh *obs.Shard, hold time.Duration) {
	t.Helper()
	lo, hi := w.first[i], w.first[i+1]
	pieces, pinned, err := w.acquire(i, msh, nil)
	time.Sleep(hold)
	defer w.release(i, pinned)
	if hi > uint64(len(r.serial)) {
		if !errors.Is(err, population.ErrUniverseExhausted) {
			t.Errorf("shard %d [%d,%d) past the walk's end (%d draws): err %v, want universe exhausted", i, lo, hi, len(r.serial), err)
		}
		return
	}
	if err != nil {
		t.Errorf("shard %d [%d,%d): %v", i, lo, hi, err)
		return
	}
	if got := slices.Concat(pieces...); !slices.Equal(got, r.serial[lo:hi]) {
		t.Errorf("shard %d [%d,%d): segment walk drew %d addresses unlike the serial walk's", i, lo, hi, len(got))
	}
}

// segmentsFor returns how many segments the walk needs to hold the first
// need draws: all of them when the draws run past its end.
func (r *walkRig) segmentsFor(need uint64) uint64 {
	if need > uint64(len(r.serial)) {
		return r.a.Steps() / r.segLen
	}
	s, _ := slices.BinarySearch(r.bounds, need)
	return uint64(s)
}

// TestSegmentWalkMatchesSerialWalk: every shard's draws, requested in
// ascending order, in a mixed order with repeats after release, and by
// several goroutines at once, are the serial walk's for its range. Shards
// start mid-group-of-four and on both sides of segment boundaries; at
// shifts 10 and 20 the last shard runs past the walk's end and fails
// exactly there, while every shard before it draws. Each segment is walked
// once, except that a repeat of a released shard walks its own again.
func TestSegmentWalkMatchesSerialWalk(t *testing.T) {
	for _, tc := range []struct {
		shift  uint8
		limit  int
		segLen uint64
	}{{5, 200_000, segmentSteps}, {10, 1 << 30, 1 << 13}, {20, 1 << 30, 1 << 8}} {
		r := newWalkRig(t, tc.shift, tc.limit, tc.segLen)
		rng := rand.New(rand.NewSource(int64(tc.shift)))
		first := r.cuts(rng, r.ended)
		n := len(first) - 1
		want := r.segmentsFor(first[n])

		w, msh := newSegWalk(r.a, first, r.segLen), obs.NewShard("t")
		for i := range n {
			r.check(t, w, i, msh, 0)
		}
		if got := msh.Counter(obs.CSynthSegmentsWalked); got != want || uint64(len(w.segs)) != want {
			t.Errorf("shift %d ascending: walked %d segments (%d claimed), want each of %d once", tc.shift, got, len(w.segs), want)
		}
		if w.live != 0 {
			t.Errorf("shift %d ascending: %d segments live after every shard's release", tc.shift, w.live)
		}

		// A jump ahead, a step back, repeats, and the rest in reverse.
		order := []int{0, 1, n / 2, 2, 1, n / 2}
		for i := n - 1; i >= 0; i-- {
			order = append(order, i)
		}
		w = newSegWalk(r.a, first, r.segLen)
		for _, i := range order {
			r.check(t, w, i, obs.NewShard("t"), 0)
		}
		if uint64(len(w.segs)) != want {
			t.Errorf("shift %d mixed: %d segments claimed, want %d", tc.shift, len(w.segs), want)
		}

		if len(r.bounds) >= 3 {
			// Shard 0 is segment 0 and shard 1 segment 1. A second request
			// for shard 0, released while the first still reads it, must
			// not let segment 1's walk reuse segment 0's buffer.
			w := newSegWalk(r.a, r.bounds[:3], r.segLen)
			held, pinned, err := w.acquire(0, msh, nil)
			if err != nil {
				t.Fatal(err)
			}
			r.check(t, w, 0, msh, 0)
			r.check(t, w, 1, msh, 0)
			if got := slices.Concat(held...); !slices.Equal(got, r.serial[:r.bounds[1]]) {
				t.Errorf("shift %d: shard 0's draws changed while it read them", tc.shift)
			}
			w.release(0, pinned)
			if w.live != 0 {
				t.Errorf("shift %d: %d segments live after every release", tc.shift, w.live)
			}
		}

		w = newSegWalk(r.a, first, r.segLen)
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Another goroutine may release a shard while this one
				// still reads it, and walk on into recycled buffers.
				for _, i := range rand.New(rand.NewSource(int64(g))).Perm(n) {
					r.check(t, w, i, obs.NewShard("t"), 100*time.Microsecond)
				}
			}()
		}
		wg.Wait()
		if uint64(len(w.segs)) != want {
			t.Errorf("shift %d concurrent: %d segments claimed, want %d", tc.shift, len(w.segs), want)
		}
	}
}

// campaignWalk returns cfg's assigner over pop and the unpinned draw
// offsets of its shard plan, as openSynthCampaign derives them.
func campaignWalk(t *testing.T, cfg Config, pop *population.Population) (*population.Assigner, []uint64) {
	t.Helper()
	_, _, a, err := openAssigner(cfg, pop)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := drawOffsets(pop, planShards(pop))
	return a, first
}

// segmentsNeeded counts the segments of segLen steps of a's walk up to the
// one that holds draw need-1.
func segmentsNeeded(a *population.Assigner, segLen, need uint64) uint64 {
	var s, drawn uint64
	var buf []ipv4.Addr
	for ; drawn < need; s++ {
		buf = a.AppendSteps(buf[:0], s*segLen, (s+1)*segLen)
		drawn += uint64(len(buf))
	}
	return s
}

// TestSyntheticCampaignWalksEachSegmentOnce: a pooled campaign walks each
// segment its shards need exactly once, on one worker or several. The
// sparse resume of TestCheckpointResumeIdentical checks the same of a
// campaign that restores shards in the middle of the walk.
func TestSyntheticCampaignWalksEachSegmentOnce(t *testing.T) {
	for _, cfg := range []Config{
		{Year: paperdata.Y2018, SampleShift: 4, Seed: 1},
		{Year: paperdata.Y2013, SampleShift: 5, Seed: 2},
		{Year: paperdata.Y2018, SampleShift: 10, Seed: 3},
	} {
		pop, _, err := buildDeps(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, first := campaignWalk(t, cfg, pop)
		want := segmentsNeeded(a, segmentLength(a.Steps(), first), first[len(first)-1])
		for _, workers := range []int{1, 2, 3} {
			run := cfg
			run.Workers, run.Obs = workers, obs.NewRegistry()
			if _, err := RunSynthetic(run); err != nil {
				t.Fatal(err)
			}
			if got := run.Obs.Merged().Counter(obs.CSynthSegmentsWalked); got != want {
				t.Errorf("%d shift %d, %d workers: walked %d segments, want each of %d once", cfg.Year, cfg.SampleShift, workers, got, want)
			}
		}
	}
}

// TestSegmentWalkLiveBound: with shards handed out in ascending order to W
// workers, as the pool does, a segment is live only while a shard in
// flight reads it or the next shard will, so the live segments never
// exceed W times the most segments one shard reads, plus one; every
// buffer is recycled by the end. Restored shards are released up front
// and change neither bound nor count.
func TestSegmentWalkLiveBound(t *testing.T) {
	cfg := Config{Year: paperdata.Y2018, SampleShift: 2, Seed: 4}
	pop, _, err := buildDeps(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, first := campaignWalk(t, cfg, pop)
	n := len(first) - 1
	for _, tc := range []struct {
		workers  int
		restored []int
	}{{1, nil}, {2, nil}, {3, nil}, {1, []int{1, 5, 6, 7, 40}}, {2, []int{0, 2, 3, 63}}} {
		segLen := segmentLength(a.Steps(), first)
		w := newSegWalk(a, first, segLen)
		for _, i := range tc.restored {
			w.restored(i)
		}
		jobs := make(chan int)
		msh := obs.NewShard("t")
		var wg sync.WaitGroup
		for range tc.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					pieces, pinned, err := w.acquire(i, msh, nil)
					if err != nil {
						t.Error(err)
					}
					var got uint64
					for _, p := range pieces {
						got += uint64(len(p))
					}
					if got != first[i+1]-first[i] {
						t.Errorf("shard %d: %d draws, want %d", i, got, first[i+1]-first[i])
					}
					time.Sleep(time.Millisecond) // a shard's synthesis
					w.release(i, pinned)
				}
			}()
		}
		for i := range n {
			if !slices.Contains(tc.restored, i) {
				jobs <- i
			}
		}
		close(jobs)
		wg.Wait()

		// The most segments one shard reads, from the walk's own counts.
		var span int
		for i := range n {
			if first[i] == first[i+1] {
				continue
			}
			s0 := slices.IndexFunc(w.base[1:], func(b uint64) bool { return b > first[i] })
			s1 := slices.IndexFunc(w.base[1:], func(b uint64) bool { return b >= first[i+1] })
			span = max(span, s1-s0+1)
		}
		last := n - 1
		for slices.Contains(tc.restored, last) {
			last--
		}
		if got, want := msh.Counter(obs.CSynthSegmentsWalked), segmentsNeeded(a, segLen, first[last+1]); got != want {
			t.Errorf("%d workers, restored %v: walked %d segments, want %d", tc.workers, tc.restored, got, want)
		}
		if bound := tc.workers*span + 1; w.maxLive > bound {
			t.Errorf("%d workers, restored %v: %d segments live at once, bound %d (%d per shard)", tc.workers, tc.restored, w.maxLive, bound, span)
		}
		if w.live != 0 {
			t.Errorf("%d workers, restored %v: %d segments live at the end", tc.workers, tc.restored, w.live)
		}
	}
}

// TestSegmentWalkReleasesWaiters: a request waits only for segments other
// workers are walking, and a walk never waits, so every waiter returns,
// however the requests interleave; and a campaign cancelled while several
// workers wait on the walk stops at a shard boundary, resumes, and
// reproduces the cold report.
func TestSegmentWalkReleasesWaiters(t *testing.T) {
	cfg := Config{Year: paperdata.Y2018, SampleShift: 4, Seed: 6}
	t.Run("contended", func(t *testing.T) {
		pop, _, err := buildDeps(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, first := campaignWalk(t, cfg, pop)
		w := newSegWalk(a, first, segmentLength(a.Steps(), first))
		done := make(chan struct{})
		go func() {
			defer close(done)
			var wg sync.WaitGroup
			for g := range 8 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Each goroutine requests every shard in its own random
					// order, so requests wait on segments others are walking.
					for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(first) - 1) {
						_, pinned, err := w.acquire(i, obs.NewShard("t"), nil)
						if err != nil {
							t.Error(err)
						}
						w.release(i, pinned)
					}
				}()
			}
			wg.Wait()
		}()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatal("requests still waiting after a minute: deadlock")
		}
	})
	t.Run("cancelled", func(t *testing.T) {
		cold, err := RunSynthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		run := cfg
		run.Ctx, run.Workers = ctx, 3
		run.Checkpoints = CheckpointPlan{Dir: dir, FS: cancelFS{osCheckpointFS{}, cancel}}
		errc := make(chan error, 1)
		go func() {
			_, err := RunSynthetic(run)
			errc <- err
		}()
		select {
		case err := <-errc:
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("cancelled campaign: %v, want ErrInterrupted", err)
			}
		case <-time.After(time.Minute):
			t.Fatal("cancelled campaign still running after a minute: deadlock")
		}
		resume := cfg
		resume.Workers = 3
		resume.Checkpoints = CheckpointPlan{Dir: dir}
		ds, err := RunSynthetic(resume)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ds.Report, cold.Report) {
			t.Error("campaign resumed after cancellation: report differs from cold run")
		}
	})
}

// cancelFS cancels a campaign once its first shard is persisted; unlike
// notifyFS it may be called from several workers at once.
type cancelFS struct {
	CheckpointFS
	cancel context.CancelFunc
}

func (f cancelFS) Rename(oldpath, newpath string) error {
	err := f.CheckpointFS.Rename(oldpath, newpath)
	f.cancel()
	return err
}
