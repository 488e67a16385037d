package core

import (
	"sort"
	"sync"

	"openresolver/internal/ipv4"
	"openresolver/internal/obs"
	"openresolver/internal/population"
)

// segmentSteps is the longest segment of the assigner's stride walk. At
// shift 0 such a segment draws about 28k addresses (112 KB), and a
// synthetic shard of about 100k probes reads four or five.
const segmentSteps = 1 << 15

// segmentLength returns the steps per segment of a walk of steps positions
// for shards whose unpinned draws first delimits: the least power of two
// of at least the draws of an average shard, within [4, segmentSteps], and
// at most steps. A power of two of at least 4 cuts the walk, whose length
// is one too, into whole groups of the four-lane walk. Segments about a
// shard long keep a small campaign from walking far past its last draw on
// one worker while the others wait.
func segmentLength(steps uint64, first []uint64) uint64 {
	shards := uint64(len(first) - 1)
	perShard := first[shards] / max(shards, 1)
	l := uint64(4)
	for l < perShard && l < segmentSteps {
		l *= 2
	}
	return min(l, steps)
}

// segWalk is the stride walk of one synthetic campaign, cut into segments
// that every worker walks (DESIGN.md §2). Segment s is steps
// [s·segLen, (s+1)·segLen) of the walk, and whether a step draws an
// address depends on the step alone (population.Assigner.AppendSteps), so
// any worker may walk any segment, outside the lock. What shard i needs is
// a range of the walk's unpinned draws, [first[i], first[i+1]), fixed by
// the plan. Its worker walks the next unclaimed segments until the walked
// prefix holds that range, then reads the draws in place.
//
// A worker claims a segment only when the segments already claimed cannot
// hold its shard's draws even if every one still being walked is eligible
// throughout, so each claimed segment is one some shard needs, and the
// walk never runs ahead of the shards. Otherwise the worker waits for the
// segments being walked, which never wait themselves. A segment's buffer
// is recycled once every shard whose draws it holds has been released;
// a shard restored from a checkpoint counts as released. With the pool's
// ascending dispatch the live segments are those of the shards in flight
// (TestSegmentWalkLiveBound).
type segWalk struct {
	a      *population.Assigner // AppendSteps only: NewAssigner's tables, read-only
	segLen uint64               // steps per segment (segmentLength)
	nsegs  int
	first  []uint64 // first[i]: unpinned draws of the shards before shard i; len shards+1

	mu   sync.Mutex
	cond sync.Cond // broadcast when a segment is walked
	segs []segment // the claimed segments, in walk order
	// base[s] is the number of draws in the segments before s, for every
	// s ≤ done: segments [0, done) are walked.
	base []uint64
	done int
	low  int // the segments below low are recycled

	// drawn marks the shards released (or restored); held counts the
	// requests reading a shard's draws in place right now.
	drawn []bool
	held  []int

	live, maxLive int // segments claimed and not recycled
}

// segment is one claimed segment: its draws, in buf, once walked; nil
// again once recycled.
type segment struct {
	draws  []ipv4.Addr
	buf    *[]ipv4.Addr
	walked bool
}

// segBuffers recycles segment buffers across segments and campaigns. A
// buffer too short for a longer segment grows, and is recycled grown.
var segBuffers sync.Pool

// newSegWalk cuts a's stride walk into segments of segLen steps, a power
// of two of at least 4, for shards whose unpinned draws first delimits.
func newSegWalk(a *population.Assigner, first []uint64, segLen uint64) *segWalk {
	w := &segWalk{
		a: a, segLen: segLen, nsegs: int(a.Steps() / segLen), first: first,
		base:  []uint64{0},
		drawn: make([]bool, len(first)-1),
		held:  make([]int, len(first)-1),
	}
	w.cond.L = &w.mu
	return w
}

// restored marks shard i as released without drawing it.
func (w *segWalk) restored(i int) {
	w.mu.Lock()
	w.drawn[i] = true
	w.mu.Unlock()
}

// acquire appends shard i's unpinned draws to pieces, in walk order, as
// slices of the segments that hold them, walking segments as needed and
// counting each in msh. The caller reads them in place and then calls
// release(i, pinned). A shard requested again after its release, whose
// segments may be recycled, walks them once more into a private buffer
// (pinned is false). Draws past the walk's end fail with
// population.ErrUniverseExhausted, as the serial walk does.
func (w *segWalk) acquire(i int, msh *obs.Shard, pieces [][]ipv4.Addr) (_ [][]ipv4.Addr, pinned bool, _ error) {
	lo, hi := w.first[i], w.first[i+1]
	if lo == hi {
		return pieces, false, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.base[w.done] < hi {
		if w.done == w.nsegs {
			return pieces, false, population.ErrUniverseExhausted
		}
		// The most the claimed segments can still hold.
		most := w.base[w.done]
		for _, sg := range w.segs[w.done:] {
			most += w.segLen
			if sg.walked {
				most -= w.segLen - uint64(len(sg.draws))
			}
		}
		if most < hi && len(w.segs) < w.nsegs {
			w.walkNext(msh)
		} else {
			w.cond.Wait()
		}
	}
	s0 := sort.Search(w.done, func(s int) bool { return w.base[s+1] > lo })
	s1 := sort.Search(w.done, func(s int) bool { return w.base[s+1] >= hi })
	for s := s0; s <= s1; s++ {
		if w.segs[s].draws == nil {
			// Recycled: walk the shard's segments again, privately.
			w.mu.Unlock()
			buf := w.a.AppendSteps(nil, uint64(s0)*w.segLen, uint64(s1+1)*w.segLen)
			msh.Add(obs.CSynthSegmentsWalked, uint64(s1-s0+1))
			w.mu.Lock()
			return append(pieces, buf[lo-w.base[s0]:hi-w.base[s0]]), false, nil
		}
	}
	w.held[i]++
	for s, o := s0, lo; o < hi; s++ {
		d := w.segs[s].draws
		if piece := d[o-w.base[s] : min(hi-w.base[s], uint64(len(d)))]; len(piece) > 0 {
			pieces = append(pieces, piece)
			o += uint64(len(piece))
		}
	}
	return pieces, true, nil
}

// release marks shard i as drawn, unpins the draws an acquire that
// returned pinned handed out, and recycles the segments no shard needs.
func (w *segWalk) release(i int, pinned bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if pinned {
		w.held[i]--
	}
	w.drawn[i] = true
	w.recycle()
}

// walkNext claims the next segment, walks it with the lock released, and
// extends the walked prefix. It is called, and returns, with w.mu held.
func (w *segWalk) walkNext(msh *obs.Shard) {
	s := len(w.segs)
	w.segs = append(w.segs, segment{})
	w.live++
	w.maxLive = max(w.maxLive, w.live)
	w.mu.Unlock()
	buf, _ := segBuffers.Get().(*[]ipv4.Addr)
	if buf == nil {
		buf = new([]ipv4.Addr)
	}
	draws := w.a.AppendSteps((*buf)[:0], uint64(s)*w.segLen, uint64(s+1)*w.segLen)
	msh.Inc(obs.CSynthSegmentsWalked)
	w.mu.Lock()
	w.segs[s] = segment{draws: draws, buf: buf, walked: true}
	for w.done < len(w.segs) && w.segs[w.done].walked {
		w.base = append(w.base, w.base[w.done]+uint64(len(w.segs[w.done].draws)))
		w.done++
	}
	w.recycle()
	w.cond.Broadcast()
}

// recycle returns the buffer of every walked segment that no shard needs
// any more to segBuffers.
func (w *segWalk) recycle() {
	for s := w.low; s < w.done; s++ {
		if sg := &w.segs[s]; sg.draws != nil && !w.needed(s) {
			*sg.buf = sg.draws[:0]
			segBuffers.Put(sg.buf)
			sg.draws, sg.buf = nil, nil
			w.live--
		}
	}
	for w.low < w.done && w.segs[w.low].draws == nil {
		w.low++
	}
}

// needed reports whether walked segment s holds a draw of a shard that is
// not drawn yet or is being read.
func (w *segWalk) needed(s int) bool {
	b0, b1 := w.base[s], w.base[s+1]
	if b0 == b1 {
		return false
	}
	n := len(w.drawn)
	for j := sort.Search(n, func(j int) bool { return w.first[j+1] > b0 }); j < n && w.first[j] < b1; j++ {
		if w.first[j] < w.first[j+1] && (!w.drawn[j] || w.held[j] > 0) {
			return true
		}
	}
	return false
}
