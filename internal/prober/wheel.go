package prober

// This file is the prober's timeout wheel (DESIGN.md §7). Every in-flight
// probe — first transmission or retransmission — is armed here with its
// deadline, and the send loop's tick drains what has expired. Arming and
// expiring are O(1) per probe, so a tick costs O(expired), not O(in flight).

import (
	"fmt"
	"math/bits"
	"time"
)

// wheel buckets in-flight timeouts by the tick that expires them. Absolute
// slot s, counted in tickIntervals from the prober's start, holds the
// entries whose deadline falls in ((s−1)·tick, s·tick], in arm order; the
// tick at s·tick is the first whose instant reaches those deadlines, so it
// drains exactly slot s. Ticks fire on that grid, one slot per tick, so a
// tick expires exactly the entries whose deadline it has reached, in arm
// order — the order the golden digests pin.
//
// Slots live in a power-of-two ring larger than the horizon (the longest
// timeout the prober can arm, in ticks), so the ring never holds two
// absolute slots in one position. Entries are nodes of one arena, chained
// through next into per-slot FIFOs; a drained node goes on the free list,
// so a warmed wheel arms without allocating.
type wheel struct {
	head, tail []int32 // per ring position: first and last node, -1 when empty
	mask       int64   // len(head) − 1
	nodes      []wheelNode
	free       int32 // free-list head, -1 when empty
	n          int   // armed entries: the prober's in-flight count
	swept      int64 // last absolute slot fully drained
}

// wheelNode is one armed timeout: subdomain idx of cluster, and the next
// node in its slot's FIFO (or in the free list); -1 ends a chain.
type wheelNode struct {
	idx, cluster, next int32
}

// init sizes the ring for timeouts up to horizon. A deadline armed at now
// lands at most slotOf(horizon)+1 slots past the last drained one (+1 when
// now is off the tick grid), so the mask must be at least that.
func (w *wheel) init(horizon time.Duration) {
	size := 1 << bits.Len64(uint64(slotOf(horizon)+1))
	w.head = make([]int32, size)
	w.tail = make([]int32, size)
	for i := range w.head {
		w.head[i], w.tail[i] = -1, -1
	}
	w.mask = int64(size - 1)
	w.free = -1
}

// slotOf returns the absolute slot whose tick first reaches offset d from
// the prober's start: ceil(d / tickInterval).
func slotOf(d time.Duration) int64 {
	return int64((d + tickInterval - 1) / tickInterval)
}

// arm appends (idx, cluster) to absolute slot s. Every deadline lies after
// the tick that armed it and within the horizon, so s falls in
// (swept, swept+mask]; a slot outside would alias one drained already or
// one still ahead, and only a bug can produce it.
func (w *wheel) arm(s int64, idx, cluster int) {
	if s <= w.swept || s-w.swept > w.mask {
		panic(fmt.Sprintf("prober: timeout slot %d outside the wheel's window (%d, %d]", s, w.swept, w.swept+w.mask))
	}
	n := w.free
	if n >= 0 {
		w.free = w.nodes[n].next
		w.nodes[n] = wheelNode{idx: int32(idx), cluster: int32(cluster), next: -1}
	} else {
		n = int32(len(w.nodes))
		w.nodes = append(w.nodes, wheelNode{idx: int32(idx), cluster: int32(cluster), next: -1})
	}
	pos := s & w.mask
	if t := w.tail[pos]; t >= 0 {
		w.nodes[t].next = n
	} else {
		w.head[pos] = n
	}
	w.tail[pos] = n
	w.n++
}

// pop removes and returns the oldest entry of the earliest non-empty slot
// up to absolute slot last. Once it reports false, every slot up to last
// is drained.
func (w *wheel) pop(last int64) (idx, cluster int, ok bool) {
	for w.n > 0 && w.swept < last {
		pos := (w.swept + 1) & w.mask
		n := w.head[pos]
		if n < 0 {
			w.swept++
			continue
		}
		nd := &w.nodes[n]
		w.head[pos] = nd.next
		if nd.next < 0 {
			w.tail[pos] = -1
		}
		idx, cluster = int(nd.idx), int(nd.cluster)
		nd.next, w.free = w.free, n
		w.n--
		return idx, cluster, true
	}
	if w.swept < last {
		w.swept = last // nothing armed: skip the empty slots
	}
	return 0, 0, false
}
