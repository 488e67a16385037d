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
// absolute slots in one position. A slot is a FIFO of chunks, each a
// contiguous array of entries in arm order: arming appends to the last
// chunk, and draining hands whole chunks out. Chunks come from one arena
// with a free list, so a warmed wheel arms without allocating, and the
// arena holds about as many entries as are in flight — not, as a growable
// array per ring slot would, the most each slot ever held, summed over a
// ring that retransmission backoff makes hundreds of slots long.
type wheel struct {
	slots  []wheelSlot
	mask   int64 // len(slots) − 1
	chunks []wheelChunk
	free   int32 // free-list head, -1 when empty
	n      int   // armed entries: the prober's in-flight count
	swept  int64 // last absolute slot fully drained
}

// wheelSlot is one ring position: its first and last chunk, -1 when
// empty, and the entries in use in the last one. Arming reads the fill
// count here rather than in the chunk, so it touches the chunk only to
// write the entry.
type wheelSlot struct {
	head, tail, fill int32
}

// wheelEntry is one armed timeout: subdomain idx of cluster. The cluster
// is kept because a rotation can strand armed entries of the old one.
type wheelEntry struct {
	idx, cluster int32
}

// wheelChunkLen is the number of entries in one chunk. A 2013 shard arms
// about four probes per tick, so a longer chunk would mostly sit empty.
const wheelChunkLen = 8

// wheelChunk is a run of one slot's entries in arm order, and the next
// chunk of its slot or of the free list. A slot's chunks before its last
// are full.
type wheelChunk struct {
	e    [wheelChunkLen]wheelEntry
	next int32
}

// init sizes the ring for timeouts up to horizon. A deadline armed at now
// lands at most slotOf(horizon)+1 slots past the last drained one (+1 when
// now is off the tick grid), so the mask must be at least that.
func (w *wheel) init(horizon time.Duration) {
	size := 1 << bits.Len64(uint64(slotOf(horizon)+1))
	w.slots = make([]wheelSlot, size)
	for i := range w.slots {
		w.slots[i] = wheelSlot{head: -1, tail: -1}
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
	sl := &w.slots[s&w.mask]
	if sl.tail < 0 || sl.fill == wheelChunkLen {
		c := w.free
		if c >= 0 {
			w.free = w.chunks[c].next
		} else {
			c = int32(len(w.chunks))
			w.chunks = append(w.chunks, wheelChunk{})
		}
		if sl.tail >= 0 {
			w.chunks[sl.tail].next = c
		} else {
			sl.head = c
		}
		sl.tail, sl.fill = c, 0
	}
	w.chunks[sl.tail].e[sl.fill] = wheelEntry{idx: int32(idx), cluster: int32(cluster)}
	sl.fill++
	w.n++
}

// take removes the first chunk of the earliest non-empty slot up to
// absolute slot last and returns its entries in arm order, or nil once
// every slot up to last is drained. The entries stay valid until the next
// arm, which may reuse the chunk.
func (w *wheel) take(last int64) []wheelEntry {
	for w.n > 0 && w.swept < last {
		sl := &w.slots[(w.swept+1)&w.mask]
		c := sl.head
		if c < 0 {
			w.swept++
			continue
		}
		ch := &w.chunks[c]
		n := int32(wheelChunkLen)
		if c == sl.tail {
			n, sl.head, sl.tail = sl.fill, -1, -1
		} else {
			sl.head = ch.next
		}
		w.n -= int(n)
		ch.next, w.free = w.free, c
		return ch.e[:n]
	}
	if w.swept < last {
		w.swept = last // nothing armed: skip the empty slots
	}
	return nil
}
