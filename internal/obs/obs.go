package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one cumulative metric. The set is a fixed enum so a
// Shard is a flat array — no map lookups, no registration on the hot path.
type Counter uint8

// The counter set, grouped by subsystem. Names (CounterName) are dotted
// lowercase, stable identifiers for the snapshot and expvar output.
const (
	// Discrete-event core (internal/netsim).
	CSimSent         Counter = iota // datagrams submitted by hosts
	CSimDelivered                   // datagrams handed to a registered host
	CSimLost                        // datagrams dropped (loss model or impairment)
	CSimNoRoute                     // datagrams dead-lettered (no host)
	CSimTimers                      // timer events fired
	CSimVirtualNanos                // virtual nanoseconds simulated
	CSimWallNanos                   // wall nanoseconds spent in the event loop

	// Fault-injection pipeline causes (internal/netsim/impair.go).
	CFaultLossDrop   // dropped by i.i.d. loss impairment
	CFaultBurstDrop  // dropped by Gilbert–Elliott burst loss
	CFaultBlackholed // dropped by a prefix blackhole
	CFaultBrownedOut // dropped by a brownout window
	CFaultDuplicated // duplicate copies injected
	CFaultCorrupted  // payloads with a flipped bit
	CFaultReordered  // datagrams given extra reordering delay

	// Prober (internal/prober).
	CProbeSent        // unique probes transmitted (Q1)
	CProbeRecv        // R2 packets collected
	CProbeAnswered    // subdomains burned by a first response
	CProbeRetransmits // retry transmissions sent
	CProbeLate        // responses after sweep/rotation
	CProbeDup         // duplicate responses for burned subdomains
	CProbeGaveUp      // probes abandoned with budget exhausted
	CProbeBad         // R2 packets that failed to decode
	CProbeReused      // subdomains returned to the pool

	// Synthetic engine (internal/core).
	CSynthProbes // probes synthesized through the analysis pipeline
	CSynthBytes  // response wire bytes synthesized

	// Event-queue placement (internal/netsim, PR 6). Appended after the
	// original set so existing snapshot orderings are unchanged.
	CSimTimerRing // timer arms accepted by the monotone ring fast path
	CSimTimerHeap // timer arms that fell back to the heap

	// Observatory service daemon (internal/serve). These count API-level
	// job traffic on the daemon's own registry; each job additionally runs
	// against a private per-job registry carrying the campaign counters
	// above. Appended so existing snapshot orderings are unchanged.
	CServeSubmitted // job specs accepted by the manager
	CServeCacheHits // submissions served from the digest cache without a run
	CServeDenied    // submissions rejected by tenant admission control
	CServeCompleted // jobs that ran to completion
	CServeFailed    // jobs that ended in an error
	CServeCancelled // jobs stopped at a shard boundary by cancel/drain
	CServeCellsDone // sweep cells completed across all jobs

	// Distributed campaign fabric (internal/fabric). Counted on the
	// coordinator's shard; like the serve.* set they describe control-plane
	// traffic, never campaign bytes. Appended so existing snapshot
	// orderings are unchanged.
	CFabricWorkers       // workers that completed the HELLO handshake
	CFabricWorkersGone   // worker connections closed (liveness = hellos − gone)
	CFabricLeases        // shard leases granted
	CFabricLeaseExpired  // leases reaped after missed heartbeats or worker death
	CFabricRequeued      // shards returned to the pending queue (expiry or NACK)
	CFabricResults       // shard result envelopes accepted and recorded
	CFabricDupResults    // duplicate RESULTs for already-recorded shards (dropped)
	CFabricNacks         // shard failures reported by workers
	CFabricEnvelopeBytes // envelope payload bytes received from workers

	// Synthetic engine's segment walk (internal/core), counted on the
	// shard whose worker walked the segment. Appended so existing snapshot
	// orderings are unchanged.
	CSynthSegmentsWalked // segments of the assigner's stride walk walked

	NumCounters // array size; not a real counter
)

var counterNames = [NumCounters]string{
	CSimSent:          "sim.sent",
	CSimDelivered:     "sim.delivered",
	CSimLost:          "sim.lost",
	CSimNoRoute:       "sim.noroute",
	CSimTimers:        "sim.timers",
	CSimVirtualNanos:  "sim.virtual_nanos",
	CSimWallNanos:     "sim.wall_nanos",
	CFaultLossDrop:    "fault.drop.loss",
	CFaultBurstDrop:   "fault.drop.burst",
	CFaultBlackholed:  "fault.drop.blackhole",
	CFaultBrownedOut:  "fault.drop.brownout",
	CFaultDuplicated:  "fault.duplicated",
	CFaultCorrupted:   "fault.corrupted",
	CFaultReordered:   "fault.reordered",
	CProbeSent:        "probe.sent",
	CProbeRecv:        "probe.recv",
	CProbeAnswered:    "probe.answered",
	CProbeRetransmits: "probe.retransmits",
	CProbeLate:        "probe.late",
	CProbeDup:         "probe.dup_responses",
	CProbeGaveUp:      "probe.gave_up",
	CProbeBad:         "probe.bad_packets",
	CProbeReused:      "probe.reused",
	CSynthProbes:      "synth.probes",
	CSynthBytes:       "synth.bytes",
	CSimTimerRing:     "sim.timer_ring",
	CSimTimerHeap:     "sim.timer_heap",
	CServeSubmitted:   "serve.submitted",
	CServeCacheHits:   "serve.cache_hits",
	CServeDenied:      "serve.denied",
	CServeCompleted:   "serve.completed",
	CServeFailed:      "serve.failed",
	CServeCancelled:   "serve.cancelled",
	CServeCellsDone:   "serve.cells_done",

	CFabricWorkers:       "fabric.workers_connected",
	CFabricWorkersGone:   "fabric.workers_disconnected",
	CFabricLeases:        "fabric.leases_granted",
	CFabricLeaseExpired:  "fabric.leases_expired",
	CFabricRequeued:      "fabric.shards_requeued",
	CFabricResults:       "fabric.results_merged",
	CFabricDupResults:    "fabric.results_duplicate",
	CFabricNacks:         "fabric.nacks",
	CFabricEnvelopeBytes: "fabric.envelope_bytes",

	CSynthSegmentsWalked: "synth.segments_walked",
}

// CounterName returns the stable dotted name of c.
func CounterName(c Counter) string { return counterNames[c] }

// Hist identifies one histogram; like Counter it is a fixed enum.
type Hist uint8

// The histogram set. All values are non-negative integers in the unit
// named here.
const (
	HRTT        Hist = iota // probe response latency, nanoseconds
	HQueueDepth             // event-queue length at each pop
	HRespBytes              // synthesized response wire size, bytes

	NumHists // array size; not a real histogram
)

var histNames = [NumHists]string{
	HRTT:        "probe.rtt_nanos",
	HQueueDepth: "sim.queue_depth",
	HRespBytes:  "synth.resp_bytes",
}

// HistName returns the stable dotted name of h.
func HistName(h Hist) string { return histNames[h] }

// NumBuckets is the fixed bucket count of every Histogram: bucket 0 holds
// the value 0 and bucket b ≥ 1 holds values in [2^(b-1), 2^b) — one bucket
// per bit length, covering the whole uint64 range.
const NumBuckets = 65

// Histogram is a fixed-bucket log2-scale histogram. The zero value is
// ready to use. Writes are atomic adds, so one writer and any number of
// concurrent readers need no lock; Merge adds per-bucket counts, which is
// exact and commutative.
type Histogram struct {
	count   uint64
	sum     uint64
	minOff1 uint64 // min+1; 0 means no observation yet
	max     uint64
	buckets [NumBuckets]uint64
}

// Observe records v. Negative values clamp to 0. Nil-safe and
// allocation-free.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	u := uint64(v)
	if v < 0 {
		u = 0
	}
	atomic.AddUint64(&h.count, 1)
	atomic.AddUint64(&h.sum, u)
	atomic.AddUint64(&h.buckets[bits.Len64(u)], 1)
	for {
		cur := atomic.LoadUint64(&h.minOff1)
		if cur != 0 && cur-1 <= u {
			break
		}
		if atomic.CompareAndSwapUint64(&h.minOff1, cur, u+1) {
			break
		}
	}
	for {
		cur := atomic.LoadUint64(&h.max)
		if u <= cur || atomic.CompareAndSwapUint64(&h.max, cur, u) {
			break
		}
	}
}

// Merge adds o's observations into h. Nil o or nil h are no-ops.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	atomic.AddUint64(&h.count, atomic.LoadUint64(&o.count))
	atomic.AddUint64(&h.sum, atomic.LoadUint64(&o.sum))
	for b := range o.buckets {
		if n := atomic.LoadUint64(&o.buckets[b]); n > 0 {
			atomic.AddUint64(&h.buckets[b], n)
		}
	}
	if om := atomic.LoadUint64(&o.minOff1); om != 0 {
		for {
			cur := atomic.LoadUint64(&h.minOff1)
			if cur != 0 && cur <= om {
				break
			}
			if atomic.CompareAndSwapUint64(&h.minOff1, cur, om) {
				break
			}
		}
	}
	if ox := atomic.LoadUint64(&o.max); ox > 0 {
		for {
			cur := atomic.LoadUint64(&h.max)
			if ox <= cur || atomic.CompareAndSwapUint64(&h.max, cur, ox) {
				break
			}
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return atomic.LoadUint64(&h.count)
}

// BucketBounds returns the half-open value range [lo, hi) of bucket b.
// Bucket 0 is exactly {0} (returned as [0, 1)); the last bucket's hi
// saturates at MaxUint64.
func BucketBounds(b int) (lo, hi uint64) {
	if b == 0 {
		return 0, 1
	}
	lo = uint64(1) << (b - 1)
	if b >= 64 {
		return lo, ^uint64(0)
	}
	return lo, uint64(1) << b
}

// Shard is one worker's private metric set: a fixed array of counters and
// histograms. Writers use atomic adds, so a shard is written by its owner
// and read concurrently by the snapshot/progress side without locks.
// All methods are nil-safe no-ops, letting instrumented code run with
// observability disabled at the cost of an inlined nil test.
type Shard struct {
	label    string
	counters [NumCounters]uint64
	hists    [NumHists]Histogram
}

// NewShard creates a free-standing shard (outside any Registry); campaign
// code normally obtains shards from Registry.NewShard instead.
func NewShard(label string) *Shard { return &Shard{label: label} }

// Label returns the shard's registration label.
func (s *Shard) Label() string {
	if s == nil {
		return ""
	}
	return s.label
}

// Inc adds 1 to counter c.
func (s *Shard) Inc(c Counter) {
	if s == nil {
		return
	}
	atomic.AddUint64(&s.counters[c], 1)
}

// Add adds n to counter c.
func (s *Shard) Add(c Counter, n uint64) {
	if s == nil {
		return
	}
	atomic.AddUint64(&s.counters[c], n)
}

// Counter returns the current value of c.
func (s *Shard) Counter(c Counter) uint64 {
	if s == nil {
		return 0
	}
	return atomic.LoadUint64(&s.counters[c])
}

// Observe records v into histogram h.
func (s *Shard) Observe(h Hist, v int64) {
	if s == nil {
		return
	}
	s.hists[h].Observe(v)
}

// Histogram returns the shard's histogram h for direct reads (merging,
// snapshots). Returns nil on a nil shard.
func (s *Shard) Histogram(h Hist) *Histogram {
	if s == nil {
		return nil
	}
	return &s.hists[h]
}

// MergeInto adds the shard's counters and histograms into dst. Counter
// addition and per-bucket histogram addition are commutative and
// associative, so merging any permutation of shards yields the same
// totals — the determinism contract of the sharded design.
func (s *Shard) MergeInto(dst *Shard) {
	if s == nil || dst == nil {
		return
	}
	for c := Counter(0); c < NumCounters; c++ {
		if n := atomic.LoadUint64(&s.counters[c]); n > 0 {
			atomic.AddUint64(&dst.counters[c], n)
		}
	}
	for h := Hist(0); h < NumHists; h++ {
		dst.hists[h].Merge(&s.hists[h])
	}
}

// Registry is the root of one campaign's observability state: the shards
// handed to workers, the phase tracer, and the wall-clock epoch that
// anchors spans and uptime. A nil *Registry is fully inert — every
// accessor returns a nil (and therefore inert) handle.
type Registry struct {
	start  time.Time
	tracer Tracer

	mu     sync.Mutex
	shards []*Shard
}

// NewRegistry creates an empty registry anchored at the current wall time.
func NewRegistry() *Registry {
	r := &Registry{start: time.Now()}
	r.tracer.clock = func() time.Duration { return time.Since(r.start) }
	return r
}

// NewShard creates, registers and returns a labelled shard. Shards are
// reported in registration order. Returns nil on a nil registry.
func (r *Registry) NewShard(label string) *Shard {
	if r == nil {
		return nil
	}
	s := NewShard(label)
	r.mu.Lock()
	r.shards = append(r.shards, s)
	r.mu.Unlock()
	return s
}

// Shards returns the registered shards in registration order.
func (r *Registry) Shards() []*Shard {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Shard(nil), r.shards...)
}

// Merged returns a fresh shard holding the sum of every registered shard.
func (r *Registry) Merged() *Shard {
	dst := NewShard("merged")
	for _, s := range r.Shards() {
		s.MergeInto(dst)
	}
	return dst
}

// Tracer returns the registry's phase tracer (nil on a nil registry).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return &r.tracer
}

// Start returns the wall-clock instant the registry was created.
func (r *Registry) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.start
}

// SpanID is a handle onto an open span; values < 0 (from a nil tracer)
// are inert.
type SpanID int

// Tracer records begin/end spans for campaign phases on the wall clock.
// It is safe for concurrent use; spans may nest and interleave freely.
// Nothing in the deterministic campaign path reads spans back — they are
// observability output only.
type Tracer struct {
	clock func() time.Duration

	mu    sync.Mutex
	spans []Span
}

// Span is one recorded phase. End is zero while the span is open.
type Span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_nanos"`
	End   time.Duration `json:"end_nanos,omitempty"`
	Done  bool          `json:"done"`
}

// Begin opens a span and returns its handle. Nil-safe (returns -1).
func (t *Tracer) Begin(name string) SpanID {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, Span{Name: name, Start: t.now()})
	return id
}

// End closes the span; ending an inert or already-closed span is a no-op.
func (t *Tracer) End(id SpanID) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.spans) || t.spans[id].Done {
		return
	}
	t.spans[id].End = t.now()
	t.spans[id].Done = true
}

// Spans returns a copy of the recorded spans in begin order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Current returns the name of the most recently begun span that is still
// open, or "" — the "what is it doing right now" hint for progress lines.
func (t *Tracer) Current() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if !t.spans[i].Done {
			return t.spans[i].Name
		}
	}
	return ""
}

func (t *Tracer) now() time.Duration {
	if t.clock == nil {
		return 0
	}
	return t.clock()
}
