package netsim

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"openresolver/internal/ipv4"
	"openresolver/internal/obs"
)

// Datagram is one UDP-like packet in flight.
type Datagram struct {
	Src, Dst         ipv4.Addr
	SrcPort, DstPort uint16
	Payload          []byte
}

// Host is a network endpoint. HandleDatagram is invoked by the event loop
// when a datagram addressed to the host's address is delivered; the handler
// may send packets and arm timers through the supplied Node.
type Host interface {
	HandleDatagram(n *Node, dg Datagram)
}

// HostFunc adapts a function to the Host interface.
type HostFunc func(n *Node, dg Datagram)

// HandleDatagram implements Host.
func (f HostFunc) HandleDatagram(n *Node, dg Datagram) { f(n, dg) }

// LatencyModel returns the one-way delivery delay for a packet. The rng is
// the simulation's deterministic source; models may use it for jitter.
type LatencyModel func(src, dst ipv4.Addr, rng *rand.Rand) time.Duration

// ConstantLatency returns a model with a fixed one-way delay.
func ConstantLatency(d time.Duration) LatencyModel {
	return func(ipv4.Addr, ipv4.Addr, *rand.Rand) time.Duration { return d }
}

// UniformLatency returns a model drawing delays uniformly from [lo, hi).
func UniformLatency(lo, hi time.Duration) LatencyModel {
	if hi <= lo {
		return ConstantLatency(lo)
	}
	return func(_, _ ipv4.Addr, rng *rand.Rand) time.Duration {
		return lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}
}

// Config parameterizes a simulation.
type Config struct {
	// Seed drives every random decision in the run.
	Seed int64
	// Latency is the one-way delay model; nil means a constant 20ms.
	Latency LatencyModel
	// Impairments is the adverse-network fault pipeline (see impair.go),
	// applied in order to every datagram. nil keeps the pristine fast path;
	// IIDLoss is uniform in-flight loss.
	Impairments []Impairment
	// MaxQueuedEvents bounds the event queue as a safety net against
	// runaway feedback loops; 0 means no bound.
	MaxQueuedEvents int
}

// Stats are cumulative counters of a simulation run.
type Stats struct {
	Sent        uint64 // datagrams and stream segments submitted by hosts
	Delivered   uint64 // datagrams/segments handed to a registered endpoint
	Lost        uint64 // datagrams dropped by the loss model
	NoRoute     uint64 // datagrams to addresses with no registered host
	Timers      uint64 // timer events fired
	StreamBytes uint64 // bytes carried over stream (TCP-like) connections
}

// Add accumulates o into s — the shard-merge path of the parallel
// simulation (field-wise sums; QueueStats are per-Sim sizing telemetry and
// are not merged).
func (s *Stats) Add(o Stats) {
	s.Sent += o.Sent
	s.Delivered += o.Delivered
	s.Lost += o.Lost
	s.NoRoute += o.NoRoute
	s.Timers += o.Timers
	s.StreamBytes += o.StreamBytes
}

// Sim is a discrete-event network simulation.
type Sim struct {
	cfg Config
	now time.Duration
	rng *rand.Rand

	// The event queue is a struct-of-arrays 4-ary min-heap ordered by
	// (at, seq): heapAt/heapSeq hold the sort keys in parallel arrays so a
	// sift comparison touches only key memory (a 4-child node's at values
	// span 32 contiguous bytes), and heapRef points into the evSlab payload
	// arena, so sifting moves 20 bytes per level instead of a whole event.
	heapAt  []time.Duration
	heapSeq []uint64
	heapRef []int32
	evSlab  []evPayload
	freeEv  []int32
	seq     uint64

	// Near-future monotone timer fast path: a bounded ring that accepts a
	// timer only while its deadline is >= the last accepted one (seq rises
	// monotonically, so ring order is (at, seq)-sorted by construction).
	// Overflow or out-of-order arming falls back to the heap; popNext merges
	// the ring head against the heap root. See DESIGN.md §11.
	ring       []ringEntry
	ringHead   uint32
	ringLen    uint32
	ringMask   uint32
	ringTailAt time.Duration

	qstats QueueStats

	// timers are pooled callback slots addressed by event.slot; a slot's
	// generation is bumped on Stop and on fire so stale handles and lazily
	// deleted queue entries are detected without touching the heap.
	timers     []timerSlot
	freeTimers []int32

	// Open-addressed host table: slots map addr → arena index, the arena is
	// chunked so *Node pointers stay stable as it grows. Slots are linear-
	// probed; idx < 0 marks empty/tombstone.
	slots     []hostSlot
	mask      uint32
	shift     uint32
	live      int // registered hosts
	used      int // live + tombstones (probe-chain occupancy)
	nodes     [][]Node
	nodeCount int
	// present is a one-hash filter over the registered addresses, eight
	// bits per slot, indexed by the hash bits just below the slot index's
	// (presentBit). A clear bit proves an address unregistered, so most
	// lookups of an empty address — the dead-letter sends — end on one
	// bit instead of a probe chain. Register sets bits, Unregister leaves
	// them (a stale bit costs only the full probe), and grow rebuilds the
	// filter from the live entries.
	present []uint64

	listeners map[listenerKey]StreamAccept
	payloads  [][]byte // recycled datagram payload buffers
	stats     Stats
	faults    FaultStats
	// obs mirrors the counters into the observability layer; nil (the
	// default) keeps every sink call an inlined no-op. Counters never feed
	// back into simulation behaviour, so runs stay bit-identical with
	// observation on (pinned by TestSimulationGoldenWithMetrics).
	obs *obs.Shard

	// Scratch cells for the fault pipeline: Apply takes pointers through
	// an interface, which would otherwise force a heap escape per packet.
	fate  Fate
	impDg Datagram
	// lengthOnly records that every pipeline element is one of this
	// package's impairments, which read a datagram's addresses, now and
	// len(Payload) but never its bytes, so a deferred send runs the
	// pipeline on view, a scratch buffer cut to the declared size.
	lengthOnly bool
	view       []byte
}

// ErrEventQueueFull is returned by Step and Run when MaxQueuedEvents is
// exceeded.
var ErrEventQueueFull = errors.New("netsim: event queue limit exceeded")

// New creates a simulation.
func New(cfg Config) *Sim {
	if cfg.Latency == nil {
		cfg.Latency = ConstantLatency(20 * time.Millisecond)
	}
	return &Sim{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		lengthOnly: ownImpairments(cfg.Impairments),
	}
}

// Now returns the current virtual time since the start of the run.
func (s *Sim) Now() time.Duration { return s.now }

// Stats returns a snapshot of the run counters.
func (s *Sim) Stats() Stats { return s.stats }

// FaultStats returns a snapshot of the impairment pipeline's counters.
func (s *Sim) FaultStats() FaultStats { return s.faults }

// QueueStats are event-queue placement counters: how many timer arms took
// the ring fast path versus falling back to the heap (overflow or
// out-of-order deadline). They live outside Stats deliberately — the golden
// digests cover Stats, and queue placement is an implementation detail that
// must be free to change without re-baselining campaigns.
type QueueStats struct {
	RingTimers uint64 // timers accepted by the monotone ring
	HeapTimers uint64 // timers that fell back to the heap
}

// QueueStats returns a snapshot of the queue-placement counters.
func (s *Sim) QueueStats() QueueStats { return s.qstats }

// Rand returns the simulation's deterministic random source. It must only
// be used from within event handlers (the simulator is single-threaded).
func (s *Sim) Rand() *rand.Rand { return s.rng }

// SetObserver attaches a metrics shard; every packet and timer event is
// mirrored into it from then on. Pass nil to detach (the default state).
func (s *Sim) SetObserver(sh *obs.Shard) { s.obs = sh }

// --- host table ---------------------------------------------------------

const (
	slotEmpty = int32(-1)
	slotTomb  = int32(-2)

	// The node arena grows in chunks of 1024 nodes (32 KiB). A sim shard
	// of a campaign registers a few thousand hosts, so a larger chunk is
	// mostly never used, and every shard is its own Sim.
	nodeChunkBits = 10
	nodeChunkSize = 1 << nodeChunkBits
)

type hostSlot struct {
	addr ipv4.Addr
	idx  int32
}

func (s *Sim) hashIndex(addr ipv4.Addr) uint32 {
	// Fibonacci hashing; the high bits are well mixed, so index by them.
	return (uint32(addr) * 0x9E3779B9) >> s.shift
}

// presentBit is addr's bit in the present filter: the slot index's hash
// bits and the three below them.
func (s *Sim) presentBit(addr ipv4.Addr) uint32 {
	return (uint32(addr) * 0x9E3779B9) >> (s.shift - 3)
}

// findSlot returns the slot index holding addr, or -1.
func (s *Sim) findSlot(addr ipv4.Addr) int {
	if len(s.slots) == 0 {
		return -1
	}
	if b := s.presentBit(addr); s.present[b>>6]&(1<<(b&63)) == 0 {
		return -1
	}
	i := s.hashIndex(addr)
	for {
		sl := &s.slots[i]
		if sl.idx == slotEmpty {
			return -1
		}
		if sl.idx >= 0 && sl.addr == addr {
			return int(i)
		}
		i = (i + 1) & s.mask
	}
}

func (s *Sim) nodeAt(idx int32) *Node {
	return &s.nodes[idx>>nodeChunkBits][idx&(nodeChunkSize-1)]
}

// grow doubles the slot table (16 minimum) and rehashes live entries,
// discarding tombstones.
func (s *Sim) grow() {
	newCap := 16
	if len(s.slots) > 0 {
		newCap = len(s.slots) * 2
	}
	old := s.slots
	s.slots = make([]hostSlot, newCap)
	for i := range s.slots {
		s.slots[i].idx = slotEmpty
	}
	s.mask = uint32(newCap - 1)
	s.shift = uint32(32 - bits.TrailingZeros32(uint32(newCap)))
	s.present = make([]uint64, newCap/8)
	s.used = s.live
	for _, sl := range old {
		if sl.idx < 0 {
			continue
		}
		s.markPresent(sl.addr)
		i := s.hashIndex(sl.addr)
		for s.slots[i].idx != slotEmpty {
			i = (i + 1) & s.mask
		}
		s.slots[i] = sl
	}
}

// markPresent sets addr's bit in the present filter.
func (s *Sim) markPresent(addr ipv4.Addr) {
	b := s.presentBit(addr)
	s.present[b>>6] |= 1 << (b & 63)
}

// insertSlot places (addr, idx) into the table; addr must not be present.
func (s *Sim) insertSlot(addr ipv4.Addr, idx int32) {
	// Keep probe-chain occupancy (live + tombstones) under 3/4 so every
	// probe terminates at an empty slot.
	if len(s.slots) == 0 || (s.used+1)*4 > len(s.slots)*3 {
		s.grow()
	}
	s.markPresent(addr)
	i := s.hashIndex(addr)
	tomb := -1
	for {
		sl := &s.slots[i]
		if sl.idx == slotEmpty {
			if tomb >= 0 {
				s.slots[tomb] = hostSlot{addr: addr, idx: idx}
			} else {
				*sl = hostSlot{addr: addr, idx: idx}
				s.used++
			}
			s.live++
			return
		}
		if sl.idx == slotTomb && tomb < 0 {
			tomb = int(i)
		}
		i = (i + 1) & s.mask
	}
}

// Register attaches host at addr and returns its Node handle. Registering
// an address twice replaces the previous host but preserves the Node
// identity seen by pending timers. A host may replace itself from inside
// its own HandleDatagram: datagrams already in flight to the address reach
// the replacement (TestHostReplacesItselfInFlight), which is how a dormant
// placeholder becomes a full host on first contact.
func (s *Sim) Register(addr ipv4.Addr, h Host) *Node {
	if si := s.findSlot(addr); si >= 0 {
		n := s.nodeAt(s.slots[si].idx)
		n.host = h
		return n
	}
	idx := int32(s.nodeCount)
	if s.nodeCount>>nodeChunkBits == len(s.nodes) {
		s.nodes = append(s.nodes, make([]Node, nodeChunkSize))
	}
	s.nodeCount++
	n := s.nodeAt(idx)
	*n = Node{sim: s, addr: addr, host: h}
	s.insertSlot(addr, idx)
	return n
}

// Unregister detaches the host at addr; packets to it then count as NoRoute.
// The detached Node stays valid for stale handles (its arena slot is never
// recycled); re-registering the address yields a fresh Node.
func (s *Sim) Unregister(addr ipv4.Addr) {
	if si := s.findSlot(addr); si >= 0 {
		s.slots[si].idx = slotTomb
		s.live--
	}
}

// Lookup returns the node registered at addr, if any.
func (s *Sim) Lookup(addr ipv4.Addr) (*Node, bool) {
	si := s.findSlot(addr)
	if si < 0 {
		return nil, false
	}
	return s.nodeAt(s.slots[si].idx), true
}

// --- payload pool -------------------------------------------------------

// getPayload returns a zero-length recycled buffer (or a fresh one).
func (s *Sim) getPayload() []byte {
	if n := len(s.payloads); n > 0 {
		b := s.payloads[n-1]
		s.payloads = s.payloads[:n-1]
		return b
	}
	return make([]byte, 0, 512)
}

func (s *Sim) putPayload(b []byte) {
	if cap(b) == 0 {
		return
	}
	s.payloads = append(s.payloads, b[:0])
}

// --- sending ------------------------------------------------------------

// intact is the fate of a datagram that meets no impairment: one copy,
// delivered unchanged after its latency. It is never written.
var intact = Fate{CorruptBit: -1}

// PayloadBuilder writes a datagram's payload on demand (Node.SendDeferred):
// AppendPayload appends the payload to dst and returns the extended slice.
// It must append exactly the size declared with the send, and it runs
// inside the send, so it must not send itself.
type PayloadBuilder interface {
	AppendPayload(dst []byte) []byte
}

// send is the one path of every datagram. It works out the datagram's fate
// — the fault pipeline, the duplicate copies, the corrupt bit, the latency
// draws and the route — before the payload exists: with b non-nil, dg has
// no payload yet and size is its declared length, and b builds it into a
// pooled buffer only when a copy will be scheduled for delivery; with b
// nil, dg.Payload holds the bytes and size is their length. If pooled, the
// payload buffer is recycled once the datagram is consumed. Duplicates are
// cloned before the primary is corrupted, so a flipped bit never reaches a
// twin. A copy that cannot arrive makes every counter update and rng draw a
// delivered one makes.
//
// dg comes last so that the register ABI passes it on the stack, where the
// function reads it without spilling it first: with dg first, the
// unrouted probe's send read about 8 ns slower in
// BenchmarkProberSend/unrouted.
func (s *Sim) send(b PayloadBuilder, size int, pooled bool, dg Datagram) {
	s.stats.Sent++
	s.obs.Inc(obs.CSimSent)
	f := &intact
	if len(s.cfg.Impairments) > 0 {
		if b != nil && !s.lengthOnly {
			// An element from outside this package may read the bytes.
			dg.Payload, pooled, b = s.build(b, size), true, nil
		}
		// The datagram is copied field by field and the fate is read in
		// place: a block copy reads wider than the narrow stores just made
		// to them, which stalls store forwarding on every send.
		d := &s.impDg
		d.Src, d.Dst, d.SrcPort, d.DstPort, d.Payload = dg.Src, dg.Dst, dg.SrcPort, dg.DstPort, dg.Payload
		if b != nil {
			// Only this package's impairments see this view; they read
			// its length and never its bytes, nor change the datagram.
			if cap(s.view) < size {
				s.view = make([]byte, size)
			}
			d.Payload = s.view[:size]
		}
		f = &s.fate
		*f = intact
		for _, imp := range s.cfg.Impairments {
			imp.Apply(d, s.now, s.rng, f)
		}
		if b == nil {
			dg.Src, dg.Dst, dg.SrcPort, dg.DstPort, dg.Payload = d.Src, d.Dst, d.SrcPort, d.DstPort, d.Payload
			size = len(dg.Payload)
		}
		d.Payload = nil // no stale reference into the payload pool
		if f.Drop {
			s.drop(f.Cause)
			if pooled {
				s.putPayload(dg.Payload)
			}
			return
		}
	}
	routed := s.routeExists(dg.Dst)
	if routed && b != nil {
		dg.Payload, pooled = s.build(b, size), true
	}
	var extra time.Duration
	if f != &intact { // only an impaired fate adds copies, a corrupt bit or delay
		if f.Duplicates > 0 {
			s.duplicate(dg, f.Duplicates, routed)
		}
		if f.CorruptBit >= 0 && size > 0 {
			dg.Payload, pooled = s.corrupt(dg.Payload, pooled, routed, f.CorruptBit%(size*8))
		}
		if f.ExtraDelay > 0 {
			s.faults.Reordered++
			s.obs.Inc(obs.CFaultReordered)
			extra = f.ExtraDelay
		}
	}
	delay := s.cfg.Latency(dg.Src, dg.Dst, s.rng) + extra
	if !routed {
		s.noRoute(dg.Payload, pooled)
		return
	}
	s.schedule(s.now+delay, evPayload{kind: evDeliver, dg: dg, pooled: pooled})
}

// duplicate sends n copies of dg, cloning its payload for each one that
// will be delivered. Each copy draws its own latency, so copies arrive
// shuffled relative to the primary.
func (s *Sim) duplicate(dg Datagram, n int, routed bool) {
	for range n {
		s.faults.Duplicated++
		s.obs.Inc(obs.CFaultDuplicated)
		delay := s.cfg.Latency(dg.Src, dg.Dst, s.rng)
		if !routed {
			s.noRoute(nil, false)
			continue
		}
		cp := dg
		cp.Payload = append(s.getPayload(), dg.Payload...)
		s.schedule(s.now+delay, evPayload{kind: evDeliver, dg: cp, pooled: true})
	}
}

// corrupt counts a corrupted datagram and, if it will be delivered, flips
// bit in its payload, copying a caller-owned payload into the pool first.
func (s *Sim) corrupt(p []byte, pooled, routed bool, bit int) ([]byte, bool) {
	if routed {
		if !pooled {
			p, pooled = append(s.getPayload(), p...), true
		}
		p[bit>>3] ^= 1 << (bit & 7)
	}
	s.faults.Corrupted++
	s.obs.Inc(obs.CFaultCorrupted)
	return p, pooled
}

// build asks b for a payload of size bytes in a pooled buffer.
func (s *Sim) build(b PayloadBuilder, size int) []byte {
	p := b.AppendPayload(s.getPayload())
	if len(p) != size {
		panic(fmt.Sprintf("netsim: payload builder appended %d bytes to a datagram declared as %d", len(p), size))
	}
	return p
}

// routeExists reports whether dst is registered right now. Routing is
// resolved once at submission, for the datagram and all its copies, so a
// dead-letter datagram — about 99.5% of probes in a shift-8 campaign —
// costs one host-table miss, no queue round trip and no payload.
// Deliverable packets re-resolve on arrival (deliverOne), so a host
// unregistered mid-flight dead-letters as before; a host registered *after*
// Send misses in-flight packets, which nothing in the simulation does
// (hosts, or placeholders standing in for them, register at setup). The
// latency draws stay unconditional: the rng stream must not depend on
// routability.
func (s *Sim) routeExists(dst ipv4.Addr) bool { return s.findSlot(dst) >= 0 }

// noRoute counts and discards an unroutable datagram at submission time.
func (s *Sim) noRoute(payload []byte, pooled bool) {
	s.stats.NoRoute++
	s.obs.Inc(obs.CSimNoRoute)
	if pooled {
		s.putPayload(payload)
	}
}

// drop counts a datagram the fault pipeline dropped.
func (s *Sim) drop(cause DropCause) {
	s.stats.Lost++
	s.obs.Inc(obs.CSimLost)
	s.faults.Dropped++
	switch cause {
	case CauseLoss:
		s.faults.LossDrops++
		s.obs.Inc(obs.CFaultLossDrop)
	case CauseBurst:
		s.faults.BurstDrops++
		s.obs.Inc(obs.CFaultBurstDrop)
	case CauseBlackhole:
		s.faults.Blackholed++
		s.obs.Inc(obs.CFaultBlackholed)
	case CauseBrownout:
		s.faults.BrownedOut++
		s.obs.Inc(obs.CFaultBrownedOut)
	}
}

// Step executes the next event and reports false when the queue is empty.
// Run is a loop over Step. Terminal calls (empty queue, limit exceeded)
// return before the queue-depth observation, so idle polling does not skew
// the HQueueDepth histogram: it holds one sample per executed event.
func (s *Sim) Step() (bool, error) {
	if s.cfg.MaxQueuedEvents > 0 && s.queueLen() > s.cfg.MaxQueuedEvents {
		return false, ErrEventQueueFull
	}
	if s.queueLen() == 0 {
		return false, nil
	}
	s.obs.Observe(obs.HQueueDepth, int64(s.queueLen()))
	at, p := s.popNext()
	s.now = at
	if p.kind == evDeliver {
		s.deliverOne(p)
	} else {
		s.fireTimer(p)
	}
	return true, nil
}

// deliverOne routes and delivers a single datagram. The route is resolved
// again on arrival, so a host unregistered mid-flight dead-letters.
func (s *Sim) deliverOne(p evPayload) {
	n, ok := s.Lookup(p.dg.Dst)
	if !ok {
		s.stats.NoRoute++
		s.obs.Inc(obs.CSimNoRoute)
		if p.pooled {
			s.putPayload(p.dg.Payload)
		}
		return
	}
	s.stats.Delivered++
	s.obs.Inc(obs.CSimDelivered)
	n.host.HandleDatagram(n, p.dg)
	if p.pooled {
		s.putPayload(p.dg.Payload)
	}
}

// fireTimer runs a popped timer event through the generation discipline.
func (s *Sim) fireTimer(p evPayload) {
	s.stats.Timers++
	s.obs.Inc(obs.CSimTimers)
	sl := &s.timers[p.slot]
	if sl.gen != p.gen {
		// Lazily deleted: Stop invalidated the slot; the popped event
		// was its sole owner, so the slot is free for reuse now.
		s.freeTimers = append(s.freeTimers, p.slot)
		return
	}
	fn := sl.fn
	sl.fn = nil
	sl.gen++
	s.freeTimers = append(s.freeTimers, p.slot)
	// fn may arm new timers and grow s.timers; all slot bookkeeping is
	// done before the call so reentrancy is safe.
	fn()
}

// Run executes events until the queue drains or until the optional deadline
// (a virtual time) is passed. A zero deadline means run to quiescence.
func (s *Sim) Run(deadline time.Duration) error {
	for {
		if deadline > 0 && s.queueLen() > 0 && s.headAt() > deadline {
			s.now = deadline
			return nil
		}
		if ok, err := s.Step(); !ok {
			return err
		}
	}
}

// --- timers -------------------------------------------------------------

// timerSlot is a pooled callback cell. gen detects stale Timer handles and
// lazily deleted queue entries: it is bumped on Stop and on fire, so a
// handle or event carrying an older generation is ignored.
type timerSlot struct {
	fn  func()
	gen uint32
}

// Timer is a cancellable scheduled callback. The zero value is inert.
type Timer struct {
	s    *Sim
	slot int32
	gen  uint32
}

// Stop cancels the timer if it has not fired. Stopping an already-fired or
// zero Timer is a no-op. The queue entry is deleted lazily: it stays in the
// heap and is discarded (still counted in Stats.Timers) when popped.
func (t Timer) Stop() {
	if t.s == nil {
		return
	}
	sl := &t.s.timers[t.slot]
	if sl.gen == t.gen {
		sl.gen++
		sl.fn = nil
	}
}

// afterFunc schedules fn on the simulation clock and returns its handle.
func (s *Sim) afterFunc(d time.Duration, fn func()) Timer {
	var slot int32
	if n := len(s.freeTimers); n > 0 {
		slot = s.freeTimers[n-1]
		s.freeTimers = s.freeTimers[:n-1]
		s.timers[slot].fn = fn
	} else {
		slot = int32(len(s.timers))
		s.timers = append(s.timers, timerSlot{fn: fn})
	}
	gen := s.timers[slot].gen
	s.schedule(s.now+d, evPayload{kind: evTimer, slot: slot, gen: gen})
	return Timer{s: s, slot: slot, gen: gen}
}

// --- node ---------------------------------------------------------------

// Node is a host's handle onto the network: its identity, its clock, and
// its transmit/timer facilities.
type Node struct {
	sim  *Sim
	addr ipv4.Addr
	host Host
}

// Addr returns the node's IPv4 address.
func (n *Node) Addr() ipv4.Addr { return n.addr }

// Now returns the current virtual time.
func (n *Node) Now() time.Duration { return n.sim.now }

// Rand returns the simulation's deterministic random source.
func (n *Node) Rand() *rand.Rand { return n.sim.rng }

// Send transmits a datagram from this node. Src is stamped automatically.
func (n *Node) Send(dst ipv4.Addr, srcPort, dstPort uint16, payload []byte) {
	n.sim.send(nil, len(payload), false, Datagram{
		Src: n.addr, Dst: dst,
		SrcPort: srcPort, DstPort: dstPort,
		Payload: payload,
	})
}

// SendSpoofed transmits a datagram with a forged source address — the
// primitive behind the paper's DNS amplification threat model (§II-C).
func (n *Node) SendSpoofed(src, dst ipv4.Addr, srcPort, dstPort uint16, payload []byte) {
	n.sim.send(nil, len(payload), false, Datagram{
		Src: src, Dst: dst,
		SrcPort: srcPort, DstPort: dstPort,
		Payload: payload,
	})
}

// PayloadBuf returns a zero-length scratch buffer from the simulation's
// payload pool, for building a packet to pass to SendPooled.
func (n *Node) PayloadBuf() []byte { return n.sim.getPayload() }

// SendPooled is Send for payloads built in a PayloadBuf buffer: the buffer
// is returned to the pool once the datagram is consumed (delivered and the
// receiving handler has returned, lost, or dead-lettered). The receiver
// must not retain the payload slice beyond its HandleDatagram call — every
// consumer in this codebase decodes or copies it synchronously.
func (n *Node) SendPooled(dst ipv4.Addr, srcPort, dstPort uint16, payload []byte) {
	n.sim.send(nil, len(payload), true, Datagram{
		Src: n.addr, Dst: dst,
		SrcPort: srcPort, DstPort: dstPort,
		Payload: payload,
	})
}

// SendDeferred is SendPooled for a payload of size bytes that is not built
// yet: netsim decides the datagram's fate from its addresses and size and
// calls b.AppendPayload on a PayloadBuf buffer only when a copy will be
// scheduled for delivery, so a datagram that is dropped or addressed to no
// host never gets its bytes. Counters and the rng advance exactly as a
// SendPooled of the built payload would advance them. When the fault
// pipeline holds an impairment from outside this package, which may read
// the bytes, the payload is built before the pipeline runs. It panics if
// b appends other than size bytes.
func (n *Node) SendDeferred(dst ipv4.Addr, srcPort, dstPort uint16, size int, b PayloadBuilder) {
	n.sim.send(b, size, false, Datagram{
		Src: n.addr, Dst: dst,
		SrcPort: srcPort, DstPort: dstPort,
	})
}

// After schedules fn to run after d of virtual time and returns a handle
// that can cancel it.
func (n *Node) After(d time.Duration, fn func()) Timer {
	return n.sim.afterFunc(d, fn)
}

// --- event queue --------------------------------------------------------

// evPayload is the non-key part of a queued event. The (at, seq) sort keys
// live in the heap's parallel arrays (or inline in the timer ring); the
// payload sits in the evSlab arena and never moves during sifts.
type evPayload struct {
	dg   Datagram
	slot int32  // timer slot (evTimer)
	gen  uint32 // timer generation at scheduling time (evTimer)
	kind evKind
	// pooled marks dg.Payload as pool-owned (evDeliver).
	pooled bool
}

type evKind uint8

const (
	evDeliver evKind = iota + 1
	evTimer
)

// ringEntry is one timer in the monotone fast-path ring. Timers carry no
// datagram, so the whole event fits inline — no slab indirection.
type ringEntry struct {
	at   time.Duration
	seq  uint64
	slot int32
	gen  uint32
}

// ringCap bounds the timer ring (power of two; allocated lazily on the
// first timer arm). 2048 covers the retransmission engine's worst in-flight
// backlog at the calibration scales while staying cache-resident.
const ringCap = 2048

// queueLen returns the total number of queued events across heap and ring.
func (s *Sim) queueLen() int { return len(s.heapAt) + int(s.ringLen) }

// headAt returns the minimum queued timestamp. The queue must be non-empty.
func (s *Sim) headAt() time.Duration {
	if s.ringLen > 0 {
		ra := s.ring[s.ringHead].at
		if len(s.heapAt) == 0 || ra < s.heapAt[0] {
			return ra
		}
		return s.heapAt[0]
	}
	return s.heapAt[0]
}

// schedule stamps ev with (at, seq) and enqueues it. The (at, seq) key is a
// total order, so the pop sequence — and with it the whole run — is
// independent of which structure (ring or heap) holds an event and of the
// heap's internal layout. Timers try the monotone ring first.
func (s *Sim) schedule(at time.Duration, ev evPayload) {
	seq := s.seq
	s.seq++
	if ev.kind == evTimer {
		if s.ringPush(at, seq, ev.slot, ev.gen) {
			s.qstats.RingTimers++
			s.obs.Inc(obs.CSimTimerRing)
			return
		}
		s.qstats.HeapTimers++
		s.obs.Inc(obs.CSimTimerHeap)
	}
	var ref int32
	if n := len(s.freeEv); n > 0 {
		ref = s.freeEv[n-1]
		s.freeEv = s.freeEv[:n-1]
		s.evSlab[ref] = ev
	} else {
		ref = int32(len(s.evSlab))
		s.evSlab = append(s.evSlab, ev)
	}
	s.heapPush(at, seq, ref)
}

// ringPush appends a timer to the ring when it fits and keeps the tail
// monotone; it reports false (heap fallback) on overflow or when the
// deadline regresses below the last accepted one. Ring order is strictly
// increasing (at, seq) by construction, so popping its head is always
// popping its minimum.
func (s *Sim) ringPush(at time.Duration, seq uint64, slot int32, gen uint32) bool {
	if s.ringLen > 0 {
		if at < s.ringTailAt || s.ringLen == uint32(len(s.ring)) {
			return false
		}
	} else if s.ring == nil {
		s.ring = make([]ringEntry, ringCap)
		s.ringMask = ringCap - 1
	}
	s.ring[(s.ringHead+s.ringLen)&s.ringMask] = ringEntry{at: at, seq: seq, slot: slot, gen: gen}
	s.ringLen++
	s.ringTailAt = at
	return true
}

// heapPush inserts (at, seq, ref) into the SoA 4-ary heap, sifting up with
// a hole: parents shift down and the new key is written once at its final
// position.
func (s *Sim) heapPush(at time.Duration, seq uint64, ref int32) {
	s.heapAt = append(s.heapAt, at)
	s.heapSeq = append(s.heapSeq, seq)
	s.heapRef = append(s.heapRef, ref)
	hAt, hSeq, hRef := s.heapAt, s.heapSeq, s.heapRef
	i := len(hAt) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if hAt[p] < at || (hAt[p] == at && hSeq[p] < seq) {
			break
		}
		hAt[i], hSeq[i], hRef[i] = hAt[p], hSeq[p], hRef[p]
		i = p
	}
	hAt[i], hSeq[i], hRef[i] = at, seq, ref
}

// heapPop removes and returns the heap minimum, freeing its slab slot. The
// heap must be non-empty. Sift-down also uses the hole technique, and the
// comparison loop touches only the key arrays — a node's four child keys
// are contiguous.
func (s *Sim) heapPop() (time.Duration, evPayload) {
	hAt, hSeq, hRef := s.heapAt, s.heapSeq, s.heapRef
	at := hAt[0]
	ref := hRef[0]
	n := len(hAt) - 1
	if n > 0 {
		lat, lseq, lref := hAt[n], hSeq[n], hRef[n]
		i := 0
		for {
			c := i*4 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if hAt[j] < hAt[m] || (hAt[j] == hAt[m] && hSeq[j] < hSeq[m]) {
					m = j
				}
			}
			if lat < hAt[m] || (lat == hAt[m] && lseq < hSeq[m]) {
				break
			}
			hAt[i], hSeq[i], hRef[i] = hAt[m], hSeq[m], hRef[m]
			i = m
		}
		hAt[i], hSeq[i], hRef[i] = lat, lseq, lref
	}
	s.heapAt = hAt[:n]
	s.heapSeq = hSeq[:n]
	s.heapRef = hRef[:n]
	p := s.evSlab[ref]
	s.evSlab[ref].dg.Payload = nil // drop payload reference
	s.freeEv = append(s.freeEv, ref)
	return at, p
}

// popNext removes and returns the minimum event across ring and heap by
// (at, seq). The queue must be non-empty.
func (s *Sim) popNext() (time.Duration, evPayload) {
	if s.ringLen > 0 {
		r := &s.ring[s.ringHead]
		if len(s.heapAt) == 0 || r.at < s.heapAt[0] || (r.at == s.heapAt[0] && r.seq < s.heapSeq[0]) {
			at := r.at
			p := evPayload{slot: r.slot, gen: r.gen, kind: evTimer}
			s.ringHead = (s.ringHead + 1) & s.ringMask
			s.ringLen--
			return at, p
		}
	}
	return s.heapPop()
}
