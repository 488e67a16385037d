package prober

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"openresolver/internal/capture"
	"openresolver/internal/dnssrv"
	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
	"openresolver/internal/obs"
	"openresolver/internal/scan"
)

// Config parameterizes a probing campaign.
type Config struct {
	// Addr is the prober's source address.
	Addr ipv4.Addr
	// Universe supplies the candidate addresses in probe order.
	Universe *scan.Universe
	// RangeStart and RangeEnd bound the universe walk to probe-order
	// positions [RangeStart, RangeEnd) — one contiguous shard of the index
	// space in the parallel simulation. RangeEnd 0 walks the whole universe.
	RangeStart, RangeEnd uint64
	// SLD is the controlled second-level domain.
	SLD string
	// ClusterSize is the number of subdomains per cluster.
	ClusterSize int
	// FirstCluster offsets the subdomain-cluster namespace: the prober's
	// first pool is cluster FirstCluster (0 for a whole campaign). The
	// parallel simulation gives each shard a disjoint cluster range so the
	// merged probe and authoritative captures never collide on a qname.
	// Like cluster 0 of a serial campaign, the first cluster is pre-loaded —
	// rotating *past* it triggers the usual reload pause.
	FirstCluster int
	// PacketsPerSec is the probe rate in virtual time.
	PacketsPerSec uint64
	// Timeout is how long a subdomain stays reserved before it is deemed
	// unanswered and returned to the pool for reuse.
	Timeout time.Duration
	// Retries is the per-probe retransmission budget: a probe whose
	// deadline expires is retransmitted to the same target (same subdomain,
	// same query ID, exponential backoff with jitter) up to Retries times
	// before the prober gives up on it. 0 keeps the paper's single-shot
	// behaviour.
	Retries int
	// AdaptiveTimeout replaces the fixed Timeout with a Jacobson/Karn RTO
	// (SRTT + 4×RTTVAR, clamped to [MinRTO, MaxRTO]) learned from observed
	// response latencies. Retransmitted probes are never timed (Karn).
	AdaptiveTimeout bool
	// MinRTO and MaxRTO clamp the adaptive timeout and cap the exponential
	// backoff. Zero values default to 100ms and 4×Timeout.
	MinRTO, MaxRTO time.Duration
	// SendSkip is the probability a probe is never transmitted (models the
	// 2013 C-based prober's send shortfall, paperdata discrepancy D2).
	SendSkip float64
	// DisableReuse turns off subdomain reuse (§III-B) for ablation: every
	// probe then consumes a fresh subdomain and the campaign needs the
	// theoretical number of clusters (~800 at full scale) instead of ~4.
	DisableReuse bool
	// Auth, when set, has its cluster rotated in lockstep with the
	// prober's subdomain clusters.
	Auth *dnssrv.AuthServer
	// Log captures Q1 counts and R2 packets.
	Log *capture.ProbeLog
	// Obs, when non-nil, mirrors the prober's counters and response
	// latencies into the observability layer. It never influences probing
	// decisions, so campaigns stay bit-identical with it attached.
	Obs *obs.Shard
	// Skip marks addresses never to probe (the measurement's own
	// infrastructure).
	Skip func(ipv4.Addr) bool
	// OnDone fires once when the campaign completes (queue drained).
	OnDone func(*Prober)
}

// Prober is the scanning host.
type Prober struct {
	cfg  Config
	node *netsim.Node
	it   *scan.Iterator

	srcPort uint16
	nextID  uint16

	// Subdomain pool for the active cluster.
	cluster int
	avail   []int // free subdomain indices (LIFO)
	// burnedBits is a bitset over the active cluster's subdomain indices
	// (the old map[int]bool); burnedCount is its population count.
	burnedBits  []uint64
	burnedCount int
	// wheel holds the timeout of every in-flight probe, bucketed by the
	// tick that expires it (wheel.go); wheel.n is the in-flight count.
	wheel wheel

	pauseUntil time.Duration
	exhausted  bool
	done       bool
	start      time.Duration
	finishedAt time.Duration
	// tokens implements the send-rate budget: PacketsPerSec×tick credited
	// per tick, one consumed per probe. Fractional rates accumulate.
	tokens float64

	// Counters.
	sent         uint64
	skipped      uint64
	received     uint64
	reused       uint64
	answered     uint64
	retransmits  uint64
	late         uint64
	dupResponses uint64
	gaveUp       uint64
	badPackets   uint64

	// sendAt[idx] is the send instant of the outstanding probe using
	// subdomain idx of the active cluster, or -1 when idx is not in flight.
	// A probe's qname is derivable from (cluster, idx), and every in-flight
	// probe belongs to the active cluster — the pool only rotates once the
	// wheel has drained — so this slice replaces the old qname-keyed
	// sendTimes map. Entries are reset on response or expiry.
	sendAt    []time.Duration
	latencies []time.Duration
	// Retransmission-engine state, parallel to sendAt (see retrans.go):
	// per-subdomain transmission attempts beyond the first, the probe's
	// target and query ID (for re-sends), the retry queue, and the RTT
	// estimator. All idle when Retries == 0 and AdaptiveTimeout == false.
	attempts []uint8
	target   []ipv4.Addr
	qid      []uint16
	retryq   []retryEntry
	rtt      rttEstimator
	// latSorted caches the sorted view of latencies for LatencyPercentiles;
	// it is valid while its length matches latencies.
	latSorted []time.Duration

	// Steady-state scratch: inbound decode message and the tick closure
	// (pre-bound so re-arming the tick timer does not allocate).
	rmsg   dnswire.Message
	tickFn func()

	// Wire template for the active cluster (ZDNS-style encoder reuse): a
	// cluster's probe names differ only in their 7-digit index label, so
	// tmpl is the query for index 0 with the ID zeroed, and tmplDigits the
	// offset of the index digits. appendProbe patches the ID and digits
	// into a copy. An empty tmpl means the names do not encode (an
	// unencodable SLD). Rebuilt on every rotation (buildTemplate).
	tmpl       []byte
	tmplDigits int
	// pendIdx and pendID are the subdomain and query ID of the probe in
	// transmit, which netsim builds through AppendPayload.
	pendIdx int
	pendID  uint16
}

// tickInterval is the batch cadence of the send loop. Ticks fire on this
// grid from the prober's start, and the timeout wheel has one slot per tick.
const tickInterval = 10 * time.Millisecond

// Start registers the prober and begins the campaign immediately.
func Start(sim *netsim.Sim, cfg Config) (*Prober, error) {
	if cfg.Universe == nil {
		return nil, fmt.Errorf("prober: universe required")
	}
	if cfg.ClusterSize <= 0 {
		return nil, fmt.Errorf("prober: cluster size must be positive")
	}
	if cfg.ClusterSize > maxClusterSize {
		// A larger index needs an 8-digit label, which ParseProbeName
		// rejects: the prober could never match those probes' answers.
		return nil, fmt.Errorf("prober: cluster size %d over the %d names a 7-digit index label holds", cfg.ClusterSize, maxClusterSize)
	}
	if cfg.PacketsPerSec == 0 {
		return nil, fmt.Errorf("prober: packet rate must be positive")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Retries < 0 || cfg.Retries > 255 {
		return nil, fmt.Errorf("prober: retry budget %d outside [0, 255]", cfg.Retries)
	}
	if cfg.FirstCluster < 0 {
		return nil, fmt.Errorf("prober: first cluster %d negative", cfg.FirstCluster)
	}
	if cfg.MinRTO <= 0 {
		cfg.MinRTO = 100 * time.Millisecond
	}
	if cfg.MaxRTO <= 0 {
		cfg.MaxRTO = 4 * cfg.Timeout
	}
	if cfg.Log == nil {
		cfg.Log = capture.NewProbeLog()
	}
	it := cfg.Universe.Iterate()
	if cfg.RangeEnd > 0 {
		it = cfg.Universe.Range(cfg.RangeStart, cfg.RangeEnd)
	}
	p := &Prober{
		cfg:     cfg,
		it:      it,
		srcPort: 40000,
		nextID:  1,
	}
	p.wheel.init(p.horizon())
	p.tickFn = p.tick
	p.node = sim.Register(cfg.Addr, p)
	p.start = p.node.Now()
	p.refillCluster(cfg.FirstCluster)
	p.node.After(0, p.tickFn)
	return p, nil
}

// refillCluster switches the subdomain pool (and the authoritative zone) to
// cluster c.
func (p *Prober) refillCluster(c int) {
	p.cluster = c
	if cap(p.avail) < p.cfg.ClusterSize {
		p.avail = make([]int, 0, p.cfg.ClusterSize) // sized once: the pool never holds more
	}
	p.avail = p.avail[:0]
	for i := p.cfg.ClusterSize - 1; i >= 0; i-- {
		p.avail = append(p.avail, i)
	}
	words := (p.cfg.ClusterSize + 63) / 64
	if cap(p.burnedBits) < words {
		p.burnedBits = make([]uint64, words)
	} else {
		p.burnedBits = p.burnedBits[:words]
		clear(p.burnedBits)
	}
	p.burnedCount = 0
	if cap(p.sendAt) < p.cfg.ClusterSize {
		p.sendAt = make([]time.Duration, p.cfg.ClusterSize)
	} else {
		p.sendAt = p.sendAt[:p.cfg.ClusterSize]
	}
	for i := range p.sendAt {
		p.sendAt[i] = -1
	}
	if p.retransmitting() {
		if cap(p.attempts) < p.cfg.ClusterSize {
			p.attempts = make([]uint8, p.cfg.ClusterSize)
			p.target = make([]ipv4.Addr, p.cfg.ClusterSize)
			p.qid = make([]uint16, p.cfg.ClusterSize)
		} else {
			p.attempts = p.attempts[:p.cfg.ClusterSize]
			clear(p.attempts)
			p.target = p.target[:p.cfg.ClusterSize]
			p.qid = p.qid[:p.cfg.ClusterSize]
		}
		p.retryq = p.retryq[:0]
	}
	p.buildTemplate(c)
	if p.cfg.Auth != nil && c > p.cfg.FirstCluster {
		p.cfg.Auth.SetCluster(c)
		// §III-B: loading 5M subdomains takes about a minute; the prober
		// waits out the zone load before resuming.
		p.pauseUntil = p.node.Now() + paperReloadPause
	}
}

// paperReloadPause mirrors dnssrv's reload window; kept as a constant here
// so the prober does not reach into the server's internals.
const paperReloadPause = time.Minute

// maxClusterSize is the most subdomains a cluster can hold: indexes run
// to ClusterSize-1, and the index label is exactly 7 digits.
const maxClusterSize = 10_000_000

// buildTemplate encodes cluster c's query (ID zero, index 0000000) at
// rotation time. The index digits follow the 12 header octets, the cluster
// label with its length octet, and the index label's length octet. A
// name's length does not depend on its index, so if one name fails to
// encode they all do; AppendQuery then returns nil, leaving tmpl empty.
func (p *Prober) buildTemplate(c int) {
	name := dnssrv.AppendProbeName(nil, c, 0, p.cfg.SLD)
	p.tmpl, _ = dnswire.AppendQuery(p.tmpl[:0], 0, name, dnswire.TypeA)
	p.tmplDigits = 12 + 1 + bytes.IndexByte(name, '.') + 1
}

// appendProbe appends the query for subdomain idx of the active cluster,
// under transaction ID id, to dst: the template with the ID and the 7
// index digits patched in. The template must be non-empty.
func (p *Prober) appendProbe(dst []byte, idx int, id uint16) []byte {
	start := len(dst)
	dst = append(dst, p.tmpl...)
	dst[start], dst[start+1] = byte(id>>8), byte(id)
	dnssrv.PutProbeIndex(dst[start+p.tmplDigits:], idx)
	return dst
}

// ClustersUsed returns how many clusters the campaign has consumed so far
// (the §III-B "800 theoretical → 4 actual" metric). The count is relative
// to FirstCluster, so shard counts sum to the campaign total.
func (p *Prober) ClustersUsed() int { return p.cluster - p.cfg.FirstCluster + 1 }

// burn marks subdomain idx of the active cluster as answered (never reused).
func (p *Prober) burn(idx int) {
	w, bit := idx>>6, uint64(1)<<(idx&63)
	if p.burnedBits[w]&bit == 0 {
		p.burnedBits[w] |= bit
		p.burnedCount++
	}
}

func (p *Prober) isBurned(idx int) bool {
	return p.burnedBits[idx>>6]&(uint64(1)<<(idx&63)) != 0
}

// Sent returns the number of probes transmitted (Q1).
func (p *Prober) Sent() uint64 { return p.sent }

// Skipped returns probes suppressed by the SendSkip model.
func (p *Prober) Skipped() uint64 { return p.skipped }

// Received returns the number of R2 packets collected.
func (p *Prober) Received() uint64 { return p.received }

// Reused returns how many subdomains were returned to the pool after
// drawing no response.
func (p *Prober) Reused() uint64 { return p.reused }

// Done reports campaign completion.
func (p *Prober) Done() bool { return p.done }

// Duration returns the campaign's virtual duration (valid once done).
func (p *Prober) Duration() time.Duration { return p.finishedAt - p.start }

// tick runs one batch of the send loop.
func (p *Prober) tick() {
	if p.done {
		return
	}
	now := p.node.Now()
	p.sweep(now)

	// Proactive cluster rotation: when the in-flight set has drained and
	// most of the pool is burned, loading a fresh cluster beats crawling on
	// the remnant — the discipline that puts the paper's campaign at 4
	// clusters rather than waiting out every last name.
	if !p.exhausted && p.wheel.n == 0 && len(p.retryq) == 0 && p.burnedCount > p.cfg.ClusterSize*3/4 {
		p.refillCluster(p.cluster + 1)
	}

	if now >= p.pauseUntil {
		p.tokens += float64(p.cfg.PacketsPerSec) * tickInterval.Seconds()
		if max := float64(p.cfg.PacketsPerSec); p.tokens > max+1 {
			p.tokens = max + 1 // cap the burst to one second of budget
		}
		// Retries may spend at most half the batch up front; fresh probes
		// then take what they need, and leftovers flow back to the retry
		// queue. Under a loss spike the queue sheds itself (serveRetries)
		// rather than squeezing fresh coverage below half rate.
		if len(p.retryq) > 0 {
			p.tokens -= p.serveRetries(now, p.tokens/2)
		}
		for p.tokens >= 1 {
			if !p.sendOne(now) {
				break
			}
			p.tokens--
		}
		if len(p.retryq) > 0 && p.tokens >= 1 {
			p.tokens -= p.serveRetries(now, p.tokens)
		}
	}

	if p.exhausted && p.wheel.n == 0 && len(p.retryq) == 0 {
		p.done = true
		p.finishedAt = p.node.Now()
		if p.cfg.OnDone != nil {
			p.cfg.OnDone(p)
		}
		return
	}
	p.node.After(tickInterval, p.tickFn)
}

// sweep expires every probe whose deadline the tick at now has reached:
// it drains the wheel's slots up to now and hands each entry, in arm
// order, to expire.
func (p *Prober) sweep(now time.Duration) {
	last := int64((now - p.start) / tickInterval)
	for es := p.wheel.take(last); es != nil; es = p.wheel.take(last) {
		for _, e := range es {
			p.expire(int(e.idx), int(e.cluster), now)
		}
	}
}

// expire handles one timed-out entry. Entries of a rotated-away cluster
// and answered probes just leave. An unanswered probe with retry budget
// left moves to the retry queue, keeping its subdomain reserved; any other
// is given up, and its subdomain returns to the pool (subdomain reuse,
// §III-B). With Retries == 0 this is the paper's single-shot sweep.
func (p *Prober) expire(idx, cluster int, now time.Duration) {
	if cluster != p.cluster || p.sendAt[idx] < 0 {
		return
	}
	if p.cfg.Retries > 0 && int(p.attempts[idx]) < p.cfg.Retries {
		p.retryq = append(p.retryq, retryEntry{idx: int32(idx), at: now})
		return
	}
	p.giveUp(idx)
}

// arm schedules the timeout of the in-flight probe for subdomain idx of
// the active cluster.
func (p *Prober) arm(idx int, deadline time.Duration) {
	p.wheel.arm(slotOf(deadline-p.start), idx, p.cluster)
}

// sendOne transmits the next probe; it returns false when the batch should
// stop (universe exhausted or no subdomains available).
func (p *Prober) sendOne(now time.Duration) bool {
	if len(p.avail) == 0 {
		if p.wheel.n > 0 || len(p.retryq) > 0 {
			// Pool exhausted but names may return after timeouts: stall.
			return false
		}
		p.refillCluster(p.cluster + 1)
		return false // resume next tick (possibly after the reload pause)
	}
	var target ipv4.Addr
	for {
		a, ok := p.it.Next()
		if !ok {
			p.exhausted = true
			return false
		}
		if p.cfg.Skip != nil && p.cfg.Skip(a) {
			continue
		}
		target = a
		break
	}
	if p.cfg.SendSkip > 0 && p.node.Rand().Float64() < p.cfg.SendSkip {
		p.skipped++
		return true
	}

	idx := p.avail[len(p.avail)-1]
	p.avail = p.avail[:len(p.avail)-1]
	id := p.nextID
	p.nextID++
	if p.nextID == 0 {
		p.nextID = 1
	}
	if len(p.tmpl) == 0 {
		// The name never encoded (buildTemplate recorded the failure), so
		// it never hits the wire: return idx to the pool instead of leaking
		// it (an unencodable SLD used to silently shrink every cluster by
		// one subdomain per attempt). The transaction ID is still consumed,
		// matching the historical per-probe encode path.
		p.avail = append(p.avail, idx)
		return true
	}
	p.transmit(target, idx, id)
	p.sent++
	p.cfg.Obs.Inc(obs.CProbeSent)
	p.cfg.Log.CountQ1(1)
	p.sendAt[idx] = now
	if p.retransmitting() {
		p.attempts[idx] = 0
		p.target[idx] = target
		p.qid[idx] = id
	}
	p.arm(idx, now+p.rto())
	return true
}

// transmit sends the probe for subdomain idx under transaction ID id to
// target. netsim decides the datagram's fate first and asks the prober for
// the bytes (AppendPayload) only when a copy will be delivered, so a probe
// to an address with no host, or one the fault pipeline drops, is never
// built.
func (p *Prober) transmit(target ipv4.Addr, idx int, id uint16) {
	p.pendIdx, p.pendID = idx, id
	p.node.SendDeferred(target, p.srcPort, dnssrv.DNSPort, len(p.tmpl), p)
}

// AppendPayload implements netsim.PayloadBuilder: it appends the probe
// transmit is sending.
func (p *Prober) AppendPayload(dst []byte) []byte {
	return p.appendProbe(dst, p.pendIdx, p.pendID)
}

// Latencies returns the response latencies observed so far (probe send to
// R2 arrival), in arrival order.
func (p *Prober) Latencies() []time.Duration {
	return append([]time.Duration(nil), p.latencies...)
}

// LatencyPercentiles returns the given percentiles (0-100) of the observed
// response latencies by the nearest-rank method (rank = ceil(pct/100 × n),
// clamped to [1, n]), or nil when nothing was measured. The sorted view is
// cached across calls and refreshed only when new latencies have arrived.
func (p *Prober) LatencyPercentiles(pcts ...float64) []time.Duration {
	n := len(p.latencies)
	if n == 0 {
		return nil
	}
	if len(p.latSorted) != n {
		p.latSorted = append(p.latSorted[:0], p.latencies...)
		sort.Slice(p.latSorted, func(i, j int) bool { return p.latSorted[i] < p.latSorted[j] })
	}
	out := make([]time.Duration, len(pcts))
	for i, pct := range pcts {
		rank := int(math.Ceil(pct / 100 * float64(n)))
		if rank < 1 {
			rank = 1
		}
		if rank > n {
			rank = n
		}
		out[i] = p.latSorted[rank-1]
	}
	return out
}

// HandleDatagram implements netsim.Host: every inbound packet on the probe
// port is a candidate R2.
func (p *Prober) HandleDatagram(n *netsim.Node, dg netsim.Datagram) {
	p.received++
	p.cfg.Obs.Inc(obs.CProbeRecv)
	p.cfg.Log.AddR2(n.Now(), dg)
	// Burn the subdomain so it is never reused (it may now be cached at
	// the responding resolver) and record the response latency. Decoding
	// reuses the scratch message; nothing downstream retains it.
	if dnswire.UnpackInto(&p.rmsg, dg.Payload) != nil {
		p.badPackets++ // e.g. corrupted in flight
		p.cfg.Obs.Inc(obs.CProbeBad)
		return
	}
	q, ok := p.rmsg.Question1()
	if !ok {
		p.badPackets++
		p.cfg.Obs.Inc(obs.CProbeBad)
		return
	}
	pn, err := dnssrv.ParseProbeName(q.Name, p.cfg.SLD)
	if err != nil {
		return
	}
	if pn.Cluster != p.cluster {
		// A response for a rotated-away cluster: the answer came back after
		// its subdomain's whole cluster was retired.
		p.late++
		p.cfg.Obs.Inc(obs.CProbeLate)
		return
	}
	if pn.Index < 0 || pn.Index >= len(p.sendAt) {
		return
	}
	if sent := p.sendAt[pn.Index]; sent >= 0 {
		// Karn's rule: only time a probe answered on its first transmission;
		// a retransmitted probe's response is ambiguous.
		if !p.retransmitting() || p.attempts[pn.Index] == 0 {
			lat := n.Now() - sent
			p.latencies = append(p.latencies, lat)
			p.rtt.observe(lat)
			p.cfg.Obs.Observe(obs.HRTT, int64(lat))
		}
		p.sendAt[pn.Index] = -1
		p.answered++
		p.cfg.Obs.Inc(obs.CProbeAnswered)
	} else if p.isBurned(pn.Index) {
		p.dupResponses++ // second answer for an already-burned subdomain
		p.cfg.Obs.Inc(obs.CProbeDup)
	} else {
		p.late++ // answer arrived after the sweep returned the name
		p.cfg.Obs.Inc(obs.CProbeLate)
	}
	p.burn(pn.Index)
}
