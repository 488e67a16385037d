package dnssrv

import (
	"strings"
	"time"

	"openresolver/internal/dnswire"
	"openresolver/internal/ipv4"
	"openresolver/internal/netsim"
)

// Result is the outcome of a recursive resolution.
type Result struct {
	Addr  ipv4.Addr
	Rcode dnswire.Rcode
	// OK is true when an address was obtained (Rcode NoError with answer).
	OK bool
}

// Recursive is an iterative-resolution engine: given a query name it walks
// root → TLD → authoritative exactly as Fig. 1 describes (steps 2-7),
// caching zone referrals and final answers, retrying on timeout. Honest
// open resolvers embed one of these; the measurement's Q2/R1 flows are the
// engine's authoritative-server legs. DESIGN.md §8 lists where the walk
// deliberately departs from RFC 1034 §5.3.3.
//
// The engine itself is a few words: its caches and in-flight legs live in
// the Tables it is attached to, under a slot of its own.
type Recursive struct {
	node *netsim.Node
	t    *Tables

	// Timeout and Retries govern each upstream leg.
	Timeout time.Duration
	Retries int
	// DupQueries duplicates the authoritative leg (retransmission
	// behaviour observed in the wild; the Q2 ≈ 2×R2 ratio of Table II is
	// calibrated with it). 1 means a single query.
	DupQueries int
	// Validate, when non-nil, vets every answered response (a DNSSEC
	// validator hook); returning false makes the engine report ServFail,
	// as validating resolvers do on bogus signatures (RFC 4035 §5.5).
	Validate func(qname string, msg *dnswire.Message) bool

	// Stats.
	Resolutions     uint64 // Resolve calls
	UpstreamQueries uint64 // upstream query packets (all legs, incl. retries)
	CacheHits       uint64 // Resolve calls served from the answer cache
	Failures        uint64
	TCPFallbacks    uint64 // truncated UDP responses retried over TCP
	Retransmits     uint64 // UDP legs re-sent after a timeout
	TCPTruncated    uint64 // TCP answers still carrying TC=1

	// The narrow fields come last, where they pack into two words.
	slot     uint32
	rootAddr ipv4.Addr
	nextID   uint16

	// Backoff doubles the retry timeout on every attempt (capped at
	// maxBackoff×Timeout) instead of retrying on a fixed interval — the
	// adverse-network discipline: a loss burst is outwaited, not hammered.
	Backoff bool
	// Jitter adds a ±12.5% deterministic perturbation (drawn from the
	// node's rng) to each retry timeout, decorrelating retry storms across
	// a population of resolvers hit by the same outage.
	Jitter bool
	// DNSSEC sets the DO bit on upstream queries, requesting signatures.
	DNSSEC bool
}

// Tables holds the recursion state of every engine attached to it: the
// referral, answer and negative caches, the in-flight legs and the
// upstream-query scratch. Each engine gets a slot when it attaches and
// every entry is keyed by that slot, so engines never see each other's
// entries. All engines of one netsim.Sim may share one Tables, because the
// simulator runs one handler at a time; engines of different Sims must not
// (Sims may run concurrently). The zero value is ready to use.
type Tables struct {
	slots uint32
	// zones interns every referral zone name once; referral keys carry
	// the zone's index instead of the name.
	zones map[string]uint32
	// referrals: slot<<32 | zone index -> server glue address.
	referrals map[uint64]cacheEntry
	// answers: (slot, qname) -> address.
	answers map[nameKey]cacheEntry
	// negative (RFC 2308): (slot, qname) -> cached error rcode.
	negative map[nameKey]cacheEntry
	// pending: slot<<16 | transaction ID -> in-flight leg.
	pending map[uint64]*inflight
	// free holds finished legs for reuse.
	free []*inflight

	// qmsg is the upstream-query scratch; both transports encode it
	// before returning.
	qmsg dnswire.Message
}

// nameKey keys the answer and negative caches.
type nameKey struct {
	slot uint32
	name string
}

const (
	// maxBackoff caps the backed-off retry timeout at maxBackoff×Timeout.
	maxBackoff = 8
	// maxTCPRetries bounds how often a leg truncated *over TCP* is
	// re-dialed before the engine gives up with ServFail. A server that
	// sets TC=1 on every TCP answer must not loop fallbacks forever.
	maxTCPRetries = 2
	// negativeTTL is the negative-cache lifetime (RFC 2308 §5 caps it at
	// 3 hours; BIND defaults lower).
	negativeTTL = 15 * time.Minute
	// referralTTL is the lifetime of a cached referral, whatever the NS
	// records' own TTL (the root and TLD delegation TTL).
	referralTTL = 172800 * time.Second
	// maxDepth bounds the referrals one resolution follows.
	maxDepth = 8
)

// cacheEntry is one cached referral (addr), answer (addr) or negative
// answer (rcode).
type cacheEntry struct {
	addr    ipv4.Addr
	rcode   dnswire.Rcode
	expires time.Duration
}

// inflight is one resolution's current upstream leg. Legs are pooled in
// the Tables; expire, the leg's timeout callback, is made once per pooled
// leg. A leg handed to a TCP fallback is never pooled again: the
// connection's callbacks keep referring to it.
type inflight struct {
	rec         *Recursive
	qname       string
	done        func(Result)
	expire      func()
	timer       netsim.Timer
	attempts    int
	tcpAttempts int
	depth       int
	server      ipv4.Addr
	id          uint16
	finished    bool
	tcp         bool
}

// Attach makes r a fresh engine bound to node, priming the hierarchy at
// rootAddr, whose state lives in t under a new slot.
func (t *Tables) Attach(r *Recursive, node *netsim.Node, rootAddr ipv4.Addr) {
	if t.pending == nil {
		t.zones = make(map[string]uint32)
		t.referrals = make(map[uint64]cacheEntry)
		t.answers = make(map[nameKey]cacheEntry)
		t.negative = make(map[nameKey]cacheEntry)
		t.pending = make(map[uint64]*inflight)
	}
	*r = Recursive{
		node:       node,
		t:          t,
		slot:       t.slots,
		rootAddr:   rootAddr,
		Timeout:    2 * time.Second,
		Retries:    2,
		DupQueries: 1,
		nextID:     1,
	}
	t.slots++
}

// leg returns a cleared leg for r, from the free list when it has one.
func (t *Tables) leg(r *Recursive, qname string, done func(Result)) *inflight {
	var fl *inflight
	if n := len(t.free); n > 0 {
		fl = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		fl = new(inflight)
		fl.expire = func() { fl.rec.onTimeout(fl.id) }
	}
	fl.rec, fl.qname, fl.done = r, qname, done
	return fl
}

// intern returns zone's index, storing an owned copy of zone (it may
// alias a decode arena) on first sight.
func (t *Tables) intern(zone string) uint32 {
	z, ok := t.zones[zone]
	if !ok {
		z = uint32(len(t.zones))
		t.zones[strings.Clone(zone)] = z
	}
	return z
}

// referralKey is the referral-table key of r's zone with index z.
func (r *Recursive) referralKey(z uint32) uint64 { return uint64(r.slot)<<32 | uint64(z) }

// pendingKey is the pending-table key of r's transaction id.
func (r *Recursive) pendingKey(id uint16) uint64 { return uint64(r.slot)<<16 | uint64(id) }

// finish delivers the result exactly once, then returns a UDP leg — one
// no packet, timer or connection refers to any more — to the free list.
func (r *Recursive) finish(fl *inflight, res Result) {
	if fl.finished {
		return
	}
	fl.finished = true
	fl.done(res)
	if !fl.tcp {
		*fl = inflight{expire: fl.expire}
		r.t.free = append(r.t.free, fl)
	}
}

// fail ends the resolution with ServFail, the engine's one failure exit.
func (r *Recursive) fail(fl *inflight) {
	if fl.finished {
		return
	}
	r.Failures++
	r.finish(fl, Result{Rcode: dnswire.RcodeServFail})
}

// NewRecursive creates an engine bound to node, priming the hierarchy at
// rootAddr, with Tables of its own.
func NewRecursive(node *netsim.Node, rootAddr ipv4.Addr) *Recursive {
	r := new(Recursive)
	new(Tables).Attach(r, node, rootAddr)
	return r
}

// Resolve starts a recursive resolution of qname (type A) and calls done
// exactly once with the outcome. The engine keeps qname as a cache key,
// so it must not alias a decode arena that is reused.
func (r *Recursive) Resolve(qname string, done func(Result)) {
	r.Resolutions++
	qname = dnswire.CanonicalName(qname)
	now := r.node.Now()
	if ans, ok := r.t.answers[nameKey{r.slot, qname}]; ok && now < ans.expires {
		r.CacheHits++
		done(Result{Addr: ans.addr, Rcode: dnswire.RcodeNoError, OK: true})
		return
	}
	if neg, ok := r.t.negative[nameKey{r.slot, qname}]; ok && now < neg.expires {
		r.CacheHits++
		done(Result{Rcode: neg.rcode})
		return
	}
	r.query(r.t.leg(r, qname, done), r.bestServer(qname), 0)
}

// bestServer returns the deepest unexpired cached referral covering qname,
// falling back to the root. The zones covering qname (inZone) are qname
// itself and every suffix after one of its dots but the first character,
// so it looks those up deepest first.
func (r *Recursive) bestServer(qname string) ipv4.Addr {
	if addr, ok := r.referral(qname); ok {
		return addr
	}
	for i := 1; i < len(qname); i++ {
		if qname[i] != '.' {
			continue
		}
		if addr, ok := r.referral(qname[i+1:]); ok {
			return addr
		}
	}
	return r.rootAddr
}

// referral returns r's unexpired cached server for zone.
func (r *Recursive) referral(zone string) (ipv4.Addr, bool) {
	z, ok := r.t.zones[zone]
	if !ok {
		return 0, false
	}
	e, ok := r.t.referrals[r.referralKey(z)]
	if !ok || r.node.Now() >= e.expires {
		return 0, false
	}
	return e.addr, true
}

// inZone reports whether name is zone or lies under it.
func inZone(name, zone string) bool {
	return name == zone || hasSuffixLabel(name, zone)
}

func hasSuffixLabel(name, zone string) bool {
	return len(name) > len(zone)+1 &&
		name[len(name)-len(zone):] == zone &&
		name[len(name)-len(zone)-1] == '.'
}

// query sends fl's leg at depth to server under a fresh transaction ID.
func (r *Recursive) query(fl *inflight, server ipv4.Addr, depth int) {
	fl.server, fl.depth, fl.attempts, fl.tcpAttempts = server, depth, 0, 0
	if depth > maxDepth {
		r.fail(fl)
		return
	}
	id := r.nextID
	r.nextID++
	if r.nextID == 0 {
		r.nextID = 1
	}
	fl.id = id
	r.t.pending[r.pendingKey(id)] = fl

	r.sendQuery(id, fl.qname, server)
	// Upstream duplicates count against the authoritative leg only (depth
	// 2 of the cold root→TLD→auth walk; every probe name is unique, so the
	// walk is always cold in a campaign).
	if r.DupQueries > 1 && depth >= 2 {
		for i := 1; i < r.DupQueries; i++ {
			r.sendQuery(id, fl.qname, server)
		}
	}
	fl.timer = r.node.After(r.Timeout, fl.expire)
}

// upstreamQuery fills the query scratch for leg id: RD clear (iterative
// legs), the DO bit when DNSSEC is set. Both transports encode it. qname
// is canonical (Resolve made it so).
func (r *Recursive) upstreamQuery(id uint16, qname string) *dnswire.Message {
	q := &r.t.qmsg
	q.Header = dnswire.Header{ID: id}
	q.Questions = append(q.Questions[:0], dnswire.Question{
		Name: qname, Type: dnswire.TypeA, Class: dnswire.ClassIN,
	})
	q.Answers = q.Answers[:0]
	q.Authority = q.Authority[:0]
	q.Additional = q.Additional[:0]
	if r.DNSSEC {
		q.SetEDNS(dnswire.EDNS{UDPSize: dnswire.DefaultEDNSSize, DO: true})
	}
	return q
}

func (r *Recursive) sendQuery(id uint16, qname string, server ipv4.Addr) {
	wire, err := r.upstreamQuery(id, qname).Append(r.node.PayloadBuf())
	if err != nil {
		return
	}
	r.UpstreamQueries++
	r.node.SendPooled(server, DNSPort, DNSPort, wire)
}

func (r *Recursive) onTimeout(id uint16) {
	k := r.pendingKey(id)
	fl, ok := r.t.pending[k]
	if !ok {
		return
	}
	fl.attempts++
	if fl.attempts > r.Retries {
		delete(r.t.pending, k)
		r.fail(fl)
		return
	}
	r.Retransmits++
	r.sendQuery(id, fl.qname, fl.server)
	fl.timer = r.node.After(r.retryTimeout(fl.attempts), fl.expire)
}

// retryTimeout is the wait before declaring the attempts-th retry lost:
// the fixed Timeout, doubled per attempt under Backoff (capped), with
// optional jitter. With both flags clear it is exactly r.Timeout, keeping
// the default engine bit-identical to the pre-fault-model behaviour.
func (r *Recursive) retryTimeout(attempts int) time.Duration {
	d := r.Timeout
	if r.Backoff {
		ceiling := maxBackoff * r.Timeout
		for i := 0; i < attempts && d < ceiling; i++ {
			d *= 2
		}
		d = min(d, ceiling)
	}
	if r.Jitter {
		if j := d / 8; j > 0 {
			d += time.Duration(r.node.Rand().Int63n(int64(2*j+1))) - j
		}
	}
	return d
}

// HandleResponse feeds an upstream response into the engine. It returns
// true if the packet matched an in-flight query (callers route non-matching
// packets elsewhere).
func (r *Recursive) HandleResponse(msg *dnswire.Message) bool {
	k := r.pendingKey(msg.Header.ID)
	fl, ok := r.t.pending[k]
	if !ok {
		return false
	}
	// Match the question too (anti-spoofing hygiene; also rejects stale
	// duplicate answers racing a reused ID).
	if q, ok := msg.Question1(); !ok || q.Name != fl.qname {
		return false
	}
	delete(r.t.pending, k)
	fl.timer.Stop()
	r.answer(fl, msg, false)
	return true
}

// answer completes leg fl with msg, a response to its question that
// arrived over UDP or, when overTCP, over the leg's TCP fallback. A
// truncated UDP answer retries the leg over TCP (RFC 7766); one truncated
// even over TCP — a protocol violation some broken servers commit on every
// answer — re-dials at most maxTCPRetries times, then fails instead of
// looping forever.
func (r *Recursive) answer(fl *inflight, msg *dnswire.Message, overTCP bool) {
	if fl.finished {
		// The leg's TCP deadline already failed it; the answer is late.
		return
	}
	if msg.Header.TC {
		if overTCP {
			r.TCPTruncated++
			if fl.tcpAttempts >= maxTCPRetries {
				r.fail(fl)
				return
			}
			fl.tcpAttempts++
		}
		r.retryTCP(fl)
		return
	}
	r.process(fl, msg)
}

// process consumes a complete (non-truncated) upstream response.
func (r *Recursive) process(fl *inflight, msg *dnswire.Message) {
	if msg.Header.Rcode != dnswire.RcodeNoError {
		// RFC 2308: authoritative NXDomain is cacheable; other errors are
		// transient and are not cached.
		if msg.Header.Rcode == dnswire.RcodeNXDomain && msg.Header.AA {
			r.t.negative[nameKey{r.slot, fl.qname}] = cacheEntry{
				rcode:   msg.Header.Rcode,
				expires: r.node.Now() + negativeTTL,
			}
		}
		r.finish(fl, Result{Rcode: msg.Header.Rcode})
		return
	}
	// An answer: the first well-formed A record.
	for _, rr := range msg.Answers {
		if rr.Type != dnswire.TypeA || rr.Malformed {
			continue
		}
		if r.Validate != nil && !r.Validate(fl.qname, msg) {
			// Bogus data: a validating resolver answers ServFail and must
			// not cache the rejected records (RFC 4035 §5.5).
			r.fail(fl)
			return
		}
		addr := ipv4.Addr(rr.A)
		r.t.answers[nameKey{r.slot, fl.qname}] = cacheEntry{addr: addr, expires: r.node.Now() + time.Duration(rr.TTL)*time.Second}
		r.finish(fl, Result{Addr: addr, Rcode: dnswire.RcodeNoError, OK: true})
		return
	}
	// A referral: descend to the first NS with glue.
	var zone string
	var next ipv4.Addr
	for _, ns := range msg.Authority {
		if ns.Type != dnswire.TypeNS {
			continue
		}
		for _, glue := range msg.Additional {
			if glue.Type == dnswire.TypeA && glue.Name == ns.Target && !glue.Malformed {
				zone, next = ns.Name, ipv4.Addr(glue.A)
				break
			}
		}
		if next != 0 {
			break
		}
	}
	if next == 0 {
		// NoError, no answer, no usable referral: dead end.
		r.fail(fl)
		return
	}
	// Cache the referral only when its zone covers the qname: an
	// out-of-bailiwick NS set would otherwise become the server for a zone
	// it was never delegated, for every later lookup under it.
	if inZone(fl.qname, zone) {
		r.t.referrals[r.referralKey(r.t.intern(zone))] = cacheEntry{addr: next, expires: r.node.Now() + referralTTL}
	}
	depth := fl.depth + 1
	if fl.tcp {
		// The TCP fallback's callbacks still hold fl; descend on a new leg.
		fl = r.t.leg(r, fl.qname, fl.done)
	}
	r.query(fl, next, depth)
}

// retryTCP re-issues the truncated leg over a stream connection. The
// connection only deframes and matches the answer; answer decides.
func (r *Recursive) retryTCP(fl *inflight) {
	fl.tcp = true
	r.TCPFallbacks++
	deadline := r.node.After(r.Timeout, func() { r.fail(fl) })
	abort := func(c *netsim.Conn) {
		deadline.Stop()
		if c != nil {
			c.Close()
		}
		r.fail(fl)
	}
	r.node.Dial(fl.server, DNSPort, func(c *netsim.Conn) {
		if c == nil || fl.finished {
			abort(c)
			return
		}
		parser := &dnswire.StreamParser{}
		c.OnData(func(b []byte) {
			msgs, err := parser.Feed(b)
			if err != nil {
				abort(c)
				return
			}
			for _, m := range msgs {
				if q, ok := m.Question1(); ok && q.Name == fl.qname && m.Header.QR {
					deadline.Stop()
					c.Close()
					r.answer(fl, m, true)
					return
				}
			}
		})
		wire, err := r.upstreamQuery(fl.id, fl.qname).AppendTCP(nil)
		if err != nil {
			abort(c)
			return
		}
		r.UpstreamQueries++
		c.Send(wire)
	})
}
