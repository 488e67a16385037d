package fabric

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"openresolver/internal/core"
	"openresolver/internal/obs"
)

// Default pacing. Heartbeat is what WELCOME tells workers; LeaseTimeout
// is how long a lease may go without a PROGRESS before the coordinator
// assumes the worker hung and requeues the shard. Outright worker death
// is detected much sooner — the closed connection errors the next read.
const (
	defaultHeartbeat    = 500 * time.Millisecond
	defaultLeaseTimeout = 15 * time.Second
)

// maxShardNacks fails the campaign when one shard NACKs this many times:
// a shard that cannot run anywhere (version-skewed workers, a spec the
// fleet cannot compile) must not requeue forever.
const maxShardNacks = 3

// CoordinatorConfig tunes a Coordinator. The zero value works: default
// pacing, no metrics, no log.
type CoordinatorConfig struct {
	// Heartbeat is the PROGRESS interval announced to workers in WELCOME.
	Heartbeat time.Duration
	// LeaseTimeout reaps a lease that has gone silent — no PROGRESS,
	// RESULT or NACK — and requeues its shard. Must comfortably exceed
	// Heartbeat.
	LeaseTimeout time.Duration
	// Obs receives fabric.* counters (nil = no metrics).
	Obs *obs.Shard
	// Log receives coordinator events (nil = silent).
	Log io.Writer
}

// Coordinator owns the distribution side of the fabric: it listens for
// workers, leases pending shards to them, validates and records returned
// envelopes, and merges each campaign when its last shard lands. One
// coordinator multiplexes any number of concurrent campaigns over one
// worker fleet — each RunCampaign call adds a campaign to the lease pool
// and returns when its merge completes.
type Coordinator struct {
	cfg CoordinatorConfig
	ln  net.Listener

	mu        sync.Mutex
	cond      *sync.Cond // signals: campaign added, shard requeued, closing
	campaigns []*campaignState
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// campaignState is one campaign in flight: its compiled ShardCampaign
// (which alone knows which shards are recorded), the wire spec workers
// receive, and the lease-pool bookkeeping. pending, leased and nacks are
// guarded by the Coordinator's mu.
type campaignState struct {
	key  string
	spec core.Spec
	sc   *core.ShardCampaign

	pending []int // shards awaiting a lease, ascending on entry
	leased  map[int]bool
	nacks   map[int]int // per-shard failure count
	err     error       // sticky failure; set before done closes
	done    chan struct{}
	finish  sync.Once
}

// lease is one outstanding grant, tracked by the connection that holds it.
type grant struct {
	cam   *campaignState
	shard int
}

// NewCoordinator returns a Coordinator that is not yet listening; call
// Listen to bind it.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = defaultHeartbeat
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = defaultLeaseTimeout
	}
	c := &Coordinator{cfg: cfg, conns: make(map[net.Conn]struct{})}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting workers.
func (c *Coordinator) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	c.ln = ln
	c.wg.Add(1)
	go c.acceptLoop()
	return nil
}

// Addr returns the bound listen address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close stops accepting, disconnects every worker, and wakes every
// blocked lease wait. In-flight RunCampaign calls fail; call it only
// when the coordinator is done for good.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	for _, cam := range c.campaigns {
		cam.fail(errors.New("fabric: coordinator closed"))
	}
	c.campaigns = nil
	for conn := range c.conns {
		conn.Close()
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	var err error
	if c.ln != nil {
		err = c.ln.Close()
	}
	c.wg.Wait()
	return err
}

// RunCampaign runs cfg's campaign over the connected worker fleet and
// returns the merged dataset — byte-identical to core.RunSimulation(cfg)
// on one machine. lossSpec is the CLI impairment string cfg's fault plan
// was parsed from ("" or "none" when pristine); it rides inside each
// LEASE so workers compile the identical plan. cfg.Checkpoints works as
// locally: restored shards are never leased, and accepted envelopes are
// persisted, so a crashed coordinator resumes from disk. Cancelling
// cfg.Ctx abandons the campaign's unleased shards and returns
// core.ErrInterrupted.
func (c *Coordinator) RunCampaign(cfg core.Config, lossSpec string) (*core.Dataset, error) {
	sc, err := core.OpenShardCampaign(cfg)
	if err != nil {
		return nil, err
	}
	cam := &campaignState{
		key:    sc.CampaignKey(),
		spec:   core.SpecFor(cfg, lossSpec),
		sc:     sc,
		leased: make(map[int]bool),
		nacks:  make(map[int]int),
		done:   make(chan struct{}),
	}
	cam.pending = sc.Pending()
	c.logf("campaign %.12s: %d shards (%d restored from checkpoints)",
		cam.key, sc.NumShards(), sc.NumShards()-len(cam.pending))

	if len(cam.pending) > 0 {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, errors.New("fabric: coordinator closed")
		}
		for _, other := range c.campaigns {
			if other.key == cam.key {
				c.mu.Unlock()
				return nil, fmt.Errorf("fabric: campaign %.12s is already running", cam.key)
			}
		}
		c.campaigns = append(c.campaigns, cam)
		c.cond.Broadcast()
		c.mu.Unlock()

		ctx := cfg.Ctx
		var cancelled <-chan struct{}
		if ctx != nil {
			cancelled = ctx.Done()
		}
		select {
		case <-cam.done:
		case <-cancelled:
			c.removeCampaign(cam)
			cam.fail(fmt.Errorf("fabric: %w: campaign abandoned; completed shards are checkpointed", core.ErrInterrupted))
		}
		c.removeCampaign(cam)
		if cam.err != nil {
			return nil, cam.err
		}
	}
	return sc.Merge()
}

// fail records the campaign's sticky outcome (nil = completed) and
// releases its waiter. Callers hold no particular lock; the first
// outcome wins.
func (cam *campaignState) fail(err error) {
	cam.finish.Do(func() {
		cam.err = err
		close(cam.done)
	})
}

func (c *Coordinator) removeCampaign(cam *campaignState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, other := range c.campaigns {
		if other == cam {
			c.campaigns = append(c.campaigns[:i], c.campaigns[i+1:]...)
			return
		}
	}
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conns[conn] = struct{}{}
		c.wg.Add(1)
		c.mu.Unlock()
		go c.handle(conn)
	}
}

// handle speaks the worker protocol on one connection. The handler is the
// connection's only reader and writer, so no per-connection locking is
// needed; shared lease state goes through the coordinator's mu.
func (c *Coordinator) handle(conn net.Conn) {
	defer c.wg.Done()
	defer func() {
		conn.Close()
		c.mu.Lock()
		delete(c.conns, conn)
		c.mu.Unlock()
	}()

	hello, err := readFrame(conn)
	if err != nil || hello.Type != msgHello {
		c.logf("worker %s: bad handshake: %v", conn.RemoteAddr(), err)
		return
	}
	if hello.Proto != ProtoVersion {
		writeFrame(conn, &message{Type: msgError, Proto: ProtoVersion,
			Error: fmt.Sprintf("fabric: protocol version mismatch: coordinator speaks v%d, worker v%d", ProtoVersion, hello.Proto)})
		c.logf("worker %s: refused: protocol v%d (want v%d)", conn.RemoteAddr(), hello.Proto, ProtoVersion)
		return
	}
	name := hello.Name
	if name == "" {
		name = conn.RemoteAddr().String()
	}
	c.cfg.Obs.Inc(obs.CFabricWorkers)
	defer c.cfg.Obs.Inc(obs.CFabricWorkersGone)
	c.logf("worker %s: connected", name)
	if err := writeFrame(conn, &message{Type: msgWelcome, Proto: ProtoVersion,
		HeartbeatMillis: c.cfg.Heartbeat.Milliseconds()}); err != nil {
		return
	}

	// cur is this connection's outstanding lease. expired marks a lease
	// the coordinator already reaped: the shard is requeued, but the
	// connection stays open for one grace period so a slow worker's late
	// RESULT can still land (it wins if the requeued shard hasn't been
	// recorded yet, and dedups away if it has).
	var cur *grant
	expired := false
	for {
		msg, err := readFrame(conn)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				if cur != nil && !expired {
					// Lease went silent: requeue now, then give the worker
					// one more LeaseTimeout to deliver a late RESULT.
					c.logf("worker %s: lease for shard %d expired; requeued", name, cur.shard)
					c.cfg.Obs.Inc(obs.CFabricLeaseExpired)
					c.requeue(cur.cam, cur.shard)
					expired = true
					conn.SetReadDeadline(time.Now().Add(c.cfg.LeaseTimeout))
					continue
				}
				c.logf("worker %s: timed out; disconnecting", name)
				return
			}
			if cur != nil && !expired {
				c.logf("worker %s: connection lost mid-shard %d: %v; requeued", name, cur.shard, err)
				c.requeue(cur.cam, cur.shard)
			} else if err != io.EOF {
				c.logf("worker %s: disconnected: %v", name, err)
			}
			return
		}

		switch msg.Type {
		case msgReady:
			cur, expired = nil, false
			conn.SetReadDeadline(time.Time{})
			g, ok := c.nextLease()
			if !ok {
				writeFrame(conn, &message{Type: msgDone})
				continue // worker closes; next read returns EOF
			}
			cur = g
			spec := g.cam.spec
			if err := writeFrame(conn, &message{Type: msgLease, Key: g.cam.key, Spec: &spec, Shard: g.shard}); err != nil {
				c.logf("worker %s: lease write failed: %v; requeued shard %d", name, err, g.shard)
				c.requeue(g.cam, g.shard)
				return
			}
			c.cfg.Obs.Inc(obs.CFabricLeases)
			conn.SetReadDeadline(time.Now().Add(c.cfg.LeaseTimeout))

		case msgProgress:
			if cur != nil && !expired && msg.Shard == cur.shard {
				conn.SetReadDeadline(time.Now().Add(c.cfg.LeaseTimeout))
			}

		case msgResult:
			c.cfg.Obs.Add(obs.CFabricEnvelopeBytes, uint64(len(msg.Envelope)))
			c.record(name, msg)
			if cur != nil && msg.Shard == cur.shard {
				c.release(cur.cam, cur.shard)
				cur, expired = nil, false
			}
			conn.SetReadDeadline(time.Time{})

		case msgNack:
			c.cfg.Obs.Inc(obs.CFabricNacks)
			c.logf("worker %s: NACK shard %d: %s", name, msg.Shard, msg.Error)
			if cur != nil && msg.Shard == cur.shard {
				c.nack(cur.cam, cur.shard, msg.Error)
				cur, expired = nil, false
			}
			conn.SetReadDeadline(time.Time{})

		default:
			c.logf("worker %s: unexpected %q frame; disconnecting", name, msg.Type)
			if cur != nil && !expired {
				c.requeue(cur.cam, cur.shard)
			}
			return
		}
	}
}

// nextLease blocks until a pending shard exists (returning a grant), or
// the coordinator closes (returning ok=false). Campaigns are scanned in
// registration order, shards in queue order, so an idle fleet drains
// campaigns roughly first-come-first-served.
func (c *Coordinator) nextLease() (*grant, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return nil, false
		}
		for _, cam := range c.campaigns {
			if len(cam.pending) > 0 {
				shard := cam.pending[0]
				cam.pending = cam.pending[1:]
				cam.leased[shard] = true
				return &grant{cam: cam, shard: shard}, true
			}
		}
		c.cond.Wait()
	}
}

// record validates and merges one RESULT envelope. Late results for a
// shard someone else already recorded — or for a campaign that already
// finished — are counted and dropped; they can never merge twice.
func (c *Coordinator) record(worker string, msg *message) {
	c.mu.Lock()
	var cam *campaignState
	for _, cand := range c.campaigns {
		if cand.key == msg.Key {
			cam = cand
			break
		}
	}
	c.mu.Unlock()
	if cam == nil {
		c.cfg.Obs.Inc(obs.CFabricDupResults)
		c.logf("worker %s: result for finished campaign %.12s shard %d; dropped", worker, msg.Key, msg.Shard)
		return
	}
	switch err := cam.sc.LoadEnvelope(msg.Shard, msg.Envelope); {
	case err == nil:
		c.cfg.Obs.Inc(obs.CFabricResults)
		c.logf("worker %s: recorded shard %d of campaign %.12s", worker, msg.Shard, cam.key)
		if len(cam.sc.Pending()) == 0 {
			// Complete. Racing last RESULTs may both see it; finish closes
			// done once.
			cam.fail(nil)
		}
	case errors.Is(err, core.ErrShardRecorded):
		c.cfg.Obs.Inc(obs.CFabricDupResults)
		c.logf("worker %s: duplicate result for shard %d; dropped", worker, msg.Shard)
	default:
		// Corrupt or mismatched envelope: treat like a NACK so the shard
		// reruns elsewhere but cannot loop forever.
		c.logf("worker %s: rejected envelope for shard %d: %v", worker, msg.Shard, err)
		c.nack(cam, msg.Shard, err.Error())
	}
}

// requeue returns a leased shard to the pending queue unless it was
// recorded in the meantime (a late RESULT won the race).
func (c *Coordinator) requeue(cam *campaignState, shard int) {
	if cam.sc.Recorded(shard) {
		c.release(cam, shard)
		return
	}
	c.mu.Lock()
	if cam.leased[shard] {
		delete(cam.leased, shard)
		cam.pending = append(cam.pending, shard)
		c.cfg.Obs.Inc(obs.CFabricRequeued)
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// release drops the lease bookkeeping for a shard without requeueing it.
func (c *Coordinator) release(cam *campaignState, shard int) {
	c.mu.Lock()
	delete(cam.leased, shard)
	c.mu.Unlock()
}

// nack counts a shard failure and either requeues the shard or — after
// maxShardNacks strikes — fails the whole campaign.
func (c *Coordinator) nack(cam *campaignState, shard int, reason string) {
	c.mu.Lock()
	cam.nacks[shard]++
	strikes := cam.nacks[shard]
	c.mu.Unlock()
	if strikes >= maxShardNacks {
		cam.fail(fmt.Errorf("fabric: shard %d failed %d times (last: %s)", shard, strikes, reason))
		return
	}
	c.requeue(cam, shard)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		fmt.Fprintf(c.cfg.Log, "fabric: "+format+"\n", args...)
	}
}
