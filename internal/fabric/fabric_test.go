package fabric

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"openresolver/internal/core"
	"openresolver/internal/netsim"
	"openresolver/internal/obs"
	"openresolver/internal/paperdata"
)

// These tests pin the fabric's one non-negotiable property: a campaign
// distributed over any number of workers — including workers that die,
// stall past their lease, or deliver duplicates — produces byte-identical
// output to core.RunSimulation on one machine. The digests are compared
// with FaultDigest, the widest determinism digest the engine has.

const chaosSpec = "ge:0.02,0.3,0.05,0.9;dup:0.05;reorder:0.1,30ms;corrupt:0.02"

func pristineConfig(year paperdata.Year) core.Config {
	return core.Config{Year: year, SampleShift: 14, Seed: 1, KeepPackets: true, Workers: 1}
}

func chaosConfig(t *testing.T) core.Config {
	t.Helper()
	imps, err := netsim.ParseImpairments(chaosSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pristineConfig(paperdata.Y2018)
	cfg.Faults = core.FaultPlan{
		Impairments:     imps,
		Retries:         2,
		AdaptiveTimeout: true,
		UpstreamBackoff: true,
		MaxQueuedEvents: 1 << 21,
	}
	return cfg
}

// startCoordinator boots a coordinator on loopback with test-friendly
// pacing and registers cleanup.
func startCoordinator(t *testing.T, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	co := NewCoordinator(cfg)
	if err := co.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return co
}

// startWorkers launches n RunWorker goroutines against co and returns a
// stop function that disconnects and reaps them.
func startWorkers(t *testing.T, co *Coordinator, n int) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			RunWorker(ctx, WorkerConfig{Addr: co.Addr(), Name: fmt.Sprintf("w%d", i)})
		}(i)
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

func runFabric(t *testing.T, co *Coordinator, cfg core.Config, loss string, workers int) *core.Dataset {
	t.Helper()
	stop := startWorkers(t, co, workers)
	defer stop()
	ds, err := co.RunCampaign(cfg, loss)
	if err != nil {
		t.Fatalf("fabric campaign (%d workers): %v", workers, err)
	}
	return ds
}

// TestFabricDigestIdentity is the acceptance gate: both campaign years,
// N ∈ {1, 2, 4} remote workers, byte-identical to the single-process run.
func TestFabricDigestIdentity(t *testing.T) {
	for _, year := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		cfg := pristineConfig(year)
		ref, err := core.RunSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := core.FaultDigest(ref)
		for _, n := range []int{1, 2, 4} {
			co := startCoordinator(t, CoordinatorConfig{})
			ds := runFabric(t, co, cfg, "", n)
			if got := core.FaultDigest(ds); got != want {
				t.Errorf("year %v: %d workers diverged from single-process\n got %s\nwant %s", year, n, got, want)
			}
			if ds.Report.RenderAll() != ref.Report.RenderAll() {
				t.Errorf("year %v: %d workers rendered report differs", year, n)
			}
		}
	}
}

// TestFabricChaosDigestIdentity repeats the gate under the PR 3 chaos
// stack: the impairment spec crosses the wire as a string, is re-parsed
// by every worker, and must still reproduce the laptop run bit for bit.
func TestFabricChaosDigestIdentity(t *testing.T) {
	cfg := chaosConfig(t)
	ref, err := core.RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := core.FaultDigest(ref)
	co := startCoordinator(t, CoordinatorConfig{})
	ds := runFabric(t, co, cfg, chaosSpec, 3)
	if got := core.FaultDigest(ds); got != want {
		t.Errorf("chaos stack over fabric diverged\n got %s\nwant %s", got, want)
	}
}

// rawWorker is a hand-driven protocol peer for fault-injection tests.
type rawWorker struct {
	t    *testing.T
	conn net.Conn
}

func dialRaw(t *testing.T, co *Coordinator) *rawWorker {
	t.Helper()
	conn, err := net.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawWorker{t: t, conn: conn}
}

func (w *rawWorker) send(m *message) {
	w.t.Helper()
	if err := writeFrame(w.conn, m); err != nil {
		w.t.Fatalf("raw worker write: %v", err)
	}
}

func (w *rawWorker) recv() *message {
	w.t.Helper()
	m, err := readFrame(w.conn)
	if err != nil {
		w.t.Fatalf("raw worker read: %v", err)
	}
	return m
}

func (w *rawWorker) handshake() {
	w.t.Helper()
	w.send(&message{Type: msgHello, Proto: ProtoVersion, Name: "raw"})
	if m := w.recv(); m.Type != msgWelcome {
		w.t.Fatalf("expected WELCOME, got %+v", m)
	}
}

// lease sends READY and returns the granted LEASE.
func (w *rawWorker) lease() *message {
	w.t.Helper()
	w.send(&message{Type: msgReady})
	m := w.recv()
	if m.Type != msgLease {
		w.t.Fatalf("expected LEASE, got %+v", m)
	}
	return m
}

// TestVersionMismatchHello pins the refusal path: a worker speaking the
// wrong protocol version gets an ERROR frame naming both versions, then
// the connection closes.
func TestVersionMismatchHello(t *testing.T) {
	co := startCoordinator(t, CoordinatorConfig{})
	// A version-2 worker would ship envelopes that carry the authoritative
	// packet stream instead of verdicts, a version-3 one envelopes that
	// repeat the prober's counters; a far-future one, who knows what.
	for _, proto := range []int{2, 3, ProtoVersion + 41} {
		conn, err := net.Dial("tcp", co.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := writeFrame(conn, &message{Type: msgHello, Proto: proto}); err != nil {
			t.Fatal(err)
		}
		m, err := readFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if m.Type != msgError || !strings.Contains(m.Error, "version mismatch") {
			t.Fatalf("v%d: expected a version-mismatch ERROR, got %+v", proto, m)
		}
		if _, err := readFrame(conn); err == nil {
			t.Fatalf("v%d: connection should close after a version refusal", proto)
		}
	}
}

// campaignEnvelope computes shard i's envelope out of band, exactly as a
// worker would, so raw-protocol tests can deliver real results.
func campaignEnvelope(t *testing.T, cfg core.Config, shard int) (key string, env []byte) {
	t.Helper()
	sc, err := core.OpenShardCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env, err = sc.RunShardEnvelope(shard)
	if err != nil {
		t.Fatal(err)
	}
	return sc.CampaignKey(), env
}

// TestDuplicateResult delivers the same RESULT twice: the second must be
// counted as a duplicate and dropped, and the merged campaign must stay
// byte-identical to the single-process run.
func TestDuplicateResult(t *testing.T) {
	cfg := pristineConfig(paperdata.Y2018)
	ref, err := core.RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, env := campaignEnvelope(t, cfg, 0)

	metrics := obs.NewShard("fabric")
	co := startCoordinator(t, CoordinatorConfig{Obs: metrics})

	raw := dialRaw(t, co)
	raw.handshake()
	results := make(chan *core.Dataset, 1)
	errs := make(chan error, 1)
	go func() {
		ds, err := co.RunCampaign(cfg, "")
		results <- ds
		errs <- err
	}()

	lease := raw.lease()
	if lease.Shard != 0 {
		t.Fatalf("first lease should be shard 0, got %d", lease.Shard)
	}
	raw.send(&message{Type: msgResult, Key: lease.Key, Shard: 0, Envelope: env})
	raw.send(&message{Type: msgResult, Key: lease.Key, Shard: 0, Envelope: env})
	// Drain the rest with real workers.
	stop := startWorkers(t, co, 2)
	defer stop()
	// The raw worker stops taking leases; close its half so the
	// coordinator isn't waiting on it.
	raw.conn.Close()

	ds := <-results
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got, want := core.FaultDigest(ds), core.FaultDigest(ref); got != want {
		t.Errorf("digest diverged after duplicate RESULT\n got %s\nwant %s", got, want)
	}
	if n := metrics.Counter(obs.CFabricDupResults); n != 1 {
		t.Errorf("duplicate results counted: got %d, want 1", n)
	}
	if n := metrics.Counter(obs.CFabricResults); n == 0 {
		t.Error("no results counted")
	}
}

// TestWorkerDeathRequeues kills a worker that holds a lease (abrupt
// connection drop, as SIGKILL would produce) and checks the shard is
// requeued, finished elsewhere, and the output still byte-identical.
func TestWorkerDeathRequeues(t *testing.T) {
	cfg := pristineConfig(paperdata.Y2018)
	ref, err := core.RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewShard("fabric")
	co := startCoordinator(t, CoordinatorConfig{Obs: metrics})

	raw := dialRaw(t, co)
	raw.handshake()
	results := make(chan *core.Dataset, 1)
	errs := make(chan error, 1)
	go func() {
		ds, err := co.RunCampaign(cfg, "")
		results <- ds
		errs <- err
	}()
	lease := raw.lease()
	raw.conn.Close() // dies mid-shard, envelope never sent

	stop := startWorkers(t, co, 2)
	defer stop()
	ds := <-results
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got, want := core.FaultDigest(ds), core.FaultDigest(ref); got != want {
		t.Errorf("digest diverged after worker death on shard %d\n got %s\nwant %s", lease.Shard, got, want)
	}
	if n := metrics.Counter(obs.CFabricRequeued); n == 0 {
		t.Error("dead worker's shard was never requeued")
	}
	if n := metrics.Counter(obs.CFabricWorkersGone); n == 0 {
		t.Error("worker disconnect not counted")
	}
}

// TestLeaseExpiryRacesLateResult pins the subtlest failure mode: a worker
// stalls past its lease (shard requeued), then delivers a valid RESULT
// late. The late envelope wins if the shard hasn't been recorded yet; the
// rerun's envelope then dedups away — either way exactly one envelope
// merges and the bytes never change.
func TestLeaseExpiryRacesLateResult(t *testing.T) {
	cfg := pristineConfig(paperdata.Y2018)
	ref, err := core.RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, env := campaignEnvelope(t, cfg, 0)

	metrics := obs.NewShard("fabric")
	co := startCoordinator(t, CoordinatorConfig{
		Heartbeat:    50 * time.Millisecond,
		LeaseTimeout: 250 * time.Millisecond,
		Obs:          metrics,
	})

	raw := dialRaw(t, co)
	raw.handshake()
	results := make(chan *core.Dataset, 1)
	errs := make(chan error, 1)
	go func() {
		ds, err := co.RunCampaign(cfg, "")
		results <- ds
		errs <- err
	}()
	lease := raw.lease()
	if lease.Shard != 0 {
		t.Fatalf("first lease should be shard 0, got %d", lease.Shard)
	}
	// Stall without heartbeats until the lease has certainly expired and
	// shard 0 is back in the queue, then deliver the result late (inside
	// the post-expiry grace window).
	deadline := time.Now().Add(5 * time.Second)
	for metrics.Counter(obs.CFabricLeaseExpired) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	raw.send(&message{Type: msgResult, Key: lease.Key, Shard: 0, Envelope: env})

	stop := startWorkers(t, co, 2)
	defer stop()
	ds := <-results
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got, want := core.FaultDigest(ds), core.FaultDigest(ref); got != want {
		t.Errorf("digest diverged after lease-expiry race\n got %s\nwant %s", got, want)
	}
	if n := metrics.Counter(obs.CFabricLeaseExpired); n == 0 {
		t.Error("lease expiry not counted")
	}
	if n := metrics.Counter(obs.CFabricRequeued); n == 0 {
		t.Error("expired lease's shard not requeued")
	}
}

// TestWorkerRefusedByFakeCoordinator checks RunWorker surfaces a
// coordinator ERROR (the other half of the version handshake).
func TestWorkerRefusedByFakeCoordinator(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		readFrame(conn) // HELLO
		writeFrame(conn, &message{Type: msgError, Proto: ProtoVersion + 1,
			Error: "fabric: protocol version mismatch: coordinator speaks v99, worker v1"})
	}()
	err = RunWorker(context.Background(), WorkerConfig{Addr: ln.Addr().String()})
	if err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("worker should surface the refusal, got %v", err)
	}
}

// TestCoordinatorCancellation: cancelling the campaign context abandons
// the run with core.ErrInterrupted even with no workers connected.
func TestCoordinatorCancellation(t *testing.T) {
	co := startCoordinator(t, CoordinatorConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cfg := pristineConfig(paperdata.Y2018)
	cfg.Ctx = ctx
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err := co.RunCampaign(cfg, "")
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("cancelled campaign: got %v, want ErrInterrupted", err)
	}
}
