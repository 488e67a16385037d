package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"openresolver/internal/capture"
	"openresolver/internal/netsim"
	"openresolver/internal/paperdata"
)

// The worker-equivalence contract of the sharded engine (DESIGN.md §12):
// the campaign decomposition is a pure function of the Config, and Workers
// only schedules the fixed sub-simulations onto goroutines — so every
// worker count must produce bit-identical campaign bytes. These tests pin
// that contract directly; the golden tests pin the bytes themselves.

// workerCounts is the pinned matrix: serial, even and odd splits, a count
// above the shard count, and whatever the host happens to have.
func workerCounts() []int {
	return []int{1, 2, 3, 7, runtime.GOMAXPROCS(0)}
}

func TestSimulationWorkerEquivalence(t *testing.T) {
	for _, year := range []paperdata.Year{paperdata.Y2013, paperdata.Y2018} {
		base := Config{Year: year, SampleShift: 14, Seed: 1, KeepPackets: true, Workers: 1}
		ds, err := RunSimulation(base)
		if err != nil {
			t.Fatal(err)
		}
		want := SimulationDigest(ds)
		for _, w := range workerCounts()[1:] {
			cfg := base
			cfg.Workers = w
			got, err := RunSimulation(cfg)
			if err != nil {
				t.Fatalf("year %v workers %d: %v", year, w, err)
			}
			if d := SimulationDigest(got); d != want {
				t.Errorf("year %v: Workers=%d diverged from Workers=1\n got %s\nwant %s", year, w, d, want)
			}
			if got.Report.RenderTableIII() != ds.Report.RenderTableIII() {
				t.Errorf("year %v: Workers=%d rendered report differs", year, w)
			}
		}
	}
}

// TestFaultWorkerEquivalence pins the same contract under the PR 3 chaos
// matrix: burst loss, duplication, reordering and corruption answered by
// the full retransmission machinery. FaultDigest extends over the fault
// pipeline's intervention counters and the prober's retransmission state,
// so a worker-dependent divergence anywhere in the impairment fork or the
// stats merge fails here.
func TestFaultWorkerEquivalence(t *testing.T) {
	imps, err := netsim.ParseImpairments("ge:0.02,0.3,0.05,0.9;dup:0.05;reorder:0.1,30ms;corrupt:0.02")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Year: paperdata.Y2018, SampleShift: 14, Seed: 1, KeepPackets: true, Workers: 1,
		Faults: FaultPlan{
			Impairments:     imps,
			Retries:         2,
			AdaptiveTimeout: true,
			UpstreamBackoff: true,
			MaxQueuedEvents: 1 << 21,
		},
	}
	ds, err := RunSimulation(base)
	if err != nil {
		t.Fatal(err)
	}
	want := FaultDigest(ds)
	for _, w := range workerCounts()[1:] {
		cfg := base
		cfg.Workers = w
		got, err := RunSimulation(cfg)
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if d := FaultDigest(got); d != want {
			t.Errorf("Workers=%d diverged from Workers=1 under chaos\n got %s\nwant %s", w, d, want)
		}
	}
}

// TestSimulationWorkerInvarianceProperty draws random worker counts for
// random (year, seed, faults) configurations and checks each against the
// serial run of the same configuration. The pinned matrix above covers the
// interesting worker counts; this covers the configuration space.
func TestSimulationWorkerInvarianceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(42))
	imps, err := netsim.ParseImpairments("loss:0.1;dup:0.03")
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		year := paperdata.Y2013
		if rng.Intn(2) == 1 {
			year = paperdata.Y2018
		}
		cfg := Config{Year: year, SampleShift: 14, Seed: rng.Int63n(1000) + 1, Workers: 1}
		if rng.Intn(2) == 1 {
			cfg.Faults = FaultPlan{Impairments: imps, Retries: 1, MaxQueuedEvents: 1 << 21}
		}
		ds, err := RunSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := FaultDigest(ds)
		w := rng.Intn(2*runtime.GOMAXPROCS(0)+4) + 2
		cfg.Workers = w
		got, err := RunSimulation(cfg)
		if err != nil {
			t.Fatalf("trial %d workers %d: %v", trial, w, err)
		}
		if d := FaultDigest(got); d != want {
			t.Errorf("trial %d (year=%v seed=%d faults=%v): Workers=%d diverged\n got %s\nwant %s",
				trial, year, cfg.Seed, cfg.Faults.Impairments != nil, w, d, want)
		}
	}
}

// TestAuthTapCounts: a shard's tap at the authoritative server counts each
// inbound datagram as a Q2 and each outbound one as an R1, into the
// counters the shard's envelope carries, and counts nothing else.
func TestAuthTapCounts(t *testing.T) {
	var tap authTap
	dg := netsim.Datagram{Src: 1, Dst: AuthAddr}
	tap.Packet(true, time.Second, dg, nil)
	tap.Packet(false, 2*time.Second, dg, nil)
	tap.Packet(true, 3*time.Second, dg, nil)
	if tap.counters != (capture.Counters{Q2: 2, R1: 1}) {
		t.Errorf("counters = %+v, want Q2 2 and R1 1", tap.counters)
	}
}
