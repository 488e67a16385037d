package core

import (
	"fmt"
	"testing"

	"openresolver/internal/netsim"
	"openresolver/internal/obs"
	"openresolver/internal/paperdata"
	"openresolver/internal/population"
	"openresolver/internal/threatintel"
)

// TestSimulationGoldenWithMetrics is the determinism contract of the
// observability layer: a simulated campaign with a full metrics registry
// attached must produce exactly the bytes the uninstrumented run is pinned
// to. The counters are write-only from the campaign's point of view —
// nothing reads them back — so the digest must match the recorded golden,
// not merely be self-consistent.
func TestSimulationGoldenWithMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	ds, err := RunSimulation(Config{
		Year: paperdata.Y2018, SampleShift: 14, Seed: 1, KeepPackets: true,
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := SimulationDigest(ds)
	want := simulationGoldens["2018/seed1"]
	if got != want {
		t.Errorf("metrics-enabled simulation diverged from the golden\n got %s\nwant %s", got, want)
	}

	// And the metrics must actually have been collected, with the internal
	// counters agreeing with the campaign's own reporting.
	m := reg.Merged()
	if sent := m.Counter(obs.CProbeSent); sent != ds.ProbeStats.Sent {
		t.Errorf("probe.sent = %d, ProbeStats.Sent = %d", sent, ds.ProbeStats.Sent)
	}
	if recv := m.Counter(obs.CProbeRecv); recv == 0 {
		t.Error("probe.recv never incremented")
	}
	if lost := m.Counter(obs.CSimLost); lost != ds.NetStats.Lost {
		t.Errorf("sim.lost = %d, NetStats.Lost = %d", lost, ds.NetStats.Lost)
	}
	if dlv := m.Counter(obs.CSimDelivered); dlv != ds.NetStats.Delivered {
		t.Errorf("sim.delivered = %d, NetStats.Delivered = %d", dlv, ds.NetStats.Delivered)
	}
	if m.Histogram(obs.HRTT).Count() == 0 {
		t.Error("RTT histogram empty after a simulated campaign")
	}
	if m.Histogram(obs.HQueueDepth).Count() == 0 {
		t.Error("event-queue-depth histogram empty")
	}
	if m.Counter(obs.CSimVirtualNanos) == 0 || m.Counter(obs.CSimWallNanos) == 0 {
		t.Error("clock-ratio counters not recorded")
	}
	for _, name := range []string{"scan-universe", "population-place", "simulate", "report"} {
		found := false
		for _, sp := range reg.Tracer().Spans() {
			if sp.Name == name && sp.Done {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("phase span %q missing or unclosed", name)
		}
	}
}

// TestFaultGoldenWithMetrics pins the adverse-network campaign with
// metrics attached: the fault-cause counters must mirror FaultStats and
// the digest must stay on the recorded fault golden.
func TestFaultGoldenWithMetrics(t *testing.T) {
	// The same spec TestFaultGolden uses, so the two tests exercise the
	// identical adverse network.
	imps, err := netsim.ParseImpairments("ge:0.02,0.3,0.05,0.9;dup:0.05;reorder:0.1,30ms;corrupt:0.02")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ds, err := RunSimulation(Config{
		Year: paperdata.Y2018, SampleShift: 14, Seed: 1, KeepPackets: true,
		Faults: FaultPlan{
			Impairments:     imps,
			Retries:         2,
			AdaptiveTimeout: true,
			UpstreamBackoff: true,
			MaxQueuedEvents: 1 << 21,
		},
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := FaultDigest(ds); got != faultGolden {
		t.Errorf("metrics-enabled fault campaign diverged\n got %s\nwant %s", got, faultGolden)
	}
	m := reg.Merged()
	fst := ds.FaultStats
	checks := []struct {
		c    obs.Counter
		want uint64
		name string
	}{
		{obs.CFaultLossDrop, fst.LossDrops, "fault.drop.loss"},
		{obs.CFaultBurstDrop, fst.BurstDrops, "fault.drop.burst"},
		{obs.CFaultBlackholed, fst.Blackholed, "fault.drop.blackhole"},
		{obs.CFaultBrownedOut, fst.BrownedOut, "fault.drop.brownout"},
		{obs.CFaultDuplicated, fst.Duplicated, "fault.duplicated"},
		{obs.CFaultCorrupted, fst.Corrupted, "fault.corrupted"},
		{obs.CFaultReordered, fst.Reordered, "fault.reordered"},
		{obs.CProbeRetransmits, ds.ProbeStats.Retransmits, "probe.retransmits"},
		{obs.CProbeGaveUp, ds.ProbeStats.GaveUp, "probe.gave_up"},
	}
	for _, ck := range checks {
		if got := m.Counter(ck.c); got != ck.want {
			t.Errorf("%s = %d, campaign stats say %d", ck.name, got, ck.want)
		}
	}
}

// TestSyntheticDeterministicWithMetrics checks that the synthetic engine's
// report is identical with and without metrics, across worker counts, and
// that one metrics shard per plan shard registered in shard order, however
// many workers ran them.
func TestSyntheticDeterministicWithMetrics(t *testing.T) {
	cfg := Config{Year: paperdata.Y2018, SampleShift: 12, Seed: 3}
	base, err := RunSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Report.RenderAll()
	pop, feed, err := buildDeps(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := openSynthCampaign(cfg, pop, feed.DB)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		reg := obs.NewRegistry()
		run := cfg
		run.Workers, run.Obs = workers, reg
		ds, err := RunSynthetic(run)
		if err != nil {
			t.Fatal(err)
		}
		if got := ds.Report.RenderAll(); got != want {
			t.Errorf("workers=%d with metrics: report diverged from uninstrumented run", workers)
		}
		shards := reg.Shards()
		if len(shards) != sc.NumShards() {
			t.Fatalf("workers=%d: %d shards registered, want the plan's %d", workers, len(shards), sc.NumShards())
		}
		var total uint64
		for i, sh := range shards {
			if want := fmt.Sprintf("synth-%d", i); sh.Label() != want {
				t.Errorf("shard %d label = %q, want %q", i, sh.Label(), want)
			}
			total += sh.Counter(obs.CSynthProbes)
		}
		if merged := reg.Merged().Counter(obs.CSynthProbes); merged != total {
			t.Errorf("merged synth.probes %d != shard sum %d", merged, total)
		}
		if total != pop.ExpectedR2 {
			t.Errorf("synth.probes = %d, want one per response (%d)", total, pop.ExpectedR2)
		}
	}
}

// TestDriftWithMetrics runs a two-epoch trend against a registry and
// checks the epoch spans and that the trend itself is unaffected.
func TestDriftWithMetrics(t *testing.T) {
	// drift lives above core; exercise the Obs plumbing through
	// SynthesizePopulation with a mixed population directly, as drift does.
	feed := threatintel.NewFeed(paperdata.Y2018, 5)
	pop, err := population.Build(population.Config{
		Year: paperdata.Y2018, SampleShift: 13, Seed: 5, Feed: feed,
	})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := SynthesizePopulation(Config{Year: paperdata.Y2018, SampleShift: 13, Seed: 5}, pop, feed.DB)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	inst, err := SynthesizePopulation(Config{Year: paperdata.Y2018, SampleShift: 13, Seed: 5, Obs: reg}, pop, feed.DB)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Report.RenderAll() != inst.Report.RenderAll() {
		t.Error("SynthesizePopulation report changed with metrics attached")
	}
	for _, name := range []string{"scan-universe", "synthesize", "report"} {
		found := false
		for _, sp := range reg.Tracer().Spans() {
			if sp.Name == name && sp.Done {
				found = true
			}
		}
		if !found {
			t.Errorf("span %q missing", name)
		}
	}
}
