package core

import (
	"testing"

	"openresolver/internal/netsim"
)

// chaosPlan builds the fault plan used by the matrix: the impairment spec
// goes through the same ParseImpairments grammar the CLIs expose, and the
// full retransmission machinery (prober retries, adaptive RTO, upstream
// backoff) runs on top so every scenario exercises both halves of the
// robustness layer. MaxQueuedEvents is the queue-blowup tripwire: if an
// impairment/retry combination fed back into unbounded event growth,
// sim.Run would fail the run instead of silently ballooning.
func chaosPlan(t *testing.T, spec string) FaultPlan {
	t.Helper()
	imps, err := netsim.ParseImpairments(spec)
	if err != nil {
		t.Fatalf("ParseImpairments(%q): %v", spec, err)
	}
	return FaultPlan{
		Impairments:     imps,
		Retries:         3,
		AdaptiveTimeout: true,
		UpstreamBackoff: true,
		MaxQueuedEvents: 1 << 21,
	}
}

// checkInvariants asserts the accounting identities every campaign must
// satisfy no matter how hostile the network: packet conservation through
// the impairment pipeline, Table III internal consistency, and agreement
// between the prober's counters and the report's campaign row.
func checkInvariants(t *testing.T, ds *Dataset) {
	t.Helper()
	st, fs, ps := ds.NetStats, ds.FaultStats, ds.ProbeStats
	// Every submitted packet is delivered, dropped, or unroutable; network
	// duplicates add deliveries without a matching send.
	if got, want := st.Delivered+st.Lost+st.NoRoute, st.Sent+fs.Duplicated; got != want {
		t.Errorf("packet conservation broken: delivered+lost+noroute = %d, sent+duplicated = %d", got, want)
	}
	c := ds.Report.Correctness
	if c.R2 != c.Without+c.Correct+c.Incorr {
		t.Errorf("Table III does not sum: R2=%d, W/O=%d + corr=%d + incorr=%d", c.R2, c.Without, c.Correct, c.Incorr)
	}
	var rcodes uint64
	for i := range ds.Report.Rcode.With {
		rcodes += ds.Report.Rcode.With[i] + ds.Report.Rcode.Without[i]
	}
	if rcodes > c.R2 {
		t.Errorf("Table VI counts %d packets, more than the %d analyzed R2s", rcodes, c.R2)
	}
	if got := uint64(ds.R2Packets.Len()); ds.Config.KeepPackets && ds.Report.Campaign.R2 != got {
		t.Errorf("campaign R2=%d but %d packets captured", ds.Report.Campaign.R2, got)
	}
	if ds.Report.Campaign.Q1 != ps.Sent {
		t.Errorf("campaign Q1=%d but prober sent %d (retransmits must not inflate Q1)", ds.Report.Campaign.Q1, ps.Sent)
	}
	if ps.Answered > ps.Sent {
		t.Errorf("answered %d of %d sent probes", ps.Answered, ps.Sent)
	}
}

// TestChaosMatrix runs the full simulated campaign under every impairment
// class and a stacked combination, asserting that each scenario (a) is
// bit-identical across repeat runs with the same seed, (b) keeps the
// report's accounting identities intact, (c) actually fires its impairment
// (the counters prove the faults were exercised, not parsed and ignored),
// and (d) never trips the bounded event queue.
func TestChaosMatrix(t *testing.T) {
	scenarios := []struct {
		name  string
		spec  string
		fired func(netsim.FaultStats) bool
	}{
		{"iid-loss", "loss:0.2", func(f netsim.FaultStats) bool { return f.LossDrops > 0 }},
		{"ge-burst", "ge:0.05,0.2,0.125,1.0", func(f netsim.FaultStats) bool { return f.BurstDrops > 0 }},
		{"duplication", "dup:0.3", func(f netsim.FaultStats) bool { return f.Duplicated > 0 }},
		{"reordering", "reorder:0.5,40ms", func(f netsim.FaultStats) bool { return f.Reordered > 0 }},
		{"corruption", "corrupt:0.3", func(f netsim.FaultStats) bool { return f.Corrupted > 0 }},
		{"blackhole", "blackhole:11.0.0.0/8", func(f netsim.FaultStats) bool { return f.Blackholed > 0 }},
		{"brownout", "brownout:2s,30s,0.9", func(f netsim.FaultStats) bool { return f.BrownedOut > 0 }},
		{
			"stacked",
			"ge:0.05,0.2,0.125,1.0;dup:0.1;reorder:0.2,40ms;corrupt:0.05;brownout:5s,20s,0.8",
			func(f netsim.FaultStats) bool {
				return f.BurstDrops > 0 && f.Duplicated > 0 && f.Reordered > 0 &&
					f.Corrupted > 0 && f.BrownedOut > 0
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			run := func() *Dataset {
				ds, err := RunSimulation(Config{
					Year: 2018, SampleShift: 16, Seed: 1, KeepPackets: true,
					Faults: chaosPlan(t, sc.spec),
				})
				if err != nil {
					t.Fatal(err)
				}
				return ds
			}
			ds := run()
			checkInvariants(t, ds)
			if !sc.fired(ds.FaultStats) {
				t.Errorf("impairment never fired: %+v", ds.FaultStats)
			}
			if again := run(); SimulationDigest(again) != SimulationDigest(ds) {
				t.Error("repeat run with identical (config, seed) diverged")
			}
		})
	}
}

// TestChaosRecoveryAcceptance is the headline robustness claim: under 30%
// mean Gilbert–Elliott burst loss the retransmitting prober recovers at
// least 95% of the responses a loss-free campaign collects, while the
// paper's single-shot design shows the expected large shortfall on the
// same impaired network. The retransmission counters must surface in the
// dataset so a report consumer can see how the recovery was bought.
func TestChaosRecoveryAcceptance(t *testing.T) {
	run := func(spec string, retries int) *Dataset {
		var plan FaultPlan
		if spec != "" {
			imps, err := netsim.ParseImpairments(spec)
			if err != nil {
				t.Fatal(err)
			}
			plan.Impairments = imps
		}
		plan.Retries = retries
		plan.UpstreamBackoff = retries > 0
		plan.MaxQueuedEvents = 1 << 21
		ds, err := RunSimulation(Config{
			Year: 2018, SampleShift: 16, Seed: 1, Faults: plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}

	// πbad = 0.05/(0.05+0.2) = 0.2; mean loss = 0.2·1.0 + 0.8·0.125 = 30%,
	// arriving in bursts of mean length 1/0.2 = 5 packets.
	const ge = "ge:0.05,0.2,0.125,1.0"

	baseline := run("", 0)
	recovered := run(ge, 5)
	singleShot := run(ge, 0)

	base := baseline.ProbeStats.Answered
	if base == 0 {
		t.Fatal("loss-free campaign answered nothing")
	}
	if got := recovered.ProbeStats.Answered; got*100 < base*95 {
		t.Errorf("retransmission recovered %d of %d loss-free responses (<95%%)", got, base)
	}
	if got := singleShot.ProbeStats.Answered; got*100 > base*75 {
		t.Errorf("single-shot under 30%% burst loss answered %d of %d — expected a paper-style shortfall", got, base)
	}

	if recovered.ProbeStats.Retransmits == 0 {
		t.Error("recovery run recorded no retransmissions")
	}
	if fs := recovered.FaultStats; fs.BurstDrops == 0 && fs.LossDrops == 0 {
		t.Errorf("GE model dropped nothing: %+v", fs)
	}
	if singleShot.ProbeStats.Retransmits != 0 || singleShot.ProbeStats.GaveUp != 0 {
		t.Errorf("single-shot run has retransmission counters: %+v", singleShot.ProbeStats)
	}
	for _, ds := range []*Dataset{baseline, recovered, singleShot} {
		checkInvariants(t, ds)
	}
}
