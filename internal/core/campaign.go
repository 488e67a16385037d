package core

// This file is the shard engine both campaign modes run on. A ShardCampaign
// is a fixed shard plan (a function of the Config and population, never of
// Workers), the mode's two hooks (run one shard, merge the runs in shard
// order; core.go and simshard.go supply them) and one run slot per shard.
// Its driver runs the pending shards on a workPool, checkpoints each at its
// boundary (DESIGN.md §13), stops at a shard boundary on cancellation, and
// merges. The same seams split a simulated campaign across processes
// (DESIGN.md §15): workers run shards into checkpoint envelopes
// (RunShardEnvelope), and a coordinator records them (LoadEnvelope) and
// folds them through the identical merge (Merge), so every fabric failure
// degrades to "rerun shard".

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"openresolver/internal/analysis"
	"openresolver/internal/capture"
	"openresolver/internal/classify"
	"openresolver/internal/netsim"
	"openresolver/internal/obs"
	"openresolver/internal/prober"
)

// ErrShardRecorded reports an envelope for a shard that already has a
// recorded run — a duplicate RESULT, a late delivery after a lease expired
// and another worker finished first, or a shard restored from a local
// checkpoint. The duplicate is dropped, never merged twice.
var ErrShardRecorded = errors.New("core: shard already recorded")

// ShardCampaign is one campaign opened at its shard seams: the fixed shard
// plan's engine hooks and the per-shard run slots the ordered merge folds.
// It is the engine behind SimulatePopulation and SynthesizePopulation, and
// the unit of work the distributed fabric moves between processes.
type ShardCampaign struct {
	cfg       Config
	engine    shardEngine
	obsShards []*obs.Shard
	accCfg    analysis.Config
	key       string
	store     *checkpointStore

	// mu guards runs against concurrent LoadEnvelope calls (duplicate or
	// racing RESULTs). The local driver (run) writes disjoint indexes from
	// its own workers and does not take it.
	mu   sync.Mutex
	runs []*shardRun
}

// shardEngine is what one campaign mode contributes to a ShardCampaign:
// runShard executes shard i (concurrently with other shards), recording
// its metrics in msh, and merge folds every run, in shard order, into the
// Dataset.
type shardEngine struct {
	label    string // metrics-shard label prefix: "sim" or "synth"
	span     string // phase span of the shard runs: "simulate" or "synthesize"
	runShard func(i int, msh *obs.Shard) (*shardRun, error)
	merge    func(runs []*shardRun) *Dataset
}

// shardRun is one completed shard, ready for the ordered merge: its
// accumulator and metrics shard and, for a sub-simulation, its counters, R2
// stream and responder verdicts (zero in a synthetic shard). Every field is
// plain value data, so a run restored from a checkpoint is
// indistinguishable from a freshly executed one.
type shardRun struct {
	shardCounters
	acc   *analysis.Accumulator
	r2    []capture.Packet
	roles *classify.Summary // responder verdicts; KeepPackets campaigns only
	obs   *obs.Shard
}

// shardCounters is everything a sub-simulation counts: the network's and
// the fault pipeline's statistics, the prober's (Q1 is Sent, R2 is
// Received), the auth tap's Q2 and R1, and the shard's virtual duration.
// A shard run and its envelope payload both embed it, so a restored run
// carries exactly the counters a fresh one does.
type shardCounters struct {
	NetStats     netsim.Stats      `json:"net_stats"`
	FaultStats   netsim.FaultStats `json:"fault_stats"`
	ProbeStats   prober.Stats      `json:"probe_stats"`
	AuthCounters capture.Counters  `json:"auth_counters"`
	Duration     time.Duration     `json:"duration_nanos"`
}

// OpenShardCampaign compiles cfg's simulated campaign to its shard seams:
// builds the population, threat feed and scan universe, plans the fixed
// shard decomposition, and — when cfg.Checkpoints is configured — restores
// every shard with a valid checkpoint. Both fabric roles open the campaign
// this way; the campaign key proves they agree on every byte-shaping input.
func OpenShardCampaign(cfg Config) (*ShardCampaign, error) {
	pop, feed, err := buildDeps(cfg)
	if err != nil {
		return nil, err
	}
	return openSimCampaign(cfg, pop, feed.DB)
}

// newShardCampaign is the opening path both engines share once they have
// planned their shards, one campaign-key line per shard: it keys the
// campaign (campaignKey), registers one metrics shard per plan shard, in
// shard order (so the snapshot's shard list never depends on scheduling),
// and restores every shard with a valid checkpoint when cfg.Checkpoints is
// configured.
func newShardCampaign(cfg Config, eng shardEngine, plan []string, accCfg analysis.Config) (*ShardCampaign, error) {
	n := len(plan)
	sc := &ShardCampaign{cfg: cfg, engine: eng, accCfg: accCfg, key: campaignKey(eng.label, cfg, plan),
		obsShards: make([]*obs.Shard, n), runs: make([]*shardRun, n)}
	for i := range sc.obsShards {
		sc.obsShards[i] = cfg.Obs.NewShard(fmt.Sprintf("%s-%d", eng.label, i))
	}
	if cfg.Checkpoints.enabled() {
		store, err := openCheckpointStore(cfg.Checkpoints, sc.key)
		if err != nil {
			return nil, err
		}
		sc.store = store
		tr := cfg.Obs.Tracer()
		sp := tr.Begin("checkpoint-restore")
		for i := range sc.runs {
			if run, ok := store.load(i, accCfg, sc.obsShards[i]); ok {
				sc.runs[i] = run
			}
		}
		tr.End(sp)
	}
	return sc, nil
}

// run is the campaign driver: it executes every shard without a recorded
// run on a pool of cfg.Workers goroutines, checkpoints each at its
// boundary, and merges. On cancellation the in-flight shards drain and
// checkpoint, and run returns ErrInterrupted. Each shard index is owned by
// one goroutine, so the runs and errs writes need no lock.
func (sc *ShardCampaign) run() (*Dataset, error) {
	tr := sc.cfg.Obs.Tracer()
	errs := make([]error, len(sc.runs))
	sp := tr.Begin(sc.engine.span)
	pool := startPool(sc.cfg.ctx(), min(sc.cfg.workers(), len(sc.runs)), func(i int) {
		sc.runs[i], errs[i] = sc.engine.runShard(i, sc.obsShards[i])
		if errs[i] == nil && sc.store != nil {
			sc.store.write(i, sc.runs[i])
		}
	})
	for i := range sc.runs {
		if sc.runs[i] != nil {
			continue
		}
		if !pool.send(i) {
			break
		}
	}
	pool.wait()
	tr.End(sp)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if slices.Contains(sc.runs, nil) {
		// Cancelled; the completed shards are checkpointed, and a rerun resumes.
		return nil, fmt.Errorf("core: %w: campaign stopped at a shard boundary", ErrInterrupted)
	}

	sp = tr.Begin("report")
	ds, err := sc.Merge()
	tr.End(sp)
	return ds, err
}

// NumShards returns the campaign's fixed shard count — a pure function of
// the Config, never of Workers or the host.
func (sc *ShardCampaign) NumShards() int { return len(sc.runs) }

// CampaignKey returns the campaign's identity digest: the engine, the
// configuration scalars, the canonical fault-plan description, and the
// complete shard plan (campaignKey). Two processes that derive the same key
// from their own flags provably agree on every input that shapes the
// campaign's bytes; the fabric protocol refuses to pair processes whose
// keys differ.
func (sc *ShardCampaign) CampaignKey() string { return sc.key }

// Pending returns the ascending indexes of shards without a recorded run —
// the work a coordinator hands out as leases. Shards restored from
// checkpoints are already recorded and never leave the process again.
func (sc *ShardCampaign) Pending() []int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	var idx []int
	for i, run := range sc.runs {
		if run == nil {
			idx = append(idx, i)
		}
	}
	return idx
}

// Recorded reports whether shard i already has a recorded run.
func (sc *ShardCampaign) Recorded(i int) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return i >= 0 && i < len(sc.runs) && sc.runs[i] != nil
}

// RunShardEnvelope executes shard i and returns its checkpoint envelope —
// the worker half of the fabric. The run is not recorded locally: its
// observability state rides inside the envelope (on a free-standing shard,
// not the campaign's registry) and is folded in exactly once by whichever
// process records the envelope, so metrics are neither lost nor
// double-counted.
func (sc *ShardCampaign) RunShardEnvelope(i int) ([]byte, error) {
	if i < 0 || i >= len(sc.runs) {
		return nil, fmt.Errorf("core: campaign has no shard %d (plan has %d)", i, len(sc.runs))
	}
	run, err := sc.engine.runShard(i, obs.NewShard(fmt.Sprintf("%s-%d", sc.engine.label, i)))
	if err != nil {
		return nil, err
	}
	return marshalShardEnvelope(sc.key, i, run)
}

// LoadEnvelope validates envelope bytes for shard i and records the
// restored run — the coordinator half of the fabric. Validation is the
// same layered check the checkpoint store applies to files it reads back
// (version, campaign key, shard index, payload digest), so a corrupted or
// mismatched envelope is rejected before any state is touched and the
// shard simply reruns. A second envelope for an already-recorded shard
// returns ErrShardRecorded and changes nothing — the at-most-once merge
// guarantee. When the campaign checkpoints, accepted envelopes are also
// persisted verbatim, making a distributed campaign resumable from the
// coordinator's disk alone.
func (sc *ShardCampaign) LoadEnvelope(i int, data []byte) error {
	if i < 0 || i >= len(sc.runs) {
		return fmt.Errorf("core: campaign has no shard %d (plan has %d)", i, len(sc.runs))
	}
	ck, err := validateShardEnvelope(sc.key, i, data)
	if err != nil {
		return err
	}
	sc.mu.Lock()
	if sc.runs[i] != nil {
		sc.mu.Unlock()
		return ErrShardRecorded
	}
	// Record under the lock: obs state loads exactly once per shard even
	// when duplicate RESULTs race.
	sc.runs[i] = restoreShardRun(sc.accCfg, ck, sc.obsShards[i])
	sc.mu.Unlock()
	if sc.store != nil {
		sc.store.writeRaw(i, data)
	}
	return nil
}

// Merge folds the recorded shards, in shard order, into the campaign's
// Dataset through the engine's merge — the same one the local driver
// applies, so a campaign assembled from remote envelopes is byte-identical
// to one run in-process. Every shard must be recorded; checkpoint files
// are cleared on success exactly as a local campaign clears them.
func (sc *ShardCampaign) Merge() (*Dataset, error) {
	for i, run := range sc.runs {
		if run == nil {
			return nil, fmt.Errorf("core: cannot merge: shard %d has no recorded run", i)
		}
	}
	ds := sc.engine.merge(sc.runs)
	if sc.store != nil {
		sc.store.clear(len(sc.runs))
	}
	return ds, nil
}
