package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"openresolver/internal/analysis"
	"openresolver/internal/core"
	"openresolver/internal/drift"
	"openresolver/internal/netsim"
	"openresolver/internal/obs"
	"openresolver/internal/paperdata"
	"openresolver/internal/prober"
)

// Result is one executed (or resumed) cell: the campaign's report, the
// counters the matrix prints, and the cell's FaultDigest — the same digest
// the golden tests pin, so a sweep cell can be cross-checked bit-for-bit
// against the standalone campaign. Its JSON form is the body of the cell's
// artifact; the cell itself and the resume mark are not stored.
type Result struct {
	Cell       Cell              `json:"-"`
	Digest     string            `json:"digest"`
	Report     *analysis.Report  `json:"report"`
	FaultStats netsim.FaultStats `json:"fault_stats"`
	ProbeStats prober.Stats      `json:"probe_stats"`
	// VirtualNanos is the simulator's clock at quiesce (sim cells).
	VirtualNanos uint64 `json:"virtual_nanos"`
	// WallNanos is the cell's wall-clock cost. It is reported on the log
	// writer only — never in the matrix, which must stay byte-identical
	// across runs.
	WallNanos uint64 `json:"wall_nanos"`
	// Resumed marks cells loaded from a completed artifact instead of run.
	Resumed bool `json:"-"`
}

// RunConfig parameterizes one sweep execution.
type RunConfig struct {
	// Spec is the grid to expand and run.
	Spec *Spec
	// PoolWorkers bounds how many cells execute concurrently (0 = all
	// cores). The pool size never affects output: results are collected by
	// cell index and rendered in expansion order.
	PoolWorkers int
	// ArtifactDir, when non-empty, receives one JSON artifact per executed
	// cell (cell-<slug>.json) and is where Resume looks for completed work.
	ArtifactDir string
	// Resume skips cells whose completed artifact already exists in
	// ArtifactDir, loading their results instead of re-running them.
	Resume bool
	// Obs, when non-nil, receives one pre-registered shard per cell (in
	// cell order, so snapshots are deterministic) plus a span per executed
	// cell; each cell still runs against its own private registry.
	Obs *obs.Registry
	// Log receives progress notes (cell completions, resume skips, wall
	// clocks). Nil discards them. Nothing written here is part of the
	// deterministic matrix output.
	Log io.Writer
	// Ctx, when non-nil, allows cooperative cancellation: the sweep stops
	// dispatching cells, in-flight cells drain at their next shard boundary
	// (checkpointing sub-cell progress when ArtifactDir is set), and Run
	// returns the completed results alongside core.ErrInterrupted.
	Ctx context.Context
	// OnCell, when non-nil, observes every completed cell the moment its
	// result is final — executed, loaded from an artifact on resume, or
	// both. It is the streaming seam the observatory daemon uses to render
	// partial matrices mid-run. Calls may come from concurrent pool
	// workers, so the callback must be safe for concurrent use; it must
	// not mutate the Result. Like Log, nothing it observes is part of the
	// deterministic matrix — the final result slice is always rendered in
	// cell order regardless of completion order.
	OnCell func(Result)
	// Watchdog, when positive, flags any cell still running after the
	// duration with a "stuck?" note on Log. It only ever warns — a slow
	// cell is never killed, because killing it would make the sweep's
	// outcome depend on host speed.
	Watchdog time.Duration
	// SimRunner, when non-nil, replaces core.RunSimulation for pure-year
	// sim cells — the seam the distributed fabric plugs into (a
	// fabric.Coordinator's RunCampaign dispatches each cell's shards to
	// remote workers). It receives the cell's compiled Config plus the
	// cell's impairment spec in its parseable CLI form ("none" when
	// pristine) and must return a dataset byte-identical to
	// core.RunSimulation(cfg); the digest matrix pins that. Mixed-year
	// cells and synthetic cells always run locally: their populations are
	// interpolated in-process and have no wire description.
	SimRunner func(cfg core.Config, lossSpec string) (*core.Dataset, error)
}

func (rc RunConfig) ctx() context.Context {
	if rc.Ctx != nil {
		return rc.Ctx
	}
	return context.Background()
}

func (rc RunConfig) pool() int {
	if rc.PoolWorkers > 0 {
		return rc.PoolWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// simWorkerCap bounds each cell's intra-campaign parallelism so that
// concurrent cells × per-cell workers stays at the pool bound instead of
// multiplying against it: the cap is the pool budget divided by how many
// cells actually run at once, never below one. Campaign output is
// worker-invariant (DESIGN.md §12), so the cap shapes scheduling only —
// the matrix bytes cannot depend on it.
func (rc RunConfig) simWorkerCap(todo int) int {
	conc := rc.pool()
	if todo > 0 && todo < conc {
		conc = todo
	}
	c := rc.pool() / conc
	if c < 1 {
		c = 1
	}
	return c
}

// capWorkers clamps a cell's requested worker count (0 = all cores) to the
// sweep-level cap.
func capWorkers(w, cap int) int {
	if w == 0 || w > cap {
		return cap
	}
	return w
}

// Run expands the spec and executes every cell over the bounded pool,
// returning results in cell order. The result slice is identical for any
// pool size, and — given the same artifact set — identical between a cold
// run and a resumed one (the resume and wall-clock fields are excluded
// from the matrix renderings).
func Run(rc RunConfig) ([]Result, error) {
	cells, err := rc.Spec.Cells()
	if err != nil {
		return nil, err
	}
	logw := rc.Log
	if logw == nil {
		logw = io.Discard
	}

	// The interpolator is built once, up front, only when the grid asks
	// for fractional years — it costs two full population builds.
	var interp *drift.Interpolator
	for _, c := range cells {
		if !c.Year.Pure {
			if interp, err = drift.NewInterpolator(rc.Spec.Shift, rc.Spec.Seed); err != nil {
				return nil, err
			}
			break
		}
	}

	// Pre-register one observability shard per cell in expansion order, so
	// the top registry's shard list is deterministic no matter how the
	// pool schedules the cells.
	shards := make([]*obs.Shard, len(cells))
	for i, c := range cells {
		shards[i] = rc.Obs.NewShard("cell-" + c.Slug())
	}

	results := make([]Result, len(cells))
	todo := make([]Cell, 0, len(cells))
	if rc.Resume && rc.ArtifactDir != "" {
		for _, c := range cells {
			res, ok, lerr := loadArtifact(rc.Spec, c, rc.ArtifactDir)
			if ok {
				res.Resumed = true
				results[c.Index] = res
				fmt.Fprintf(logw, "orsweep: cell %d (%s) resumed from artifact\n", c.Index, c.Key())
				if rc.OnCell != nil {
					rc.OnCell(res)
				}
				continue
			}
			if lerr != nil {
				// A damaged artifact is recoverable — the cell just reruns —
				// but must never be silent: a user resuming a long sweep
				// should know which cells lost their cached work and why.
				fmt.Fprintf(logw, "orsweep: cell %d (%s): artifact unusable (%v); rerunning cell\n",
					c.Index, c.Key(), lerr)
			}
			todo = append(todo, c)
		}
	} else {
		todo = cells
	}

	ctx := rc.ctx()
	jobs := make(chan Cell)
	errs := make([]error, len(cells))
	simCap := rc.simWorkerCap(len(todo))
	var wg sync.WaitGroup
	for w := 0; w < rc.pool(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				var watchdog *time.Timer
				if rc.Watchdog > 0 {
					c := c
					started := time.Now()
					watchdog = time.AfterFunc(rc.Watchdog, func() {
						fmt.Fprintf(logw, "orsweep: cell %d (%s) still running after %v — stuck?\n",
							c.Index, c.Key(), time.Since(started).Round(time.Second))
					})
				}
				sp := rc.Obs.Tracer().Begin("cell " + c.Key())
				res, err := runCell(rc, c, interp, shards[c.Index], simCap, logw)
				rc.Obs.Tracer().End(sp)
				if watchdog != nil {
					watchdog.Stop()
				}
				if err != nil {
					if errors.Is(err, core.ErrInterrupted) {
						// The cell drained at a shard boundary; its sub-cell
						// checkpoints (sim mode, ArtifactDir set) survive for
						// the next -resume. Not a failure.
						fmt.Fprintf(logw, "orsweep: cell %d (%s) interrupted at a shard boundary\n",
							c.Index, c.Key())
						continue
					}
					errs[c.Index] = fmt.Errorf("sweep: cell %d (%s): %w", c.Index, c.Key(), err)
					continue
				}
				// Persist immediately: a sweep killed later loses at most the
				// cells still in flight, never completed ones. Cells write
				// distinct files, so concurrent workers never collide.
				if rc.ArtifactDir != "" {
					if err := writeArtifact(rc.Spec, &res, rc.ArtifactDir); err != nil {
						errs[c.Index] = fmt.Errorf("sweep: cell %d (%s): artifact: %w", c.Index, c.Key(), err)
						continue
					}
				}
				results[c.Index] = res
				fmt.Fprintf(logw, "orsweep: cell %d (%s) done in %v\n",
					c.Index, c.Key(), time.Duration(res.WallNanos).Round(time.Millisecond))
				if rc.OnCell != nil {
					rc.OnCell(res)
				}
			}
		}()
	}
	// Graceful shutdown: on cancellation stop handing out cells; workers
	// drain what they hold (each campaign stops at its own shard boundary).
dispatch:
	for _, c := range todo {
		select {
		case jobs <- c:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i := range results {
		if results[i].Report == nil {
			// At least one cell never completed — only possible via
			// cancellation. Hand back what finished; the caller renders a
			// partial matrix and a rerun with -resume picks up the rest.
			return results, fmt.Errorf("sweep: %w: %s", core.ErrInterrupted,
				"partial results returned; rerun with -resume to continue")
		}
	}
	return results, nil
}

// runCell executes one cell against its own private registry, folds the
// cell's metrics into its pre-registered shard, and returns the matrix row
// material. Sim cells keep their R2 packets so the digest covers the raw
// response stream, exactly like the golden tests. simCap bounds the
// campaign's own worker fan-out so cell-level and campaign-level
// parallelism compose against one pool budget instead of multiplying.
// When an artifact directory is configured, cells of either mode
// checkpoint at shard granularity into ckpt-<slug>/ beneath it — an
// interrupted cell resumes below cell granularity on the next run, and a
// completed cell's campaign removes its own checkpoint directory.
func runCell(rc RunConfig, c Cell, interp *drift.Interpolator, shard *obs.Shard, simCap int, logw io.Writer) (Result, error) {
	spec := rc.Spec
	reg := obs.NewRegistry()
	cfg := core.Config{
		SampleShift:   spec.Shift,
		Seed:          spec.Seed,
		PacketsPerSec: spec.PPS,
		Workers:       capWorkers(c.Workers, simCap),
		Obs:           reg,
		Ctx:           rc.Ctx,
	}
	sim := spec.Mode == "sim"
	if sim {
		cfg.KeepPackets = true
		cfg.Faults = core.FaultPlan{
			Impairments:     c.Loss.Imps,
			Retries:         c.Retry.Retries,
			AdaptiveTimeout: c.Retry.Adaptive,
			UpstreamBackoff: c.Retry.Backoff,
			MaxQueuedEvents: spec.MaxEvents,
		}
	}
	if rc.ArtifactDir != "" {
		cfg.Checkpoints = core.CheckpointPlan{
			Dir: cellCheckpointDir(rc.ArtifactDir, c),
			Log: logw,
		}
	}

	wallStart := time.Now()
	var (
		ds  *core.Dataset
		err error
	)
	switch {
	case c.Year.Pure:
		cfg.Year = c.Year.Year
		if sim {
			if rc.SimRunner != nil {
				ds, err = rc.SimRunner(cfg, c.Loss.Label)
			} else {
				ds, err = core.RunSimulation(cfg)
			}
		} else {
			ds, err = core.RunSynthetic(cfg)
		}
	default:
		cfg.Year = paperdata.Y2018
		mixed, merr := interp.At(c.Year.Weight)
		if merr != nil {
			return Result{}, merr
		}
		if sim {
			ds, err = core.SimulatePopulation(cfg, mixed, interp.Threat())
		} else {
			ds, err = core.SynthesizePopulation(cfg, mixed, interp.Threat())
		}
	}
	if err != nil {
		return Result{}, err
	}

	merged := reg.Merged()
	merged.MergeInto(shard)
	res := Result{
		Cell:         c,
		Digest:       core.FaultDigest(ds),
		Report:       ds.Report,
		FaultStats:   ds.FaultStats,
		ProbeStats:   ds.ProbeStats,
		VirtualNanos: merged.Counter(obs.CSimVirtualNanos),
		WallNanos:    uint64(time.Since(wallStart)),
	}
	return res, nil
}

// artifact is the on-disk form of a completed cell: the cell's identity
// (key plus the spec scalars that shape it) and its Result, which holds
// the digest and every field the matrix needs — so a resumed sweep renders
// byte-identically to a cold one without re-running the campaign.
// Artifacts written while Result still carried net_stats, clusters_used
// and subdomains_reused load unchanged: nothing read those fields, and the
// decoder skips them.
type artifact struct {
	Version   int    `json:"version"`
	Key       string `json:"key"`
	Mode      string `json:"mode"`
	Shift     uint8  `json:"shift"`
	Seed      int64  `json:"seed"`
	PPS       uint64 `json:"pps"`
	MaxEvents int    `json:"max_events"`
	Result
}

const artifactVersion = 1

func artifactPath(dir string, c Cell) string {
	return filepath.Join(dir, "cell-"+c.Slug()+".json")
}

// cellCheckpointDir is where a sim cell's shard checkpoints live while the
// cell is in flight (sub-cell resume granularity). The completed campaign
// removes it; only interrupted cells leave one behind.
func cellCheckpointDir(dir string, c Cell) string {
	return filepath.Join(dir, "ckpt-"+c.Slug())
}

// writeArtifact persists one executed cell, atomically (write + rename),
// so a sweep killed mid-write never leaves a half artifact that a later
// -resume would trust.
func writeArtifact(spec *Spec, res *Result, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	a := artifact{
		Version: artifactVersion,
		Key:     res.Cell.Key(),
		Mode:    spec.Mode, Shift: spec.Shift, Seed: spec.Seed,
		PPS: spec.PPS, MaxEvents: spec.MaxEvents,
		Result: *res,
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	path := artifactPath(dir, res.Cell)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadArtifact returns the completed result for a cell if a valid artifact
// for exactly this cell-under-this-spec exists. A missing file is the
// normal "not yet run" case (ok=false, err=nil); a file that exists but
// cannot be trusted — truncated, corrupt, or written under a different
// spec — additionally returns the reason so the caller can warn before
// rerunning the cell. Either way the cell re-runs and rewrites the
// artifact; damaged state is never loaded.
func loadArtifact(spec *Spec, c Cell, dir string) (Result, bool, error) {
	data, err := os.ReadFile(artifactPath(dir, c))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return Result{}, false, nil
		}
		return Result{}, false, err
	}
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return Result{}, false, fmt.Errorf("corrupt or truncated artifact: %v", err)
	}
	if a.Version != artifactVersion {
		return Result{}, false, fmt.Errorf("artifact version %d, want %d", a.Version, artifactVersion)
	}
	if a.Key != c.Key() ||
		a.Mode != spec.Mode || a.Shift != spec.Shift || a.Seed != spec.Seed ||
		a.PPS != spec.PPS || a.MaxEvents != spec.MaxEvents {
		return Result{}, false, errors.New("artifact was written under a different spec")
	}
	if a.Digest == "" || a.Report == nil {
		return Result{}, false, errors.New("artifact is missing its digest or report")
	}
	a.Cell = c
	return a.Result, true, nil
}
