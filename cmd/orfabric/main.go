// Command orfabric distributes a simulated measurement campaign across
// processes and machines (DESIGN.md §15). A coordinator expands the
// campaign into the engine's fixed shard plan and leases shards to
// workers over a length-prefixed JSON/TCP protocol; workers run each
// shard on a fully private network and stream back self-validating
// checkpoint envelopes; the coordinator merges them in shard order — so
// the distributed run is byte-identical to `orsurvey -mode sim` on one
// machine, whatever the fleet does (crashes, stalls and duplicate
// deliveries all degrade to "rerun shard").
//
// Usage:
//
//	orfabric -local [campaign flags]              # single-process reference
//	orfabric -workers-remote 4 [campaign flags]   # coordinator + 4 loopback workers
//	orfabric -coordinator -listen :9053 [campaign flags]
//	orfabric -worker -connect host:9053           # thin worker, campaign comes from leases
//
// Examples:
//
//	orfabric -workers-remote 4 -year 2018 -shift 14 -keep-packets
//	orfabric -coordinator -listen 127.0.0.1:0 -addr-file coord.addr -shift 12
//	orfabric -worker -connect "$(cat coord.addr)" -name w1
//	orfabric -workers-remote 2 -loss-model "ge:0.05,0.2,0.125,1" -retries 2
//
// All modes print the identical report plus a trailing FaultDigest line,
// so outputs can be compared byte-for-byte (the fabric-smoke CI job does
// exactly that). SIGINT/SIGTERM stop a campaign gracefully; with
// -checkpoint-dir the coordinator resumes from completed shards on rerun.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"openresolver/internal/core"
	"openresolver/internal/fabric"
	"openresolver/internal/obs"
	"openresolver/internal/sigctx"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "orfabric:", err)
		os.Exit(1)
	}
}

// coordinatorUp is called with the coordinator's bound address once it is
// accepting workers. Tests hook it to dial in-process workers.
var coordinatorUp = func(addr string) {}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("orfabric", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coordinator := fs.Bool("coordinator", false, "run a coordinator and wait for external workers")
	worker := fs.Bool("worker", false, "run a worker: dial -connect, execute leased shards until the coordinator is done")
	workersRemote := fs.Int("workers-remote", 0, "self-contained run: coordinator plus N in-process workers over loopback TCP")
	local := fs.Bool("local", false, "single-process reference run (no fabric, same output)")
	connect := fs.String("connect", "", "coordinator address to dial (worker mode)")
	name := fs.String("name", "", "worker label in coordinator logs (worker mode)")
	listen := fs.String("listen", "127.0.0.1:0", "coordinator listen address")
	addrFile := fs.String("addr-file", "", "write the coordinator's bound address to this file once listening")
	spec := core.Spec{Year: 2018, Shift: 14, Seed: 1}
	spec.RegisterFlags(fs)
	fs.IntVar(&spec.Year, "year", spec.Year, "campaign year (2013 or 2018)")
	fs.Uint64Var(&spec.PPS, "pps", spec.PPS, "probe rate override (0 = paper value)")
	fs.BoolVar(&spec.Keep, "keep-packets", spec.Keep, "retain raw R2 packets (the full-width digest contract)")
	fs.IntVar(&spec.MaxEvents, "max-events", spec.MaxEvents, "bound the simulator event queue (0 = unbounded)")
	ckptDir := fs.String("checkpoint-dir", "", "coordinator: persist accepted shard envelopes here and resume from them on rerun")
	workers := fs.Int("workers", 0, "local mode: worker goroutines (0 = all cores)")
	heartbeat := fs.Duration("heartbeat", 500*time.Millisecond, "worker PROGRESS interval announced in WELCOME")
	leaseTimeout := fs.Duration("lease-timeout", 15*time.Second, "requeue a shard whose lease goes silent this long")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	modes := 0
	for _, on := range []bool{*coordinator, *worker, *workersRemote > 0, *local} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return errors.New("choose exactly one of -coordinator, -worker, -workers-remote N or -local")
	}

	ctx, cancel := sigctx.New("orfabric", stderr)
	defer cancel()

	if *worker {
		if *connect == "" {
			return errors.New("-worker needs -connect host:port")
		}
		return fabric.RunWorker(ctx, fabric.WorkerConfig{Addr: *connect, Name: *name, Log: stderr})
	}

	cfg, err := spec.Config()
	if err != nil {
		return err
	}
	cfg.Workers = *workers
	cfg.Ctx = ctx
	cfg.Checkpoints = core.CheckpointPlan{Dir: *ckptDir, Log: stderr}

	if *local {
		ds, err := core.RunSimulation(cfg)
		if err != nil {
			return err
		}
		return render(stdout, ds)
	}

	metrics := obs.NewShard("fabric")
	co := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Heartbeat:    *heartbeat,
		LeaseTimeout: *leaseTimeout,
		Obs:          metrics,
		Log:          stderr,
	})
	if err := co.Listen(*listen); err != nil {
		return err
	}
	defer co.Close()
	fmt.Fprintf(stderr, "orfabric: coordinator on %s\n", co.Addr())
	if *addrFile != "" {
		// Written atomically so a watcher never reads a half-written address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(co.Addr()+"\n"), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			return err
		}
	}
	coordinatorUp(co.Addr())

	var fleet sync.WaitGroup
	if *workersRemote > 0 {
		for i := 0; i < *workersRemote; i++ {
			fleet.Add(1)
			go func(i int) {
				defer fleet.Done()
				wname := fmt.Sprintf("loopback-%d", i)
				if err := fabric.RunWorker(ctx, fabric.WorkerConfig{Addr: co.Addr(), Name: wname, Log: stderr}); err != nil && ctx.Err() == nil {
					fmt.Fprintf(stderr, "orfabric: worker %s: %v\n", wname, err)
				}
			}(i)
		}
	}

	ds, err := co.RunCampaign(cfg, spec.Loss)
	co.Close() // release idle workers (DONE) before reporting
	fleet.Wait()
	fmt.Fprintf(stderr, "orfabric: leases %d granted, %d expired, %d requeued; results %d merged, %d duplicate; %d NACKs; workers %d seen\n",
		metrics.Counter(obs.CFabricLeases), metrics.Counter(obs.CFabricLeaseExpired),
		metrics.Counter(obs.CFabricRequeued), metrics.Counter(obs.CFabricResults),
		metrics.Counter(obs.CFabricDupResults), metrics.Counter(obs.CFabricNacks),
		metrics.Counter(obs.CFabricWorkers))
	if errors.Is(err, core.ErrInterrupted) {
		if *ckptDir != "" {
			fmt.Fprintf(stderr, "orfabric: interrupted; accepted shard envelopes are checkpointed in %s — rerun the same command to resume\n", *ckptDir)
		} else {
			fmt.Fprintln(stderr, "orfabric: interrupted; no -checkpoint-dir was set, so a rerun starts from scratch")
		}
		return err
	}
	if err != nil {
		return err
	}
	return render(stdout, ds)
}

// render prints the full report and the trailing digest line — identical
// for every mode, so outputs compare byte-for-byte.
func render(w io.Writer, ds *core.Dataset) error {
	if _, err := fmt.Fprint(w, ds.Report.RenderAll()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nFaultDigest: %s\n", core.FaultDigest(ds))
	return err
}
