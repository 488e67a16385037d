// Command orsweep expands a declarative campaign grid — calibration year ×
// network impairment × retry policy × worker count — into cells, runs every
// cell over a bounded worker pool, and prints a comparison matrix against
// the loss-free baseline cell of each year. Cells are bit-identical to the
// same campaign run standalone through orsurvey, the matrix is byte-stable
// across pool sizes, and completed cells persist as JSON artifacts so an
// interrupted sweep resumes with -resume instead of re-running.
//
// Usage:
//
//	orsweep [-spec file] [-year Y]... [-loss SPEC]... [-retry POLICY]...
//	        [-cell-workers N]... [-mode sim|synth] [-shift N] [-seed N]
//	        [-pps N] [-max-events N] [-workers N] [-out dir] [-resume]
//	        [-watchdog dur] [-json file] [-diff]
//	        [-metrics-addr host:port] [-progress interval]
//
// SIGINT/SIGTERM stop the sweep gracefully: in-flight cells drain at their
// next shard boundary (persisting sub-cell checkpoints under -out), the
// matrix of completed cells is printed, and -resume finishes the rest. A
// second signal force-quits. -watchdog flags cells that run suspiciously
// long without ever killing them.
//
// Axis flags repeat (every combination becomes one cell) and override the
// same axis in -spec; scalar flags override the spec file's scalars.
//
// Examples:
//
//	orsweep -shift 14 -year 2018 -year 2013 -loss none -loss "ge:0.05,0.2,0.125,1" -retry 0 -retry 5+adaptive
//	    # 2×2×2 robustness grid, matrix on stdout
//	orsweep -spec grid.sweep -out runs/ -json matrix.json
//	orsweep -spec grid.sweep -out runs/ -resume   # finish an interrupted sweep
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"openresolver/internal/core"
	"openresolver/internal/obs"
	"openresolver/internal/sigctx"
	"openresolver/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "orsweep:", err)
		os.Exit(1)
	}
}

// metricsUp is called with the bound metrics address after the sweep's
// output is complete but before the server shuts down. Tests hook it to
// scrape the endpoints with the full run's data in place.
var metricsUp = func(addr string) {}

// multiFlag collects a repeatable string flag in order of appearance.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("orsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var years, losses, retries, cellWorkers multiFlag
	fs.Var(&years, "year", "year axis value (repeatable): 2013, 2018, or fractional like 2015.5")
	fs.Var(&losses, "loss", `impairment axis value (repeatable): "none" or a netsim spec like "ge:0.05,0.2,0.125,1"`)
	fs.Var(&retries, "retry", `retry axis value (repeatable): "<budget>[+adaptive][+backoff]", e.g. 0 or 5+adaptive`)
	fs.Var(&cellWorkers, "cell-workers", "per-campaign worker axis value (repeatable; both modes — capped so cells × workers stays at the -workers pool bound)")
	specPath := fs.String("spec", "", "read the grid from this spec file (axis flags override its axes)")
	mode := fs.String("mode", "", "campaign engine: sim (default) or synth")
	var shift uint8
	core.ShiftVar(fs, &shift, "sample shift: scale every cell to 1/2^`N` (default 14)")
	seed := fs.Int64("seed", 0, "deterministic seed shared by every cell (default 1)")
	pps := fs.Uint64("pps", 0, "probe rate override (0 = paper value)")
	maxEvents := fs.Int("max-events", 0, "per-cell event queue bound (sim; default 2^21)")
	poolWorkers := fs.Int("workers", 0, "cells running concurrently (0 = all cores); also the budget per-cell workers are capped against")
	watchdog := fs.Duration("watchdog", 0, "flag any cell still running after this long with a stderr warning (0 = off; cells are never killed)")
	outDir := fs.String("out", "", "write one JSON artifact per completed cell into this directory")
	resume := fs.Bool("resume", false, "skip cells whose completed artifact already exists in -out")
	jsonPath := fs.String("json", "", `write the matrix as JSON to this file ("-" = stdout)`)
	diff := fs.Bool("diff", false, "print the full per-cell delta tables after the matrix")
	obsFlags := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *resume && *outDir == "" {
		return errors.New("-resume needs -out (artifacts live there)")
	}

	spec := &sweep.Spec{}
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			return err
		}
		parsed, perr := sweep.ParseSpecFile(f)
		f.Close()
		if perr != nil {
			return perr
		}
		spec = parsed
	}
	if err := spec.OverrideAxes(years, losses, retries, cellWorkers); err != nil {
		return err
	}
	// Scalar flags override the spec file whenever set on the command line,
	// even as 0: "orsweep -spec grid.sweep" honors the file's shift/seed,
	// "orsweep -spec grid.sweep -shift 16" pins a quick rescale, and
	// "-pps 0" restores the paper rate over the file's pps.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "mode":
			spec.Mode = *mode
		case "shift":
			spec.Shift = shift
		case "seed":
			spec.Seed = *seed
		case "pps":
			spec.PPS = *pps
		case "max-events":
			spec.MaxEvents = *maxEvents
		}
	})

	cells, err := spec.Cells()
	if err != nil {
		return err
	}

	reg, metricsAddr, stopObs, err := obsFlags.Start("orsweep", stderr)
	if err != nil {
		return err
	}
	defer stopObs()

	ctx, cancel := sigctx.New("orsweep", stderr)
	defer cancel()
	fmt.Fprintf(stderr, "orsweep: %d cells (mode=%s shift=%d seed=%d), pool=%d\n",
		len(cells), spec.Mode, spec.Shift, spec.Seed, poolSize(*poolWorkers))
	wallStart := time.Now()
	results, err := sweep.Run(sweep.RunConfig{
		Spec:        spec,
		PoolWorkers: *poolWorkers,
		ArtifactDir: *outDir,
		Resume:      *resume,
		Obs:         reg,
		Log:         stderr,
		Ctx:         ctx,
		Watchdog:    *watchdog,
	})
	interrupted := errors.Is(err, core.ErrInterrupted)
	if err != nil && !interrupted {
		return err
	}
	if interrupted {
		// Render what completed: artifacts are already on disk (and partial
		// cells left shard checkpoints), so -resume finishes the grid later.
		completed := results[:0:0]
		for i := range results {
			if results[i].Report != nil {
				completed = append(completed, results[i])
			}
		}
		fmt.Fprintf(stderr, "orsweep: interrupted with %d of %d cells complete; rerun with -resume to finish\n",
			len(completed), len(results))
		if *outDir == "" {
			fmt.Fprintln(stderr, "orsweep: no -out directory was set, so completed cells were not persisted")
		}
		if len(completed) == 0 {
			return err
		}
		m := sweep.BuildMatrix(spec, completed)
		fmt.Fprintln(stdout, "PARTIAL sweep matrix (interrupted):")
		if rerr := m.RenderText(stdout); rerr != nil {
			return rerr
		}
		return err
	}
	// Wall-clock lives on stderr only: the stdout matrix and the JSON stay
	// byte-identical across pool sizes and cold-vs-resumed runs.
	fmt.Fprintf(stderr, "orsweep: sweep finished in %v\n", time.Since(wallStart).Round(time.Millisecond))

	m := sweep.BuildMatrix(spec, results)
	if err := m.RenderText(stdout); err != nil {
		return err
	}
	if *diff {
		if err := m.RenderDeltas(stdout); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		data, err := m.JSON()
		if err != nil {
			return err
		}
		if *jsonPath == "-" {
			if _, err := stdout.Write(data); err != nil {
				return err
			}
		} else {
			if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "orsweep: matrix JSON written to %s\n", *jsonPath)
		}
	}
	if metricsAddr != "" {
		metricsUp(metricsAddr)
	}
	return nil
}

// poolSize mirrors RunConfig's 0-means-all-cores default for the banner.
func poolSize(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
