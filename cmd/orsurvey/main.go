// Command orsurvey runs one open-resolver measurement campaign — either as
// a full discrete-event simulation (mode=sim) or as a full-scale synthetic
// stream (mode=synth) — and prints every regenerated table of the paper.
//
// Usage:
//
//	orsurvey [-year 2018] [-mode synth|sim] [-shift N] [-seed N]
//	         [-pps N] [-workers N] [-capture file] [-json file] [-csvdir dir]
//	         [-loss-model spec] [-retries N] [-adaptive-timeout] [-upstream-backoff]
//	         [-checkpoint-dir dir] [-metrics-addr host:port] [-progress interval]
//
// Examples:
//
//	orsurvey -year 2018                    # full-scale synthetic campaign
//	orsurvey -year 2013 -mode sim -shift 12  # end-to-end simulation, 1/4096 sample
//	orsurvey -mode sim -shift 12 -capture r2.orlog  # persist the R2 capture
//	orsurvey -mode sim -shift 12 -loss-model "ge:0.05,0.2,0.125,1" -retries 5
//	    # campaign under 30% Gilbert–Elliott burst loss with retransmission
//	orsurvey -mode sim -shift 10 -metrics-addr 127.0.0.1:8080 -progress 2s
//	    # watch the campaign live: expvar/pprof/JSON snapshot + stderr ticker
//	orsurvey -mode sim -shift 8 -checkpoint-dir ckpt/
//	    # crash-safe campaign: every completed shard persists; rerunning the
//	    # identical command after a crash or ^C resumes instead of restarting
//	orsurvey -year 2013 -checkpoint-dir ckpt/  # the same, full-scale synthetic
//
// SIGINT/SIGTERM stop the campaign gracefully: in-flight shards drain and
// (with -checkpoint-dir) persist before exit; a second signal force-quits.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"openresolver/internal/analysis"
	"openresolver/internal/core"
	"openresolver/internal/netsim"
	"openresolver/internal/obs"
	"openresolver/internal/paperdata"
	"openresolver/internal/sigctx"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "orsurvey:", err)
		os.Exit(1)
	}
}

// metricsUp is called with the bound metrics address after the campaign's
// output is complete but before the server shuts down. Tests hook it to
// scrape the endpoints with the full run's data in place.
var metricsUp = func(addr string) {}

func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("orsurvey", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := core.Spec{Year: 2018, Seed: 1}
	spec.RegisterFlags(fs)
	fs.IntVar(&spec.Year, "year", spec.Year, "campaign year (2013 or 2018)")
	fs.Uint64Var(&spec.PPS, "pps", spec.PPS, "probe rate override (0 = paper value)")
	mode := fs.String("mode", "synth", "execution mode: synth or sim")
	workers := fs.Int("workers", 0, "campaign worker goroutines, both modes (0 = all cores, 1 = serial; output is identical for every value)")
	capturePath := fs.String("capture", "", "write the R2 capture log to this file (sim mode)")
	ckptDir := fs.String("checkpoint-dir", "", "persist completed shards here and resume from them on rerun")
	jsonPath := fs.String("json", "", "write the full report as JSON to this file")
	csvDir := fs.String("csvdir", "", "write every table as CSV into this directory")
	obsFlags := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	spec.Keep = *capturePath != ""
	cfg, err := spec.Config()
	if err != nil {
		return err
	}
	if *capturePath != "" && *mode != "sim" {
		return errors.New("-capture needs -mode sim (the synthetic engine captures no packets)")
	}
	reg, metricsAddr, stopObs, err := obsFlags.Start("orsurvey", stderr)
	if err != nil {
		return err
	}
	defer stopObs()

	ctx, cancel := sigctx.New("orsurvey", stderr)
	defer cancel()
	cfg.Workers = *workers
	cfg.Obs = reg
	cfg.Ctx = ctx
	cfg.Checkpoints = core.CheckpointPlan{Dir: *ckptDir, Log: stderr}

	var ds *core.Dataset
	switch *mode {
	case "synth":
		ds, err = core.RunSynthetic(cfg)
	case "sim":
		if cfg.SampleShift < 6 {
			cfg.SampleShift = 12
			fmt.Fprintln(stderr, "orsurvey: sim mode defaulted to -shift 12")
		}
		ds, err = core.RunSimulation(cfg)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if errors.Is(err, core.ErrInterrupted) {
		if *ckptDir != "" {
			fmt.Fprintf(stderr, "orsurvey: interrupted; completed shards are checkpointed in %s — rerun the same command to resume\n", *ckptDir)
		} else {
			fmt.Fprintln(stderr, "orsurvey: interrupted; no -checkpoint-dir was set, so a rerun starts from scratch")
		}
		return err
	}
	if err != nil {
		return err
	}

	fmt.Print(ds.Report.RenderAll())
	clusterSize := uint64(paperdata.ClusterSize >> cfg.SampleShift)
	if clusterSize < 16 {
		clusterSize = 16
	}
	theoretical := (ds.Report.Campaign.Q1 + clusterSize - 1) / clusterSize
	fmt.Printf("\nSubdomain clusters used: %d (theoretical without reuse: %d; §III-B)\n",
		ds.ClustersUsed, theoretical)
	if *mode == "sim" {
		fmt.Printf("Subdomains reused: %d\n", ds.SubdomainsReused)
		st := ds.NetStats
		fmt.Printf("Network: sent %d, delivered %d, lost %d, unrouted %d\n",
			st.Sent, st.Delivered, st.Lost, st.NoRoute)
		ps := ds.ProbeStats
		fmt.Printf("Prober: answered %d, retransmits %d, late %d, duplicate %d, gave up %d\n",
			ps.Answered, ps.Retransmits, ps.Late, ps.DupResponses, ps.GaveUp)
		if fst := ds.FaultStats; fst != (netsim.FaultStats{}) {
			fmt.Printf("Faults: dropped %d (loss %d, burst %d, blackhole %d, brownout %d), duplicated %d, corrupted %d, reordered %d\n",
				fst.Dropped, fst.LossDrops, fst.BurstDrops, fst.Blackholed, fst.BrownedOut,
				fst.Duplicated, fst.Corrupted, fst.Reordered)
		}
		if ds.Roles != nil {
			fmt.Println()
			fmt.Print(ds.Roles.Render())
		}
	}

	if *capturePath != "" {
		// os.WriteFile returns the close error too: a capture whose last
		// bytes never reached the disk is a failed write.
		if err := os.WriteFile(*capturePath, ds.R2Packets.AppendFile(nil), 0o644); err != nil {
			return err
		}
		fmt.Printf("R2 capture (%d packets) written to %s\n", ds.R2Packets.Len(), *capturePath)
	}
	if *jsonPath != "" {
		data, err := ds.Report.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("report JSON written to %s\n", *jsonPath)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		for _, table := range analysis.CSVTables {
			f, err := os.Create(filepath.Join(*csvDir, table+".csv"))
			if err != nil {
				return err
			}
			if err := ds.Report.WriteCSV(f, table); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		fmt.Printf("CSV tables written to %s\n", *csvDir)
	}
	if metricsAddr != "" {
		metricsUp(metricsAddr)
	}
	return nil
}
