// Command perfbench is the repository's campaign benchmark: one process per
// run drives one workload through the public Go entry points of the
// population, core, serve and fabric layers, checks every campaign's digest,
// and prints its metrics as a final JSON line. README.md in this directory
// lists the workloads and metrics; run.py builds and launches it.
//
// Usage:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//	perfbench --record-digests FILE
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "campaign seed")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "where the traced run writes its spans")
	stateDir := fs.String("state-dir", ".bench_build/state", "where the fleet workload keeps its service state")
	record := fs.String("record-digests", "", "write the recorded-digest table to this file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *record != "" {
		return recordDigests(*record, *stateDir, stderr)
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}

	fp := fingerprint()
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host %s\n", fpJSON)

	b := &bench{
		w:         w,
		seed:      *seed,
		budget:    time.Duration(*seconds * float64(time.Second)),
		traced:    *trace == 1,
		recorded:  recordedDigests,
		stateRoot: *stateDir,
		log:       stderr,
	}
	res, err := b.run()
	if err != nil {
		return err
	}
	if b.traced {
		if err := b.spans.write(*traceDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed)); err != nil {
			return err
		}
	}
	for _, n := range b.noisy {
		fmt.Fprintf(stdout, "noisy run: %s\n", n)
	}
	printTable(stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// printTable prints every metric by name with its unit, ahead of the JSON.
func printTable(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
}
