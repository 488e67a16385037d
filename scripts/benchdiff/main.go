// Command benchdiff gates benchmark regressions: it compares a fresh
// bench2json document against one or more checked-in baselines
// (BENCH_PR1.json, BENCH_PR2.json, ...) and exits nonzero when any common
// benchmark got more than -max-ratio slower in ns/op, or grew its
// allocs/op beyond -alloc-ratio (default 1.0: any growth at all) — the
// repo's hot paths are allocation-free by design, so for them any
// allocs/op increase is a regression, not noise, and no positive
// -alloc-ratio ever relaxes a zero-alloc baseline.
//
// Usage:
//
//	make bench BENCH_OUT=bench_fresh.json
//	go run ./scripts/benchdiff -fresh bench_fresh.json BENCH_PR1.json BENCH_PR2.json
//	go run ./scripts/benchdiff -fresh bench_fresh.json -newest BENCH_PR*.json
//
// With -newest, the BENCH_PR<n>.json arguments are ordered by n, so each
// benchmark is compared against the newest file that contains it
// (non-matching arguments pass through, ahead of them). The makefile can
// then glob the checked-in baselines: a PR that records only the
// benchmarks it touched leaves every other benchmark gated by an older
// file.
//
// Baselines may be plain bench2json documents or the {"before","after"}
// pair BENCH_PR2.json records; the "after" side is the baseline. Repeated
// runs of one benchmark collapse to their per-metric minimum (the least
// noisy sample) before comparison. Benchmarks present on only one side are
// reported but never fail the gate, so baselines from different PRs can
// cover different suites.
//
// The report opens with the host each side was recorded on — cpu,
// GOMAXPROCS, NumCPU and Go version, as bench2json records them — and
// marks every row whose baseline comes from a different host than the
// fresh run: such a ratio compares machines as much as code. The marking
// is informational; it changes neither the thresholds nor the exit status.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

type benchmark struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

type document struct {
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	Env        map[string]string `json:"env"`
	Benchmarks []benchmark       `json:"benchmarks"`
}

// host is the machine fingerprint bench2json records with a run.
type host struct {
	cpu        string
	gomaxprocs int
	numCPU     int
	goVersion  string
}

func (d *document) host() host {
	return host{cpu: d.Env["cpu"], gomaxprocs: d.GOMAXPROCS, numCPU: d.NumCPU, goVersion: d.GoVersion}
}

func (h host) String() string {
	field := func(v string) string {
		if v == "" {
			return "?"
		}
		return v
	}
	num := func(n int) string {
		if n == 0 {
			return "?"
		}
		return strconv.Itoa(n)
	}
	return fmt.Sprintf("cpu=%q gomaxprocs=%s num_cpu=%s go=%s", field(h.cpu), num(h.gomaxprocs), num(h.numCPU), field(h.goVersion))
}

// pairDoc is the BENCH_PR2.json shape: one optimization's before/after.
type pairDoc struct {
	Before *document `json:"before"`
	After  *document `json:"after"`
}

// loadDoc reads a bench2json document, accepting both the plain shape and
// the before/after pair (the "after" side is the committed baseline).
func loadDoc(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var pair pairDoc
	if err := json.Unmarshal(data, &pair); err == nil && pair.After != nil {
		return pair.After, nil
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Benchmarks == nil {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &doc, nil
}

// mins collapses repeated runs of each benchmark to the per-metric minimum.
func mins(doc *document) map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	for _, b := range doc.Benchmarks {
		m := out[b.Name]
		if m == nil {
			m = make(map[string]float64)
			out[b.Name] = m
		}
		for metric, v := range b.Metrics {
			if cur, ok := m[metric]; !ok || v < cur {
				m[metric] = v
			}
		}
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	freshPath := fs.String("fresh", "", "fresh bench2json document to gate (required)")
	maxRatio := fs.Float64("max-ratio", 1.25, "fail when fresh ns/op exceeds baseline × this ratio")
	allocRatio := fs.Float64("alloc-ratio", 1.0, "fail when fresh allocs/op exceeds baseline × this ratio (1.0 = any growth fails; a zero-alloc baseline always fails on growth)")
	newest := fs.Bool("newest", false, "order the BENCH_PR<n>.json baselines by n, so each benchmark is gated by the newest file that contains it")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *freshPath == "" {
		return errors.New("-fresh is required")
	}
	baselines := fs.Args()
	if *newest {
		var err error
		if baselines, err = orderBaselines(baselines); err != nil {
			return err
		}
		if baselines == nil {
			// A repo with no checked-in BENCH_PR<n>.json yet (first PR, or a
			// fresh clone before any baseline lands) has nothing to gate
			// against; that is advisory, not an error — CI must stay green.
			fmt.Fprintln(stdout, "benchdiff: -newest: no BENCH_PR<n>.json baseline found; skipping the bench gate (advisory until a baseline is checked in)")
			return nil
		}
	}
	return gate(*freshPath, *maxRatio, *allocRatio, baselines, stdout)
}

// benchPRPattern matches checked-in per-PR baselines (BENCH_PR3.json).
var benchPRPattern = regexp.MustCompile(`^BENCH_PR(\d+)\.json$`)

// orderBaselines orders the baseline list for -newest: arguments whose
// basename matches BENCH_PR<n>.json are sorted by n, ascending, after the
// arguments that don't match (which pass through in their given order).
// Since the merge lets the last file win on a name collision, every
// benchmark then resolves to the newest file that contains it. When no
// argument matches it returns a nil slice — the caller announces the skip
// loudly and treats the gate as advisory, because an unexpanded glob (a
// repo with no baseline checked in yet) must not fail CI.
func orderBaselines(paths []string) ([]string, error) {
	type numbered struct {
		n    int
		path string
	}
	var prs []numbered
	var rest []string
	for _, p := range paths {
		m := benchPRPattern.FindStringSubmatch(filepath.Base(p))
		if m == nil {
			rest = append(rest, p)
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		prs = append(prs, numbered{n, p})
	}
	if len(prs) == 0 {
		return nil, nil
	}
	sort.SliceStable(prs, func(i, j int) bool { return prs[i].n < prs[j].n })
	for _, pr := range prs {
		rest = append(rest, pr.path)
	}
	return rest, nil
}

// baseline is one benchmark's merged baseline: its per-metric minima and
// the file (and so the host) they come from.
type baseline struct {
	metrics map[string]float64
	file    string
}

// mergeBaselines loads every baseline and collapses it to per-metric
// minima; on a name collision the file listed last wins, so the newest
// baseline of each benchmark survives. hosts maps each file to the host
// it was recorded on.
func mergeBaselines(paths []string) (base map[string]baseline, hosts map[string]host, err error) {
	base = make(map[string]baseline)
	hosts = make(map[string]host)
	for _, path := range paths {
		doc, err := loadDoc(path)
		if err != nil {
			return nil, nil, err
		}
		hosts[path] = doc.host()
		for name, m := range mins(doc) {
			base[name] = baseline{metrics: m, file: path}
		}
	}
	return base, hosts, nil
}

// gate runs the comparison of fresh against the merged baselines.
func gate(freshPath string, maxRatio, allocRatio float64, baselinePaths []string, stdout io.Writer) error {
	if len(baselinePaths) == 0 {
		return errors.New("no baseline files given")
	}

	freshDoc, err := loadDoc(freshPath)
	if err != nil {
		return err
	}
	fresh := mins(freshDoc)
	freshHost := freshDoc.host()

	base, hosts, err := mergeBaselines(baselinePaths)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fresh run host: %v\n", freshHost)
	for _, path := range baselinePaths {
		note := ""
		if hosts[path] != freshHost {
			note = "  (different host)"
		}
		fmt.Fprintf(stdout, "baseline %s host: %v%s\n", path, hosts[path], note)
	}
	fmt.Fprintln(stdout)

	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	compared := 0
	fmt.Fprintf(stdout, "%-40s %14s %14s %7s %s\n", "benchmark", "base ns/op", "fresh ns/op", "ratio", "verdict")
	for _, name := range names {
		b := base[name].metrics
		f, ok := fresh[name]
		if !ok {
			fmt.Fprintf(stdout, "%-40s %14.0f %14s %7s %s\n", name, b["ns/op"], "-", "-", "not in fresh run (skipped)")
			continue
		}
		compared++
		bNs, fNs := b["ns/op"], f["ns/op"]
		ratio := 0.0
		if bNs > 0 {
			ratio = fNs / bNs
		}
		verdict := "ok"
		if bNs > 0 && ratio > maxRatio {
			verdict = fmt.Sprintf("FAIL ns/op +%.0f%% (limit +%.0f%%)", 100*(ratio-1), 100*(maxRatio-1))
			failures = append(failures, name+": "+verdict)
		}
		if bA, ok := b["allocs/op"]; ok {
			// The tolerance is relative, so a zero-alloc baseline stays
			// strict: the hot paths pinned at 0 allocs fail on any growth,
			// while campaign-scale counts absorb ±1–2 of per-iteration
			// rounding jitter against the min-collapsed baseline.
			if fA, ok := f["allocs/op"]; ok && fA > bA*allocRatio {
				av := fmt.Sprintf("FAIL allocs/op %.0f -> %.0f", bA, fA)
				if verdict == "ok" {
					verdict = av
				} else {
					verdict += "; " + av
				}
				failures = append(failures, name+": "+av)
			}
		}
		if file := base[name].file; hosts[file] != freshHost {
			verdict += " [other host: " + filepath.Base(file) + "]"
		}
		fmt.Fprintf(stdout, "%-40s %14.0f %14.0f %6.2fx %s\n", name, bNs, fNs, ratio, verdict)
	}
	var freshOnly []string
	for name := range fresh {
		if _, ok := base[name]; !ok {
			freshOnly = append(freshOnly, name)
		}
	}
	sort.Strings(freshOnly)
	for _, name := range freshOnly {
		fmt.Fprintf(stdout, "%-40s %14s %14.0f %7s %s\n", name, "-", fresh[name]["ns/op"], "-", "no baseline (skipped)")
	}
	if compared == 0 {
		return errors.New("no benchmark names in common between fresh run and baselines")
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark regression(s):\n  %s", len(failures), joinLines(failures))
	}
	fmt.Fprintf(stdout, "\nbenchdiff: %d benchmarks within limits (max ns/op ratio %.2f, no alloc growth)\n", compared, maxRatio)
	return nil
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}
