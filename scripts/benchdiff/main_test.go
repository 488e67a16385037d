package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeJSON(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseDoc = `{
  "go_version": "go1.24.0",
  "benchmarks": [
    {"name": "BenchmarkA", "procs": 1, "iterations": 10, "metrics": {"ns/op": 1000, "allocs/op": 5}},
    {"name": "BenchmarkA", "procs": 1, "iterations": 10, "metrics": {"ns/op": 1100, "allocs/op": 5}},
    {"name": "BenchmarkB", "procs": 1, "iterations": 10, "metrics": {"ns/op": 2000, "allocs/op": 0}},
    {"name": "BenchmarkOld", "procs": 1, "iterations": 10, "metrics": {"ns/op": 50}}
  ]
}`

// pairDoc exercises the BENCH_PR2.json before/after shape: the gate
// compares against the "after" side only.
const pairDocText = `{
  "before": {"benchmarks": [{"name": "BenchmarkC", "metrics": {"ns/op": 9000, "allocs/op": 90}}]},
  "after":  {"benchmarks": [{"name": "BenchmarkC", "metrics": {"ns/op": 3000, "allocs/op": 2}}]}
}`

// fresh renders a fresh document with tunable A/B/C results plus one
// benchmark the baselines have never seen.
func fresh(aNs, aAllocs, bNs, cNs float64) string {
	return fmt.Sprintf(`{"benchmarks": [
  {"name": "BenchmarkA", "metrics": {"ns/op": %g, "allocs/op": %g}},
  {"name": "BenchmarkB", "metrics": {"ns/op": %g, "allocs/op": 0}},
  {"name": "BenchmarkC", "metrics": {"ns/op": %g, "allocs/op": 2}},
  {"name": "BenchmarkNew", "metrics": {"ns/op": 7}}
]}`, aNs, aAllocs, bNs, cNs)
}

func runDiff(t *testing.T, freshText string, extra ...string) (string, error) {
	t.Helper()
	dir := t.TempDir()
	freshPath := writeJSON(t, dir, "fresh.json", freshText)
	base1 := writeJSON(t, dir, "base1.json", baseDoc)
	base2 := writeJSON(t, dir, "base2.json", pairDocText)
	var out, errb bytes.Buffer
	args := append([]string{"-fresh", freshPath}, extra...)
	args = append(args, base1, base2)
	err := run(args, &out, &errb)
	return out.String(), err
}

func TestBenchdiffPass(t *testing.T) {
	// Within 25% on ns/op (baseline A collapses to min 1000), equal allocs.
	out, err := runDiff(t, fresh(1200, 5, 2100, 3100))
	if err != nil {
		t.Fatalf("expected pass, got %v\n%s", err, out)
	}
	for _, want := range []string{
		"BenchmarkA", "BenchmarkB", "BenchmarkC",
		"not in fresh run (skipped)", // BenchmarkOld
		"no baseline (skipped)",      // BenchmarkNew
		"within limits",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestBenchdiffNsRegression(t *testing.T) {
	// A at 1300 vs min-baseline 1000 = +30% > 25%.
	out, err := runDiff(t, fresh(1300, 5, 2000, 3000))
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("expected ns/op regression failure, got %v\n%s", err, out)
	}
	if !strings.Contains(out, "FAIL ns/op") {
		t.Errorf("output missing ns/op verdict:\n%s", out)
	}
}

func TestBenchdiffAllocRegression(t *testing.T) {
	// Any allocs/op increase fails, even with ns/op well within bounds.
	out, err := runDiff(t, fresh(900, 6, 2000, 3000))
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("expected allocs/op failure, got %v\n%s", err, out)
	}
	if !strings.Contains(out, "FAIL allocs/op 5 -> 6") {
		t.Errorf("output missing allocs verdict:\n%s", out)
	}
}

func TestBenchdiffAllocRatioFlag(t *testing.T) {
	// A's baseline collapses to 5 allocs; 6 is +20%, beyond the 10% slack,
	// so it still fails — but B (zero-alloc baseline) must fail on ANY
	// growth no matter how generous the ratio.
	if out, err := runDiff(t, fresh(1000, 6, 2000, 3000), "-alloc-ratio", "1.1"); err == nil {
		t.Fatalf("expected A's +20%% allocs to fail at -alloc-ratio 1.1\n%s", out)
	}
	if out, err := runDiff(t, fresh(1000, 5.5, 2000, 3000), "-alloc-ratio", "1.1"); err != nil {
		t.Fatalf("expected A's +10%% allocs to pass at -alloc-ratio 1.1, got %v\n%s", err, out)
	}
	zeroGrew := `{"benchmarks": [
  {"name": "BenchmarkA", "metrics": {"ns/op": 1000, "allocs/op": 5}},
  {"name": "BenchmarkB", "metrics": {"ns/op": 2000, "allocs/op": 1}},
  {"name": "BenchmarkC", "metrics": {"ns/op": 3000, "allocs/op": 2}}
]}`
	out, err := runDiff(t, zeroGrew, "-alloc-ratio", "100")
	if err == nil || !strings.Contains(err.Error(), "BenchmarkB") {
		t.Fatalf("zero-alloc baseline must stay strict under any ratio, got %v\n%s", err, out)
	}
}

func TestBenchdiffMaxRatioFlag(t *testing.T) {
	// +30% passes when the gate is loosened to 1.5.
	if out, err := runDiff(t, fresh(1300, 5, 2000, 3000), "-max-ratio", "1.5"); err != nil {
		t.Fatalf("expected pass at -max-ratio 1.5, got %v\n%s", err, out)
	}
}

func TestBenchdiffPairBaseline(t *testing.T) {
	// BenchmarkC's baseline is the pair's "after" (3000 ns, 2 allocs):
	// 4000 ns is +33% and must fail against it, not against "before".
	out, err := runDiff(t, fresh(1000, 5, 2000, 4000))
	if err == nil || !strings.Contains(err.Error(), "BenchmarkC") {
		t.Fatalf("expected BenchmarkC regression vs the after side, got %v\n%s", err, out)
	}
}

func TestOrderBaselines(t *testing.T) {
	got, err := orderBaselines([]string{
		"ci/BENCH_PR2.json", "extra.json", "BENCH_PR10.json", "BENCH_PR9.json",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "extra.json ci/BENCH_PR2.json BENCH_PR9.json BENCH_PR10.json" // pass-through first, then by n
	if strings.Join(got, " ") != want {
		t.Errorf("orderBaselines = %v, want %q", got, want)
	}
	got, err = orderBaselines([]string{"extra.json"})
	if err != nil || got != nil {
		t.Errorf("orderBaselines with no BENCH_PR file: got %v, %v; want nil, nil", got, err)
	}
}

// TestBenchdiffNewestPerName pins per-name resolution: a benchmark that
// only an older ledger file records is still gated by it, while a
// benchmark both files record is gated by the newer one.
func TestBenchdiffNewestPerName(t *testing.T) {
	dir := t.TempDir()
	pr1 := writeJSON(t, dir, "BENCH_PR1.json", `{"benchmarks": [
  {"name": "BenchmarkA", "metrics": {"ns/op": 10, "allocs/op": 5}},
  {"name": "BenchmarkOld", "metrics": {"ns/op": 100, "allocs/op": 1}}]}`)
	pr2 := writeJSON(t, dir, "BENCH_PR2.json",
		`{"benchmarks": [{"name": "BenchmarkA", "metrics": {"ns/op": 1000, "allocs/op": 5}}]}`)
	run1 := func(oldNs float64) (string, error) {
		freshPath := writeJSON(t, dir, "fresh.json", fmt.Sprintf(`{"benchmarks": [
  {"name": "BenchmarkA", "metrics": {"ns/op": 1000, "allocs/op": 5}},
  {"name": "BenchmarkOld", "metrics": {"ns/op": %g, "allocs/op": 1}}]}`, oldNs))
		var out, errb bytes.Buffer
		err := run([]string{"-fresh", freshPath, "-newest", pr2, pr1}, &out, &errb)
		return out.String(), err
	}
	out, err := run1(100)
	if err != nil {
		t.Fatalf("both benchmarks within their newest baselines, got %v\n%s", err, out)
	}
	if !strings.Contains(out, "2 benchmarks within limits") {
		t.Errorf("BenchmarkOld was not gated by the older file:\n%s", out)
	}
	if out, err := run1(1000); err == nil || !strings.Contains(err.Error(), "BenchmarkOld") {
		t.Fatalf("a 10x regression of a benchmark only PR1 records must fail, got %v\n%s", err, out)
	}
}

// TestLedgerCoversBenchdiffSet resolves the checked-in ledger the way
// `make benchdiff` does and requires a baseline for every benchmark that
// target runs, so none of them is silently compared to nothing.
func TestLedgerCoversBenchdiffSet(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_PR*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if paths, err = orderBaselines(paths); err != nil || paths == nil {
		t.Fatalf("no checked-in ledger: %v", err)
	}
	base, _, err := mergeBaselines(paths)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"BenchmarkCampaignSyntheticSerial", "BenchmarkCampaignSyntheticParallel",
		"BenchmarkCampaignSimulated2013", "BenchmarkCampaignSimulated2018",
		"BenchmarkCampaignSimulatedSerial2013", "BenchmarkCampaignSimulatedSerial2018",
		"BenchmarkTimerEnqueueDequeue", "BenchmarkHostLookup", "BenchmarkStepDrain",
		"BenchmarkShardEnvelope",
		"BenchmarkSynthProbe/truth", "BenchmarkSynthProbe/no-answer", "BenchmarkSynthProbe/fixed",
		"BenchmarkSynthProbe/empty-question", "BenchmarkSynthProbe/cname", "BenchmarkSynthProbe/txt",
		"BenchmarkSynthProbe/malformed",
	} {
		if base[name].metrics["ns/op"] <= 0 {
			t.Errorf("%s has no ns/op baseline in the ledger", name)
		}
	}
}

func TestBenchdiffNewestFlag(t *testing.T) {
	// PR1 baselines BenchmarkA at 10 ns; PR2 re-baselines it at 1000 ns.
	// With -newest only PR2 applies, so a 1000 ns fresh run passes; without
	// it the merge order (PR2 listed before PR1) leaves PR1 winning, a 100×
	// regression.
	dir := t.TempDir()
	freshPath := writeJSON(t, dir, "fresh.json",
		`{"benchmarks": [{"name": "BenchmarkA", "metrics": {"ns/op": 1000, "allocs/op": 5}}]}`)
	pr1 := writeJSON(t, dir, "BENCH_PR1.json",
		`{"benchmarks": [{"name": "BenchmarkA", "metrics": {"ns/op": 10, "allocs/op": 5}}]}`)
	pr2 := writeJSON(t, dir, "BENCH_PR2.json",
		`{"benchmarks": [{"name": "BenchmarkA", "metrics": {"ns/op": 1000, "allocs/op": 5}}]}`)

	var out, errb bytes.Buffer
	if err := run([]string{"-fresh", freshPath, "-newest", pr2, pr1}, &out, &errb); err != nil {
		t.Fatalf("-newest run failed: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := run([]string{"-fresh", freshPath, pr2, pr1}, &out, &errb); err == nil {
		t.Fatalf("without -newest the stale PR1 baseline should fail the gate\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-fresh", freshPath, "-newest", freshPath}, &out, &errb); err != nil {
		t.Errorf("-newest with no matching baseline must be advisory, got error %v", err)
	}
	if !strings.Contains(out.String(), "no BENCH_PR") || !strings.Contains(out.String(), "skipping") {
		t.Errorf("-newest with no matching baseline: want a loud skip notice, got %q", out.String())
	}
}

// TestBenchdiffNewestNoBaselineAdvisory pins the first-PR contract: the glob
// BENCH_PR*.json expands to nothing (the shell passes the literal pattern
// through), and benchdiff must announce the skip and exit 0 rather than fail
// CI before any baseline exists.
func TestBenchdiffNewestNoBaselineAdvisory(t *testing.T) {
	dir := t.TempDir()
	freshPath := writeJSON(t, dir, "fresh.json",
		`{"benchmarks": [{"name": "BenchmarkA", "metrics": {"ns/op": 1000, "allocs/op": 5}}]}`)
	var out, errb bytes.Buffer
	if err := run([]string{"-fresh", freshPath, "-newest", "BENCH_PR*.json"}, &out, &errb); err != nil {
		t.Fatalf("unexpanded glob with -newest: want advisory nil error, got %v", err)
	}
	if !strings.Contains(out.String(), "no BENCH_PR<n>.json baseline found") {
		t.Errorf("skip notice missing: %q", out.String())
	}
}

func TestBenchdiffErrors(t *testing.T) {
	dir := t.TempDir()
	freshPath := writeJSON(t, dir, "fresh.json", fresh(1000, 5, 2000, 3000))
	basePath := writeJSON(t, dir, "base.json", baseDoc)
	disjoint := writeJSON(t, dir, "disjoint.json", `{"benchmarks": [{"name": "BenchmarkZ", "metrics": {"ns/op": 1}}]}`)
	bad := writeJSON(t, dir, "bad.json", "{not json")

	var out, errb bytes.Buffer
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no fresh", []string{basePath}, "-fresh is required"},
		{"no baselines", []string{"-fresh", freshPath}, "no baseline files"},
		{"bad json", []string{"-fresh", freshPath, bad}, "bad.json"},
		{"no common names", []string{"-fresh", disjoint, basePath}, "in common"},
		{"missing file", []string{"-fresh", freshPath, filepath.Join(dir, "gone.json")}, "gone.json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, &out, &errb)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) err = %v, want containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestBenchdiffMarksOtherHost: the report names the host of the fresh run
// and of every baseline file, and marks the rows gated by a baseline from
// another host — without changing which rows fail or the exit status.
func TestBenchdiffMarksOtherHost(t *testing.T) {
	dir := t.TempDir()
	hostDoc := func(cpu string, procs int, body string) string {
		return fmt.Sprintf(`{"go_version": "go1.24.0", "gomaxprocs": %d, "num_cpu": %d,
  "env": {"cpu": %q}, "benchmarks": [%s]}`, procs, procs, cpu, body)
	}
	same := writeJSON(t, dir, "BENCH_PR1.json", hostDoc("Xeon", 2,
		`{"name": "BenchmarkSame", "metrics": {"ns/op": 100, "allocs/op": 1}}`))
	other := writeJSON(t, dir, "BENCH_PR2.json", hostDoc("Xeon", 1,
		`{"name": "BenchmarkOther", "metrics": {"ns/op": 100, "allocs/op": 1}}`))
	diff := func(otherNs float64) (string, error) {
		freshPath := writeJSON(t, dir, "fresh.json", hostDoc("Xeon", 2, fmt.Sprintf(`
  {"name": "BenchmarkSame", "metrics": {"ns/op": 100, "allocs/op": 1}},
  {"name": "BenchmarkOther", "metrics": {"ns/op": %g, "allocs/op": 1}}`, otherNs)))
		var out, errb bytes.Buffer
		err := run([]string{"-fresh", freshPath, "-newest", same, other}, &out, &errb)
		return out.String(), err
	}
	out, err := diff(110)
	if err != nil {
		t.Fatalf("both rows within limits, got %v\n%s", err, out)
	}
	for _, want := range []string{
		`fresh run host: cpu="Xeon" gomaxprocs=2 num_cpu=2 go=go1.24.0`,
		`BENCH_PR1.json host: cpu="Xeon" gomaxprocs=2 num_cpu=2 go=go1.24.0` + "\n",
		`BENCH_PR2.json host: cpu="Xeon" gomaxprocs=1 num_cpu=1 go=go1.24.0  (different host)`,
		"ok [other host: BENCH_PR2.json]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "BenchmarkSame") && strings.Contains(line, "other host") {
			t.Errorf("same-host row marked: %q", line)
		}
	}
	if out, err := diff(1000); err == nil || !strings.Contains(err.Error(), "BenchmarkOther") {
		t.Fatalf("a 10x regression against another host's baseline must still fail, got %v\n%s", err, out)
	}
}
