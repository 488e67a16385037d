package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"

	"openresolver/internal/obs"
)

// hostFingerprint identifies the machine a result came from. Results with
// different fingerprints are compared as advisory only (run.py compare).
type hostFingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOGC       string `json:"gogc"`
}

func fingerprint() hostFingerprint {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return hostFingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		GOGC:       gogc,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMiB is the process's high-water resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample is the slice of runtime/metrics the per-layer runtime
// metrics are differences of.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeQuery = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleRuntime() runtimeSample {
	metrics.Read(runtimeQuery)
	return runtimeSample{
		allocBytes: runtimeQuery[0].Value.Uint64(),
		gcCycles:   runtimeQuery[1].Value.Uint64(),
		gcCPU:      runtimeQuery[2].Value.Float64(),
		totalCPU:   runtimeQuery[3].Value.Float64(),
	}
}

// histQuantile estimates quantile q of an obs histogram, interpolating
// linearly inside the log2 bucket that holds it.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var seen float64
	for _, b := range h.Buckets {
		n := float64(b.Count)
		if seen+n >= target {
			lo, hi := float64(b.Lo), float64(b.Hi)
			v := lo + (hi-lo)*(target-seen)/n
			return min(max(v, float64(h.Min)), float64(h.Max))
		}
		seen += n
	}
	return float64(h.Max)
}

// quantile returns the nearest-rank q-quantile of xs, 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median returns the middle of xs (the mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
