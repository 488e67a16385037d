package main

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
)

// The CLI contract: every mode prints the identical bytes for the same
// campaign, so `cmp` between a distributed run and the single-process
// reference is the whole acceptance test.

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatalf("orfabric %v: %v", args, err)
	}
	return out.String()
}

func TestWorkersRemoteMatchesLocal(t *testing.T) {
	campaign := []string{"-year", "2018", "-shift", "14", "-seed", "1", "-keep-packets"}
	local := runCLI(t, append([]string{"-local"}, campaign...)...)
	remote := runCLI(t, append([]string{"-workers-remote", "2"}, campaign...)...)
	if local != remote {
		t.Errorf("-workers-remote 2 output differs from -local (len %d vs %d)", len(remote), len(local))
	}
	if !strings.Contains(local, "FaultDigest: ") {
		t.Error("output is missing the FaultDigest line")
	}
}

// TestCoordinatorWithCLIWorker drives the external-worker path end to
// end: one run() acting as coordinator, one run() acting as worker,
// joined only by the TCP address.
func TestCoordinatorWithCLIWorker(t *testing.T) {
	campaign := []string{"-year", "2013", "-shift", "14", "-seed", "1", "-keep-packets"}
	local := runCLI(t, append([]string{"-local"}, campaign...)...)

	addrCh := make(chan string, 1)
	old := coordinatorUp
	coordinatorUp = func(addr string) { addrCh <- addr }
	defer func() { coordinatorUp = old }()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		addr := <-addrCh
		// The worker exits cleanly when the coordinator finishes (DONE or
		// connection close), so errors here are real failures.
		if err := run([]string{"-worker", "-connect", addr, "-name", "cli-w"}, io.Discard, io.Discard); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	var out bytes.Buffer
	if err := run(append([]string{"-coordinator", "-listen", "127.0.0.1:0"}, campaign...), &out, io.Discard); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	wg.Wait()
	if out.String() != local {
		t.Error("coordinator+CLI-worker output differs from -local")
	}
}

func TestModeValidation(t *testing.T) {
	if err := run(nil, io.Discard, io.Discard); err == nil {
		t.Error("no mode selected should error")
	}
	if err := run([]string{"-local", "-worker"}, io.Discard, io.Discard); err == nil {
		t.Error("two modes selected should error")
	}
	if err := run([]string{"-worker"}, io.Discard, io.Discard); err == nil {
		t.Error("-worker without -connect should error")
	}
	if err := run([]string{"-local", "-shift", "276"}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "0 to 255") {
		t.Errorf("-shift 276: got %v, want an out-of-range error", err)
	}
}
