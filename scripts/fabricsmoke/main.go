// Command fabricsmoke is the CI smoke harness for the distributed fabric:
// the multi-process twin of "make smoke". It builds orfabric, then for
// every cell of the smoke grid (2018/2013 × pristine/20% loss at the
// golden scale) runs the campaign twice — once single-process (-local)
// and once as a real coordinator process with three worker processes on
// localhost — and byte-compares the two outputs. The loss-free 2018 cell
// must additionally reproduce the pinned smoke baseline digest, proving
// the fabric is byte-compatible with orsweep/orserved campaigns. Finally
// it SIGKILLs a worker mid-campaign and asserts the requeued shard still
// converges to the identical output.
//
// Every process's stderr lands in -logdir (coordinator-*.log,
// worker-*.log) so CI can upload the logs as artifacts on failure.
//
// Usage:
//
//	go run ./scripts/fabricsmoke [-baseline HEX] [-logdir DIR] [-timeout DUR]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

const defaultBaseline = "d19bd873ab802eecb15921fb73145c7ca0ae4b5eed4d5b6aa670791ad1557d47"

type cell struct {
	year  string
	loss  string
	shift string
}

func (c cell) slug() string {
	loss := strings.NewReplacer(":", "_", ";", "_", ",", "_", ".", "p").Replace(c.loss)
	return c.year + "-" + loss + "-s" + c.shift
}

// campaignArgs mirrors the sweep smoke cells: packets kept for the
// full-width digest and the event queue bounded at the sweep default.
func (c cell) campaignArgs() []string {
	args := []string{
		"-year", c.year, "-shift", c.shift, "-seed", "1",
		"-keep-packets", "-max-events", "2097152",
	}
	if c.loss != "none" {
		args = append(args, "-loss-model", c.loss)
	}
	return args
}

var (
	bin     string
	logdir  string
	timeout time.Duration
)

func main() {
	baseline := flag.String("baseline", defaultBaseline,
		"pinned FaultDigest of the loss-free 2018 smoke cell (empty = skip the pin)")
	flag.StringVar(&logdir, "logdir", "", "coordinator/worker log directory (empty = a fresh temporary directory)")
	flag.DurationVar(&timeout, "timeout", 10*time.Minute, "per-campaign deadline")
	flag.Parse()
	if err := run(*baseline); err != nil {
		fmt.Fprintln(os.Stderr, "fabricsmoke: FAIL:", err)
		fmt.Fprintln(os.Stderr, "fabricsmoke: process logs in", logdir)
		os.Exit(1)
	}
	fmt.Println("fabricsmoke: ok — 4-cell grid byte-identical across 3 workers, baseline pinned, worker-kill requeue converged")
}

func run(baseline string) error {
	if logdir == "" {
		dir, err := os.MkdirTemp("", "fabricsmoke-")
		if err != nil {
			return err
		}
		logdir = dir
	} else if err := os.MkdirAll(logdir, 0o755); err != nil {
		return err
	}
	builddir, err := os.MkdirTemp("", "fabricsmoke-bin-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(builddir)
	bin = filepath.Join(builddir, "orfabric")
	build := exec.Command("go", "build", "-o", bin, "./cmd/orfabric")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building orfabric: %w", err)
	}

	grid := []cell{
		{"2018", "none", "14"},
		{"2018", "loss:0.2", "14"},
		{"2013", "none", "14"},
		{"2013", "loss:0.2", "14"},
	}
	for _, c := range grid {
		local, err := runLocal(c)
		if err != nil {
			return err
		}
		digest, err := extractDigest(local)
		if err != nil {
			return fmt.Errorf("cell %s: %w", c.slug(), err)
		}
		if c.year == "2018" && c.loss == "none" && baseline != "" && digest != baseline {
			return fmt.Errorf("cell %s: local digest %s does not match the pinned smoke baseline %s", c.slug(), digest, baseline)
		}
		dist, err := runDistributed(c, 3, false)
		if err != nil {
			return err
		}
		if dist != local {
			return fmt.Errorf("cell %s: distributed output differs from -local (%d vs %d bytes)", c.slug(), len(dist), len(local))
		}
		fmt.Printf("fabricsmoke: cell %s ok (digest %.12s, 3 workers byte-identical)\n", c.slug(), digest)
	}

	// Worker-kill convergence: a deeper cell (shift 12, 4× the work) so
	// the SIGKILL reliably lands mid-campaign, then two fresh workers
	// finish the requeued shard. Retried because the kill can, rarely,
	// land in the sliver between two leases.
	kc := cell{"2018", "none", "12"}
	local, err := runLocal(kc)
	if err != nil {
		return err
	}
	for attempt := 1; ; attempt++ {
		dist, err := runDistributed(kc, 2, true)
		if err != nil {
			return err
		}
		if dist != local {
			return fmt.Errorf("kill cell %s: output diverged after worker SIGKILL + requeue", kc.slug())
		}
		log, err := os.ReadFile(coordLog(kc))
		if err != nil {
			return err
		}
		if strings.Contains(string(log), "requeued") {
			fmt.Printf("fabricsmoke: kill cell %s ok (worker SIGKILLed, shard requeued, digest converged; attempt %d)\n", kc.slug(), attempt)
			return nil
		}
		if attempt >= 3 {
			return fmt.Errorf("kill cell %s: no requeue observed in %d attempts (kill kept missing the lease window?)", kc.slug(), attempt)
		}
		fmt.Printf("fabricsmoke: kill cell attempt %d landed between leases; retrying\n", attempt)
	}
}

func runLocal(c cell) (string, error) {
	logf, err := os.Create(filepath.Join(logdir, "local-"+c.slug()+".log"))
	if err != nil {
		return "", err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-local"}, c.campaignArgs()...)...)
	cmd.Stderr = logf
	out, err := output(cmd, "local "+c.slug())
	if err != nil {
		return "", err
	}
	return out, nil
}

func coordLog(c cell) string { return filepath.Join(logdir, "coordinator-"+c.slug()+".log") }

// runDistributed boots one coordinator process and n worker processes on
// loopback, optionally SIGKILLing the first worker mid-campaign (kill
// mode starts one worker, kills it, then starts n fresh ones to finish).
func runDistributed(c cell, n int, kill bool) (string, error) {
	coordLogF, err := os.Create(coordLog(c))
	if err != nil {
		return "", err
	}
	defer coordLogF.Close()
	addrFile := filepath.Join(logdir, "addr-"+c.slug())
	os.Remove(addrFile)

	args := append([]string{"-coordinator", "-listen", "127.0.0.1:0", "-addr-file", addrFile}, c.campaignArgs()...)
	coord := exec.Command(bin, args...)
	coord.Stderr = coordLogF
	outc := make(chan string, 1)
	errc := make(chan error, 1)
	stdout, err := coord.StdoutPipe()
	if err != nil {
		return "", err
	}
	if err := coord.Start(); err != nil {
		return "", err
	}
	defer coord.Process.Kill()
	go func() {
		data, cpErr := io.ReadAll(stdout)
		wErr := coord.Wait()
		if wErr != nil {
			errc <- fmt.Errorf("coordinator for %s exited: %w", c.slug(), wErr)
			return
		}
		if cpErr != nil {
			errc <- cpErr
			return
		}
		outc <- string(data)
	}()

	// Wait for the coordinator's bound address, watching for early death.
	deadline := time.Now().Add(timeout)
	var addr string
	for addr == "" {
		select {
		case err := <-errc:
			return "", fmt.Errorf("coordinator died before listening: %w", err)
		case <-time.After(20 * time.Millisecond):
		}
		if data, rerr := os.ReadFile(addrFile); rerr == nil && len(data) > 0 {
			addr = strings.TrimSpace(string(data))
		}
		if addr == "" && time.Now().After(deadline) {
			return "", fmt.Errorf("coordinator for %s never wrote %s", c.slug(), addrFile)
		}
	}

	var workers []*exec.Cmd
	startWorker := func(label string) error {
		logf, err := os.Create(filepath.Join(logdir, "worker-"+c.slug()+"-"+label+".log"))
		if err != nil {
			return err
		}
		w := exec.Command(bin, "-worker", "-connect", addr, "-name", label)
		w.Stderr = logf
		if err := w.Start(); err != nil {
			logf.Close()
			return err
		}
		go func() { w.Wait(); logf.Close() }()
		workers = append(workers, w)
		return nil
	}
	defer func() {
		for _, w := range workers {
			w.Process.Kill()
		}
	}()

	if kill {
		// One victim first: with the whole campaign pending it holds a
		// lease almost immediately — SIGKILL it mid-shard. The kill waits
		// for the victim to log its first shard rather than for a fixed
		// time: a fast host runs the whole campaign inside any fixed delay.
		if err := startWorker("victim"); err != nil {
			return "", err
		}
		victimLog := filepath.Join(logdir, "worker-"+c.slug()+"-victim.log")
		for {
			if data, _ := os.ReadFile(victimLog); strings.Contains(string(data), "running shard") {
				break
			}
			if time.Now().After(deadline) {
				return "", fmt.Errorf("kill cell %s: victim worker never started a shard", c.slug())
			}
			time.Sleep(time.Millisecond)
		}
		if err := workers[0].Process.Signal(syscall.SIGKILL); err != nil {
			return "", fmt.Errorf("SIGKILL victim worker: %w", err)
		}
		fmt.Printf("fabricsmoke: kill cell %s: victim worker SIGKILLed\n", c.slug())
	}
	for i := 0; i < n; i++ {
		if err := startWorker(fmt.Sprintf("w%d", i)); err != nil {
			return "", err
		}
	}

	select {
	case out := <-outc:
		return out, nil
	case err := <-errc:
		return "", err
	case <-time.After(time.Until(deadline)):
		return "", fmt.Errorf("campaign %s did not finish before the deadline", c.slug())
	}
}

func output(cmd *exec.Cmd, label string) (string, error) {
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s: %w", label, err)
	}
	return string(out), nil
}

func extractDigest(out string) (string, error) {
	for _, line := range strings.Split(out, "\n") {
		if d, ok := strings.CutPrefix(line, "FaultDigest: "); ok {
			return d, nil
		}
	}
	return "", fmt.Errorf("no FaultDigest line in output")
}
