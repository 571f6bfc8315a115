package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// smokeSeconds is the measured phase of a smoke run. The open loop runs at
// the Kinect's pace, and a session needs a few seconds of event time to
// finish its first gesture — without a detection there is no latency. The
// traced pass splits its time over two phases, and the second must be long
// enough for every session to send a trace-sampled batch (one in 64).
func smokeSeconds(w workload, trace int) float64 {
	switch {
	case w.paced:
		return 4 + 2*float64(trace)
	case trace == 1:
		return 2
	}
	return 0.5
}

// TestSmoke runs the whole harness — real child processes, every workload,
// both passes — at a fraction of the benchmark's length: the oracle must
// pass, every metric of the table must be there, and nothing may be left
// behind (runOnce fails on a live child; the scratch directory is checked
// here).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemons")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			if trace == 1 && !w.record && !w.paced {
				continue // the traced pass on the two workloads that add a path to it
			}
			t.Run(fmt.Sprintf("%s/trace%d", w.name, trace), func(t *testing.T) {
				res, err := runOnce(root, w, options{seed: 7, seconds: smokeSeconds(w, trace), trace: trace, deadline: 2 * time.Minute})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, %d of %d tuples failed", res.Correct, res.Failed, res.Attempted)
				}
				table := endToEnd
				if trace == 1 {
					table = perLayer
				}
				if len(res.Metrics) != len(table) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(table))
				}
				for _, def := range endToEnd {
					if trace == 0 && !(res.Metrics[def.name].Value > 0) {
						t.Errorf("%s = %v, want a positive value", def.name, res.Metrics[def.name].Value)
					}
				}
				noScratchLeft(t, root)
			})
		}
	}
}

// TestOracleCatchesAMissingDetection injects the fault the oracle exists
// for; the run must report its tuples failed and still clean up.
func TestOracleCatchesAMissingDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemons")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("direct_saturate")
	res, err := runOnce(root, w, options{seed: 7, seconds: smokeSeconds(w, 0), deadline: 2 * time.Minute, breakOracle: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("correct %v with %d of %d tuples failed; want every tuple failed", res.Correct, res.Failed, res.Attempted)
	}
	noScratchLeft(t, root)
}

func noScratchLeft(t *testing.T, root string) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(root, ".bench_build", "run-*"))
	if err != nil || len(left) > 0 {
		t.Errorf("scratch directories left behind: %v %v", left, err)
	}
}

// TestSigtermLeavesNothing kills a real run in mid-measurement and expects
// what a clean exit leaves: a non-zero status, no daemon, no scratch
// directory.
func TestSigtermLeavesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real daemons")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-workload", "fleet_saturate", "-seconds", "60")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()

	// Wait for the measured topology: a gateway and two backends.
	var children []int
	for deadline := time.Now().Add(time.Minute); len(children) < 3; {
		select {
		case err := <-exited:
			t.Fatalf("benchmark exited early: %v\n%s", err, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("daemons did not come up\n%s", stderr.String())
		}
		time.Sleep(50 * time.Millisecond)
		children = childrenOf(t, cmd.Process.Pid)
	}
	time.Sleep(time.Second) // into the measured phase

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err == nil {
			t.Error("a terminated run exited with status 0")
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("the benchmark did not exit after SIGTERM")
	}
	for _, pid := range children {
		if pidAlive(pid) {
			t.Errorf("daemon %d outlived the benchmark", pid)
		}
	}
	noScratchLeft(t, root)
}

// childrenOf lists the live daemons whose parent is pid.
func childrenOf(t *testing.T, pid int) []int {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for _, path := range stats {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // the process is gone
		}
		// pid (comm) state ppid …
		f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
		var child int
		if len(f) > 1 && f[1] == fmt.Sprint(pid) && strings.Contains(string(b), "(gesture") {
			if _, err := fmt.Sscan(string(b), &child); err == nil {
				out = append(out, child)
			}
		}
	}
	return out
}
