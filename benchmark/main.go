// Command benchmark is the repository's benchmark: it builds cmd/gestured
// and cmd/gesturegateway from the checkout, spawns them as real processes on
// loopback ports, drives them from this one loader process through the
// public wire client, checks every detection against an in-process
// bare-engine reference, and prints the metrics BENCHMARK.json names as one
// JSON object on the last line of standard output.
//
//	go run -C benchmark . --workload fleet_paced --seed 1 --seconds 10 --trace 0
//	go run -C benchmark . --workload direct_saturate --seed 1 --seconds 10 --trace 1
//	go run -C benchmark . -aa 10
//
// See README.md for the workloads, the metrics and how they interact.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() { os.Exit(realMain()) }

type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       int
	aa          int
	deadline    time.Duration
	breakOracle bool
}

func realMain() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: direct_saturate, fleet_saturate, fleet_paced or record_backfill")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs (recordings: simulator seeds, body profiles, gesture order)")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the measured phase (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "0 prints the end-to-end metrics; 1 runs the traced pass and prints the per-layer metrics")
	flag.IntVar(&o.aa, "aa", 0, "self-check: run two sets of N untraced runs per workload (all, or the one -workload names) and compare them within BENCHMARK.json's bounds")
	flag.DurationVar(&o.deadline, "deadline", 170*time.Second, "hard limit on one run; when it passes every child is killed and the run fails")
	flag.BoolVar(&o.breakOracle, "break-oracle", false, "fault injection: drop one reference detection per recording, so the run must fail")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	man, err := readManifest(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if o.seconds == 0 {
		o.seconds = float64(man.RunSeconds)
	}
	if o.aa > 0 {
		return selfCheck(man, o)
	}
	w, ok := workloadByName(o.workload)
	if !ok || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: need -workload (one of the four), -seconds > 0 and -trace 0 or 1")
		flag.Usage()
		return 2
	}
	res, err := runOnce(root, w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// findRoot locates the checkout: the nearest directory at or above the
// working directory that holds the daemons' sources.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "gestured", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/gestured not found at or above the working directory: run from the checkout")
		}
		dir = parent
	}
}

// runOnce is one benchmark run. Whatever way it ends — result, error,
// panic, SIGINT/SIGTERM or the hard deadline — every spawned process is
// stopped and reaped and the scratch directory removed before the program
// exits, and a pid found alive after that fails the run.
func runOnce(root string, w workload, o options) (res *result, err error) {
	sup, err := newSupervisor(root)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	timer := time.NewTimer(o.deadline)
	defer timer.Stop()
	go func() {
		why := "deadline of " + o.deadline.String() + " passed"
		select {
		case sig := <-sigc:
			why = sig.String()
		case <-timer.C:
		case <-ctx.Done():
			return
		}
		cancel() // kills an in-flight go build
		fmt.Fprintf(os.Stderr, "benchmark: %s: stopping children\n", why)
		if err := sup.cleanup(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		os.Exit(1)
	}()
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("panic: %v", p)
		}
		if cerr := sup.cleanup(); cerr != nil {
			res, err = nil, errors.Join(err, cerr)
		}
	}()

	in := &inputs{}
	if in.gestures, err = learnGestures(); err != nil {
		return nil, err
	}
	if in.recs, err = makeRecordings(o.seed); err != nil {
		return nil, err
	}
	if err := sup.build(ctx); err != nil {
		return nil, err
	}
	var vals values
	var v *verdict
	table := endToEnd
	if o.trace == 1 {
		table = perLayer
		vals, v, err = runTraced(sup, w, in, o.seconds, o.breakOracle)
	} else {
		vals, v, err = runUntraced(sup, w, in, o.seconds, o.breakOracle)
	}
	if err != nil {
		return nil, err
	}
	for _, reason := range v.reasons {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", reason)
	}
	metrics, err := vals.render(table)
	if err != nil {
		return nil, err
	}
	return &result{Correct: v.correct(), Attempted: v.attempted, Failed: v.failed, Metrics: metrics}, nil
}
