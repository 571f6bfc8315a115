package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
)

// selfCheck is the -aa mode, the benchmark's own A/A test: two sets of N
// untraced runs per workload, each run a fresh process of this program with
// its own seed (the same seeds in both sets), exactly as the driver runs
// it. Per end-to-end metric × workload it prints both medians, both
// interquartile spreads as a share of the median, and whether the pair
// agrees: each spread within the metric's bound (set-up time is exempt from
// that, as in the driver) and the second median not worse than the first by
// more than the bound. It exits non-zero if any pair disagrees — the
// evidence for widening a bound or demoting a metric on this host.
func selfCheck(man *manifest, o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var names []string
	for _, w := range man.Workloads {
		if o.workload == "" || o.workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: BENCHMARK.json has no workload %q\n", o.workload)
		return 2
	}

	// samples[set][workload][metric] holds one value per run.
	var samples [2]map[string]map[string][]float64
	for set := range samples {
		samples[set] = make(map[string]map[string][]float64)
		for _, name := range names {
			samples[set][name] = make(map[string][]float64)
			for i := 0; i < o.aa; i++ {
				seed := o.seed + int64(i)
				res, err := runChild(self, name, seed, o.seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: set %d %s seed %d: %v\n", set+1, name, seed, err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d:", set+1, name, seed)
				for _, def := range man.EndToEnd {
					val := res.Metrics[def.Name].Value
					samples[set][name][def.Name] = append(samples[set][name][def.Name], val)
					fmt.Fprintf(os.Stderr, " %s=%.4g", def.Name, val)
				}
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	agree := true
	fmt.Printf("%-16s %-22s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "iqr A", "iqr B", "bound", "verdict")
	for _, name := range names {
		for _, def := range man.EndToEnd {
			a, b := samples[0][name][def.Name], samples[1][name][def.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if def.Better == "higher" {
				worse = -worse
			}
			verdict := "agree"
			switch {
			case worse > def.Bound:
				verdict = fmt.Sprintf("DISAGREE: B is %.1f%% worse", 100*worse)
			case o.aa >= 2 && def.Name != "setup_s" && max(spread(a), spread(b)) > def.Bound:
				verdict = "DISAGREE: spread beyond the bound"
			}
			if verdict != "agree" {
				agree = false
			}
			sa, sb := "-", "-"
			if o.aa >= 2 {
				sa, sb = fmt.Sprintf("%.2f%%", 100*spread(a)), fmt.Sprintf("%.2f%%", 100*spread(b))
			}
			fmt.Printf("%-16s %-22s %12.5g %12.5g %8s %8s %5.0f%%  %s\n",
				name, def.Name, ma, mb, sa, sb, 100*def.Bound, verdict)
		}
	}
	if !agree {
		return 1
	}
	return 0
}

// runChild runs one untraced benchmark run as a child process and parses
// the result line. The child cleans up after itself; a signal to this
// process is passed on so it still does when the self-check is interrupted.
func runChild(self, workload string, seed int64, seconds float64) (*result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return nil, err
		}
	case sig := <-sigc:
		_ = cmd.Process.Signal(sig) // it may have just exited
		<-done
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", sig)
		os.Exit(1)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("incorrect: %d of %d tuples failed", res.Failed, res.Attempted)
	}
	return &res, nil
}
