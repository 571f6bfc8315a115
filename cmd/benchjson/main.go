// benchjson turns `go test -bench` output into one stable JSON document,
// for the continuous-bench trajectory: CI (and developers) pipe the
// benchmark run through it and commit the result as BENCH_gateway.json,
// so performance history lives in git next to the code that produced it.
//
//	go test -run '^$' -bench 'GatewayProxy|ServeSessions|RecordAppend|ReplayThroughput' \
//	    -benchmem ./... | go run ./cmd/benchjson > BENCH_gateway.json
//
// Custom metrics reported via b.ReportMetric (tuples/s, MB/s) are kept
// alongside ns/op, B/op and allocs/op. When both BenchmarkGatewayProxy and
// BenchmarkGatewayProxyTraced are present, the document also carries the
// observability overhead of the traced run as a percentage — the number
// the ≤3% acceptance bar is checked against.
//
// With -against, the fresh document is additionally compared to a committed
// baseline and the exit status becomes a regression gate:
//
//	go test -run '^$' -bench 'GatewayProxy' -benchmem ./internal/cluster \
//	    | go run ./cmd/benchjson -against BENCH_gateway.json > /tmp/fresh.json
//
// exits 1 when GatewayProxy more than doubles its allocs/op versus the
// baseline — the noise-free half of the proxy path's acceptance bar. Its
// tuples/s half is reported (with a warning past -15%) but does not gate: on
// shared runners it failed on no-op changes (−17% measured at both a parent
// and its change). Throughput on other shared benchmarks is reported to
// stderr too and never gated either.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// benchResult is one benchmark line, normalized.
type benchResult struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// overhead compares a traced benchmark against its untraced base.
type overhead struct {
	Base     string  `json:"base"`
	Traced   string  `json:"traced"`
	BaseNs   float64 `json:"base_ns_per_op"`
	TracedNs float64 `json:"traced_ns_per_op"`
	Percent  float64 `json:"percent"`
}

// document is the full output: environment header plus every result.
type document struct {
	GOOS       string        `json:"goos,omitempty"`
	GOARCH     string        `json:"goarch,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
	Overhead   *overhead     `json:"observability_overhead,omitempty"`
}

func main() {
	against := flag.String("against", "", "baseline BENCH json to gate the fresh run against (exit 1 on a GatewayProxy allocs/op regression)")
	flag.Parse()
	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *against == "" {
		return
	}
	base, err := loadDoc(*against)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: -against: %v\n", err)
		os.Exit(1)
	}
	lines, failed := compare(doc, base)
	for _, l := range lines {
		fmt.Fprintln(os.Stderr, "benchjson: "+l)
	}
	if failed {
		os.Exit(1)
	}
}

func loadDoc(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &document{}
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return doc, nil
}

// Thresholds for compare: the proxied data path may at most double its
// allocs/op against the baseline (the gate); losing more than 15% of its
// tuples/s is flagged but, being runner-speed noise as often as not, does
// not fail the run.
const (
	gatedBench     = "GatewayProxy"
	maxTuplesDrop  = 0.15
	maxAllocsRatio = 2.0
)

// compare reports the fresh run against the committed baseline. Only
// gatedBench's allocs/op decides the exit status; its tuples/s and every
// other benchmark present in both documents get an informational delta.
func compare(fresh, base *document) (lines []string, failed bool) {
	find := func(doc *document, name string) *benchResult {
		for i := range doc.Benchmarks {
			if doc.Benchmarks[i].Name == name {
				return &doc.Benchmarks[i]
			}
		}
		return nil
	}
	fb, bb := find(fresh, gatedBench), find(base, gatedBench)
	switch {
	case bb == nil:
		lines = append(lines, fmt.Sprintf("%s missing from baseline; nothing to gate against", gatedBench))
	case fb == nil:
		lines = append(lines, fmt.Sprintf("FAIL: gated benchmark %s missing from the fresh run", gatedBench))
		failed = true
	default:
		if bt, ft := bb.Metrics["tuples/s"], fb.Metrics["tuples/s"]; bt > 0 {
			drop := (bt - ft) / bt
			verdict := "info"
			if drop > maxTuplesDrop {
				verdict = "warn"
			}
			lines = append(lines, fmt.Sprintf("%s: %s tuples/s %.0f -> %.0f (%+.1f%%, report-only past -%.0f%%)",
				verdict, gatedBench, bt, ft, -drop*100, maxTuplesDrop*100))
		}
		if ba, fa := bb.Metrics["allocs/op"], fb.Metrics["allocs/op"]; ba > 0 {
			verdict := "ok"
			if fa > ba*maxAllocsRatio {
				verdict = "FAIL"
				failed = true
			}
			lines = append(lines, fmt.Sprintf("%s: %s allocs/op %.0f -> %.0f (gate %.0fx)",
				verdict, gatedBench, ba, fa, maxAllocsRatio))
		}
	}
	for i := range fresh.Benchmarks {
		fr := &fresh.Benchmarks[i]
		if fr.Name == gatedBench {
			continue
		}
		br := find(base, fr.Name)
		if br == nil {
			continue
		}
		for _, unit := range []string{"tuples/s", "MB/s"} {
			if bv, fv := br.Metrics[unit], fr.Metrics[unit]; bv > 0 && fv > 0 {
				lines = append(lines, fmt.Sprintf("info: %s %s %.0f -> %.0f (%+.1f%%)",
					fr.Name, unit, bv, fv, (fv-bv)/bv*100))
				break
			}
		}
	}
	return lines, failed
}

func parse(sc *bufio.Scanner) (*document, error) {
	doc := &document{}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			res, err := parseBench(line, pkg)
			if err != nil {
				return nil, err
			}
			if res != nil {
				doc.Benchmarks = append(doc.Benchmarks, *res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	doc.Overhead = computeOverhead(doc.Benchmarks)
	return doc, nil
}

// parseBench parses one result line:
//
//	BenchmarkGatewayProxy-8  3522  339911 ns/op  353033 tuples/s  129693 B/op  1604 allocs/op
//
// Returns nil (no error) for non-result Benchmark lines such as the bare
// function name `go test` echoes while a benchmark is still running.
func parseBench(line, pkg string) (*benchResult, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return nil, nil
	}
	res := &benchResult{Pkg: pkg, Metrics: map[string]float64{}}
	res.Name = strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndexByte(res.Name, '-'); i >= 0 {
		if procs, err := strconv.Atoi(res.Name[i+1:]); err == nil {
			res.Name, res.Procs = res.Name[:i], procs
		}
	}
	var err error
	if res.Iterations, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
		return nil, fmt.Errorf("iterations in %q: %v", line, err)
	}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, fmt.Errorf("value %q in %q: %v", fields[i], line, err)
		}
		if unit := fields[i+1]; unit == "ns/op" {
			res.NsPerOp = val
		} else {
			res.Metrics[unit] = val
		}
	}
	if len(res.Metrics) == 0 {
		res.Metrics = nil
	}
	return res, nil
}

// computeOverhead finds the GatewayProxy / GatewayProxyTraced pair.
func computeOverhead(results []benchResult) *overhead {
	var base, traced *benchResult
	for i := range results {
		switch results[i].Name {
		case "GatewayProxy":
			base = &results[i]
		case "GatewayProxyTraced":
			traced = &results[i]
		}
	}
	if base == nil || traced == nil || base.NsPerOp == 0 {
		return nil
	}
	return &overhead{
		Base:     base.Name,
		Traced:   traced.Name,
		BaseNs:   base.NsPerOp,
		TracedNs: traced.NsPerOp,
		Percent:  (traced.NsPerOp - base.NsPerOp) / base.NsPerOp * 100,
	}
}
