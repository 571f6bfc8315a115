package main

import (
	"bufio"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: gesturecep/internal/cluster
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkGatewayProxy-8   	    3921	    305571 ns/op	    405103 tuples/s	  101819 B/op	     183 allocs/op
BenchmarkGatewayProxyTraced-8   	    3857	    308654 ns/op	    400893 tuples/s	  101933 B/op	     183 allocs/op
PASS
`

func parseSample(t *testing.T, text string) *document {
	t.Helper()
	doc, err := parse(bufio.NewScanner(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestParseBenchLines(t *testing.T) {
	doc := parseSample(t, sampleBench)
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
	}
	gp := doc.Benchmarks[0]
	if gp.Name != "GatewayProxy" || gp.Procs != 8 || gp.Iterations != 3921 {
		t.Errorf("GatewayProxy parsed as %+v", gp)
	}
	if gp.Metrics["tuples/s"] != 405103 || gp.Metrics["allocs/op"] != 183 {
		t.Errorf("GatewayProxy metrics = %v", gp.Metrics)
	}
	if doc.Overhead == nil || doc.Overhead.Percent < 0 || doc.Overhead.Percent > 5 {
		t.Errorf("overhead = %+v, want small positive percent", doc.Overhead)
	}
}

// mutate returns a copy of the sample document with GatewayProxy's gated
// metrics overridden.
func mutated(t *testing.T, tuples, allocs float64) *document {
	doc := parseSample(t, sampleBench)
	doc.Benchmarks[0].Metrics["tuples/s"] = tuples
	doc.Benchmarks[0].Metrics["allocs/op"] = allocs
	return doc
}

func TestCompareGates(t *testing.T) {
	base := parseSample(t, sampleBench)
	cases := []struct {
		name           string
		tuples, allocs float64
		wantFail       bool
	}{
		{"unchanged", 405103, 183, false},
		{"within noise", 380000, 200, false},
		{"tuples at the 15% edge", 405103 * 0.86, 183, false},
		{"tuples regressed: report-only", 405103 * 0.80, 183, false},
		{"allocs doubled plus one", 405103, 367, true},
		{"allocs at 2x exactly", 405103, 366, false},
		{"back to pre-pooling", 359198, 1604, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lines, failed := compare(mutated(t, tc.tuples, tc.allocs), base)
			if failed != tc.wantFail {
				t.Fatalf("failed = %v, want %v; report:\n%s", failed, tc.wantFail, strings.Join(lines, "\n"))
			}
		})
	}
}

func TestCompareMissingGatedBench(t *testing.T) {
	base := parseSample(t, sampleBench)
	fresh := parseSample(t, sampleBench)
	fresh.Benchmarks = fresh.Benchmarks[1:] // drop GatewayProxy
	if _, failed := compare(fresh, base); !failed {
		t.Fatal("fresh run without the gated benchmark passed the gate")
	}
	// A baseline without the gated benchmark cannot gate, so it must not fail.
	if _, failed := compare(parseSample(t, sampleBench), fresh); failed {
		t.Fatal("baseline without the gated benchmark failed the gate")
	}
}
