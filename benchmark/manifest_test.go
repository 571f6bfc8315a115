package main

import (
	"regexp"
	"testing"
)

// TestManifestMatchesTables holds BENCHMARK.json and the program together:
// the same workloads, the same metrics with the same units, and the limits
// of the benchmark contract.
func TestManifestMatchesTables(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), want %q with a why of at most 200", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: %s (%s), want %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s[%d]: name %q or unit %q breaks the contract", kind, i, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s[%d]: better = %q", kind, i, m.Better)
			}
			if bounded != (m.Bound > 0) || m.Bound > 0.25 {
				t.Errorf("%s[%d]: bound %v", kind, i, m.Bound)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEnd, true)
	check("per_layer", man.PerLayer, perLayer, false)
	if len(man.PerLayer) > 128 || man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("%d per-layer metrics, run_seconds %d", len(man.PerLayer), man.RunSeconds)
	}
}
