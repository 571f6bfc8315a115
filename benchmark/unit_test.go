package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(data, n=4) and
	// statistics.median(data) from CPython 3.
	cases := []struct {
		data           []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 2.2, 9.5, 4.4, 7.0}, 2.65, 4.4, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 9}, 1, 5, 9},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 || math.Abs(median(c.data)-c.median) > 1e-9 {
			t.Errorf("%v: got q1 %v median %v q3 %v, want %v %v %v", c.data, q1, median(c.data), q3, c.q1, c.median, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	cases := []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {1 << 20, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i + 1)
	}
	for p, want := range map[float64]time.Duration{50: 50, 90: 90, 99: 99, 99.9: 100, 100: 100, 0: 1} {
		if got := percentile(ds, p); got != want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},       // 20 inside root
		{Name: "b", Parent: 0, Start: 25, End: 50},       // overlaps a: adds only 30..50
		{Name: "c", Parent: 0, Start: 90, End: 120},      // clipped to the root's end
		{Name: "a.inner", Parent: 1, Start: 12, End: 17}, // a grandchild counts against a only
		{Name: "other", Parent: -1, Start: 200, End: 260},
	}
	want := []time.Duration{
		100 - (20 + 20 + 10), // root: minus a, the rest of b, the clipped part of c
		20 - 5,
		25,
		30,
		5,
		60,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	byName := selfByName(spans)
	if len(byName) != len(spans) || byName["a"][0] != 15 {
		t.Errorf("selfByName = %v", byName)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", 0, -1)) // must not panic
	on := newTracer()
	root := on.begin("root", 7, -1)
	kid := on.begin("kid", 7, root)
	on.end(kid)
	on.end(root)
	if len(on.spans) != 2 || on.spans[1].Parent != root || on.spans[1].Batch != 7 ||
		on.spans[0].End < on.spans[1].End || on.spans[1].Start < on.spans[0].Start {
		t.Errorf("spans = %+v", on.spans)
	}
}

func TestDueSchedule(t *testing.T) {
	const total, conns = 256, 2
	period := framePeriod
	length := 3*period + period/2 // the fourth frame is cut half way
	seen := make(map[[2]int]int)  // (global session, frame) → count
	n := 0
	for c := 0; c < conns; c++ {
		events := dueSchedule(c, conns, total, period, length)
		next := make(map[int]int) // per-session frame counter
		var prev time.Duration = -1
		for _, ev := range events {
			if ev.due <= prev {
				t.Fatalf("conn %d: due times not strictly ascending at %v", c, ev.due)
			}
			prev = ev.due
			g := ev.session*conns + c
			frame := next[ev.session]
			next[ev.session]++
			want := time.Duration(frame)*period + time.Duration(g)*period/total
			if ev.due != want || ev.due >= length {
				t.Fatalf("conn %d session %d frame %d: due %v, want %v within %v", c, g, frame, ev.due, want, length)
			}
			seen[[2]int{g, frame}]++
			n++
		}
	}
	// Three full frames of every session, plus the first half of the
	// sessions in the fourth.
	if want := 3*total + total/2; n != want || len(seen) != want {
		t.Errorf("%d events (%d distinct), want %d", n, len(seen), want)
	}
	// Staggered evenly: consecutive global sessions are period/total apart.
	a := dueSchedule(0, conns, total, period, length)[0].due
	b := dueSchedule(1, conns, total, period, length)[0].due
	if b-a != period/total {
		t.Errorf("stagger %v, want %v", b-a, period/total)
	}
}

func TestParseProc(t *testing.T) {
	// The command field may hold spaces and parentheses.
	stat := []byte("4242 (ge) st (ured) S 1 4242 4242 0 -1 4194560 1210 0 0 0 " +
		"731 269 0 0 20 0 9 0 123456 1271398400 4711 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 10.0 {
		t.Errorf("parseStatCPU = %v, %v; want 10 s from 731+269 ticks", cpu, err)
	}
	if _, err := parseStatCPU([]byte("1 (x) S 1 2 3")); err == nil {
		t.Error("parseStatCPU accepted a truncated line")
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Error("parseStatCPU accepted a line without a command field")
	}
	status := []byte("Name:\tgestured\nVmPeak:\t 1241600 kB\nVmHWM:\t   18432 kB\nVmRSS:\t   17000 kB\n")
	hwm, err := parseStatusHWM(status)
	if err != nil || hwm != 18 {
		t.Errorf("parseStatusHWM = %v, %v; want 18 MiB", hwm, err)
	}
	if _, err := parseStatusHWM([]byte("Name:\tkthreadd\n")); err == nil {
		t.Error("parseStatusHWM accepted a status without VmHWM")
	}
}

func TestPromHistogramMerge(t *testing.T) {
	// Two series of one histogram, cumulative, with only the changed
	// buckets present — as obs.PromWriter emits them.
	text := []byte(`# HELP x_seconds demo
# TYPE x_seconds histogram
x_seconds_bucket{backend="b0",le="0.001"} 2
x_seconds_bucket{backend="b0",le="0.004"} 3
x_seconds_bucket{backend="b0",le="+Inf"} 3
x_seconds_sum{backend="b0"} 0.006
x_seconds_count{backend="b0"} 3
x_seconds_bucket{backend="b1",le="0.002"} 4
x_seconds_bucket{backend="b1",le="0.004"} 5
x_seconds_bucket{backend="b1",le="+Inf"} 5
x_total{stage="a"} 7
x_total{stage="b"} 5
`)
	samples, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	// A second daemon emitting the very same series must add, not diff.
	twice := [][]promSample{samples, samples}
	if got := promSum(twice, "x_total"); got != 24 {
		t.Errorf("promSum = %v, want 24", got)
	}
	if h := mergedHist(twice, "x_seconds"); h.count() != 16 || h[0.002] != 8 {
		t.Errorf("histogram merged across daemons = %v", h)
	}
	h := mergedHist(twice[:1], "x_seconds")
	if h.count() != 8 || h[0.001] != 2 || h[0.002] != 4 || h[0.004] != 2 {
		t.Fatalf("merged histogram = %v", h)
	}
	// Ranks: 2 at 1 ms, 4 at 2 ms, 2 at 4 ms.
	for q, want := range map[float64]time.Duration{0.25: time.Millisecond, 0.5: 2 * time.Millisecond, 0.75: 2 * time.Millisecond, 0.99: 4 * time.Millisecond} {
		if got := h.quantile(q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := (promHist{}).quantile(0.5); got != 0 {
		t.Errorf("quantile of an empty histogram = %v, want 0", got)
	}
}

func TestRecordingLoop(t *testing.T) {
	recs, err := makeRecordings(3)
	if err != nil {
		t.Fatal(err)
	}
	again, err := makeRecordings(3)
	if err != nil {
		t.Fatal(err)
	}
	other, err := makeRecordings(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != numRecordings || !reflect.DeepEqual(recs[0].tuples, again[0].tuples) {
		t.Fatal("the same seed must give the same recordings")
	}
	if reflect.DeepEqual(recs[0].tuples, other[0].tuples) {
		t.Error("another seed gave the same first recording")
	}
	r := recs[0]
	n := len(r.tuples)
	for _, j := range []int{0, 1, n - 1, n, n + 1, 5*n + 17} {
		tu := r.at(j)
		if back, ok := r.indexOf(tu.Ts); !ok || back != j {
			t.Errorf("indexOf(at(%d).Ts) = %d, %v", j, back, ok)
		}
		if j > 0 && !r.at(j-1).Ts.Before(tu.Ts) {
			t.Errorf("event time does not advance at tuple %d", j)
		}
	}
	if _, ok := r.indexOf(r.at(n - 1).Ts.Add(time.Nanosecond)); ok {
		t.Error("indexOf resolved an event time no tuple carries")
	}
}
