package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHistogramBucketAccuracy(t *testing.T) {
	// Every recorded value must land in a bucket whose upper bound is within
	// 1/32 of the value — the documented relative-error bound.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		ns := rng.Int63n(int64(10 * time.Minute))
		idx := bucketIdx(ns)
		upper := bucketUpper(idx)
		if upper < ns {
			t.Fatalf("bucketUpper(%d)=%d below recorded value %d", idx, upper, ns)
		}
		if idx > 0 {
			lower := bucketUpper(idx-1) + 1
			if lower > ns {
				t.Fatalf("value %d below bucket %d lower bound %d", ns, idx, lower)
			}
			if slack := upper - lower; slack > 0 && float64(slack) > float64(ns)/32+1 {
				t.Fatalf("bucket %d spans %d..%d: width %d exceeds value/32=%d for value %d",
					idx, lower, upper, slack, ns/32, ns)
			}
		}
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	for _, ns := range []int64{0, 1, 31, 32, 33, 63, 64, 1 << 20, (1 << 62) + 12345, 1<<63 - 1} {
		idx := bucketIdx(ns)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketIdx(%d) = %d out of range [0,%d)", ns, idx, histBuckets)
		}
		if up := bucketUpper(idx); up < ns {
			t.Errorf("bucketUpper(bucketIdx(%d)) = %d < value", ns, up)
		}
	}
	if idx := bucketIdx(-5); idx != 0 {
		t.Errorf("negative durations must clamp to bucket 0, got %d", idx)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1..1000 µs uniformly: p50 ≈ 500µs, p99 ≈ 990µs, within ~3.2%.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{{0.50, 500 * time.Microsecond}, {0.90, 900 * time.Microsecond}, {0.99, 990 * time.Microsecond}}
	for _, c := range checks {
		got := s.Quantile(c.q)
		if got < c.want || float64(got) > float64(c.want)*1.033 {
			t.Errorf("p%v = %v, want within [%v, %v]", c.q*100, got, c.want, time.Duration(float64(c.want)*1.033))
		}
	}
	if mean := time.Duration(s.Sum / int64(s.Count)); mean < 495*time.Microsecond || mean > 506*time.Microsecond {
		t.Errorf("mean = %v, want ≈500.5µs", mean)
	}
	if max := s.Quantile(1); max < time.Millisecond || max > 1033*time.Microsecond {
		t.Errorf("max = %v, want ≈1ms", max)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	h.ObserveSince(time.Now())
	if h.Count() != 0 {
		t.Error("nil histogram count != 0")
	}
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Quantile(0.99) != 0 || s.Quantile(1) != 0 {
		t.Error("nil histogram snapshot not empty")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	// Concurrent recorders, a merger and a snapshotter racing: the final
	// merged count must equal the number of observations, and intermediate
	// snapshots must never exceed it. Run under -race this also proves the
	// lock-free claims.
	const (
		workers = 8
		perW    = 20000
	)
	shards := make([]*Histogram, 4)
	for i := range shards {
		shards[i] = NewHistogram()
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	var snapshots atomic.Uint64
	go func() { // concurrent reader racing the writers
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var merged HistSnapshot
			for _, h := range shards {
				merged.Merge(h.Snapshot())
			}
			if merged.Count > workers*perW {
				t.Errorf("racing snapshot count %d exceeds total observations %d", merged.Count, workers*perW)
				return
			}
			merged.Quantile(0.999) // must not panic mid-merge
			snapshots.Add(1)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				shards[w%len(shards)].Observe(time.Duration(rng.Int63n(int64(time.Second))))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	var merged HistSnapshot
	for _, h := range shards {
		merged.Merge(h.Snapshot())
	}
	if merged.Count != workers*perW {
		t.Errorf("merged count = %d, want %d", merged.Count, workers*perW)
	}
	if snapshots.Load() == 0 {
		t.Error("reader never snapshotted while writers ran")
	}
}

func TestHistSnapshotMergeIsUnionQuantile(t *testing.T) {
	// A fast shard and a slow shard: the merged p50 must reflect the union,
	// not an average of the two shards' p50s.
	fast, slow := NewHistogram(), NewHistogram()
	for i := 0; i < 900; i++ {
		fast.Observe(time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		slow.Observe(time.Second)
	}
	merged := fast.Snapshot()
	merged.Merge(slow.Snapshot())
	if merged.Count != 1000 {
		t.Fatalf("merged count = %d", merged.Count)
	}
	if p50 := merged.Quantile(0.50); p50 > 2*time.Millisecond {
		t.Errorf("union p50 = %v, want ≈1ms (90%% of samples are fast)", p50)
	}
	if p99 := merged.Quantile(0.99); p99 < time.Second {
		t.Errorf("union p99 = %v, want ≥1s (slow shard dominates the tail)", p99)
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(1000) // rounds up to 1024
	hits := 0
	for i := 0; i < 1024*16; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 16 {
		t.Errorf("sampler hit %d of %d, want exactly 16 (deterministic mask)", hits, 1024*16)
	}
	if NewSampler(0).Sample() || NewSampler(-1).Sample() {
		t.Error("disabled sampler sampled")
	}
	var nilS *Sampler
	if nilS.Sample() {
		t.Error("nil sampler sampled")
	}
	every := NewSampler(1)
	for i := 0; i < 10; i++ {
		if !every.Sample() {
			t.Fatal("NewSampler(1) must sample everything")
		}
	}
}

func TestLoggerRingAndLevels(t *testing.T) {
	var sunk []Event
	l := NewLogger(16, func(e Event) { sunk = append(sunk, e) })
	l.Log(LevelDebug, "dropped") // below LevelInfo
	for i := 0; i < 20; i++ {
		l.Info("event", F("i", i))
	}
	l.Error("boom", F("err", "x"))
	if got := l.Total(); got != 21 {
		t.Errorf("total = %d, want 21 (debug filtered)", got)
	}
	recent := l.Recent(0)
	if len(recent) != 16 {
		t.Fatalf("ring retained %d, want 16", len(recent))
	}
	if recent[len(recent)-1].Msg != "boom" {
		t.Errorf("last event = %q, want boom", recent[len(recent)-1].Msg)
	}
	if recent[0].Fields[0].Value.(int) <= recent[1].Fields[0].Value.(int)-2 {
		t.Errorf("events not oldest-first: %v then %v", recent[0], recent[1])
	}
	two := l.Recent(2)
	if len(two) != 2 || two[1].Msg != "boom" || two[0].Msg != "event" {
		t.Errorf("Recent(2) = %v", two)
	}
	if len(sunk) != 21 {
		t.Errorf("sink saw %d events, want 21", len(sunk))
	}
	if s := (Event{Level: LevelWarn, Msg: "m", Fields: []Field{F("k", "v")}}).String(); s != "warn m k=v" {
		t.Errorf("Event.String() = %q", s)
	}
	var nilL *Logger
	nilL.Info("no panic")
	if nilL.Total() != 0 || nilL.Recent(5) != nil {
		t.Error("nil logger not empty")
	}
}

// promLine matches one exposition sample: name{labels} value.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.e+Inf]+)$`)

// parseProm validates Prometheus text exposition 0.0.4 line by line and
// returns the samples seen, keyed name{labels}. It fails the test on
// malformed lines, samples without a TYPE header, a series emitted twice,
// non-cumulative histogram buckets, or a family whose samples are split
// into several groups by another family's lines.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	types := map[string]string{}
	samples := map[string]float64{}
	lastCum := map[string]float64{} // histogram name → last cumulative bucket
	cur := ""                       // the family whose TYPE line came last
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := types[parts[2]]; dup {
				t.Fatalf("duplicate TYPE for %s", parts[2])
			}
			types[parts[2]] = parts[3]
			cur = parts[2]
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		name := m[1]
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(name, suffix); b != name && types[b] == "histogram" {
				base = b
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("sample %q has no TYPE header", name)
		}
		if base != cur {
			t.Fatalf("sample %q of family %s split from its group by %s", line, base, cur)
		}
		var v float64
		if m[3] == "+Inf" {
			v = float64(int64(1) << 62)
		} else {
			var err error
			if v, err = strconv.ParseFloat(m[3], 64); err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
		}
		if _, dup := samples[name+m[2]]; dup {
			t.Fatalf("series %s%s emitted twice", name, m[2])
		}
		samples[name+m[2]] = v
		if strings.HasSuffix(name, "_bucket") && types[base] == "histogram" {
			key := base + m[2][:strings.Index(m[2], "le=")]
			if v < lastCum[key] {
				t.Fatalf("histogram %s buckets not cumulative at %q", base, line)
			}
			lastCum[key] = v
		}
	}
	return samples
}

func TestPromWriterExposition(t *testing.T) {
	w := NewPromWriter()
	w.Counter("requests_total", "Total requests.", L("backend", "b0"), 42)
	w.Counter("requests_total", "", L("backend", "b1"), 7)
	w.Gauge("queue_depth", "Current depth.", nil, 3)
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	w.Histogram("latency_seconds", "Request latency.", L("stage", `we"ird\`), h.Snapshot())
	// Per-shard names interleaved, as a layer loops over its shards: each
	// family's lines must still come out as one group.
	for _, shard := range []string{"0", "1"} {
		w.Gauge("shard_sessions", "Sessions per shard.", L("shard", shard), 1)
		w.Histogram("latency_seconds", "", L("shard", shard), h.Snapshot())
		w.Counter("requests_total", "", L("shard", shard), 1)
	}
	text := string(w.Bytes())
	samples := parseProm(t, text)
	if samples[`requests_total{backend="b0"}`] != 42 {
		t.Errorf("b0 counter missing or wrong in:\n%s", text)
	}
	if samples[`queue_depth`] != 3 {
		t.Errorf("gauge missing in:\n%s", text)
	}
	if strings.Count(text, "# TYPE requests_total") != 1 {
		t.Error("TYPE header emitted more than once for requests_total")
	}
	// The histogram must end at +Inf == count.
	var infKey string
	for k := range samples {
		if strings.Contains(k, "latency_seconds_bucket") && strings.Contains(k, "+Inf") {
			infKey = k
		}
	}
	if infKey == "" || samples[infKey] != 100 {
		t.Errorf("latency +Inf bucket = %v, want 100 in:\n%s", samples[infKey], text)
	}
	countKey := `latency_seconds_count{stage="we\"ird\\"}`
	if samples[countKey] != 100 {
		t.Errorf("histogram count sample missing (escaping?), have %v", samples)
	}
}

func TestAdminServerEndpoints(t *testing.T) {
	hist := NewHistogram()
	hist.Observe(5 * time.Millisecond)
	logger := NewLogger(16, nil)
	logger.Info("started", F("port", 1234))
	var healthy atomic.Bool
	healthy.Store(true)
	admin, err := StartAdmin("127.0.0.1:0", AdminConfig{
		Collect: func(w *PromWriter) {
			w.Counter("serve_tuples_total", "Tuples.", nil, 99)
			w.Histogram("stage_seconds", "Stage latency.", nil, hist.Snapshot())
		},
		MetricsJSON: func() any { return map[string]int{"sessions": 3} },
		Healthy: func() error {
			if !healthy.Load() {
				return fmt.Errorf("manager closed")
			}
			return nil
		},
		Ready:  func() error { return fmt.Errorf("0 of 3 backends live") },
		Events: logger.Recent,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	base := "http://" + admin.Addr().String()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	samples := parseProm(t, body)
	if samples["serve_tuples_total"] != 99 {
		t.Errorf("/metrics missing serve_tuples_total:\n%s", body)
	}
	if samples["stage_seconds_count"] != 1 {
		t.Errorf("/metrics missing stage histogram:\n%s", body)
	}

	code, body = get("/metrics.json")
	if code != 200 {
		t.Fatalf("/metrics.json status %d", code)
	}
	var mj map[string]int
	if err := json.Unmarshal([]byte(body), &mj); err != nil || mj["sessions"] != 3 {
		t.Errorf("/metrics.json = %q, err %v", body, err)
	}

	if code, body = get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}
	healthy.Store(false)
	if code, body = get("/healthz"); code != 503 || !strings.Contains(body, "manager closed") {
		t.Errorf("/healthz after close = %d %q, want 503 manager closed", code, body)
	}
	if code, body = get("/readyz"); code != 503 || !strings.Contains(body, "backends live") {
		t.Errorf("/readyz = %d %q, want 503", code, body)
	}

	code, body = get("/events?n=10")
	if code != 200 {
		t.Fatalf("/events status %d", code)
	}
	var events []Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("/events not JSON: %v in %q", err, body)
	}
	if len(events) != 1 || events[0].Msg != "started" {
		t.Errorf("/events = %+v", events)
	}

	if code, _ = get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ status %d", code)
	}

	if err := admin.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	var nilAdmin *AdminServer
	if err := nilAdmin.Close(); err != nil {
		t.Errorf("nil close: %v", err)
	}
}
