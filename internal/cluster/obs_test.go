package cluster_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"gesturecep/internal/cluster"
	"gesturecep/internal/e2e"
	"gesturecep/internal/kinect"
	"gesturecep/internal/obs"
	"gesturecep/internal/serve"
	"gesturecep/internal/wire"
)

// scrape renders the gateway's exposition and returns its samples keyed by
// series, name{labels} as printed. The text format allows each series once,
// so a repeated one fails the test.
func scrape(t testing.TB, gw *cluster.Gateway) map[string]float64 {
	t.Helper()
	w := obs.NewPromWriter()
	gw.WriteProm(w)
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(w.Bytes())), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		if _, dup := samples[line[:i]]; dup {
			t.Errorf("series %s emitted twice", line[:i])
		}
		samples[line[:i]] = v
	}
	return samples
}

// sumSeries adds up one metric's series across its label sets.
func sumSeries(samples map[string]float64, name string) (sum float64) {
	for series, v := range samples {
		if strings.HasPrefix(series, name+"{") {
			sum += v
		}
	}
	return sum
}

// TestGatewayExpositionSeriesOnce: a gateway over two backends with two
// shards each renders every series once. The backends' per-shard rows carry
// no backend label, so they stay out of the gateway's frame, which holds
// fleet totals and backend rows only.
func TestGatewayExpositionSeriesOnce(t *testing.T) {
	h := e2e.Start(t, e2e.Options{
		Backends: 2,
		Gateway:  true,
		Serve:    serve.Config{Shards: 2},
	})
	rs, err := h.Dial().Attach("series-once", wire.AttachOptions{BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range kinect.ToTuples(e2e.PlaybackFrames(t, 7))[:64] {
		if err := rs.FeedTuple(tp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	samples := scrape(t, h.Gateway)
	if got := samples[`serve_tuples_total{stage="enqueued"}`]; got != 64 {
		t.Errorf("fleet enqueued = %v, want 64", got)
	}
	if got := sumSeries(samples, "cluster_backend_up"); got != 2 {
		t.Errorf("%v backends up, want 2", got)
	}
}

// TestGatewayAdminPlane wires a live gateway into an obs.AdminServer the way
// cmd/gesturegateway does and checks the orchestration contract: /readyz
// tracks the live-backend count through eject and re-admit, /metrics carries
// the per-backend forward-latency histograms, and /events serves the
// structured lifecycle log with backend/incarnation fields.
func TestGatewayAdminPlane(t *testing.T) {
	frames := e2e.PlaybackFrames(t, 7)
	tuples := kinect.ToTuples(frames)
	h := e2e.Start(t, e2e.Options{
		Backends: 2,
		Gateway:  true,
		Serve:    serve.Config{Shards: 1},
	})
	gw := h.Gateway
	admin, err := obs.StartAdmin("127.0.0.1:0", obs.AdminConfig{
		Collect: gw.WriteProm,
		Ready:   gw.Ready,
		Events:  gw.Events,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + admin.Addr().String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	waitStatus := func(path string, want int) string {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			code, body := get(path)
			if code == want {
				return body
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s stuck at %d (%q), want %d", path, code, body, want)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	waitStatus("/readyz", 200)

	// Stream one fully trace-sampled session so the forward histograms fill.
	cl := h.Dial()
	rs, err := cl.Attach("admin-probe", wire.AttachOptions{BatchSize: 16, TraceEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tuples {
		if err := rs.FeedTuple(tp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Detach(); err != nil {
		t.Fatal(err)
	}

	_, metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE cluster_backend_forward_seconds histogram",
		"cluster_backend_forward_seconds_bucket",
		`cluster_backend_forward_seconds_count{backend="`,
		"cluster_backends_live 2",
		"cluster_backends_total 2",
		"cluster_backend_probes_total",
		`serve_tuples_total{stage="enqueued"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, metrics)
		}
	}
	// The traced session's batches were timed on the forward path.
	forwarded := sumSeries(scrape(t, gw), "cluster_backend_forward_seconds_count")
	if wantBatches := float64((len(tuples) + 15) / 16); forwarded != wantBatches {
		t.Errorf("forward histograms recorded %v batches, want %v", forwarded, wantBatches)
	}

	// Kill the whole fleet: the probes eject both backends and readiness
	// must flip while the process itself keeps serving the admin plane.
	h.KillBackend(0)
	h.KillBackend(1)
	body := waitStatus("/readyz", 503)
	if !strings.Contains(body, "0 of 2 backends live") {
		t.Errorf("/readyz 503 body = %q, want live-backend count", body)
	}

	// One backend returns: the recovery loop re-admits it and readiness
	// flips back without a restart of the gateway.
	h.RestartBackend(0)
	waitStatus("/readyz", 200)

	_, eventsBody := get("/events?n=64")
	var events []obs.Event
	if err := json.Unmarshal([]byte(eventsBody), &events); err != nil {
		t.Fatalf("/events not JSON: %v in %q", err, eventsBody)
	}
	var ejected, readmitted bool
	for _, e := range events {
		fields := map[string]any{}
		for _, f := range e.Fields {
			fields[f.Key] = f.Value
		}
		switch {
		case strings.Contains(e.Msg, "eject"):
			ejected = true
			if fields["backend"] == nil || fields["incarnation"] == nil {
				t.Errorf("ejection event lacks backend/incarnation fields: %+v", e)
			}
		case strings.Contains(e.Msg, "re-admitted"):
			readmitted = true
			if fields["state"] != "live" {
				t.Errorf("re-admission event state = %v, want live: %+v", fields["state"], e)
			}
		}
	}
	if !ejected || !readmitted {
		t.Errorf("events missing lifecycle coverage (ejected=%v readmitted=%v): %q", ejected, readmitted, eventsBody)
	}

	_, metrics = get("/metrics")
	if !strings.Contains(metrics, "cluster_backends_live 1") {
		t.Errorf("post-recovery /metrics does not report 1 live backend:\n%s", metrics)
	}
}
