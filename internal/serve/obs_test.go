package serve

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"gesturecep/internal/obs"
)

// TestServeAdminPlane wires a Manager into an obs.AdminServer the way
// cmd/gestured does and checks the contract the orchestrator relies on:
// /metrics carries the serve counters as Prometheus exposition, and
// /healthz flips to 503 the moment the manager closes.
func TestServeAdminPlane(t *testing.T) {
	m := newTestManager(t, Config{Shards: 2}, map[string]string{"never": neverQuery})

	admin, err := obs.StartAdmin("127.0.0.1:0", obs.AdminConfig{
		Collect: func(w *obs.PromWriter) {
			m.Metrics().WriteProm(w)
			m.Instruments().WriteProm(w)
		},
		Healthy: func() error {
			if m.Closed() {
				return fmt.Errorf("manager closed")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	s, err := m.CreateSession("admin-test")
	if err != nil {
		t.Fatal(err)
	}
	frames := playbackFrames(t, 7)[:10]
	if err := feedFrames(s, frames); err != nil {
		t.Fatal(err)
	}
	s.Flush()

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

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE serve_tuples_total counter",
		`serve_tuples_total{stage="enqueued"} 10`,
		`serve_tuples_total{stage="processed"} 10`,
		"serve_sessions 1",
		"# TYPE serve_queue_wait_seconds histogram",
		"serve_shard_tuples_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz = %d before close, want 200", code)
	}
	m.Close()
	if code, body := get("/healthz"); code != 503 || !strings.Contains(body, "manager closed") {
		t.Errorf("/healthz after close = %d %q, want 503 manager closed", code, body)
	}
}
