package cluster_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/cluster"
	"gesturecep/internal/e2e"
	"gesturecep/internal/serve"
	"gesturecep/internal/store"
	"gesturecep/internal/wire"
)

// recordSessions drives n sessions through the harness address with distinct
// playback recordings and detaches them, so every backend's archive holds
// sealed, durable streams. Returns the session/stream names.
func recordSessions(t testing.TB, h *e2e.Harness, n int) []string {
	t.Helper()
	cl := h.Dial()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("sess-%d", i)
		rs, err := cl.Attach(names[i], wire.AttachOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := e2e.FeedFrames(rs, e2e.PlaybackFrames(t, int64(7+i))); err != nil {
			t.Fatal(err)
		}
		if _, err := rs.Detach(); err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// unionRoot copies every named stream out of the per-backend archive roots
// into one directory — the single-node archive a fleet's recordings would
// form had one process recorded them all.
func unionRoot(t testing.TB, h *e2e.Harness, backends int, streams []string) string {
	t.Helper()
	root := t.TempDir()
	for _, name := range streams {
		found := false
		for i := 0; i < backends; i++ {
			if !store.Exists(h.RecordRoot(i), name) {
				continue
			}
			if found {
				t.Fatalf("stream %q recorded on more than one backend", name)
			}
			found = true
			src := filepath.Join(h.RecordRoot(i), name)
			if err := os.CopyFS(filepath.Join(root, name), os.DirFS(src)); err != nil {
				t.Fatal(err)
			}
		}
		if !found {
			t.Fatalf("stream %q recorded nowhere", name)
		}
	}
	return root
}

// TestFleetBackfillByteIdentity is the acceptance bar for fleet-parallel
// backfill: over three backends, the merged result must be byte-identical to
// single-node store.BackfillStreams over the union of the fleet's archives.
// Sessions are placed by bounded-load Acquire while the backfill partition
// uses pure ring Lookup, so recordings routinely live off-partition — the
// Missing-retry path runs as part of the ordinary flow, not as a contrived
// failure.
func TestFleetBackfillByteIdentity(t *testing.T) {
	const backends = 3
	h := e2e.Start(t, e2e.Options{
		Backends: backends,
		Gateway:  true,
		Record:   true,
		Serve:    serve.Config{Shards: 2},
	})
	streams := recordSessions(t, h, 6)

	res, err := h.Gateway.Backfill(cluster.BackfillSpec{Streams: streams})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 0 {
		t.Fatalf("fleet backfill missing streams %v", res.Missing)
	}
	if res.Found != len(streams) {
		t.Fatalf("found %d of %d streams", res.Found, len(streams))
	}
	if res.DetectionTotal() == 0 {
		t.Fatal("fleet backfill produced zero detections; expected swipes in every session")
	}
	if res.Records == 0 || res.Tuples == 0 {
		t.Fatalf("counters not accumulated: %+v", res)
	}

	// Single-node baseline over the union archive, same canonical order.
	plan, _ := h.Registry.Get("swipe_right")
	root := unionRoot(t, h, backends, streams)
	want, err := store.BackfillStreams(root, streams, []*anduin.Plan{plan}, store.BackfillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(res.Detections) {
		t.Fatalf("baseline evaluated %d streams, fleet %d", len(want), len(res.Detections))
	}
	for i, name := range res.Streams {
		got := e2e.EncodeDets(t, res.Detections[i])
		exp := e2e.EncodeDets(t, want[i])
		if !bytes.Equal(got, exp) {
			t.Errorf("stream %q: fleet detections diverge from single-node backfill\nfleet: %+v\nnode:  %+v",
				name, res.Detections[i], want[i])
		}
	}

	if stats := h.Gateway.BackfillStats(); stats.Runs != 1 || stats.Streams != uint64(len(streams)) {
		t.Errorf("backfill stats = %+v, want 1 run over %d streams", stats, len(streams))
	}

	// A second run with a duplicate-laden, unsorted list merges identically.
	shuffled := append([]string{streams[3], streams[3], streams[0]}, streams...)
	res2, err := h.Gateway.Backfill(cluster.BackfillSpec{Streams: shuffled})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Streams {
		if !bytes.Equal(e2e.EncodeDets(t, res2.Detections[i]), e2e.EncodeDets(t, res.Detections[i])) {
			t.Errorf("stream %q: re-run diverges", res.Streams[i])
		}
	}

	// A stream nobody recorded is reported missing, not fatal.
	res3, err := h.Gateway.Backfill(cluster.BackfillSpec{Streams: append([]string{"ghost"}, streams...)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Missing) != 1 || res3.Missing[0] != "ghost" {
		t.Errorf("Missing = %v, want [ghost]", res3.Missing)
	}
}

// TestFleetBackfillSurvivesDeadBackend kills one backend (flushing its
// archive) and requires the fleet to still evaluate every stream the live
// backends hold, reporting the dead backend's recordings as missing.
func TestFleetBackfillSurvivesDeadBackend(t *testing.T) {
	const backends = 3
	h := e2e.Start(t, e2e.Options{
		Backends:      backends,
		Gateway:       true,
		Record:        true,
		Serve:         serve.Config{Shards: 1},
		ProbeInterval: 20 * time.Millisecond, // fast ejection
	})
	streams := recordSessions(t, h, 5)

	// Locate each stream's recording before killing anything.
	onBackend := make(map[string]int, len(streams))
	for _, name := range streams {
		for i := 0; i < backends; i++ {
			if store.Exists(h.RecordRoot(i), name) {
				onBackend[name] = i
			}
		}
	}
	h.KillBackend(2)
	// Wait until the gateway ejects it so the run's live set is stable.
	deadline := 200
	for ; deadline > 0; deadline-- {
		if live, _ := h.Gateway.LiveBackends(); live == backends-1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if deadline == 0 {
		t.Fatal("gateway never ejected the killed backend")
	}

	res, err := h.Gateway.Backfill(cluster.BackfillSpec{Streams: streams})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range streams {
		wantMissing := onBackend[name] == 2
		gotMissing := false
		for _, m := range res.Missing {
			gotMissing = gotMissing || m == name
		}
		if gotMissing != wantMissing {
			t.Errorf("stream %q (backend %d): missing=%v, want %v", name, onBackend[name], gotMissing, wantMissing)
		}
	}
}

// BenchmarkFleetBackfill measures a full fan-out-and-merge over three
// backends' recorded sessions.
func BenchmarkFleetBackfill(b *testing.B) {
	const backends = 3
	h := e2e.Start(b, e2e.Options{
		Backends: backends,
		Gateway:  true,
		Record:   true,
		Serve:    serve.Config{Shards: 2},
	})
	streams := recordSessions(b, h, 6)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := h.Gateway.Backfill(cluster.BackfillSpec{Streams: streams})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Missing) != 0 {
			b.Fatalf("missing streams %v", res.Missing)
		}
	}
}
