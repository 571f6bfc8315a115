package cluster_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/e2e"
	"gesturecep/internal/kinect"
	"gesturecep/internal/serve"
	"gesturecep/internal/store"
	"gesturecep/internal/stream"
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
// Every backend is asked for every stream and each stream is held by one of
// them, so every backend reports most of the list Missing as part of the
// ordinary flow, not as a contrived failure.
func TestFleetBackfillByteIdentity(t *testing.T) {
	const backends = 3
	h := e2e.Start(t, e2e.Options{
		Backends: backends,
		Gateway:  true,
		Record:   true,
		Serve:    serve.Config{Shards: 2},
	})
	streams := recordSessions(t, h, 6)

	res, err := h.Gateway.Backfill(wire.BackfillRequest{Streams: streams})
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

	if ms := scrape(t, h.Gateway); ms["cluster_backfills_total"] != 1 || ms["cluster_backfill_streams_total"] != float64(len(streams)) {
		t.Errorf("backfills: %v runs over %v streams, want 1 run over %d streams",
			ms["cluster_backfills_total"], ms["cluster_backfill_streams_total"], len(streams))
	}

	// A second run with a duplicate-laden, unsorted list merges identically.
	shuffled := append([]string{streams[3], streams[3], streams[0]}, streams...)
	res2, err := h.Gateway.Backfill(wire.BackfillRequest{Streams: shuffled})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Streams {
		if !bytes.Equal(e2e.EncodeDets(t, res2.Detections[i]), e2e.EncodeDets(t, res.Detections[i])) {
			t.Errorf("stream %q: re-run diverges", res.Streams[i])
		}
	}

	// A stream nobody recorded is reported missing, not fatal.
	res3, err := h.Gateway.Backfill(wire.BackfillRequest{Streams: append([]string{"ghost"}, streams...)})
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

	res, err := h.Gateway.Backfill(wire.BackfillRequest{Streams: streams})
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

// TestFleetBackfillAfterDrainAndReadmit walks the rolling-restart cycle under
// recording: sessions fed half their stream, their backend drained (the
// moved sessions re-record their whole history on the target), the rest fed,
// the drained backend re-admitted. The re-admitted backend still archives the
// moved streams' pre-drain prefixes, and for some of them the ring names it
// as their owner again; the fleet backfill must still return every stream's
// whole-stream detections, not a prefix's.
func TestFleetBackfillAfterDrainAndReadmit(t *testing.T) {
	tuples := kinect.ToTuples(e2e.PlaybackFrames(t, 13))
	half := len(tuples) / 2
	h := e2e.Start(t, e2e.Options{
		Backends:      2,
		Gateway:       true,
		Record:        true,
		Serve:         serve.Config{Shards: 1},
		ProbeInterval: -1,
	})
	gw := h.Gateway
	plan, _ := h.Registry.Get("swipe_right")
	whole := e2e.BareReplay(t, plan, e2e.WireTuples(t, tuples))
	want := e2e.EncodeDets(t, whole)

	cl := h.Dial()
	const sessions = 8
	names := make([]string, sessions)
	rss := make([]*wire.RemoteSession, sessions)
	for i := range rss {
		names[i] = fmt.Sprintf("s-%d", i)
		rs, err := cl.Attach(names[i], wire.AttachOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rss[i] = rs
		feedTuples(t, rs, tuples[:half])
		if _, err := rs.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	drained := h.Spawner.ID(0)
	var moved []string
	for _, name := range names {
		if h.HasRecording(0, name) {
			moved = append(moved, name)
		}
	}
	if n, err := gw.Drain(drained); err != nil || n != len(moved) || n == 0 {
		t.Fatalf("Drain(%s) moved %d sessions (err %v), want the %d it carried, at least one", drained, n, err, len(moved))
	}
	for _, rs := range rss {
		feedTuples(t, rs, tuples[half:])
		if _, err := rs.Detach(); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.AddBackend(drained, h.Spawner.Addr(0)); err != nil {
		t.Fatal(err)
	}
	stale := 0
	for _, name := range moved {
		if owner, _ := gw.Ring().Lookup(name); owner == drained {
			stale++
		}
	}
	if stale == 0 {
		t.Fatalf("no moved stream of %v hashes to %s; the run does not cover a stale prefix", moved, drained)
	}

	res, err := gw.Backfill(wire.BackfillRequest{Streams: names})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found != sessions || len(res.Missing) != 0 {
		t.Fatalf("found %d of %d streams, missing %v", res.Found, sessions, res.Missing)
	}
	for i, name := range res.Streams {
		if got := e2e.EncodeDets(t, res.Detections[i]); !bytes.Equal(got, want) {
			t.Errorf("stream %q: fleet backfill found %d detections, the whole stream has %d",
				name, len(res.Detections[i]), len(whole))
		}
	}
	if res.Tuples != uint64(sessions*len(tuples)) {
		t.Errorf("fleet backfill read %d tuples from its chosen copies, the streams hold %d", res.Tuples, sessions*len(tuples))
	}
}

func feedTuples(t *testing.T, rs *wire.RemoteSession, tuples []stream.Tuple) {
	t.Helper()
	for _, tp := range tuples {
		if err := rs.FeedTuple(tp); err != nil {
			t.Fatal(err)
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
		res, err := h.Gateway.Backfill(wire.BackfillRequest{Streams: streams})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Missing) != 0 {
			b.Fatalf("missing streams %v", res.Missing)
		}
	}
}
