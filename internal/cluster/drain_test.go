package cluster_test

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gesturecep/internal/cluster"
	"gesturecep/internal/e2e"
	"gesturecep/internal/kinect"
	"gesturecep/internal/serve"
	"gesturecep/internal/wire"
)

// TestGatewayDrainUnderLoad is the membership acceptance soak (run under
// -race in CI): a backend carrying a share of 24 live sessions is drained
// while every session is mid-stream. The contract is total: zero tuple
// drops, detections byte-identical to the bare-engine replay of the full
// stream (migration must not re-fire, lose or reorder a detection), the
// drained backend ends with zero sessions and off the ring, and AddBackend
// afterwards restores it to the placement path through the bounded-load
// ring's ceil(c·avg) cap.
func TestGatewayDrainUnderLoad(t *testing.T) {
	frames := e2e.PlaybackFrames(t, 13)
	tuples := kinect.ToTuples(frames)
	half := len(tuples) / 2
	chunk1, chunk2 := tuples[:half], tuples[half:]

	const backends = 3
	h := e2e.Start(t, e2e.Options{
		Backends:       backends,
		Gateway:        true,
		Serve:          serve.Config{Shards: 2, QueueDepth: 128},
		Record:         true,
		RecorderBuffer: 1 << 15,
		ProbeInterval:  25 * time.Millisecond,
	})
	gw := h.Gateway
	plan, _ := h.Registry.Get("swipe_right")
	want := e2e.EncodeDets(t, e2e.BareReplay(t, plan, e2e.WireTuples(t, tuples)))

	// Phase 1: 24 sessions across 4 connections feed the first half and ack
	// it, which also records each session's placement.
	const sessions, conns = 24, 4
	clients := make([]*wire.Client, conns)
	for i := range clients {
		clients[i] = h.Dial()
	}
	ids := make([]string, sessions)
	rss := make([]*wire.RemoteSession, sessions)
	for i := range rss {
		ids[i] = fmt.Sprintf("move-%02d", i)
		rs, err := clients[i%conns].Attach(ids[i], wire.AttachOptions{BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		rss[i] = rs
		for _, tp := range chunk1 {
			if err := rs.FeedTuple(tp); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rs.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	victim := -1
	onVictim := make(map[string]bool)
	for b := 0; b < backends && victim < 0; b++ {
		for _, id := range ids {
			if h.HasRecording(b, id) {
				victim = b
				break
			}
		}
	}
	if victim < 0 {
		t.Fatal("no backend owns any session")
	}
	victimID := h.Spawner.ID(victim)
	victimSessions := 0
	for _, id := range ids {
		onVictim[id] = h.HasRecording(victim, id)
		if onVictim[id] {
			victimSessions++
		}
	}

	// Phase 2: drain the victim while the second half is in flight — the
	// drain lands once a third of it has been fed.
	var fed atomic.Int64
	drainAt := int64(sessions * len(chunk2) / 3)
	var moved int
	var drainErr error
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for fed.Load() < drainAt {
			time.Sleep(time.Millisecond)
		}
		moved, drainErr = gw.Drain(victimID)
	}()
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := range rss {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, tp := range chunk2 {
				if err := rss[i].FeedTuple(tp); err != nil {
					errs <- fmt.Errorf("session %s: %w", ids[i], err)
					return
				}
				fed.Add(1)
			}
		}(i)
	}
	wg.Wait()
	<-drained
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if drainErr != nil {
		t.Fatalf("drain under load failed after moving %d sessions: %v", moved, drainErr)
	}
	if moved != victimSessions {
		t.Errorf("drain moved %d sessions, victim owned %d", moved, victimSessions)
	}
	if moved == 0 {
		t.Fatal("victim backend owned no sessions; the migration path never ran")
	}

	// The drained backend is fully retired: state machine, ring and the
	// admin plane's membership listing all agree it carries nothing.
	if st := gw.State(victimID); st != cluster.StateDrained {
		t.Errorf("victim state = %q, want %q", st, cluster.StateDrained)
	}
	for _, id := range gw.Ring().Backends() {
		if id == victimID {
			t.Error("drained backend still on the ring")
		}
	}
	var liveSessions int
	for _, row := range gw.BackendsInfo() {
		if row.ID == victimID {
			if row.State != string(cluster.StateDrained) || row.Sessions != 0 || row.RingLoad != 0 {
				t.Errorf("drained row = %+v, want state=drained sessions=0 ring_load=0", row)
			}
		} else {
			if row.State != string(cluster.StateLive) {
				t.Errorf("survivor %s state = %q, want live", row.ID, row.State)
			}
			liveSessions += row.Sessions
		}
	}
	if liveSessions != sessions {
		t.Errorf("survivors carry %d sessions, want all %d", liveSessions, sessions)
	}
	ms := scrape(t, gw)
	if ms["cluster_migrations_total"] != float64(moved) || ms["cluster_migrations_failed_total"] != 0 {
		t.Errorf("migrations: %v completed, %v failed; want %d, 0",
			ms["cluster_migrations_total"], ms["cluster_migrations_failed_total"], moved)
	}
	if ms["cluster_migrated_tuples_total"] == 0 || ms["cluster_migration_seconds_count"] != float64(moved) {
		t.Errorf("migrations replayed %v tuples over %v timed moves, want replayed tuples and %d timed moves",
			ms["cluster_migrated_tuples_total"], ms["cluster_migration_seconds_count"], moved)
	}

	// Phase 3: re-admit the drained backend — the rolling-restart AddBackend
	// leg — and check that the bounded-load ring steers a share of 16 fresh
	// sessions onto it (pigeonhole: the survivors' caps cannot hold them all).
	if err := gw.AddBackend(victimID, h.Spawner.Addr(victim)); err != nil {
		t.Fatalf("re-adding the drained backend: %v", err)
	}
	if st := gw.State(victimID); st != cluster.StateLive {
		t.Fatalf("re-added backend state = %q, want live", st)
	}
	const fresh = 16
	freshRss := make([]*wire.RemoteSession, fresh)
	for i := range freshRss {
		rs, err := clients[i%conns].Attach(fmt.Sprintf("fresh-%02d", i), wire.AttachOptions{BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		freshRss[i] = rs
	}
	if load := gw.Ring().Load(victimID); load == 0 {
		t.Error("no fresh session placed on the re-added backend")
	}
	for i, rs := range freshRss {
		for _, tp := range tuples[:32] {
			if err := rs.FeedTuple(tp); err != nil {
				t.Fatal(err)
			}
		}
		if c, err := rs.Detach(); err != nil || c.In != 32 || c.Dropped != 0 {
			t.Fatalf("fresh session %d detach = %+v, %v; want in=32 dropped=0", i, c, err)
		}
	}

	// Drain the stream state: every session acked in full with zero drops,
	// detections byte-identical to a run that never moved.
	finalDets := make([][]byte, sessions)
	finalCounters := make([]wire.SessionCounters, sessions)
	for i, rs := range rss {
		if _, err := rs.Flush(); err != nil {
			t.Fatalf("session %s: final flush: %v", ids[i], err)
		}
		finalDets[i] = e2e.EncodeDets(t, rs.Detections())
		c, err := rs.Detach()
		if err != nil {
			t.Fatalf("session %s: detach: %v", ids[i], err)
		}
		finalCounters[i] = c
	}
	h.Stop() // flush the archives so the recordings are readable

	total := uint64(len(tuples))
	for i, id := range ids {
		c := finalCounters[i]
		if c.In != total || c.Out != c.In || c.Dropped != 0 {
			t.Errorf("session %s counters = %+v, want in=out=%d dropped=0", id, c, total)
		}
		if !bytes.Equal(finalDets[i], want) {
			t.Errorf("session %s detections diverge from the bare-engine replay", id)
		}
		// The session's final home holds the complete stream: for a migrated
		// session, the catch-up replay plus the live tail were both tapped
		// into the target's archive, so its recording reconstructs the full
		// run byte for byte.
		home := -1
		for b := 0; b < backends; b++ {
			if b != victim && h.HasRecording(b, id) {
				home = b
				break
			}
		}
		if home < 0 {
			t.Errorf("session %s has no recording off the drained backend", id)
			continue
		}
		recorded := h.Recorded(home, id)
		if uint64(len(recorded)) != total {
			t.Errorf("session %s: final home recorded %d of %d tuples", id, len(recorded), total)
			continue
		}
		if onVictim[id] {
			if got := e2e.EncodeDets(t, e2e.BareReplay(t, plan, recorded)); !bytes.Equal(got, want) {
				t.Errorf("session %s: replaying the migrated recording diverges from the bare replay", id)
			}
		}
	}
}

// TestDrainDeadTargetSticky pins the failure ledger when a drain's only
// re-home target is itself dead: the target is ejected mid-migration, the
// drain aborts and reverts with zero loss for the source's sessions, the
// dead target's own sessions get a sticky rehomeErr (every later flush
// reports the same failure), and once the whole fleet is gone the surviving
// sessions' rehomeErr goes sticky the same way.
func TestDrainDeadTargetSticky(t *testing.T) {
	frames := e2e.PlaybackFrames(t, 5)
	tuples := kinect.ToTuples(frames)
	half := len(tuples) / 2
	chunk1, chunk2 := tuples[:half], tuples[half:]

	h := e2e.Start(t, e2e.Options{
		Backends:      2,
		Gateway:       true,
		Serve:         serve.Config{Shards: 1, QueueDepth: 128},
		Record:        true,
		ProbeInterval: -1, // probes off: only the data and migration paths may eject
	})
	gw := h.Gateway
	plan, _ := h.Registry.Get("swipe_right")
	want := e2e.EncodeDets(t, e2e.BareReplay(t, plan, e2e.WireTuples(t, tuples)))

	const sessions = 8
	cl := h.Dial()
	ids := make([]string, sessions)
	rss := make([]*wire.RemoteSession, sessions)
	for i := range rss {
		ids[i] = fmt.Sprintf("sticky-%02d", i)
		rs, err := cl.Attach(ids[i], wire.AttachOptions{BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		rss[i] = rs
		for _, tp := range chunk1 {
			if err := rs.FeedTuple(tp); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rs.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	victim := -1
	for b := 0; b < 2 && victim < 0; b++ {
		for _, id := range ids {
			if h.HasRecording(b, id) {
				victim = b
				break
			}
		}
	}
	if victim < 0 {
		t.Fatal("no backend owns any session")
	}
	other := 1 - victim
	victimID, otherID := h.Spawner.ID(victim), h.Spawner.ID(other)
	onVictim := make(map[string]bool)
	for _, id := range ids {
		onVictim[id] = h.HasRecording(victim, id)
	}

	// The only possible migration target dies silently (no probes), so the
	// drain discovers the corpse mid-migration, ejects it and aborts.
	h.KillBackend(other)
	moved, err := gw.Drain(victimID)
	if err == nil {
		t.Fatal("drain succeeded with the only target dead")
	}
	if !strings.Contains(err.Error(), "no live backend to migrate onto") {
		t.Errorf("drain error = %v, want the no-live-backend abort", err)
	}
	if moved != 0 {
		t.Errorf("drain moved %d sessions with no live target", moved)
	}
	if st := gw.State(victimID); st != cluster.StateLive {
		t.Errorf("aborted drain left the source in state %q, want live (reverted)", st)
	}
	if st := gw.State(otherID); st != cluster.StateRecovering {
		t.Errorf("dead target state = %q, want recovering", st)
	}
	if ids := gw.Ring().Backends(); len(ids) != 1 || ids[0] != victimID {
		t.Errorf("ring holds %v, want only the reverted source", ids)
	}
	ms := scrape(t, gw)
	if ms["cluster_migrations_total"] != 0 || ms["cluster_migrations_failed_total"] != 1 {
		t.Errorf("migrations: %v completed, %v failed; want 0, 1",
			ms["cluster_migrations_total"], ms["cluster_migrations_failed_total"])
	}

	// The aborted migration unsealed its source: every session still on the
	// reverted backend finishes the stream with zero loss and byte-identical
	// detections — a failed drain costs nothing.
	for i, id := range ids {
		if !onVictim[id] {
			continue
		}
		rs := rss[i]
		for _, tp := range chunk2 {
			if err := rs.FeedTuple(tp); err != nil {
				t.Fatal(err)
			}
		}
		c, err := rs.Flush()
		if err != nil {
			t.Fatalf("session %s: post-abort flush: %v", id, err)
		}
		if c.In != uint64(len(tuples)) || c.Out != c.In || c.Dropped != 0 {
			t.Errorf("session %s counters = %+v, want in=out=%d dropped=0", id, c, len(tuples))
		}
		if got := e2e.EncodeDets(t, rs.Detections()); !bytes.Equal(got, want) {
			t.Errorf("session %s detections diverge after the aborted migration", id)
		}
	}

	// The dead target's sessions were swept with an empty ring (the source
	// had already left it for the drain): their rehomeErr is sticky — the
	// same failure on every flush, the session never half-recovers.
	for i, id := range ids {
		if onVictim[id] {
			continue
		}
		for attempt := 1; attempt <= 2; attempt++ {
			_, err := rss[i].Flush()
			if err == nil {
				t.Fatalf("session %s flush %d succeeded on a dead backend with no re-home target", id, attempt)
			}
			if _, ok := err.(*wire.ErrorReply); !ok {
				t.Fatalf("session %s flush %d error is %T, want *wire.ErrorReply", id, attempt, err)
			}
			if !strings.Contains(err.Error(), "no live backend to re-home onto") {
				t.Errorf("session %s flush %d error = %v, want the sticky re-home failure", id, attempt, err)
			}
		}
	}

	// Kill the reverted source too: its sessions hit the same sticky path on
	// their next flush, and the failure stays pinned across retries.
	h.KillBackend(victim)
	for i, id := range ids {
		if !onVictim[id] {
			continue
		}
		for attempt := 1; attempt <= 2; attempt++ {
			_, err := rss[i].Flush()
			if err == nil {
				t.Fatalf("session %s flush %d succeeded with the whole fleet dead", id, attempt)
			}
			if !strings.Contains(err.Error(), "no live backend to re-home onto") {
				t.Errorf("session %s flush %d error = %v, want the sticky re-home failure", id, attempt, err)
			}
		}
	}
}

// TestDrainThenCloseNoGoroutineLeak races Close against an in-flight Drain
// and requires the goroutine count to return to baseline: Close interrupts
// the drain at its next quit poll (aborting the in-flight migration and
// unsealing its source), waits the drain goroutine out, and only then tears
// down the backend connections the drain was speaking over.
func TestDrainThenCloseNoGoroutineLeak(t *testing.T) {
	frames := e2e.PlaybackFrames(t, 3)
	tuples := kinect.ToTuples(frames)
	h := e2e.Start(t, e2e.Options{
		Backends: 2,
		Serve:    serve.Config{Shards: 1, QueueDepth: 128},
		Record:   true,
	})
	before := runtime.NumGoroutine()

	gw, err := cluster.NewGateway(cluster.Config{
		Backends:      h.Spawner.Backends(),
		Name:          "drain-close",
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		t.Fatal(err)
	}
	go gw.Serve(ln)
	cl, err := wire.Dial(ln.Addr().String())
	if err != nil {
		gw.Close()
		t.Fatal(err)
	}
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("leak-%02d", i)
		rs, err := cl.Attach(ids[i], wire.AttachOptions{BatchSize: 16})
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
	}
	victimID := ""
	for b := 0; b < 2 && victimID == ""; b++ {
		for _, id := range ids {
			if h.HasRecording(b, id) {
				victimID = h.Spawner.ID(b)
				break
			}
		}
	}
	if victimID == "" {
		t.Fatal("no backend owns any session")
	}

	// Launch the drain and close the gateway the moment it is committed
	// (state flipped to draining) — or already done, both orders must leak
	// nothing.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		gw.Drain(victimID)
	}()
	for gw.State(victimID) == cluster.StateLive {
		select {
		case <-drained:
		default:
			runtime.Gosched()
			continue
		}
		break
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	<-drained
	cl.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after drain-then-close (baseline %d):\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// BenchmarkGatewayMigration measures live-migration replay throughput: one
// session with a recorded history is drained back and forth between two
// backends, a full stateful move per iteration. The tuples/s metric is the
// catch-up replay rate (source recording → gateway → target), the number
// that bounds how fast a rolling restart can evacuate a loaded backend.
func BenchmarkGatewayMigration(b *testing.B) {
	h := e2e.Start(b, e2e.Options{
		Backends:      2,
		Gateway:       true,
		Serve:         serve.Config{Shards: 2, QueueDepth: 256},
		Record:        true,
		ProbeInterval: -1,
	})
	gw := h.Gateway
	tuples := kinect.ToTuples(e2e.PlaybackFrames(b, 7))
	cl := h.Dial()
	rs, err := cl.Attach("bench", wire.AttachOptions{BatchSize: 64, Discard: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, tp := range tuples {
		if err := rs.FeedTuple(tp); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := rs.Flush(); err != nil {
		b.Fatal(err)
	}
	owner := 0
	if !h.HasRecording(0, "bench") {
		owner = 1
	}
	start := scrape(b, gw)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := h.Spawner.ID(owner)
		if _, err := gw.Drain(id); err != nil {
			b.Fatal(err)
		}
		if err := gw.AddBackend(id, h.Spawner.Addr(owner)); err != nil {
			b.Fatal(err)
		}
		owner = 1 - owner
	}
	b.StopTimer()
	ms := scrape(b, gw)
	delta := func(series string) float64 { return ms[series] - start[series] }
	if got := delta("cluster_migrations_total"); got != float64(b.N) {
		b.Fatalf("%v migrations completed over %d iterations", got, b.N)
	}
	if failed := delta("cluster_migrations_failed_total"); failed != 0 {
		b.Fatalf("%v migrations failed mid-benchmark", failed)
	}
	b.ReportMetric(delta("cluster_migrated_tuples_total")/b.Elapsed().Seconds(), "tuples/s")
	if _, err := rs.Detach(); err != nil {
		b.Fatal(err)
	}
}
