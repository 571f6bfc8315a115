package serve

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Lifecycle edge cases the base suite does not cover: CloseSession racing
// in-flight Feeds, session-ID reuse while the previous incarnation's tuples
// are still queued, and Metrics snapshot invariants under concurrent
// ingestion. All are -race workhorses.

// TestCloseSessionDuringFeed closes sessions while feeders are mid-Feed and
// checks that every admitted tuple is drained and the accounting balances —
// a Feed must never strand a tuple on a session that closed under it.
func TestCloseSessionDuringFeed(t *testing.T) {
	for _, pol := range []Policy{Block, DropOldest} {
		t.Run(pol.String(), func(t *testing.T) {
			m := newTestManager(t, Config{Shards: 2, QueueDepth: 4, Policy: pol},
				map[string]string{"never": neverQuery})
			tuples := idleTuples(t, 1)
			const sessions = 8
			var wg sync.WaitGroup
			for i := 0; i < sessions; i++ {
				s, err := m.CreateSession(fmt.Sprintf("u%d", i))
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(s *Session) {
					defer wg.Done()
					for s.FeedTuple(tuples[0]) == nil {
					}
				}(s)
				wg.Add(1)
				go func(id string) {
					defer wg.Done()
					time.Sleep(time.Duration(i) * time.Millisecond)
					if err := m.CloseSession(id); err != nil {
						t.Errorf("close %s: %v", id, err)
					}
				}(s.ID())
			}
			wg.Wait()
			m.Flush()
			for i, sh := range m.shards {
				if enq, out := sh.enqueued.Load(), sh.processed.Load()+sh.dropped.Load(); enq != out {
					t.Errorf("shard %d stranded tuples: enqueued=%d processed+dropped=%d", i, enq, out)
				}
			}
			if got := m.SessionCount(); got != 0 {
				t.Errorf("SessionCount = %d after closing all sessions, want 0", got)
			}
		})
	}
}

// TestSessionIDReuseWithQueuedTuples re-creates a session under its old ID
// while tuples of the previous incarnation are still queued: the stale
// envelopes must be skipped (closed-session check), the new incarnation must
// process only its own tuples, and the counters of the two incarnations must
// stay separate.
func TestSessionIDReuseWithQueuedTuples(t *testing.T) {
	m, entered, release := gatedManager(t, Config{QueueDepth: 8, Policy: Block})
	old, err := m.CreateSession("u")
	if err != nil {
		t.Fatal(err)
	}
	tuples := idleTuples(t, 6)

	// Tuple 0 occupies the worker at the gate; 1 and 2 wait in the queue.
	for i := 0; i < 3; i++ {
		if err := old.FeedTuple(tuples[i]); err != nil {
			t.Fatal(err)
		}
	}
	<-entered

	// Close the session while its tuples are still queued, then reuse the ID.
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	reborn, err := m.CreateSession("u")
	if err != nil {
		t.Fatalf("session id not reusable while old tuples queued: %v", err)
	}
	if reborn == old {
		t.Fatal("CreateSession returned the closed session")
	}
	for i := 3; i < 6; i++ {
		if err := reborn.FeedTuple(tuples[i]); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	// Five envelopes remain after the one already consumed at the gate.
	for i := 0; i < 5; i++ {
		<-entered
	}
	old.Flush()
	reborn.Flush()

	// The old incarnation's queued tuples left the queue but were skipped:
	// the close happened while the worker was gated on tuple 0, so none of
	// the three reached its engine.
	if in, out, dropped := old.Counters(); in != 3 || out != 3 || dropped != 0 {
		t.Errorf("old counters = %d/%d/%d, want 3/3/0", in, out, dropped)
	}
	if raw, ok := old.Engine().Stream("kinect"); ok && raw.Published() != 0 {
		t.Errorf("old engine published %d tuples, want 0 (all skipped after close)", raw.Published())
	}
	if in, out, dropped := reborn.Counters(); in != 3 || out != 3 || dropped != 0 {
		t.Errorf("reborn counters = %d/%d/%d, want 3/3/0", in, out, dropped)
	}
	if raw, ok := reborn.Engine().Stream("kinect"); ok && raw.Published() != 3 {
		t.Errorf("reborn engine published %d tuples, want 3", raw.Published())
	}
}

// TestMetricsSnapshotConsistency polls Metrics while many goroutines ingest
// concurrently and checks the invariants every snapshot must satisfy:
// totals equal the per-shard sums, outflow never exceeds inflow, and the
// final quiescent snapshot balances exactly.
func TestMetricsSnapshotConsistency(t *testing.T) {
	m := newTestManager(t, Config{Shards: 4, QueueDepth: 8, Policy: DropOldest},
		map[string]string{"never": neverQuery})
	tuples := idleTuples(t, 1)
	const sessions = 8
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		s, err := m.CreateSession(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			for !stop.Load() {
				if err := s.FeedTuple(tuples[0]); err != nil {
					return
				}
			}
		}(s)
	}

	deadline := time.Now().Add(200 * time.Millisecond)
	snapshots := 0
	for time.Now().Before(deadline) {
		mm := m.Metrics()
		snapshots++
		var enq, proc, drop, det uint64
		var depth int
		for _, sm := range mm.Shards {
			if sm.Processed+sm.Dropped > sm.Enqueued {
				t.Fatalf("shard %d snapshot out > in: %+v", sm.Shard, sm)
			}
			enq += sm.Enqueued
			proc += sm.Processed
			drop += sm.Dropped
			det += sm.Detections
			depth += sm.QueueDepth
		}
		if mm.Enqueued != enq || mm.Processed != proc || mm.Dropped != drop ||
			mm.Detections != det || mm.QueueDepth != depth {
			t.Fatalf("totals diverge from shard sums: %+v", mm)
		}
		if mm.Sessions != sessions {
			t.Fatalf("snapshot sessions = %d, want %d", mm.Sessions, sessions)
		}
		if len(mm.PerSession) != sessions {
			t.Fatalf("snapshot lists %d sessions, want %d", len(mm.PerSession), sessions)
		}
		for i, sm := range mm.PerSession {
			if sm.Out > sm.In {
				t.Fatalf("session %q snapshot out > in: %+v", sm.ID, sm)
			}
			if sm.Queued != sm.In-sm.Out {
				t.Fatalf("session %q queued %d != in-out %d", sm.ID, sm.Queued, sm.In-sm.Out)
			}
			if i > 0 && mm.PerSession[i-1].ID >= sm.ID {
				t.Fatalf("per-session snapshot not sorted: %q before %q", mm.PerSession[i-1].ID, sm.ID)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	m.Flush()

	final := m.Metrics()
	if final.Processed+final.Dropped != final.Enqueued {
		t.Errorf("final snapshot unbalanced: %s", final)
	}
	if final.QueueDepth != 0 {
		t.Errorf("final queue depth = %d, want 0", final.QueueDepth)
	}
	if snapshots == 0 {
		t.Fatal("no snapshots taken")
	}
}

// TestPerSessionMetrics drives two sessions to different depths and checks
// the per-session snapshot: exact counters per ID, queue drained to zero
// after Flush, drops attributed to the right session, and JSON tags
// present (the snapshot is served verbatim over the wire metrics frame).
func TestPerSessionMetrics(t *testing.T) {
	m := newTestManager(t, Config{Shards: 2, QueueDepth: 64},
		map[string]string{"never": neverQuery})
	tuples := idleTuples(t, 1)
	a, err := m.CreateSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.CreateSession("bob")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.FeedTuple(tuples[0]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := b.FeedTuple(tuples[0]); err != nil {
			t.Fatal(err)
		}
	}
	m.Flush()

	mm := m.Metrics()
	if len(mm.PerSession) != 2 {
		t.Fatalf("PerSession has %d entries, want 2", len(mm.PerSession))
	}
	byID := map[string]SessionMetrics{}
	for _, sm := range mm.PerSession {
		byID[sm.ID] = sm
	}
	if sm := byID["alice"]; sm.In != 10 || sm.Out != 10 || sm.Queued != 0 || sm.Dropped != 0 {
		t.Errorf("alice snapshot = %+v", sm)
	}
	if sm := byID["bob"]; sm.In != 3 || sm.Out != 3 || sm.Queued != 0 {
		t.Errorf("bob snapshot = %+v", sm)
	}
	if sm := byID["alice"]; sm.Shard != a.Shard() {
		t.Errorf("alice on shard %d, snapshot says %d", a.Shard(), sm.Shard)
	}

	data, err := json.Marshal(mm)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"per_session"`, `"queued"`, `"dropped"`, `"id":"alice"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("metrics JSON lacks %s: %s", key, data)
		}
	}
}
