package wire

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/serve"
	"gesturecep/internal/stream"
)

// Tests of the local host's lent decode buffer: localSession.Batch decodes
// into a recycled BatchBuf that rides the shard queue and must come back
// exactly once on every path. A second Release panics, so batchBufsOut
// returning to zero means every buffer taken was released once.

const kinectFields = 45

// Every tuple completes tickQuery; restQuery starts a run on every tuple and
// never completes one, so runs pile up and expire.
const (
	tickQuery = `SELECT "tick" MATCHING kinect_t(rHand_x > -1000000000);`
	restQuery = `SELECT "rest" MATCHING kinect_t(rHand_x > -1000000000) -> kinect_t(rHand_x > 1000000000) within 300 ms select first consume all;`
)

// lendFixture starts a manager serving the given queries and attaches one
// session the way localHost.Attach does, minus the connection.
func lendFixture(t *testing.T, cfg serve.Config, queries ...string) (*serve.Manager, *localSession) {
	t.Helper()
	if n := batchBufsOut.Load(); n != 0 {
		t.Fatalf("%d batch buffers outstanding before the test started", n)
	}
	reg := serve.NewRegistry()
	for _, q := range queries {
		name := strings.Split(q, `"`)[1]
		if _, err := reg.Register(name, q); err != nil {
			t.Fatal(err)
		}
	}
	mgr, err := serve.NewManager(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	sess, err := mgr.CreateSession("lender")
	if err != nil {
		t.Fatal(err)
	}
	sess.SetCollect(false)
	return mgr, newLocalSession(NewServer(mgr), sess, nil, kinectFields)
}

// lendPayloads encodes n consecutive batches of width tuples, each fields
// wide, carrying only the fields in reads (nil: every field).
func lendPayloads(n, width, fields int, reads *stream.ReadSet) [][]byte {
	tuples := poolTuples(n*width, fields)
	out := make([][]byte, n)
	for i := range out {
		out[i] = appendReadBatch(nil, 1, tuples[i*width:(i+1)*width], reads.Fields(), 0)
	}
	return out
}

func wantCounters(t *testing.T, s *serve.Session, in, dropped uint64) {
	t.Helper()
	if gotIn, out, gotDropped := s.Counters(); gotIn != in || out != in || gotDropped != dropped {
		t.Errorf("counters in/out/dropped = %d/%d/%d, want %d/%d/%d", gotIn, out, gotDropped, in, in, dropped)
	}
}

func wantAllReleased(t *testing.T, mgr *serve.Manager) {
	t.Helper()
	mgr.Close()
	if n := batchBufsOut.Load(); n != 0 {
		t.Errorf("%d batch buffers outstanding after Manager.Close, want 0", n)
	}
}

// holdWorker parks the shard worker inside the session's first detection
// until release is called; entered is closed once it is parked.
func holdWorker(s *serve.Session) (entered chan struct{}, release func()) {
	entered, hold := make(chan struct{}), make(chan struct{})
	first := true
	s.OnDetection(func(anduin.Detection) {
		if first {
			first = false
			close(entered)
			<-hold
		}
	})
	return entered, func() { close(hold) }
}

func TestLentBatchClosedFromListenerMidBatch(t *testing.T) {
	mgr, ls := lendFixture(t, serve.Config{Shards: 1}, tickQuery)
	fired := 0
	ls.sess.OnDetection(func(anduin.Detection) {
		fired++
		ls.sess.Close() // the other 63 tuples of the batch are skipped
	})
	if err := ls.Batch(RawBatch{Payload: lendPayloads(1, 64, kinectFields, ls.reads)[0]}); err != nil {
		t.Fatal(err)
	}
	ls.sess.Flush()
	if fired != 1 {
		t.Errorf("%d detections, want 1: the listener closed the session on the first", fired)
	}
	wantCounters(t, ls.sess, 64, 0)
	wantAllReleased(t, mgr)
}

func TestLentBatchesQueuedWhenSessionCloses(t *testing.T) {
	mgr, ls := lendFixture(t, serve.Config{Shards: 1, QueueDepth: 256}, tickQuery)
	entered, release := holdWorker(ls.sess)
	payloads := lendPayloads(3, 64, kinectFields, ls.reads)
	for i, p := range payloads {
		if err := ls.Batch(RawBatch{Payload: p}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-entered // batch 0 is in the worker's hands, 1 and 2 will queue
		}
	}
	if n := batchBufsOut.Load(); n != 3 {
		t.Errorf("%d batch buffers outstanding with one batch in process and two queued, want 3", n)
	}
	if err := mgr.CloseSession("lender"); err != nil {
		t.Fatal(err)
	}
	release()
	ls.sess.Flush()
	wantCounters(t, ls.sess, 192, 0)
	wantAllReleased(t, mgr)
}

func TestLentBatchesEvictedByDropOldest(t *testing.T) {
	mgr, ls := lendFixture(t, serve.Config{Shards: 1, QueueDepth: 128, Policy: serve.DropOldest}, tickQuery)
	entered, release := holdWorker(ls.sess)
	payloads := lendPayloads(6, 64, kinectFields, ls.reads)
	for i, p := range payloads {
		if err := ls.Batch(RawBatch{Payload: p}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-entered
		}
	}
	// Batch 0 is being published; of the five fed behind it the queue holds
	// the last two, and the evictor has already given the other three back.
	if n := batchBufsOut.Load(); n != 3 {
		t.Errorf("%d batch buffers outstanding behind a full queue of 2, want 3", n)
	}
	release()
	ls.sess.Flush()
	wantCounters(t, ls.sess, 384, 192)
	wantAllReleased(t, mgr)
}

func TestRefusedBatchIsReleasedByTheCaller(t *testing.T) {
	mgr, ls := lendFixture(t, serve.Config{Shards: 1}, tickQuery)
	good := lendPayloads(1, 64, kinectFields, ls.reads)[0]
	refusals := []struct {
		name    string
		payload []byte
		arrange func()
	}{
		{"malformed payload", good[:len(good)-1], func() {}},
		{"wrong arity", lendPayloads(1, 64, 3, nil)[0], func() {}},
		{"sealed session", good, ls.sess.Seal},
		{"closed session", good, func() { ls.sess.Close() }},
		{"closed manager", good, mgr.Close},
	}
	for _, r := range refusals {
		r.arrange()
		if err := ls.Batch(RawBatch{Payload: r.payload}); err == nil {
			t.Errorf("%s: batch accepted", r.name)
		}
		if n := batchBufsOut.Load(); n != 0 {
			t.Fatalf("%s: %d batch buffers outstanding after the refusal, want 0", r.name, n)
		}
	}
	wantCounters(t, ls.sess, 0, 0)
	wantAllReleased(t, mgr)
}

// TestBatchAllocGate: once the pooled buffers and the shard ring are warm, a
// 64-tuple payload carrying the session's read set through decode-into →
// FeedLent → publish (the kinect_t view and two queries, one of which
// starts and expires runs all the time) allocates nothing, on the feeding
// goroutine or the shard worker.
func TestBatchAllocGate(t *testing.T) {
	mgr, ls := lendFixture(t, serve.Config{Shards: 1}, restQuery,
		`SELECT "never" MATCHING kinect_t(rHand_x > 1000000000);`)
	if ls.reads == nil {
		t.Fatal("the session advertises no read set; the batches would be full width")
	}
	// One payload, re-stamped per round so event time keeps moving forward
	// and the runs restQuery starts meet their window.
	tuples := poolTuples(64, kinectFields)
	var payload []byte
	round := 0
	feed := func() {
		for i := range tuples {
			tuples[i].Ts = testTime().Add(time.Duration(round*64+i) * 33 * time.Millisecond)
		}
		round++
		payload = appendReadBatch(payload[:0], 1, tuples, ls.reads.Fields(), 0)
		if err := ls.Batch(RawBatch{Payload: payload}); err != nil {
			t.Fatal(err)
		}
		ls.sess.Flush()
	}
	for range 20 {
		feed()
	}
	allocs := testing.AllocsPerRun(200, feed)
	_, _, _, pruned, err := ls.sess.Engine().QueryStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if pruned == 0 {
		t.Fatal("no run was ever started and pruned; the gate exercises nothing")
	}
	if allocs != 0 {
		t.Errorf("a 64-tuple batch through decode, feed and publish allocates %.2f times, want 0", allocs)
	}
	wantAllReleased(t, mgr)
}

// TestDecodeIntoDirtyBuffer: a recycled buffer that last held a wider batch,
// or one of another field count, decodes exactly what a fresh DecodeBatch
// does — the right count, the right widths, nothing of the previous tenant.
func TestDecodeIntoDirtyBuffer(t *testing.T) {
	bb := new(BatchBuf)
	for _, shape := range [][2]int{{64, kinectFields}, {3, kinectFields}, {5, 7}, {1, 1}, {64, kinectFields}} {
		payload := lendPayloads(1, shape[0], shape[1], nil)[0]
		got, err := DecodeBatchInto(bb, payload)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeBatch(payload)
		if err != nil {
			t.Fatal(err)
		}
		if msg := sameBatch(got, want); msg != "" {
			t.Fatalf("%d tuples of %d fields into a dirty buffer: %s", shape[0], shape[1], msg)
		}
	}
}

// TestDecodeOnlyTheReadSet: a batch carrying a read set decodes to exactly
// its fields, bit for bit as the full decode of the same tuples does, and
// with ended loans poisoned leaves NaN in every other field — also in a
// buffer that held a full decode, and in one grown for the batch.
func TestDecodeOnlyTheReadSet(t *testing.T) {
	stream.PoisonEndedLoans(true)
	defer stream.PoisonEndedLoans(false)
	reads := stream.NewReadSet(0, 2, 24, 25, 26, 44)
	bb := new(BatchBuf)
	for _, width := range []int{64, 3, 64, 200} {
		tuples := poolTuples(width, kinectFields)
		payload, err := AppendBatch(nil, 1, kinectFields, tuples)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeBatch(payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeBatchInto(bb, payload); err != nil {
			t.Fatal(err)
		}
		got, err := decodeBatch(bb, appendReadBatch(nil, 1, tuples, reads.Fields(), 0), reads, kinectFields, false)
		if err != nil {
			t.Fatal(err)
		}
		if msg := sameBatchOn(got, want, reads.Fields()); msg != "" {
			t.Fatalf("%d tuples: %s", width, msg)
		}
		for i, tup := range got.Tuples {
			for k, v := range tup.Fields {
				if !slices.Contains(reads.Fields(), k) && !math.IsNaN(v) {
					t.Fatalf("%d tuples: tuple %d field %d outside the read set holds %g, want NaN", width, i, k, v)
				}
			}
		}
	}
}

// sameBatch reports how two decoded batches differ, "" when they do not.
// Fields compare as bits (payloads may carry NaNs) and capacities count: a
// tuple must not be able to reach into its neighbour's fields.
func sameBatch(got, want Batch) string { return sameBatchOn(got, want, nil) }

// sameBatchOn is sameBatch comparing the values of only the given fields
// (nil: every field).
func sameBatchOn(got, want Batch, fields []int) string {
	if got.Handle != want.Handle || got.Fields != want.Fields || got.SentNs != want.SentNs || len(got.Tuples) != len(want.Tuples) {
		return "headers or tuple counts differ"
	}
	for i := range want.Tuples {
		g, w := got.Tuples[i], want.Tuples[i]
		if !g.Ts.Equal(w.Ts) || g.Seq != w.Seq || len(g.Fields) != len(w.Fields) || cap(g.Fields) != len(g.Fields) {
			return "tuple headers differ"
		}
		for k := range w.Fields {
			if fields != nil && !slices.Contains(fields, k) {
				continue
			}
			if math.Float64bits(g.Fields[k]) != math.Float64bits(w.Fields[k]) {
				return "fields differ"
			}
		}
	}
	return ""
}
