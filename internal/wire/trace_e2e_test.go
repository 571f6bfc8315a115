package wire_test

import (
	"bytes"
	"testing"

	"gesturecep/internal/e2e"
	"gesturecep/internal/kinect"
	"gesturecep/internal/obs"
	"gesturecep/internal/serve"
	"gesturecep/internal/wire"
)

// TestWireTracePropagation proves trace sampling is semantically invisible:
// a session streaming with every batch trace-sampled must produce
// detections byte-identical to an untraced session and to the bare-engine
// replay, while the server-side stage histograms (queue wait, detect,
// ingest) and the client's flush-RTT histogram actually record samples —
// i.e. the timestamps really propagated, they just never touched the data.
func TestWireTracePropagation(t *testing.T) {
	frames := e2e.PlaybackFrames(t, 7)
	tuples := kinect.ToTuples(frames)
	h := e2e.Start(t, e2e.Options{Serve: serve.Config{Shards: 2}})
	ins := h.Manager(0).Instruments()

	plan, _ := h.Registry.Get("swipe_right")
	want := e2e.EncodeDets(t, e2e.BareReplay(t, plan, e2e.WireTuples(t, tuples)))

	run := func(id string, traceEvery int) []byte {
		t.Helper()
		cl := h.Dial()
		cl.FlushRTT = obs.NewHistogram()
		rs, err := cl.Attach(id, wire.AttachOptions{BatchSize: 7, TraceEvery: traceEvery})
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
		dets := e2e.EncodeDets(t, rs.Detections())
		if _, err := rs.Detach(); err != nil {
			t.Fatal(err)
		}
		if traceEvery > 0 && cl.FlushRTT.Count() == 0 {
			t.Errorf("session %s: client flush-RTT histogram recorded nothing", id)
		}
		return dets
	}

	untraced := run("untraced", 0)
	if ins.Ingest.Count() != 0 {
		t.Fatalf("untraced traffic recorded %d ingest samples; tracing must be opt-in", ins.Ingest.Count())
	}
	traced := run("traced", 1) // every batch sampled

	if bytes.Equal(want, e2e.EncodeDets(t, nil)) {
		t.Fatal("bare replay detected nothing")
	}
	if !bytes.Equal(untraced, want) {
		t.Error("untraced session diverges from bare replay")
	}
	if !bytes.Equal(traced, want) {
		t.Error("traced session diverges from bare replay — tracing perturbed detections")
	}

	// Every traced batch contributes exactly one sample per stage histogram
	// (its first tuple), so with TraceEvery=1 the counts equal the number of
	// batches: ceil(len(tuples)/7) plus any partial flush.
	batches := (len(tuples) + 6) / 7
	for name, hist := range map[string]*obs.Histogram{
		"queue_wait": ins.QueueWait, "detect": ins.Detect, "ingest": ins.Ingest,
	} {
		if got := hist.Count(); got != uint64(batches) {
			t.Errorf("%s histogram has %d samples, want %d (one per traced batch)", name, got, batches)
		}
	}
}
