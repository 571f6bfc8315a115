package anduin_test

import (
	"bytes"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/e2e"
	"gesturecep/internal/stream"
)

// eitherQuery's first pose is an `or`, which the compiler leaves to a
// closure, so its NFA asks state 0 tuple by tuple even in a batch.
const eitherQuery = `SELECT "hand_up", rHand_y, lHand_y
MATCHING kinect_t(rHand_y > 250 or lHand_y > 250) ->
         kinect_t(abs(rHand_y - 0) < 150 and abs(lHand_y - 0) < 150)
within 2 seconds select first consume all;`

// batchPipeline is pipeline plus the left-hand and the `or` plan.
func batchPipeline(t *testing.T) (e *anduin.Engine, raw, view *stream.Stream, dets *[]anduin.Detection) {
	t.Helper()
	e, raw, view, dets = pipeline(t)
	for _, q := range []string{leftQuery, eitherQuery} {
		if _, err := e.DeployText(q); err != nil {
			t.Fatal(err)
		}
	}
	return e, raw, view, dets
}

// TestPublishBatchEqualsPerTuple: publishing the session in batches of 1, 7,
// 64 or 150 (which goes through in slices of 64) through
// Engine.PublishBatch dispatches, byte for byte and measures
// included, the detections publishing it tuple by tuple does, in the same
// order — across the eight demo plans, a hand-written left-hand plan and
// one whose first atom is a closure. Ended loans are poisoned, so a
// measure evaluated on a tuple the batch no longer holds would read NaN.
func TestPublishBatchEqualsPerTuple(t *testing.T) {
	stream.PoisonEndedLoans(true)
	defer stream.PoisonEndedLoans(false)
	tuples := projectionSession(t)
	_, raw, _, want := batchPipeline(t)
	for _, in := range tuples {
		if err := raw.Publish(in); err != nil {
			t.Fatal(err)
		}
	}
	fired := map[string]int{}
	for _, d := range *want {
		fired[d.Gesture]++
	}
	if fired["left_raise"] < 2 || fired["hand_up"] < 1 || len(fired) < 4 {
		t.Fatalf("per tuple fired %v; the comparison needs the extra plans and several demo plans to fire", fired)
	}
	for _, width := range []int{1, 7, 64, 150} {
		e, raw, _, got := batchPipeline(t)
		for off := 0; off < len(tuples); off += width {
			if err := e.PublishBatch(raw, tuples[off:min(off+width, len(tuples))], nil); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(e2e.EncodeDets(t, *got), e2e.EncodeDets(t, *want)) {
			t.Fatalf("batches of %d: %d detections %+v\nper tuple: %d detections %+v", width, len(*got), *got, len(*want), *want)
		}
	}
}

// TestPublishBatchThroughAPerTupleViewPanics: a plan behind a stream.Derive
// view gets the batch a tuple at a time, so its matches could not be merged
// into tuple order; PublishBatch refuses loudly instead of misordering.
func TestPublishBatchThroughAPerTupleViewPanics(t *testing.T) {
	e := anduin.New()
	src, err := e.RegisterStream("s", stream.MustSchema("a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterView("v", "s", src.Schema(), func(tu stream.Tuple) (stream.Tuple, bool) { return tu, true }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeployText(`SELECT "high" MATCHING v(a > 5);`); err != nil {
		t.Fatal(err)
	}
	ts := []stream.Tuple{stream.NewTuple(time.Unix(0, 0), 1, []float64{9}), stream.NewTuple(time.Unix(1, 0), 2, []float64{9})}
	if err := e.PublishBatch(src, ts[:1], nil); err != nil {
		t.Fatalf("a batch of one: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a two-tuple batch reached a plan behind a per-tuple view without a panic")
		}
	}()
	e.PublishBatch(src, ts, nil)
}
