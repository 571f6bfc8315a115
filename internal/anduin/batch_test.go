package anduin_test

import (
	"bytes"
	"testing"

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
// A plain subscriber of the raw stream and one of the view see every
// tuple in order, and a slice's tuples all before any of its detections.
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
		e, raw, view, got := batchPipeline(t)
		// seen counts the tuples the plain raw and view subscribers got;
		// [at, end) is the batch PublishBatch is delivering.
		var seen [2]int
		var at, end int
		for who, s := range []*stream.Stream{raw, view} {
			s.Subscribe(func(tu stream.Tuple) {
				if seen[who] == len(tuples) || tu.Seq != tuples[seen[who]].Seq {
					t.Fatalf("batches of %d: %s subscriber got seq %d after %d tuples", width, s.Name(), tu.Seq, seen[who])
				}
				seen[who]++
			})
		}
		e.Subscribe(func(d anduin.Detection) {
			// The detection's slice of 64 has been seen whole by both, and
			// fired it: no tuple of a later slice came before it.
			n := seen[0]
			from := at + max(n-1-at, 0)/64*64
			if seen[1] != n || n != min(from+64, end) || d.End.Before(tuples[from].Ts) || d.End.After(tuples[n-1].Ts) {
				t.Fatalf("batches of %d: detection ending %v dispatched after %d raw and %d view tuples of the batch [%d, %d)", width, d.End, seen[0], seen[1], at, end)
			}
		})
		for at = 0; at < len(tuples); at += width {
			end = min(at+width, len(tuples))
			if err := e.PublishBatch(raw, tuples[at:end], nil); err != nil {
				t.Fatal(err)
			}
		}
		if seen != [2]int{len(tuples), len(tuples)} {
			t.Fatalf("batches of %d: plain subscribers saw %v of %d tuples", width, seen, len(tuples))
		}
		if !bytes.Equal(e2e.EncodeDets(t, *got), e2e.EncodeDets(t, *want)) {
			t.Fatalf("batches of %d: %d detections %+v\nper tuple: %d detections %+v", width, len(*got), *got, len(*want), *want)
		}
	}
}
