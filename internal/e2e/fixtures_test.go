package e2e

import (
	"bytes"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/wire"
)

// TestEncodeDetsBeyondOneFrame: a session that fires more detections than
// one wire frame holds still has canonical bytes — the first
// wire.MaxDetections in one payload, the rest in the next.
func TestEncodeDetsBeyondOneFrame(t *testing.T) {
	dets := make([]anduin.Detection, wire.MaxDetections+1)
	for i := range dets {
		at := TestTime().Add(time.Duration(i) * time.Millisecond)
		dets[i] = anduin.Detection{Gesture: "swipe_right", Start: at, End: at.Add(time.Second)}
	}
	head, err := wire.AppendDetections(nil, 0, 0, dets[:wire.MaxDetections])
	if err != nil {
		t.Fatal(err)
	}
	want, err := wire.AppendDetections(head, 0, 0, dets[wire.MaxDetections:])
	if err != nil {
		t.Fatal(err)
	}
	if got := EncodeDets(t, dets); !bytes.Equal(got, want) {
		t.Fatalf("%d detections encode to %d bytes, want %d", len(dets), len(got), len(want))
	}
}
