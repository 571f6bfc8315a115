package cluster

import (
	"fmt"
	"testing"

	"gesturecep/internal/anduin"
)

// TestMergeCopies pins which copy of a stream a fleet backfill keeps: the
// one that read the most tuples, the earlier backend on a tie, and nothing
// from a failed call.
func TestMergeCopies(t *testing.T) {
	streams := []string{"a", "b", "c", "d"}
	// answer fabricates backend id's answer: it holds the streams named in
	// tuples, with those counts, and misses the rest.
	answer := func(id string, tuples map[string]uint64) *backfillCopy {
		c := &backfillCopy{id: id, dets: make([][]anduin.Detection, len(streams)), missing: map[int]bool{}}
		c.reply.StreamRecords = make([]uint64, len(streams))
		c.reply.StreamTuples = make([]uint64, len(streams))
		for i, name := range streams {
			n, ok := tuples[name]
			if !ok {
				c.missing[i] = true
				continue
			}
			c.dets[i] = []anduin.Detection{{Gesture: id + "/" + name}}
			c.reply.StreamRecords[i], c.reply.StreamTuples[i] = n/2, n
		}
		return c
	}
	copies := []*backfillCopy{
		answer("be-0", map[string]uint64{"a": 4, "b": 2}),
		answer("be-1", map[string]uint64{"a": 4}),
		nil, // a failed call
		answer("be-3", map[string]uint64{"b": 6, "c": 8}),
		answer("be-4", map[string]uint64{"c": 8}),
	}
	res := mergeCopies(streams, copies)
	for i, want := range []string{"be-0/a", "be-3/b", "be-3/c", ""} {
		got := ""
		if len(res.Detections[i]) > 0 {
			got = res.Detections[i][0].Gesture
		}
		if got != want {
			t.Errorf("stream %s merged from %q, want %q", streams[i], got, want)
		}
	}
	if fmt.Sprint(res.Missing) != "[d]" || res.Found != 3 {
		t.Errorf("found %d, missing %v; want 3 and [d]", res.Found, res.Missing)
	}
	if got := fmt.Sprint(res.Sources); got != "map[be-0:[a] be-3:[b c]]" {
		t.Errorf("sources = %s", got)
	}
	if res.Records != 9 || res.Tuples != 18 {
		t.Errorf("records %d, tuples %d; want the chosen copies' 9 and 18", res.Records, res.Tuples)
	}
}
