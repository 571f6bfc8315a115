// Package e2e is the shared end-to-end test harness: it spins up an
// in-process serving cluster — N wire backends, optionally fronted by a
// consistent-hash gateway, optionally recording every session into a
// per-backend stream-store archive — behind one Harness type, plus the
// deterministic fixtures (a learned query, playback recordings, canonical
// detection encoding, the bare-engine reference replay) that the cluster,
// wire and store test suites previously each hand-rolled.
//
// It lives outside _test files so multiple packages can import it; only
// test code should depend on it.
package e2e

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/kinect"
	"gesturecep/internal/learn"
	"gesturecep/internal/stream"
	"gesturecep/internal/transform"
	"gesturecep/internal/wire"
)

// TestTime is the fixed event-time origin every fixture uses (the paper's
// submission week, as elsewhere in the repo).
func TestTime() time.Time { return time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC) }

// SwipeQuery returns the generated query text of swipe_right, the first
// demo gesture.
func SwipeQuery(t testing.TB) string {
	t.Helper()
	return DemoQueries(t)[0]
}

var (
	demoOnce sync.Once
	demoTxts []string
	demoErr  error
)

// DemoQueries learns the eight demo gestures exactly as cmd/gestured does at
// start-up with -seed 1, once per test binary, and returns the generated
// query texts in kinect.DemoGestureNames order.
func DemoQueries(t testing.TB) []string {
	t.Helper()
	demoOnce.Do(func() {
		var learned []*learn.Result
		learned, demoErr = learn.Demo(len(kinect.DemoGestureNames()), 1)
		for _, res := range learned {
			demoTxts = append(demoTxts, res.QueryText)
		}
	})
	if demoErr != nil {
		t.Fatal(demoErr)
	}
	return demoTxts
}

// DemoPlans compiles DemoQueries against the canonical plan environment.
func DemoPlans(t testing.TB) []*anduin.Plan {
	t.Helper()
	env := anduin.NewPlanEnv()
	var plans []*anduin.Plan
	for _, text := range DemoQueries(t) {
		plan, err := anduin.CompilePlanText(text, env)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	return plans
}

// PlaybackFrames synthesizes a deterministic session with two swipes and a
// circle distractor.
func PlaybackFrames(t testing.TB, seed int64) []kinect.Frame {
	t.Helper()
	player, err := kinect.NewSimulator(kinect.ChildProfile(), kinect.DefaultNoise(), seed)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := player.RunScript([]kinect.ScriptItem{
		{Idle: 500 * time.Millisecond},
		{Gesture: kinect.GestureSwipeRight, Opts: kinect.PerformOpts{PathJitter: 15}},
		{Idle: time.Second},
		{Gesture: kinect.GestureCircle},
		{Idle: 500 * time.Millisecond},
		{Gesture: kinect.GestureSwipeRight, Opts: kinect.PerformOpts{PathJitter: 15}},
		{Idle: 500 * time.Millisecond},
	}, TestTime(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return sess.Frames
}

// FeedFrames feeds camera frames, in order, to anything that ingests raw
// tuples — a wire.RemoteSession or a serve.Session.
func FeedFrames(s interface{ FeedTuple(stream.Tuple) error }, frames []kinect.Frame) error {
	for i := range frames {
		if err := s.FeedTuple(kinect.ToTuple(frames[i])); err != nil {
			return fmt.Errorf("e2e: frame %d: %w", i, err)
		}
	}
	return nil
}

// EncodeDets canonicalizes a detection list to wire bytes so lists from
// different code paths compare byte-for-byte.
func EncodeDets(t testing.TB, dets []anduin.Detection) []byte {
	t.Helper()
	buf, err := wire.AppendDetectionFrames(nil, dets)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// BareReplay replays tuples through a standalone engine deploying the same
// shared plan and returns its detections — the single-node reference
// semantics every served, proxied, recorded or replayed path must match. It
// publishes each tuple as a batch of one, so comparing a served session
// against it compares 64-wide batch evaluation against per-tuple.
func BareReplay(t testing.TB, plan *anduin.Plan, tuples []stream.Tuple) []anduin.Detection {
	t.Helper()
	engine := anduin.New()
	raw, _, err := engine.KinectPipeline(transform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var out []anduin.Detection
	engine.Subscribe(func(d anduin.Detection) { out = append(out, d) })
	if _, err := engine.DeployPlan(plan); err != nil {
		t.Fatal(err)
	}
	for i := range tuples {
		if err := engine.PublishBatch(raw, tuples[i:i+1], nil); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// WireTuples round-trips tuples through the batch codec, yielding exactly
// what a served engine sees after network transport (UTC re-stamped
// timestamps).
func WireTuples(t testing.TB, tuples []stream.Tuple) []stream.Tuple {
	t.Helper()
	out := make([]stream.Tuple, 0, len(tuples))
	for start := 0; start < len(tuples); start += wire.MaxBatch {
		end := start + wire.MaxBatch
		if end > len(tuples) {
			end = len(tuples)
		}
		payload, err := wire.AppendBatch(nil, 1, len(tuples[start].Fields), tuples[start:end])
		if err != nil {
			t.Fatal(err)
		}
		b, err := wire.DecodeBatch(payload)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b.Tuples...)
	}
	return out
}
