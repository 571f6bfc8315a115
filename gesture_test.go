package gesture

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gesturecep/internal/kinect"
)

func t0() time.Time { return time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC) }

// trainSamples produces n samples of a standard gesture.
func trainSamples(t *testing.T, gestureName string, n int, seed int64) [][]Frame {
	t.Helper()
	sim, err := NewSimulator(DefaultProfile(), seed)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := sim.Samples(StandardGestures()[gestureName], n, t0(), PerformOpts{PathJitter: 25})
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestSystemLearnDeployDetect(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Learn(kinect.GestureSwipeRight, trainSamples(t, kinect.GestureSwipeRight, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.QueryText == "" {
		t.Fatal("empty query text")
	}
	if err := sys.Deploy(kinect.GestureSwipeRight); err != nil {
		t.Fatal(err)
	}
	if got := sys.Deployed(); len(got) != 1 || got[0] != kinect.GestureSwipeRight {
		t.Errorf("deployed = %v", got)
	}

	var dets []Detection
	cancel := sys.OnDetection(func(d Detection) { dets = append(dets, d) })
	defer cancel()

	sim, _ := NewSimulator(TallProfile(), 7)
	sess, err := sim.RunScript([]ScriptItem{
		{Idle: time.Second},
		{Gesture: kinect.GestureSwipeRight, Opts: PerformOpts{PathJitter: 15}},
		{Idle: time.Second},
	}, t0().Add(time.Hour), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Replay(sess.Frames); err != nil {
		t.Fatal(err)
	}
	if len(dets) != 1 {
		t.Fatalf("detections = %d, want 1", len(dets))
	}
	eval := Evaluate(sess.Truth, dets, DefaultTolerance)
	if eval[kinect.GestureSwipeRight].F1() != 1 {
		t.Errorf("F1 = %v", eval[kinect.GestureSwipeRight])
	}
}

func TestSystemRuntimeExchange(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Learn("g", trainSamples(t, kinect.GestureSwipeRight, 3, 2)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Deploy("g"); err != nil {
		t.Fatal(err)
	}
	// Re-learn and redeploy under the same name: the old query is swapped
	// out.
	if _, err := sys.Learn("g", trainSamples(t, kinect.GesturePush, 3, 3)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Deploy("g"); err != nil {
		t.Fatal(err)
	}
	if qs := sys.Engine.Queries(); len(qs) != 1 {
		t.Errorf("queries after exchange = %d, want 1", len(qs))
	}
	if err := sys.Undeploy("g"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Undeploy("g"); err == nil {
		t.Error("double undeploy accepted")
	}
	if err := sys.Deploy("missing"); err == nil {
		t.Error("deploy of missing gesture accepted")
	}
}

func TestSystemDeployAllAndCrossCheck(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range []string{kinect.GestureSwipeRight, kinect.GesturePush} {
		if _, err := sys.Learn(g, trainSamples(t, g, 3, int64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.DeployAll(); err != nil {
		t.Fatal(err)
	}
	if len(sys.Deployed()) != 2 {
		t.Errorf("deployed = %v", sys.Deployed())
	}
	rep := sys.CrossCheck(0.5)
	for _, pair := range rep.FullSequenceConflicts {
		t.Errorf("unexpected full conflict: %v", pair)
	}
}

func TestSystemSaveLoadGestures(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Learn("g", trainSamples(t, kinect.GestureCircle, 3, 5)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gestures.json")
	if err := sys.SaveGestures(path); err != nil {
		t.Fatal(err)
	}
	sys2, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys2.LoadGestures(path); err != nil {
		t.Fatal(err)
	}
	if sys2.DB.Len() != 1 {
		t.Errorf("loaded %d gestures", sys2.DB.Len())
	}
	if err := sys2.Deploy("g"); err != nil {
		t.Errorf("deploy after load: %v", err)
	}
	if err := sys2.LoadGestures(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestSystemFeedSingleFrames(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := NewSimulator(DefaultProfile(), 9)
	for _, f := range sim.Idle(t0(), 200*time.Millisecond) {
		if err := sys.Feed(f); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFeedAgreesWithReplay: a session fed frame by frame (batches of one)
// fires exactly the detections Replay (batches of 64) fires for it.
func TestFeedAgreesWithReplay(t *testing.T) {
	samples := trainSamples(t, kinect.GestureSwipeRight, 4, 1)
	sim, _ := NewSimulator(ChildProfile(), 7)
	sess, err := sim.RunScript([]ScriptItem{
		{Idle: time.Second},
		{Gesture: kinect.GestureSwipeRight, Opts: PerformOpts{PathJitter: 15}},
		{Idle: time.Second},
		{Gesture: kinect.GestureCircle},
		{Idle: time.Second},
		{Gesture: kinect.GestureSwipeRight, Opts: PerformOpts{PathJitter: 15}},
		{Idle: time.Second},
	}, t0().Add(time.Hour), nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(feed func(*System) error) string {
		sys, err := NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Learn(kinect.GestureSwipeRight, samples); err != nil {
			t.Fatal(err)
		}
		if err := sys.Deploy(kinect.GestureSwipeRight); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		sys.OnDetection(func(d Detection) {
			fmt.Fprintf(&b, "%s q%d %d %d %v\n", d.Gesture, d.QueryID, d.Start.UnixNano(), d.End.UnixNano(), d.Measures)
		})
		if err := feed(sys); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	replayed := run(func(sys *System) error { return sys.Replay(sess.Frames) })
	fed := run(func(sys *System) error {
		for _, f := range sess.Frames {
			if err := sys.Feed(f); err != nil {
				return err
			}
		}
		return nil
	})
	if replayed == "" {
		t.Fatal("Replay detected nothing")
	}
	if fed != replayed {
		t.Errorf("Feed detected\n%s\nReplay detected\n%s", fed, replayed)
	}
}
