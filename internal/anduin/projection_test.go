package anduin_test

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/e2e"
	"gesturecep/internal/kinect"
	"gesturecep/internal/stream"
	"gesturecep/internal/transform"
)

// leftQuery reads the left hand, which no learned demo gesture does: a
// range-row pose, then a pose the compiler leaves to a closure, and
// measures of its own.
const leftQuery = `SELECT "left_raise", lHand_y, lHand_z
MATCHING kinect_t(abs(lHand_x + 300) < 120 and abs(lHand_y - 0) < 120) ->
         kinect_t(lHand_y > 300 and lHand_x < -150)
within 1 seconds select first consume all;`

// projectionSession is a child performing the demo gestures' right-hand
// swipe and three two-hand swipes, whose left hand leftQuery follows.
func projectionSession(t *testing.T) []stream.Tuple {
	t.Helper()
	player, err := kinect.NewSimulator(kinect.ChildProfile(), kinect.DefaultNoise(), 7)
	if err != nil {
		t.Fatal(err)
	}
	two := kinect.ScriptItem{Gesture: kinect.GestureTwoHandSwipe, Opts: kinect.PerformOpts{PathJitter: 15}}
	idle := kinect.ScriptItem{Idle: 700 * time.Millisecond}
	sess, err := player.RunScript([]kinect.ScriptItem{
		idle, two, idle,
		{Gesture: kinect.GestureSwipeRight, Opts: kinect.PerformOpts{PathJitter: 15}},
		idle, two, idle, two, idle,
	}, e2e.TestTime(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return kinect.ToTuples(sess.Frames)
}

// pipeline is an engine with the kinect pipeline and the eight demo plans
// deployed, collecting its detections.
func pipeline(t *testing.T) (e *anduin.Engine, raw, view *stream.Stream, dets *[]anduin.Detection) {
	t.Helper()
	e = anduin.New()
	raw, view, err := e.KinectPipeline(transform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dets = new([]anduin.Detection)
	e.Subscribe(func(d anduin.Detection) { *dets = append(*dets, d) })
	for _, p := range e2e.DemoPlans(t) {
		if _, err := e.DeployPlan(p); err != nil {
			t.Fatal(err)
		}
	}
	return e, raw, view, dets
}

// TestViewSubscriberSeesEveryField: a kinect_t subscriber that is not a
// deployed plan gets all 45 fields, bit for bit what Transformer.Tuple
// computes — also on the first tuple after it subscribes to a view that
// had been computing only the plans' joints. Ended loans are poisoned, so a
// field the view skipped would read NaN.
func TestViewSubscriberSeesEveryField(t *testing.T) {
	stream.PoisonEndedLoans(true)
	defer stream.PoisonEndedLoans(false)
	_, raw, view, _ := pipeline(t)
	ref, err := transform.New(transform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tuples := projectionSession(t)
	var want stream.Tuple
	seen := 0
	for i, in := range tuples {
		if i == len(tuples)/2 {
			if view.Reads() == nil || slices.Contains(view.Reads().Fields(), int(kinect.Head)*3) {
				t.Fatalf("plans alone: view reads %v, want only what the plans read", view.Reads().Fields())
			}
			view.Subscribe(func(got stream.Tuple) {
				seen++
				for k := range want.Fields {
					if math.Float64bits(got.Fields[k]) != math.Float64bits(want.Fields[k]) {
						t.Fatalf("tuple %d field %d: %g, Transformer.Tuple %g", i, k, got.Fields[k], want.Fields[k])
					}
				}
			})
		}
		want, _ = ref.Tuple(in)
		if err := raw.Publish(in); err != nil {
			t.Fatal(err)
		}
	}
	if seen != len(tuples)-len(tuples)/2 {
		t.Fatalf("subscriber saw %d tuples, want %d", seen, len(tuples)-len(tuples)/2)
	}
}

// TestDeployWidensAndUndeployNarrowsView: deploying, mid-stream, a plan that
// reads a joint outside the view's computed set detects exactly what it
// detects on an engine that computed every joint from the start, and every
// demo plan's detections stay the same; after Undeploy the set narrows back.
func TestDeployWidensAndUndeployNarrowsView(t *testing.T) {
	stream.PoisonEndedLoans(true)
	defer stream.PoisonEndedLoans(false)
	e, raw, view, dets := pipeline(t)
	full, fullRaw, fullView, fullDets := pipeline(t)
	fullView.Subscribe(func(stream.Tuple) {}) // not a plan: every joint, from the start

	lHandX, _ := kinect.Schema().Index("lHand_x")
	plansOnly := view.Reads()
	if plansOnly == nil || slices.Contains(plansOnly.Fields(), lHandX) {
		t.Fatalf("demo plans: view reads %v, want a set without lHand_x", plansOnly.Fields())
	}
	tuples := projectionSession(t)
	cut := len(tuples) / 3
	var leftID int
	for i, in := range tuples {
		if i == cut {
			var err error
			if leftID, err = e.DeployText(leftQuery); err != nil {
				t.Fatal(err)
			}
			if _, err := full.DeployText(leftQuery); err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(view.Reads().Fields(), lHandX) {
				t.Fatalf("after deploying a left-hand plan: view reads %v, want lHand_x in it", view.Reads().Fields())
			}
		}
		if err := raw.Publish(in); err != nil {
			t.Fatal(err)
		}
		if err := fullRaw.Publish(in.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	left := 0
	for _, d := range *dets {
		if d.Gesture == "left_raise" {
			left++
		}
	}
	if left < 2 {
		t.Fatalf("the left-hand plan detected %d times after its deployment; the comparison is vacuous", left)
	}
	if got, want := e2e.EncodeDets(t, *dets), e2e.EncodeDets(t, *fullDets); !bytes.Equal(got, want) {
		t.Fatalf("projected view: %d detections %+v\nall joints: %d detections %+v", len(*dets), *dets, len(*fullDets), *fullDets)
	}

	if err := e.Undeploy(leftID); err != nil {
		t.Fatal(err)
	}
	if got := view.Reads(); got == nil || !slices.Equal(got.Fields(), plansOnly.Fields()) {
		t.Fatalf("after Undeploy: view reads %v, want the demo plans' %v again", got.Fields(), plansOnly.Fields())
	}
}

// TestViewSubscribersArriveWhilePublishing: plans deploy and undeploy, and a
// plain subscriber comes and goes, on one goroutine while another publishes.
// Every tuple the plain subscriber gets is whole — with ended loans
// poisoned, a field built for a narrower set than the one delivered to
// would read NaN — and the race detector sees the read sets change hands.
func TestViewSubscribersArriveWhilePublishing(t *testing.T) {
	stream.PoisonEndedLoans(true)
	defer stream.PoisonEndedLoans(false)
	e, raw, view, _ := pipeline(t)
	tuples := projectionSession(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, in := range tuples {
			if err := raw.Publish(in); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var partial, seen atomic.Int64
	for {
		select {
		case <-done:
			if partial.Load() > 0 {
				t.Errorf("%d tuples reached a plain subscriber with unwritten fields", partial.Load())
			}
			return
		default:
		}
		id, err := e.DeployText(leftQuery)
		if err != nil {
			t.Fatal(err)
		}
		before := seen.Load()
		cancel := view.Subscribe(func(got stream.Tuple) {
			seen.Add(1)
			for _, v := range got.Fields {
				if math.IsNaN(v) {
					partial.Add(1)
					return
				}
			}
		})
		if err := e.Undeploy(id); err != nil {
			t.Fatal(err)
		}
		// Stay subscribed for a tuple, so the check above has something to
		// look at, unless the stream ends first.
		for seen.Load() == before {
			select {
			case <-done:
			default:
				runtime.Gosched()
				continue
			}
			break
		}
		cancel()
	}
}
