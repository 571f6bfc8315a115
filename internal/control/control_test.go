package control

import (
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/detect"
	"gesturecep/internal/geom"
	"gesturecep/internal/kinect"
	"gesturecep/internal/stream"
	"gesturecep/internal/transform"
)

func t0() time.Time { return time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC) }

// letterL is the custom gesture used throughout the interactive tests.
func letterL() kinect.GestureSpec {
	return kinect.GestureSpec{
		Name:     "letter_l",
		Duration: 1100 * time.Millisecond,
		Paths: map[kinect.Joint][]geom.Vec3{
			kinect.RightHand: {
				{X: 100, Y: 450, Z: -200},
				{X: 100, Y: -50, Z: -200},
				{X: 450, Y: -50, Z: -200},
			},
		},
	}
}

// feed publishes frames through the engine one at a time, each a batch of
// one. It must stay frame by frame: a controller subscribed to the raw
// stream must see a frame's detections before the next frame, while a wider
// batch hands it all its frames before any of their detections.
func feed(h *detect.Harness, frames []kinect.Frame) error {
	tuples := kinect.ToTuples(frames)
	for i := range tuples {
		if err := h.Engine.PublishBatch(h.Raw, tuples[i:i+1], nil); err != nil {
			return err
		}
	}
	return nil
}

func TestControlQueriesDeployAndFire(t *testing.T) {
	h, err := detect.NewHarness(transform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Deploy(ControlQueries()...); err != nil {
		t.Fatal(err)
	}
	var names []string
	h.Engine.Subscribe(func(d anduin.Detection) { names = append(names, d.Gesture) })

	sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sim.RunScript([]kinect.ScriptItem{
		{Idle: time.Second},
		{Gesture: kinect.GestureWave},
		{Idle: time.Second},
		{Gesture: kinect.GestureTwoHandSwipe},
		{Idle: time.Second},
	}, t0(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := feed(h, sess.Frames); err != nil {
		t.Fatal(err)
	}
	var wave, fin bool
	for _, n := range names {
		switch n {
		case WaveGesture:
			wave = true
		case FinalizeGesture:
			fin = true
		}
	}
	if !wave {
		t.Errorf("wave control query did not fire: %v", names)
	}
	if !fin {
		t.Errorf("finalize control query did not fire: %v", names)
	}
}

func TestControlQueriesIgnoreOrdinaryGestures(t *testing.T) {
	h, err := detect.NewHarness(transform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Deploy(ControlQueries()...); err != nil {
		t.Fatal(err)
	}
	var fired int
	h.Engine.Subscribe(func(anduin.Detection) { fired++ })
	sim, _ := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 2)
	sess, err := sim.RunScript([]kinect.ScriptItem{
		{Idle: time.Second},
		{Gesture: kinect.GestureSwipeRight},
		{Idle: time.Second},
		{Gesture: kinect.GesturePush},
		{Idle: time.Second},
		{Gesture: kinect.GestureCircle},
		{Idle: time.Second},
	}, t0(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := feed(h, sess.Frames); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Errorf("control queries fired %d times on ordinary gestures", fired)
	}
}

func TestControllerStateMachine(t *testing.T) {
	var events []Event
	c, err := New("letter_l", DefaultConfig(), func(e Event) { events = append(events, e) })
	if err != nil {
		t.Fatal(err)
	}
	if c.Phase() != PhaseIdle || c.Phase().String() != "idle" {
		t.Errorf("initial phase = %v", c.Phase())
	}
	// Frames in idle phase are ignored.
	sim, _ := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 3)
	for _, f := range sim.Idle(t0(), 500*time.Millisecond) {
		c.HandleFrame(f)
	}
	if len(events) != 0 {
		t.Error("idle frames produced events")
	}
	// Unknown detections are ignored; wave arms.
	c.HandleDetection("swipe_right")
	if c.Phase() != PhaseIdle {
		t.Error("non-control detection changed phase")
	}
	c.HandleDetection(WaveGesture)
	if c.Phase() != PhaseArmed {
		t.Fatalf("phase after wave = %v", c.Phase())
	}
	// Re-waving while armed is a no-op.
	c.HandleDetection(WaveGesture)
	if got := countKind(events, EventArmed); got != 1 {
		t.Errorf("armed events = %d", got)
	}
}

// TestInteractiveSessionEndToEnd reproduces the complete §3.1 interactive
// loop: control queries on the engine drive the controller; the user waves,
// performs the new gesture three times, then finalizes with the two-hand
// swipe; the learned query is deployed and detects the gesture.
func TestInteractiveSessionEndToEnd(t *testing.T) {
	h, err := detect.NewHarness(transform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Deploy(ControlQueries()...); err != nil {
		t.Fatal(err)
	}

	var events []Event
	ctl, err := New("letter_l", DefaultConfig(), func(e Event) { events = append(events, e) })
	if err != nil {
		t.Fatal(err)
	}
	h.Engine.Subscribe(func(d anduin.Detection) { ctl.HandleDetection(d.Gesture) })

	// The raw stream fans out to the engine (via harness) and the
	// controller's recorder.
	h.Raw.Subscribe(func(tp stream.Tuple) {
		f, err := kinect.FromTuple(tp)
		if err == nil {
			ctl.HandleFrame(f)
		}
	})

	sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 11)
	if err != nil {
		t.Fatal(err)
	}
	extra := map[string]kinect.GestureSpec{"letter_l": letterL()}
	script := []kinect.ScriptItem{
		{Idle: time.Second},
		{Gesture: kinect.GestureWave}, // arm recording
		{Idle: time.Second},
		{Gesture: "letter_l", Opts: kinect.PerformOpts{PathJitter: 25}},
		{Idle: 1500 * time.Millisecond},
		{Gesture: "letter_l", Opts: kinect.PerformOpts{PathJitter: 25}},
		{Idle: 1500 * time.Millisecond},
		{Gesture: "letter_l", Opts: kinect.PerformOpts{PathJitter: 25}},
		{Idle: 1500 * time.Millisecond},
		{Gesture: kinect.GestureTwoHandSwipe}, // finalize
		{Idle: time.Second},
	}
	sess, err := sim.RunScript(script, t0(), extra)
	if err != nil {
		t.Fatal(err)
	}
	if err := feed(h, sess.Frames); err != nil {
		t.Fatal(err)
	}

	if ctl.Phase() != PhaseDone {
		t.Fatalf("controller phase = %v, want done (events: %d)", ctl.Phase(), len(events))
	}
	if ctl.Samples() < 3 {
		t.Fatalf("controller accepted %d samples, want >= 3", ctl.Samples())
	}
	var result *Event
	for i := range events {
		if events[i].Kind == EventFinalized {
			result = &events[i]
		}
	}
	if result == nil || result.Err != nil || result.Result == nil {
		t.Fatalf("no finalize result: %+v", result)
	}

	// Deploy the freshly learned gesture and verify detection in a second
	// session.
	if err := h.Deploy(result.Result.QueryText); err != nil {
		t.Fatalf("deploying learned query: %v", err)
	}
	test, err := sim.RunScript([]kinect.ScriptItem{
		{Idle: time.Second},
		{Gesture: "letter_l", Opts: kinect.PerformOpts{PathJitter: 15}},
		{Idle: time.Second},
	}, t0().Add(time.Hour), extra)
	if err != nil {
		t.Fatal(err)
	}
	out, err := h.RunAndEvaluate(test, detect.DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if out["letter_l"].TruePositives != 1 {
		t.Errorf("learned letter_l outcome: %v", out["letter_l"])
	}
}

func TestFinalizeWithoutSamples(t *testing.T) {
	c, err := New("g", DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Finalize(); err == nil {
		t.Error("finalize without samples succeeded")
	}
	if _, err := c.Finalize(); err == nil {
		t.Error("double finalize succeeded")
	}
}

func TestPhaseStrings(t *testing.T) {
	if PhaseIdle.String() != "idle" || PhaseArmed.String() != "armed" || PhaseDone.String() != "done" {
		t.Error("phase strings wrong")
	}
	if Phase(9).String() == "" {
		t.Error("unknown phase should render")
	}
}

func countKind(events []Event, k EventKind) int {
	n := 0
	for _, e := range events {
		if e.Kind == k {
			n++
		}
	}
	return n
}
