package learn

import (
	"strings"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/kinect"
	"gesturecep/internal/transform"
)

// learnGesture runs the full pipeline on n simulated samples of the named
// standard gesture and returns the result.
func learnGesture(t *testing.T, name string, n int, seed int64) *Result {
	t.Helper()
	sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), seed)
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := kinect.StandardGestures()[name]
	if !ok {
		t.Fatalf("unknown gesture %q", name)
	}
	samples, err := sim.Samples(spec, n, time.Date(2014, 3, 24, 9, 0, 0, 0, time.UTC),
		kinect.PerformOpts{PathJitter: 25})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Learn(name, samples, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLearnSwipeRightPipeline(t *testing.T) {
	res := learnGesture(t, kinect.GestureSwipeRight, 4, 11)

	// The learner finds a small pose sequence ("usually 3-5 samples"
	// produce a handful of windows for a one-stroke gesture).
	if n := len(res.Model.Windows); n < 2 || n > 8 {
		t.Errorf("pose windows = %d, want a small sequence", n)
	}
	if res.Model.Samples != 4 {
		t.Errorf("model merged %d samples", res.Model.Samples)
	}
	// Identically-performed samples should not trigger outlier warnings.
	if len(res.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", res.Warnings)
	}
	// The generated text is in the paper's dialect.
	for _, frag := range []string{`SELECT "swipe_right"`, "MATCHING", "kinect_t(", "abs(rHand_", "select first consume all", ";"} {
		if !strings.Contains(res.QueryText, frag) {
			t.Errorf("query text missing %q:\n%s", frag, res.QueryText)
		}
	}
	// Window centers progress from left (x≈0) to right (x≈700).
	first := res.Model.Windows[0].Center()
	last := res.Model.Windows[len(res.Model.Windows)-1].Center()
	if first[0] < -150 || first[0] > 250 {
		t.Errorf("first window center x = %v, want near 0", first[0])
	}
	if last[0] < 500 {
		t.Errorf("last window center x = %v, want near 700", last[0])
	}
}

// deployAndRun learns a gesture, deploys the generated query in a fresh
// engine and replays a session, returning detections.
func deployAndRun(t *testing.T, res *Result, profile kinect.Profile, script []kinect.ScriptItem, seed int64) []anduin.Detection {
	t.Helper()
	e := anduin.New()
	raw, _, err := e.KinectPipeline(transform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeployText(res.QueryText); err != nil {
		t.Fatalf("deploy generated query: %v\n%s", err, res.QueryText)
	}
	var dets []anduin.Detection
	e.Subscribe(func(d anduin.Detection) { dets = append(dets, d) })

	sim, err := kinect.NewSimulator(profile, kinect.DefaultNoise(), seed)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sim.RunScript(script, time.Date(2014, 3, 24, 12, 0, 0, 0, time.UTC), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PublishBatch(raw, kinect.ToTuples(sess.Frames), nil); err != nil {
		t.Fatal(err)
	}
	return dets
}

func TestLearnedQueryDetectsGesture(t *testing.T) {
	res := learnGesture(t, kinect.GestureSwipeRight, 4, 21)
	script := []kinect.ScriptItem{
		{Idle: time.Second},
		{Gesture: kinect.GestureSwipeRight, Opts: kinect.PerformOpts{PathJitter: 20}},
		{Idle: 2 * time.Second},
		{Gesture: kinect.GestureSwipeRight, Opts: kinect.PerformOpts{PathJitter: 20}},
		{Idle: time.Second},
	}
	dets := deployAndRun(t, res, kinect.DefaultProfile(), script, 99)
	if len(dets) != 2 {
		t.Fatalf("detections = %d, want 2", len(dets))
	}
	for _, d := range dets {
		if d.Gesture != kinect.GestureSwipeRight {
			t.Errorf("detected %q", d.Gesture)
		}
	}
}

func TestLearnedQueryDetectsOtherUsers(t *testing.T) {
	// Robustness claim: patterns learned from one user detect the gesture
	// "even if the position or movement of the user differs from the
	// training samples" — here entirely different bodies and positions.
	res := learnGesture(t, kinect.GestureSwipeRight, 4, 31)
	script := []kinect.ScriptItem{
		{Idle: time.Second},
		{Gesture: kinect.GestureSwipeRight, Opts: kinect.PerformOpts{PathJitter: 15}},
		{Idle: time.Second},
	}
	for i, p := range []kinect.Profile{kinect.ChildProfile(), kinect.TallProfile()} {
		dets := deployAndRun(t, res, p, script, int64(100+i))
		if len(dets) != 1 {
			t.Errorf("%s: detections = %d, want 1", p.Name, len(dets))
		}
	}
}

func TestLearnedQuerySelectivity(t *testing.T) {
	// Selectivity claim: the learned pattern must not fire on other
	// gestures.
	res := learnGesture(t, kinect.GestureSwipeRight, 4, 41)
	script := []kinect.ScriptItem{
		{Idle: time.Second},
		{Gesture: kinect.GesturePush},
		{Idle: time.Second},
		{Gesture: kinect.GestureCircle},
		{Idle: time.Second},
		{Gesture: kinect.GestureSwipeUp},
		{Idle: time.Second},
		{Gesture: kinect.GestureRaiseHand},
		{Idle: time.Second},
	}
	dets := deployAndRun(t, res, kinect.DefaultProfile(), script, 55)
	if len(dets) != 0 {
		t.Errorf("swipe_right query fired %d times on other gestures", len(dets))
	}
}

func TestIncrementalLearning(t *testing.T) {
	// The interactive loop: add samples one by one, regenerate after each.
	sim, _ := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 77)
	spec := kinect.StandardGestures()[kinect.GestureCircle]
	samples, err := sim.Samples(spec, 5, time.Date(2014, 3, 24, 9, 0, 0, 0, time.UTC),
		kinect.PerformOpts{PathJitter: 25})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLearner(kinect.GestureCircle, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var poseCounts []int
	for _, s := range samples {
		if _, err := l.AddSample(s); err != nil {
			t.Fatal(err)
		}
		res, err := l.Result()
		if err != nil {
			t.Fatal(err)
		}
		poseCounts = append(poseCounts, len(res.Model.Windows))
	}
	if l.SampleCount() != 5 {
		t.Errorf("sample count = %d", l.SampleCount())
	}
	// Pose count stabilizes as samples accumulate (median alignment).
	lastCounts := poseCounts[len(poseCounts)-3:]
	for _, c := range lastCounts[1:] {
		if absInt(c-lastCounts[0]) > 2 {
			t.Errorf("pose counts unstable: %v", poseCounts)
		}
	}
}

func TestLearnerValidation(t *testing.T) {
	if _, err := NewLearner("", DefaultConfig()); err == nil {
		t.Error("unnamed learner accepted")
	}
	bad := DefaultConfig()
	bad.ScaleFactor = -1
	if _, err := NewLearner("g", bad); err == nil {
		t.Error("negative scale factor accepted")
	}
	l, _ := NewLearner("g", DefaultConfig())
	if _, err := l.AddSample(nil); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := l.Result(); err == nil {
		t.Error("result without samples accepted")
	}
	if _, err := Learn("g", nil, DefaultConfig()); err == nil {
		t.Error("Learn with no samples accepted")
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestLearnTwoHandGesture(t *testing.T) {
	// Multi-joint learning: track both hands for the two-hand swipe. The
	// windows span 6 dimensions and the generated query constrains both
	// lHand_* and rHand_* attributes.
	sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 51)
	if err != nil {
		t.Fatal(err)
	}
	spec := kinect.StandardGestures()[kinect.GestureTwoHandSwipe]
	samples, err := sim.Samples(spec, 4, time.Date(2014, 3, 24, 9, 0, 0, 0, time.UTC),
		kinect.PerformOpts{PathJitter: 20})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Joints = []kinect.Joint{kinect.LeftHand, kinect.RightHand}
	res, err := Learn(kinect.GestureTwoHandSwipe, samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.Dims() != 6 {
		t.Fatalf("model dims = %d, want 6", res.Model.Dims())
	}
	for _, frag := range []string{"lHand_x", "lHand_y", "rHand_x", "rHand_y"} {
		if !strings.Contains(res.QueryText, frag) {
			t.Errorf("query missing %s:\n%s", frag, res.QueryText)
		}
	}

	// The two-hand query detects the two-hand swipe but not a one-hand
	// raise (which matches the right hand's movement only).
	script := []kinect.ScriptItem{
		{Idle: time.Second},
		{Gesture: kinect.GestureTwoHandSwipe, Opts: kinect.PerformOpts{PathJitter: 15}},
		{Idle: time.Second},
		{Gesture: kinect.GestureRaiseHand},
		{Idle: time.Second},
	}
	dets := deployAndRun(t, res, kinect.DefaultProfile(), script, 151)
	if len(dets) != 1 || dets[0].Gesture != kinect.GestureTwoHandSwipe {
		t.Fatalf("detections = %+v, want exactly one two_hand_swipe", dets)
	}
}
