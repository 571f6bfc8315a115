package detect

import (
	"math"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/kinect"
	"gesturecep/internal/learn"
	"gesturecep/internal/transform"
)

func t0() time.Time { return time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC) }

func truth(name string, startMs, endMs int) kinect.TruthInterval {
	return kinect.TruthInterval{
		Name:  name,
		Start: t0().Add(time.Duration(startMs) * time.Millisecond),
		End:   t0().Add(time.Duration(endMs) * time.Millisecond),
	}
}

func det(name string, endMs int) anduin.Detection {
	return anduin.Detection{
		Gesture: name,
		Start:   t0().Add(time.Duration(endMs-300) * time.Millisecond),
		End:     t0().Add(time.Duration(endMs) * time.Millisecond),
	}
}

func TestOutcomeMetrics(t *testing.T) {
	o := Outcome{TruePositives: 3, FalsePositives: 1, FalseNegatives: 2}
	if p := o.Precision(); math.Abs(p-0.75) > 1e-9 {
		t.Errorf("precision = %v", p)
	}
	if r := o.Recall(); math.Abs(r-0.6) > 1e-9 {
		t.Errorf("recall = %v", r)
	}
	want := 2 * 0.75 * 0.6 / (0.75 + 0.6)
	if f := o.F1(); math.Abs(f-want) > 1e-9 {
		t.Errorf("f1 = %v", f)
	}
	empty := Outcome{}
	if empty.Precision() != 1 || empty.Recall() != 1 {
		t.Error("empty outcome should have P=R=1")
	}
	if (Outcome{FalsePositives: 1}).F1() != 0 {
		t.Error("FP-only outcome should have F1=0")
	}
	if o.String() == "" {
		t.Error("empty string")
	}
}

func TestOutcomeLatencyAndMerge(t *testing.T) {
	a := Outcome{TruePositives: 1, Latencies: []time.Duration{100 * time.Millisecond}}
	b := Outcome{TruePositives: 1, Latencies: []time.Duration{300 * time.Millisecond}}
	m := a.Merge(b)
	if m.TruePositives != 2 || len(m.Latencies) != 2 {
		t.Fatalf("merge = %+v", m)
	}
	if m.MeanLatency() != 200*time.Millisecond {
		t.Errorf("mean latency = %v", m.MeanLatency())
	}
	if (Outcome{}).MeanLatency() != 0 {
		t.Error("empty mean latency")
	}
}

func TestEvaluateBasic(t *testing.T) {
	truths := []kinect.TruthInterval{
		truth("swipe", 1000, 1800),
		truth("swipe", 5000, 5800),
		truth("push", 9000, 9500),
	}
	dets := []anduin.Detection{
		det("swipe", 1700), // TP
		det("swipe", 3000), // FP (no interval nearby)
		det("push", 9400),  // TP
	}
	res := Evaluate(truths, dets, DefaultTolerance)
	sw := res["swipe"]
	if sw.TruePositives != 1 || sw.FalsePositives != 1 || sw.FalseNegatives != 1 {
		t.Errorf("swipe outcome = %+v", sw)
	}
	pu := res["push"]
	if pu.TruePositives != 1 || pu.FalsePositives != 0 || pu.FalseNegatives != 0 {
		t.Errorf("push outcome = %+v", pu)
	}
	if pu.Latencies[0] != -100*time.Millisecond {
		t.Errorf("push latency = %v", pu.Latencies[0])
	}
	all := Overall(res)
	if all.TruePositives != 2 || all.FalsePositives != 1 || all.FalseNegatives != 1 {
		t.Errorf("overall = %+v", all)
	}
}

func TestEvaluateOneDetectionPerTruth(t *testing.T) {
	truths := []kinect.TruthInterval{truth("g", 1000, 2000)}
	dets := []anduin.Detection{det("g", 1500), det("g", 1600), det("g", 1700)}
	res := Evaluate(truths, dets, DefaultTolerance)
	o := res["g"]
	if o.TruePositives != 1 || o.FalsePositives != 2 {
		t.Errorf("outcome = %+v", o)
	}
}

func TestEvaluateToleranceWindow(t *testing.T) {
	truths := []kinect.TruthInterval{truth("g", 1000, 2000)}
	// Detection slightly after the interval end: inside tolerance.
	res := Evaluate(truths, []anduin.Detection{det("g", 2400)}, 500*time.Millisecond)
	if res["g"].TruePositives != 1 {
		t.Errorf("tolerant match failed: %+v", res["g"])
	}
	// Far outside tolerance: FP + FN.
	res = Evaluate(truths, []anduin.Detection{det("g", 4000)}, 500*time.Millisecond)
	if res["g"].TruePositives != 0 || res["g"].FalsePositives != 1 || res["g"].FalseNegatives != 1 {
		t.Errorf("outcome = %+v", res["g"])
	}
}

func TestEvaluateWrongGestureName(t *testing.T) {
	truths := []kinect.TruthInterval{truth("swipe", 1000, 2000)}
	res := Evaluate(truths, []anduin.Detection{det("circle", 1500)}, DefaultTolerance)
	if res["swipe"].FalseNegatives != 1 {
		t.Error("missing swipe not counted")
	}
	if res["circle"].FalsePositives != 1 {
		t.Error("spurious circle not counted")
	}
}

// TestHarnessEndToEnd is the complete reproduction of the paper's main
// claim: learn from a few samples, deploy the generated query, detect the
// gesture in a fresh session with high precision and recall.
func TestHarnessEndToEnd(t *testing.T) {
	// Learn swipe_right and push from 4 samples each.
	simTrain, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 1)
	if err != nil {
		t.Fatal(err)
	}
	specs := kinect.StandardGestures()
	var queryTexts []string
	for _, g := range []string{kinect.GestureSwipeRight, kinect.GesturePush} {
		samples, err := simTrain.Samples(specs[g], 4, t0(), kinect.PerformOpts{PathJitter: 25})
		if err != nil {
			t.Fatal(err)
		}
		res, err := learn.Learn(g, samples, learn.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		queryTexts = append(queryTexts, res.QueryText)
	}

	h, err := NewHarness(transform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Deploy(queryTexts...); err != nil {
		t.Fatal(err)
	}

	// A mixed session performed by a different user.
	simTest, err := kinect.NewSimulator(kinect.TallProfile(), kinect.DefaultNoise(), 2)
	if err != nil {
		t.Fatal(err)
	}
	script := []kinect.ScriptItem{
		{Idle: time.Second},
		{Gesture: kinect.GestureSwipeRight, Opts: kinect.PerformOpts{PathJitter: 15}},
		{Idle: time.Second},
		{Gesture: kinect.GesturePush, Opts: kinect.PerformOpts{PathJitter: 15}},
		{Idle: time.Second},
		{Gesture: kinect.GestureCircle}, // must not fire anything
		{Idle: time.Second},
		{Gesture: kinect.GestureSwipeRight, Opts: kinect.PerformOpts{PathJitter: 15}},
		{Idle: time.Second},
	}
	sess, err := simTest.RunScript(script, t0().Add(time.Hour), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.RunAndEvaluate(sess, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	swipe := res[kinect.GestureSwipeRight]
	if swipe.TruePositives != 2 || swipe.FalsePositives != 0 {
		t.Errorf("swipe outcome: %v", swipe)
	}
	push := res[kinect.GesturePush]
	if push.TruePositives != 1 || push.FalsePositives != 0 {
		t.Errorf("push outcome: %v", push)
	}
	if circle, ok := res[kinect.GestureCircle]; ok && circle.FalsePositives > 0 {
		t.Errorf("circle fired: %v", circle)
	}
}

func TestHarnessThroughputAbove30Hz(t *testing.T) {
	h, err := NewHarness(transform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Deploy a realistic query load.
	sim, _ := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 3)
	samples, err := sim.Samples(kinect.StandardGestures()[kinect.GestureSwipeRight], 3, t0(), kinect.PerformOpts{PathJitter: 20})
	if err != nil {
		t.Fatal(err)
	}
	res, err := learn.Learn(kinect.GestureSwipeRight, samples, learn.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Deploy(res.QueryText); err != nil {
		t.Fatal(err)
	}
	frames := sim.Idle(t0().Add(time.Hour), 5*time.Second)
	tps, err := h.Throughput(frames)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's substrate must sustain the Kinect's 30 Hz; the pure-Go
	// engine should beat that by orders of magnitude.
	if tps < 1000 {
		t.Errorf("throughput = %.0f tuples/s, want >= 1000", tps)
	}
}
