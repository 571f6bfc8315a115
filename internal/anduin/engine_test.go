package anduin

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"gesturecep/internal/kinect"
	"gesturecep/internal/query"
	"gesturecep/internal/stream"
	"gesturecep/internal/transform"
)

func t0() time.Time { return time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC) }

// simpleQuery matches field a crossing three thresholds in order.
const simpleQuery = `
SELECT "ramp"
MATCHING s(a < 10) -> s(a > 40 and a < 60) -> s(a > 90)
within 2 seconds select first consume all;
`

func rampTuples(ms0 int) []stream.Tuple {
	mk := func(ms int, v float64) stream.Tuple {
		return stream.Tuple{Ts: t0().Add(time.Duration(ms0+ms) * time.Millisecond), Fields: []float64{v}}
	}
	return []stream.Tuple{mk(0, 5), mk(100, 30), mk(200, 50), mk(300, 70), mk(400, 95)}
}

func newRampEngine(t *testing.T) (*Engine, *stream.Stream) {
	t.Helper()
	e := New()
	s, err := e.RegisterStream("s", stream.MustSchema("a"))
	if err != nil {
		t.Fatal(err)
	}
	return e, s
}

func TestDeployAndDetect(t *testing.T) {
	e, s := newRampEngine(t)
	id, err := e.DeployText(simpleQuery)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var dets []Detection
	e.Subscribe(func(d Detection) {
		mu.Lock()
		dets = append(dets, d)
		mu.Unlock()
	})
	if err := e.PublishBatch(s, rampTuples(0), nil); err != nil {
		t.Fatal(err)
	}
	if len(dets) != 1 {
		t.Fatalf("detections = %d, want 1", len(dets))
	}
	d := dets[0]
	if d.Gesture != "ramp" || d.QueryID != id {
		t.Errorf("detection = %+v", d)
	}
	if d.Duration() != 400*time.Millisecond {
		t.Errorf("duration = %v", d.Duration())
	}
	processed, _, matches, _, err := e.QueryStats(id)
	if err != nil {
		t.Fatal(err)
	}
	if processed != 5 || matches != 1 {
		t.Errorf("stats processed=%d matches=%d", processed, matches)
	}
}

func TestUndeployStopsDetection(t *testing.T) {
	e, s := newRampEngine(t)
	id, err := e.DeployText(simpleQuery)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	e.Subscribe(func(Detection) { count++ })
	if err := e.Undeploy(id); err != nil {
		t.Fatal(err)
	}
	_ = e.PublishBatch(s, rampTuples(0), nil)
	if count != 0 {
		t.Error("undeployed query still fired")
	}
	if err := e.Undeploy(id); err == nil {
		t.Error("double undeploy accepted")
	}
	if _, _, _, _, err := e.QueryStats(id); err == nil {
		t.Error("stats of removed query accessible")
	}
}

func TestRuntimeExchange(t *testing.T) {
	// The paper's headline property: exchange gesture definitions during
	// runtime without restarting anything.
	e, s := newRampEngine(t)
	var names []string
	e.Subscribe(func(d Detection) { names = append(names, d.Gesture) })

	id1, err := e.DeployText(simpleQuery)
	if err != nil {
		t.Fatal(err)
	}
	_ = e.PublishBatch(s, rampTuples(0), nil)

	if err := e.Undeploy(id1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeployText(`SELECT "ramp_v2" MATCHING s(a < 10) -> s(a > 90) within 2 seconds;`); err != nil {
		t.Fatal(err)
	}
	_ = e.PublishBatch(s, rampTuples(10000), nil)

	if len(names) != 2 || names[0] != "ramp" || names[1] != "ramp_v2" {
		t.Errorf("detections = %v", names)
	}
}

func TestMultipleQueriesShareStream(t *testing.T) {
	e, s := newRampEngine(t)
	if _, err := e.DeployText(`SELECT "low" MATCHING s(a < 10);`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeployText(`SELECT "high" MATCHING s(a > 90);`); err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	e.Subscribe(func(d Detection) { got[d.Gesture]++ })
	_ = e.PublishBatch(s, rampTuples(0), nil)
	if got["low"] != 1 || got["high"] != 1 {
		t.Errorf("detections = %v", got)
	}
	qs := e.Queries()
	if len(qs) != 2 || qs[0].ID > qs[1].ID {
		t.Errorf("queries = %+v", qs)
	}
	e.UndeployAll()
	if len(e.Queries()) != 0 {
		t.Error("UndeployAll left queries")
	}
}

func TestDeployErrors(t *testing.T) {
	e, _ := newRampEngine(t)
	bad := []string{
		`SELECT "g" MATCHING nosuch(a < 1);`,  // unknown stream
		`SELECT "g" MATCHING s(nofield < 1);`, // unknown attribute
		`garbage`,                             // parse error
	}
	for _, src := range bad {
		if _, err := e.DeployText(src); err == nil {
			t.Errorf("DeployText(%q) did not fail", src)
		}
	}
}

func TestRegisterStreamAndViewValidation(t *testing.T) {
	e := New()
	if _, err := e.RegisterStream("s", stream.MustSchema("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterStream("s", stream.MustSchema("a")); err == nil {
		t.Error("duplicate stream accepted")
	}
}

func TestRegisterUDF(t *testing.T) {
	e := New()
	if err := e.RegisterUDF(query.UDF{}); err == nil {
		t.Error("empty UDF accepted")
	}
	udf := query.UDF{Name: "twice", Arity: 1, Fn: func(a []float64) float64 { return 2 * a[0] }}
	if err := e.RegisterUDF(udf); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterUDF(udf); err == nil {
		t.Error("duplicate UDF accepted")
	}
	if _, err := e.RegisterStream("s", stream.MustSchema("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeployText(`SELECT "g" MATCHING s(twice(a) > 10);`); err != nil {
		t.Fatal(err)
	}
	var got int
	e.Subscribe(func(Detection) { got++ })
	s, _ := e.Stream("s")
	_ = s.Publish(stream.Tuple{Ts: t0(), Fields: []float64{6}})
	if got != 1 {
		t.Error("UDF-based query did not fire")
	}
}

func TestSubscribeCancel(t *testing.T) {
	e, s := newRampEngine(t)
	if _, err := e.DeployText(`SELECT "low" MATCHING s(a < 10);`); err != nil {
		t.Fatal(err)
	}
	var n int
	cancel := e.Subscribe(func(Detection) { n++ })
	_ = s.Publish(stream.Tuple{Ts: t0(), Fields: []float64{1}})
	cancel()
	cancel()
	_ = s.Publish(stream.Tuple{Ts: t0().Add(time.Second), Fields: []float64{1}})
	if n != 1 {
		t.Errorf("listener fired %d times after cancel", n)
	}
}

// TestDispatchOrderAndAllocs: listeners are called in subscription order,
// a cancelled one drops out without disturbing the rest, and handing a
// detection to them neither locks nor allocates.
func TestDispatchOrderAndAllocs(t *testing.T) {
	e := New()
	var order []int
	var cancels []func()
	for i := 0; i < 5; i++ {
		cancels = append(cancels, e.Subscribe(func(Detection) { order = append(order, i) }))
	}
	cancels[2]()
	e.dispatch(Detection{})
	if want := []int{0, 1, 3, 4}; !reflect.DeepEqual(order, want) {
		t.Errorf("delivery order %v, want %v", order, want)
	}
	order = make([]int, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { e.dispatch(Detection{}) }); n != 0 {
		t.Errorf("dispatch allocates %.1f per detection, want 0", n)
	}
}

func TestKinectPipelineEndToEnd(t *testing.T) {
	// Full integration: simulator → raw stream → kinect_t view → deployed
	// gesture query → detection. The query windows are written against the
	// user-local reference frame of the standard swipe_right spec.
	e := New()
	raw, view, err := e.KinectPipeline(transform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if view.Name() != transform.ViewName {
		t.Errorf("view name = %s", view.Name())
	}
	qText := `
SELECT "swipe_right"
MATCHING (
  kinect_t(
    abs(rHand_x - 0) < 100 and
    abs(rHand_y - 150) < 100 and
    abs(rHand_z + 150) < 100
  ) ->
  kinect_t(
    abs(rHand_x - 350) < 100 and
    abs(rHand_y - 150) < 100 and
    abs(rHand_z + 400) < 100
  )
  within 1 seconds select first consume all
) ->
kinect_t(
  abs(rHand_x - 700) < 100 and
  abs(rHand_y - 150) < 100 and
  abs(rHand_z + 150) < 100
)
within 1 seconds select first consume all;
`
	if _, err := e.DeployText(qText); err != nil {
		t.Fatal(err)
	}
	var dets []Detection
	e.Subscribe(func(d Detection) { dets = append(dets, d) })

	// Three different users perform the same gesture; the transformation
	// must make all three match the single query.
	for i, p := range []kinect.Profile{kinect.DefaultProfile(), kinect.ChildProfile(), kinect.TallProfile()} {
		sim, err := kinect.NewSimulator(p, kinect.DefaultNoise(), int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		perf, err := sim.Perform(kinect.StandardGestures()[kinect.GestureSwipeRight],
			t0().Add(time.Duration(i)*time.Minute), kinect.PerformOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.PublishBatch(raw, kinect.ToTuples(perf.Frames), nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(dets) != 3 {
		t.Fatalf("detections = %d, want 3 (one per user)", len(dets))
	}
	for _, d := range dets {
		if d.Gesture != "swipe_right" {
			t.Errorf("gesture = %q", d.Gesture)
		}
	}
}

func TestOutputMeasures(t *testing.T) {
	// §3.3.4: the output tuple may carry measures computed on the stream,
	// e.g. joint positions at detection time.
	e, s := newRampEngine(t)
	if _, err := e.DeployText(`SELECT "ramp", a, a * 2 MATCHING s(a < 10) -> s(a > 90) within 2 seconds;`); err != nil {
		t.Fatal(err)
	}
	var dets []Detection
	e.Subscribe(func(d Detection) { dets = append(dets, d) })
	_ = e.PublishBatch(s, rampTuples(0), nil)
	if len(dets) != 1 {
		t.Fatalf("detections = %d", len(dets))
	}
	got := dets[0].Measures
	// The final matched tuple has a = 95.
	if len(got) != 2 || got[0] != 95 || got[1] != 190 {
		t.Errorf("measures = %v, want [95 190]", got)
	}
	// Queries without measures leave the field nil.
	e2, s2 := newRampEngine(t)
	if _, err := e2.DeployText(`SELECT "low" MATCHING s(a < 10);`); err != nil {
		t.Fatal(err)
	}
	var d2 []Detection
	e2.Subscribe(func(d Detection) { d2 = append(d2, d) })
	_ = e2.PublishBatch(s2, rampTuples(0), nil)
	if len(d2) == 0 || d2[0].Measures != nil {
		t.Errorf("expected nil measures, got %+v", d2)
	}
	// Invalid measure expressions are rejected at deploy time.
	if _, err := e.DeployText(`SELECT "bad", nosuch MATCHING s(a < 10);`); err == nil {
		t.Error("unknown measure attribute accepted")
	}
}

// TestMeasuresOnLastMatchedTuple: a match's measures are computed on its
// final matched tuple, which is the tuple being published when it fires —
// the engine keeps no other. Every tuple arrives in the same, lent field
// array, scribbled over as soon as Publish returns, so a measure read from
// anything the engine held on to would come out NaN or stale.
func TestMeasuresOnLastMatchedTuple(t *testing.T) {
	e := New()
	s, err := e.RegisterStream("s", stream.MustSchema("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeployText(`SELECT "ramp", b, a + b
MATCHING s(a < 10) -> s(a > 40 and a < 60) -> s(a > 90)
within 2 seconds select all consume none;`); err != nil {
		t.Fatal(err)
	}
	var dets []Detection
	e.Subscribe(func(d Detection) { dets = append(dets, d) })

	// Two runs start (a = 5, 6), both advance on 50 and both complete on 95;
	// 99 finds no run left to complete.
	rows := [][2]float64{{5, 1}, {6, 2}, {30, 3}, {50, 4}, {70, 5}, {95, 6}, {99, 7}}
	lent := make([]float64, 2)
	for i, r := range rows {
		lent[0], lent[1] = r[0], r[1]
		tup := stream.Tuple{Ts: t0().Add(time.Duration(i) * 100 * time.Millisecond), Seq: uint64(i), Fields: lent}
		if err := s.Publish(tup); err != nil {
			t.Fatal(err)
		}
		lent[0], lent[1] = math.NaN(), math.NaN()
	}
	if len(dets) != 2 {
		t.Fatalf("detections = %d, want 2: %+v", len(dets), dets)
	}
	for i, d := range dets {
		if want := []float64{6, 101}; !reflect.DeepEqual(d.Measures, want) {
			t.Errorf("detection %d: measures = %v, want %v (b and a+b of the closing tuple)", i, d.Measures, want)
		}
		if !d.End.Equal(t0().Add(500 * time.Millisecond)) {
			t.Errorf("detection %d ends %v, want the closing tuple's time", i, d.End)
		}
	}
	if !dets[0].Start.Equal(t0()) || !dets[1].Start.Equal(t0().Add(100*time.Millisecond)) {
		t.Errorf("detections start %v and %v, want the two opening tuples' times", dets[0].Start, dets[1].Start)
	}
}
