package anduin_test

import (
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/e2e"
	"gesturecep/internal/kinect"
	"gesturecep/internal/transform"
)

// TestPublishAllocGate: in steady state, a tuple that completes no match
// costs the engine no allocation however many learned queries it runs
// through — runs come from the NFAs' free lists, predicates are range
// tables, event time is integers. What raw.Publish still allocates is the
// kinect_t view's tuple (one field array, which partial matches keep
// references to), so the eight-query pipeline must allocate exactly what the
// same pipeline allocates with no query deployed.
func TestPublishAllocGate(t *testing.T) {
	plans := e2e.DemoPlans(t)
	// A user standing in the rest pose: start poses keep matching, so runs
	// are started and expire all the time, but no gesture completes.
	player, err := kinect.NewSimulator(kinect.ChildProfile(), kinect.DefaultNoise(), 7)
	if err != nil {
		t.Fatal(err)
	}
	idle := kinect.ToTuples(player.Idle(e2e.TestTime(), 4*time.Second))

	allocsPerTuple := func(plans []*anduin.Plan) float64 {
		e := anduin.New()
		raw, _, err := e.KinectPipeline(transform.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		fired := 0
		e.Subscribe(func(anduin.Detection) { fired++ })
		var ids []int
		for _, p := range plans {
			id, err := e.DeployPlan(p)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		i := 0
		publish := func() {
			tup := idle[i%len(idle)]
			tup.Ts = e2e.TestTime().Add(time.Duration(i) * kinect.FramePeriod)
			i++
			if err := raw.Publish(tup); err != nil {
				t.Fatal(err)
			}
		}
		for range 20 * len(idle) { // warm the free lists past every window
			publish()
		}
		n := testing.AllocsPerRun(2000, publish)
		if fired != 0 {
			t.Fatalf("%d detections on an idle user; the gate measures non-matching tuples", fired)
		}
		var pruned uint64
		for _, id := range ids {
			_, _, _, p, _ := e.QueryStats(id)
			pruned += p
		}
		if len(plans) > 0 && pruned == 0 {
			t.Fatal("no run was ever started and pruned; the gate exercises nothing")
		}
		return n
	}
	base, full := allocsPerTuple(nil), allocsPerTuple(plans)
	if base > 1 {
		t.Errorf("the bare kinect_t pipeline allocates %.2f per tuple, want the view tuple's field array only", base)
	}
	if full != base {
		t.Errorf("%d deployed queries add %.2f allocations per non-matching tuple, want 0", len(plans), full-base)
	}
}
