package anduin_test

import (
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/e2e"
	"gesturecep/internal/kinect"
	"gesturecep/internal/transform"
)

// TestPublishAllocGate: in steady state, raw.Publish through the kinect_t
// view and the eight learned queries allocates nothing for a tuple that
// completes no match. The view writes into its transformer's one array, runs
// come from the NFAs' free lists and remember times and Seqs, not the tuple,
// predicates are range rows, event time is integers — nothing on the path
// keeps the tuple, so nothing has to own it.
func TestPublishAllocGate(t *testing.T) {
	plans := e2e.DemoPlans(t)
	// A user standing in the rest pose: start poses keep matching, so runs
	// are started and expire all the time, but no gesture completes.
	player, err := kinect.NewSimulator(kinect.ChildProfile(), kinect.DefaultNoise(), 7)
	if err != nil {
		t.Fatal(err)
	}
	idle := kinect.ToTuples(player.Idle(e2e.TestTime(), 4*time.Second))

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
	pruned := func() (n uint64) {
		for _, id := range ids {
			_, _, _, p, _ := e.QueryStats(id)
			n += p
		}
		return n
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
	before := pruned()
	allocs := testing.AllocsPerRun(2000, publish)
	if fired != 0 {
		t.Fatalf("%d detections on an idle user; the gate measures non-matching tuples", fired)
	}
	if pruned() == before {
		t.Fatal("no run was started and pruned during the measurement; the gate exercises nothing")
	}
	if allocs != 0 {
		t.Errorf("raw.Publish through kinect_t and %d queries allocates %.2f per tuple, want 0", len(plans), allocs)
	}
}
