package anduin_test

import (
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/e2e"
	"gesturecep/internal/kinect"
	"gesturecep/internal/stream"
	"gesturecep/internal/transform"
)

// TestPublishAllocGate: in steady state, raw.Publish through the kinect_t
// view and the eight learned queries allocates nothing for a tuple that
// completes no match, and neither does Engine.PublishBatch for a batch of 1
// (what a paced session sends) or 64 such tuples. The view writes into its transformer's one array, runs
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
	next := func() stream.Tuple {
		tup := idle[i%len(idle)]
		tup.Ts = e2e.TestTime().Add(time.Duration(i) * kinect.FramePeriod)
		i++
		return tup
	}
	publish := func() {
		if err := raw.Publish(next()); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]stream.Tuple, 64)
	publishBatch := func(n int) func() {
		return func() {
			for k := range batch[:n] {
				batch[k] = next()
			}
			if err := e.PublishBatch(raw, batch[:n], nil); err != nil {
				t.Fatal(err)
			}
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
	for _, n := range []int{1, 64} {
		before := pruned()
		publishBatch(n)() // the view's arena grows to n once
		if allocs := testing.AllocsPerRun(200, publishBatch(n)); allocs != 0 {
			t.Errorf("PublishBatch of %d through kinect_t and %d queries allocates %.2f per batch, want 0", n, len(plans), allocs)
		}
		if fired != 0 {
			t.Fatalf("%d detections on an idle user; the gate measures non-matching tuples", fired)
		}
		if pruned() == before {
			t.Fatalf("batches of %d: no run was started and pruned during the measurement; the gate exercises nothing", n)
		}
	}
}
