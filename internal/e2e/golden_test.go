package e2e

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/kinect"
	"gesturecep/internal/serve"
	"gesturecep/internal/stream"
	"gesturecep/internal/transform"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_detections.txt from this engine")

// goldenSessions is the number of synthesized sessions pinned; goldenLoops
// how often each is replayed back to back.
const (
	goldenSessions = 6
	goldenLoops    = 4
)

// TestGoldenDetections pins the engine's detections across commits. Every
// other byte-identity check in the tree (the zero-divergence suite,
// benchmark/'s oracle) compares a served path with a bare replay through
// the same commit's engine, so an engine-wide semantic drift passes them
// all. Here the expected output is a committed file: per session, the
// detection count, the runs pruned (window expiry plus `consume all`) and
// the SHA-256 of the detections' wire encoding, for the eight demo gestures
// learned as cmd/gestured learns them, over looped multi-gesture sessions.
// Regenerate with `go test ./internal/e2e -run TestGoldenDetections -update`
// only when a semantic change is intended, and say so in CHANGES.md.
func TestGoldenDetections(t *testing.T) {
	plans := DemoPlans(t)
	names := kinect.DemoGestureNames()

	var got strings.Builder
	for s, tuples := range goldenSessionTuples(t) {
		dets, pruned := goldenReplay(t, plans, tuples)
		if len(dets) < goldenLoops*len(names)/2 {
			t.Errorf("session %d: only %d detections in %d loops of %d gestures; the pin covers too little",
				s, len(dets), goldenLoops, len(names))
		}
		if pruned == 0 {
			t.Errorf("session %d: no run was pruned; window expiry and consume-all are not exercised", s)
		}
		fmt.Fprintf(&got, "session %d tuples %d detections %d pruned %d sha256 %x\n",
			s, len(tuples), len(dets), pruned, sha256.Sum256(EncodeDets(t, dets)))
	}

	path := filepath.Join("testdata", "golden_detections.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("detections drifted from the committed golden file %s\n got:\n%s\nwant:\n%s", path, got.String(), want)
	}
}

// goldenPins returns the committed golden file's lines, one per pinned
// session, and demoRegistry a registry serving the eight demo gestures in
// the order the golden replay deploys them: what the tests that serve the
// fixture some other way compare against and serve from.
func goldenPins(t *testing.T, sessions int) []string {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_detections.txt"))
	if err != nil {
		t.Fatal(err)
	}
	pinned := strings.Split(strings.TrimSpace(string(golden)), "\n")
	if len(pinned) != sessions {
		t.Fatalf("golden file pins %d sessions, the fixture has %d", len(pinned), sessions)
	}
	return pinned
}

func demoRegistry(t *testing.T) *serve.Registry {
	t.Helper()
	reg := serve.NewRegistry()
	for i, text := range DemoQueries(t) {
		if _, err := reg.Register(kinect.DemoGestureNames()[i], text); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// goldenSessionTuples synthesizes the pinned sessions: each performs the
// eight demo gestures in a seeded random order, looped goldenLoops times, as
// the served engine sees them after wire transport.
func goldenSessionTuples(t *testing.T) [][]stream.Tuple {
	t.Helper()
	rng := rand.New(rand.NewSource(16))
	profiles := []func() kinect.Profile{kinect.DefaultProfile, kinect.ChildProfile, kinect.TallProfile}
	names := kinect.DemoGestureNames()
	sessions := make([][]stream.Tuple, goldenSessions)
	for s := range sessions {
		player, err := kinect.NewSimulator(profiles[s%len(profiles)](), kinect.DefaultNoise(), rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		script := []kinect.ScriptItem{{Idle: 500 * time.Millisecond}}
		for _, g := range rng.Perm(len(names)) {
			script = append(script,
				kinect.ScriptItem{Gesture: names[g], Opts: kinect.PerformOpts{PathJitter: 15}},
				kinect.ScriptItem{Idle: time.Duration(300+rng.Intn(600)) * time.Millisecond})
		}
		sess, err := player.RunScript(script, TestTime(), nil)
		if err != nil {
			t.Fatal(err)
		}
		// Odd sessions loop seamlessly (the next loop's first frame is one
		// frame period after the last), so partial matches cross the seam
		// and meet their windows there; even sessions pause between loops.
		stride := sess.Duration()
		if s%2 == 0 {
			stride = stride.Truncate(time.Second) + 2*time.Second
		}
		once := WireTuples(t, kinect.ToTuples(sess.Frames))
		tuples := make([]stream.Tuple, 0, goldenLoops*len(once))
		for loop := 0; loop < goldenLoops; loop++ {
			for _, tup := range once {
				tup.Ts = tup.Ts.Add(time.Duration(loop) * stride)
				tup.Seq = uint64(len(tuples))
				tuples = append(tuples, tup)
			}
		}
		sessions[s] = tuples
	}
	return sessions
}

// goldenReplay is BareReplay for several plans at once, publishing in
// batches of 64 as the server does; it also returns the runs pruned summed
// over the deployed queries.
func goldenReplay(t *testing.T, plans []*anduin.Plan, tuples []stream.Tuple) ([]anduin.Detection, uint64) {
	t.Helper()
	engine := anduin.New()
	raw, _, err := engine.KinectPipeline(transform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var dets []anduin.Detection
	engine.Subscribe(func(d anduin.Detection) { dets = append(dets, d) })
	var ids []int
	for _, p := range plans {
		id, err := engine.DeployPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := engine.PublishBatch(raw, tuples, nil); err != nil {
		t.Fatal(err)
	}
	var pruned uint64
	for _, id := range ids {
		_, _, _, p, err := engine.QueryStats(id)
		if err != nil {
			t.Fatal(err)
		}
		pruned += p
	}
	return dets, pruned
}
