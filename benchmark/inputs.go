package main

import (
	"fmt"
	"math/rand"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/kinect"
	"gesturecep/internal/learn"
	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

// epoch is the event-time origin of every recording (the origin the
// daemons train at, as elsewhere in the repo).
var epoch = time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)

// numRecordings is the size of the looped recording pool; sessions share
// recordings round-robin.
const numRecordings = 8

// learned is one gesture trained exactly as cmd/gestured trains it.
type learned struct {
	name    string
	samples [][]kinect.Frame
	text    string
	plan    *anduin.Plan
}

// learnGestures mirrors cmd/gestured's start-up: one trainer simulator
// (seed 1) walks the demo gestures in order, four jittered samples each.
// A daemon started with -gestures n registers exactly the first n of these,
// so the reference deploys the same prefix.
func learnGestures() ([]learned, error) {
	trainer, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 1)
	if err != nil {
		return nil, err
	}
	specs := kinect.StandardGestures()
	env := anduin.NewPlanEnv()
	var out []learned
	for _, name := range kinect.DemoGestureNames() {
		samples, err := trainer.Samples(specs[name], 4, epoch, kinect.PerformOpts{PathJitter: 25})
		if err != nil {
			return nil, err
		}
		res, err := learn.Learn(name, samples, learn.DefaultConfig())
		if err != nil {
			return nil, err
		}
		plan, err := anduin.CompilePlanText(res.QueryText, env)
		if err != nil {
			return nil, fmt.Errorf("plan %q: %w", name, err)
		}
		out = append(out, learned{name: name, samples: samples, text: res.QueryText, plan: plan})
	}
	return out, nil
}

func plansOf(gestures []learned) []*anduin.Plan {
	plans := make([]*anduin.Plan, len(gestures))
	for i := range gestures {
		plans[i] = gestures[i].plan
	}
	return plans
}

// recording is one synthesized user session, looped: tuple j of the looped
// stream is tuple j%len of the recording moved loop×stride later in event
// time, so timestamps never go backwards.
type recording struct {
	frames []kinect.Frame
	tuples []stream.Tuple // as the served engine sees them: wire round-tripped
	stride time.Duration
	posOf  map[time.Duration]int // event-time offset within a loop → position
}

// at returns tuple j of the looped stream. Field slices are shared with the
// recording; tuples are immutable once published.
func (r *recording) at(j int) stream.Tuple {
	t := r.tuples[j%len(r.tuples)]
	t.Ts = t.Ts.Add(time.Duration(j/len(r.tuples)) * r.stride)
	t.Seq = uint64(j)
	return t
}

// indexOf inverts at for a detection's end time: the looped-stream index of
// the tuple carrying that event time.
func (r *recording) indexOf(end time.Time) (int, bool) {
	off := end.Sub(epoch)
	loop := off / r.stride
	pos, ok := r.posOf[off-loop*r.stride]
	return int(loop)*len(r.tuples) + pos, ok
}

// makeRecordings synthesizes the recording pool from the workload seed: it
// picks each player's simulator seed, body profile and the order of the
// eight gestures performed.
func makeRecordings(seed int64) ([]*recording, error) {
	profiles := []func() kinect.Profile{kinect.DefaultProfile, kinect.ChildProfile, kinect.TallProfile}
	names := kinect.DemoGestureNames()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]*recording, numRecordings)
	for i := range recs {
		player, err := kinect.NewSimulator(profiles[rng.Intn(len(profiles))](), kinect.DefaultNoise(), rng.Int63())
		if err != nil {
			return nil, err
		}
		script := []kinect.ScriptItem{{Idle: 500 * time.Millisecond}}
		for _, g := range rng.Perm(len(names)) {
			script = append(script,
				kinect.ScriptItem{Gesture: names[g], Opts: kinect.PerformOpts{PathJitter: 15}},
				kinect.ScriptItem{Idle: 700 * time.Millisecond})
		}
		sess, err := player.RunScript(script, epoch, nil)
		if err != nil {
			return nil, err
		}
		tuples, err := wireRoundTrip(kinect.ToTuples(sess.Frames))
		if err != nil {
			return nil, err
		}
		rec := &recording{
			frames: sess.Frames,
			tuples: tuples,
			stride: sess.Duration().Truncate(time.Second) + 2*time.Second,
			posOf:  make(map[time.Duration]int, len(tuples)),
		}
		for pos, t := range tuples {
			rec.posOf[t.Ts.Sub(epoch)] = pos
		}
		if len(rec.posOf) != len(tuples) {
			return nil, fmt.Errorf("recording %d repeats an event time", i)
		}
		recs[i] = rec
	}
	return recs, nil
}

// wireRoundTrip passes tuples through the batch codec, yielding exactly what
// a served engine sees after network transport (UTC re-stamped timestamps).
func wireRoundTrip(tuples []stream.Tuple) ([]stream.Tuple, error) {
	out := make([]stream.Tuple, 0, len(tuples))
	for len(tuples) > 0 {
		n := min(len(tuples), wire.MaxBatch)
		payload, err := wire.AppendBatch(nil, 1, len(tuples[0].Fields), tuples[:n])
		if err != nil {
			return nil, err
		}
		b, err := wire.DecodeBatch(payload)
		if err != nil {
			return nil, err
		}
		out = append(out, b.Tuples...)
		tuples = tuples[n:]
	}
	return out, nil
}
