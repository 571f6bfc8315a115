package transform

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gesturecep/internal/geom"
	"gesturecep/internal/kinect"
	"gesturecep/internal/stream"
)

// viaFrame is the definition Tuple must reproduce: the transformation written
// with geom primitives on a kinect.Frame.
func viaFrame(tr *Transformer, in stream.Tuple) (stream.Tuple, bool) {
	f, err := kinect.FromTuple(in)
	if err != nil {
		return stream.Tuple{}, false
	}
	return kinect.ToTuple(tr.Frame(f)), true
}

// TestTupleMatchesFrame steps two transformers in lock-step — one through
// Tuple, one through FromTuple → Frame → ToTuple — over random skeletons
// interleaved with every degenerate input the parameter estimation branches
// on, for all eight step combinations with and without forearm smoothing.
// Every output float and the smoothed-forearm state must agree bit for bit.
func TestTupleMatchesFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	random := func() kinect.Frame {
		var f kinect.Frame
		for j := range f.Joints {
			f.Joints[j] = geom.V(rng.NormFloat64()*800, rng.NormFloat64()*800, 2500+rng.NormFloat64()*800)
		}
		return f
	}
	with := func(edit func(*kinect.Frame)) kinect.Frame {
		f := random()
		edit(&f)
		return f
	}
	shortForearm := func(f *kinect.Frame) {
		f.Joints[kinect.RightHand] = f.Joints[kinect.RightElbow].Add(geom.V(minForearm/4, 0, 0))
	}
	frames := []kinect.Frame{with(shortForearm)} // below minForearm before the EMA is primed
	for i := 0; i < 40; i++ {
		frames = append(frames, random())
	}
	frames = append(frames,
		with(shortForearm), // and after
		with(func(f *kinect.Frame) { f.Joints[kinect.RightShoulder] = f.Joints[kinect.LeftShoulder] }), // yaw 0
		with(func(f *kinect.Frame) { f.Joints[kinect.Torso].Y = math.NaN() }),
		with(func(f *kinect.Frame) { f.Joints[kinect.LeftShoulder].Z = math.Inf(1) }),
		with(func(f *kinect.Frame) { f.Joints[kinect.RightHand].X = math.Inf(-1) }),
		with(func(f *kinect.Frame) { f.Joints[kinect.Head] = geom.V(math.NaN(), math.Inf(1), math.Copysign(0, -1)) }),
	)
	for i := 0; i < 40; i++ { // non-finite forearms above must not have poisoned one side only
		frames = append(frames, random())
	}
	inputs := kinect.ToTuples(frames)
	// Wrong arity in the middle of the run: refused, state untouched.
	short := stream.Tuple{Fields: inputs[0].Fields[:numFields-1]}
	inputs = append(inputs[:20:20], append([]stream.Tuple{short, {}}, inputs[20:]...)...)

	for mask := 0; mask < 8; mask++ {
		for _, smoothing := range []float64{0.2, 0} {
			cfg := DefaultConfig()
			cfg.Shift, cfg.Rotate, cfg.Scale = mask&1 != 0, mask&2 != 0, mask&4 != 0
			cfg.ForearmSmoothing = smoothing
			t.Run(fmt.Sprintf("shift=%t,rotate=%t,scale=%t,ema=%g", cfg.Shift, cfg.Rotate, cfg.Scale, smoothing), func(t *testing.T) {
				a, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, _ := New(cfg)
				for i, in := range inputs {
					in.Seq = uint64(i)
					got, gotOK := a.Tuple(in)
					want, wantOK := viaFrame(b, in)
					if gotOK != wantOK {
						t.Fatalf("input %d: ok = %t, want %t", i, gotOK, wantOK)
					}
					if gotOK != (len(in.Fields) == numFields) {
						t.Fatalf("input %d with %d fields: ok = %t", i, len(in.Fields), gotOK)
					}
					if !got.Ts.Equal(want.Ts) || got.Seq != want.Seq || len(got.Fields) != len(want.Fields) {
						t.Fatalf("input %d: header (%v, %d, %d fields), want (%v, %d, %d fields)",
							i, got.Ts, got.Seq, len(got.Fields), want.Ts, want.Seq, len(want.Fields))
					}
					for k := range want.Fields {
						if math.Float64bits(got.Fields[k]) != math.Float64bits(want.Fields[k]) {
							t.Fatalf("input %d field %d: %x (%g), want %x (%g)", i, k,
								math.Float64bits(got.Fields[k]), got.Fields[k],
								math.Float64bits(want.Fields[k]), want.Fields[k])
						}
					}
					if a.hasEMA != b.hasEMA || math.Float64bits(a.emaForearm) != math.Float64bits(b.emaForearm) {
						t.Fatalf("input %d: forearm state (%t, %g), want (%t, %g)",
							i, a.hasEMA, a.emaForearm, b.hasEMA, b.emaForearm)
					}
				}
			})
		}
	}
}

// allocSink keeps the measured result alive: a Tuple whose result is dropped
// can be inlined and its array stack-allocated, and the gate would read 0
// while every real caller, who keeps the tuple, pays 1.
var allocSink stream.Tuple

// TestTupleAllocGate pins the one allocation the owning entry point is
// allowed: the field array its caller keeps.
func TestTupleAllocGate(t *testing.T) {
	tr, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := kinect.ToTuple(frameFor(t, kinect.DefaultProfile()))
	if allocs := testing.AllocsPerRun(1000, func() { allocSink, _ = tr.Tuple(in) }); allocs != 1 {
		t.Errorf("Transformer.Tuple allocates %g times per tuple, want exactly 1", allocs)
	}
}

// TestProjectComputesOnlyReadJoints: project writes, bit for bit as Tuple
// does, every field of each joint that holds a field of the read set, and
// leaves the arena's other fields as they were. It reads no raw field
// outside rawReads of the set: those are NaN in its input here. The
// smoothed forearm advances on every tuple whatever the set, so a set that
// changes midway changes nothing for the joints both sets read, and where
// the stream is cut into batches changes nothing at all.
func TestProjectComputesOnlyReadJoints(t *testing.T) {
	sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 5)
	if err != nil {
		t.Fatal(err)
	}
	inputs := kinect.ToTuples(sim.Idle(t0(), 3*time.Second))
	rHandX := int(kinect.RightHand) * 3
	lHandZ := int(kinect.LeftHand)*3 + 2
	sets := []*stream.ReadSet{
		stream.NewReadSet(rHandX),
		stream.NewReadSet(rHandX, lHandZ),
		stream.NewReadSet(),
		nil,
	}
	own, _ := New(DefaultConfig())
	proj, _ := New(DefaultConfig())
	widths := []int{1, 7, 64, 3}
	proj.batch, proj.arena = make([]stream.Tuple, 64), make([]float64, 64*numFields) // so the NaNs below stay
	for off, b := 0, 0; off < len(inputs); b++ {
		batch := inputs[off:min(off+widths[b%len(widths)], len(inputs))]
		reads := sets[off*len(sets)/len(inputs)]
		unread := rawReads(reads)
		in := make([]stream.Tuple, len(batch))
		for i := range batch {
			in[i] = batch[i].Clone()
			for k := range in[i].Fields {
				if unread != nil && !slices.Contains(unread.Fields(), k) {
					in[i].Fields[k] = math.NaN()
				}
			}
		}
		for k := range proj.arena {
			proj.arena[k] = math.NaN()
		}
		got := proj.project(in, reads)
		if len(got) != len(in) {
			t.Fatalf("batch at %d: %d tuples out of %d", off, len(got), len(in))
		}
		for i := range batch {
			want, _ := own.Tuple(batch[i])
			for k := range want.Fields {
				read := reads == nil
				for f := k - k%3; f < k-k%3+3; f++ {
					read = read || slices.Contains(reads.Fields(), f)
				}
				switch {
				case read && math.Float64bits(got[i].Fields[k]) != math.Float64bits(want.Fields[k]):
					t.Fatalf("tuple %d field %d (read set %v): %g, want %g", off+i, k, reads.Fields(), got[i].Fields[k], want.Fields[k])
				case !read && !math.IsNaN(got[i].Fields[k]):
					t.Fatalf("tuple %d field %d (read set %v): written, but no read field is on its joint", off+i, k, reads.Fields())
				}
			}
		}
		off += len(batch)
	}
	if got := rawReads(stream.NewReadSet(rHandX)).Fields(); len(got) != 15 {
		t.Errorf("the right hand and the parameter joints read %d raw fields, want 15: %v", len(got), got)
	}
}
