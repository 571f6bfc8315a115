package transform_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/e2e"
	"gesturecep/internal/geom"
	"gesturecep/internal/kinect"
	"gesturecep/internal/stream"
	"gesturecep/internal/transform"
)

// refTransform is the §3.2 transformation written with geom's primitives
// and nothing of the Transformer's: the parameters start as the identity,
// the rotation is geom.RotY(math.Atan2(..)) of the shoulder line, and every
// joint is Vec3.Sub, Mat3.Apply and Vec3.Scale, with its own smoothed
// forearm. Frame and Tuple share the Transformer's parameter estimation, so
// comparing them cannot catch a change to it; comparing either with this
// can.
type refTransform struct {
	cfg    transform.Config
	ema    float64
	hasEMA bool
}

// refMinForearm is the shortest forearm the transformation believes.
const refMinForearm = 50.0

func (r *refTransform) forearm(elbow, hand geom.Vec3) float64 {
	raw := elbow.Dist(hand)
	if raw < refMinForearm || math.IsNaN(raw) || math.IsInf(raw, 0) {
		if r.hasEMA {
			return r.ema
		}
		raw = r.cfg.ReferenceForearm
	}
	if r.cfg.ForearmSmoothing <= 0 || !r.hasEMA {
		r.ema, r.hasEMA = raw, true
		return raw
	}
	a := r.cfg.ForearmSmoothing
	r.ema = a*raw + (1-a)*r.ema
	return r.ema
}

// tuple returns the transformation of one raw kinect field array.
func (r *refTransform) tuple(in []float64) []float64 {
	joint := func(j kinect.Joint) geom.Vec3 { return geom.V(in[3*j], in[3*j+1], in[3*j+2]) }
	origin, rot, scale := geom.Vec3{}, geom.Identity(), 1.0
	if r.cfg.Shift {
		origin = joint(kinect.Torso)
	}
	if r.cfg.Rotate {
		v := joint(kinect.RightShoulder).Sub(joint(kinect.LeftShoulder))
		yaw := 0.0
		if !(v.X == 0 && v.Z == 0) {
			yaw = math.Atan2(v.Z, v.X)
		}
		rot = geom.RotY(yaw)
	}
	if r.cfg.Scale {
		scale = r.cfg.ReferenceForearm / r.forearm(joint(kinect.RightElbow), joint(kinect.RightHand))
	}
	out := make([]float64, 0, len(in))
	for j := range kinect.NumJoints {
		p := rot.Apply(joint(kinect.Joint(j)).Sub(origin)).Scale(scale)
		out = append(out, p.X, p.Y, p.Z)
	}
	return out
}

// referenceInputs returns random skeletons interleaved with the inputs the
// arithmetic treats specially: shoulders with v.X == v.Z == 0 (signed zeros
// included), yaws of exactly ±π/2 and ±π, signed zeros, NaN, ±Inf, huge and
// subnormal coordinates, and forearms too short, too long and non-finite.
func referenceInputs() []stream.Tuple {
	rng := rand.New(rand.NewSource(40))
	random := func() kinect.Frame {
		var f kinect.Frame
		for j := range f.Joints {
			f.Joints[j] = geom.V(rng.NormFloat64()*800, rng.NormFloat64()*800, 2500+rng.NormFloat64()*800)
		}
		return f
	}
	negZero := math.Copysign(0, -1)
	ls, rs := kinect.LeftShoulder, kinect.RightShoulder
	edits := []func(f *kinect.Frame){
		func(f *kinect.Frame) { f.Joints[rs] = f.Joints[ls].Add(geom.V(0, 37, 0)) },
		func(f *kinect.Frame) {
			f.Joints[ls].X, f.Joints[rs].X = 0, negZero // v.X = −0
			f.Joints[ls].Z, f.Joints[rs].Z = negZero, 0 // v.Z = +0
		},
		func(f *kinect.Frame) { f.Joints[rs].X, f.Joints[ls].X = 5, 5 },       // yaw ±π/2
		func(f *kinect.Frame) { f.Joints[rs].Z, f.Joints[ls].Z = negZero, 0 }, // v.Z = −0
		func(f *kinect.Frame) { f.Joints[rs].Z, f.Joints[ls].Z = 0, 0 },       // v.Z = +0
		func(f *kinect.Frame) { f.Joints[kinect.Torso] = geom.V(negZero, 0, negZero) },
		func(f *kinect.Frame) { f.Joints[kinect.RightHand] = geom.V(negZero, negZero, negZero) },
		func(f *kinect.Frame) { f.Joints[ls].Z = math.NaN() },
		func(f *kinect.Frame) { f.Joints[kinect.Torso].Y = math.NaN() },
		func(f *kinect.Frame) { f.Joints[kinect.RightHand].X = math.NaN() },
		func(f *kinect.Frame) { f.Joints[kinect.Head] = geom.V(math.NaN(), math.Inf(1), negZero) },
		func(f *kinect.Frame) { f.Joints[rs].X = math.Inf(1) },
		func(f *kinect.Frame) { f.Joints[rs].X, f.Joints[ls].X = math.Inf(1), math.Inf(1) }, // Inf − Inf
		func(f *kinect.Frame) { f.Joints[rs].Z = math.Inf(-1) },
		func(f *kinect.Frame) { f.Joints[kinect.Torso].X = math.Inf(-1) },
		func(f *kinect.Frame) { f.Joints[kinect.RightElbow].Z = math.Inf(1) },
		func(f *kinect.Frame) { f.Joints[rs] = geom.V(1e300, 0, -1e300) },
		func(f *kinect.Frame) { f.Joints[kinect.RightHand] = geom.V(1e200, -1e200, 1e154) },
		func(f *kinect.Frame) { f.Joints[kinect.LeftHand] = geom.V(math.MaxFloat64, -math.MaxFloat64, 1e308) },
		func(f *kinect.Frame) {
			f.Joints[ls] = geom.V(math.SmallestNonzeroFloat64, 0, -math.SmallestNonzeroFloat64)
		},
		func(f *kinect.Frame) {
			f.Joints[kinect.RightHand] = f.Joints[kinect.RightElbow].Add(geom.V(refMinForearm/4, 0, 0))
		},
	}
	var frames []kinect.Frame
	for _, edit := range append(edits, edits...) {
		for range 1 + rng.Intn(4) {
			frames = append(frames, random())
		}
		f := random()
		edit(&f)
		frames = append(frames, f)
	}
	// A whole batch of the edits, none of them first in it.
	for _, edit := range edits {
		f := random()
		edit(&f)
		frames = append(frames, f)
	}
	ts := kinect.ToTuples(frames)
	for i := range ts {
		ts[i].Ts = time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC).Add(time.Duration(i) * 33 * time.Millisecond)
		ts[i].Seq = uint64(i)
	}
	return ts
}

// demoReads returns the fields of kinect_t that the eight demo plans read.
func demoReads(t *testing.T) *stream.ReadSet {
	engine := anduin.New()
	_, view, err := engine.KinectPipeline(transform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range e2e.DemoPlans(t) {
		if _, err := engine.DeployPlan(plan); err != nil {
			t.Fatal(err)
		}
	}
	reads := view.Reads()
	if reads == nil || len(reads.Fields()) == 0 || len(reads.Fields()) == 3*kinect.NumJoints {
		t.Fatalf("the demo plans read %v of kinect_t, want some fields, not all", reads)
	}
	return reads
}

// viewOutputs publishes inputs through a fresh kinect_t view, in batches of
// the widths given in turn, to one subscriber that reads reads, and returns
// a copy of every tuple the subscriber was lent.
func viewOutputs(t *testing.T, cfg transform.Config, reads *stream.ReadSet, inputs []stream.Tuple, widths []int) [][]float64 {
	raw, err := stream.New("kinect", kinect.Schema())
	if err != nil {
		t.Fatal(err)
	}
	view, err := transform.View(raw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]float64
	view.SubscribeBatch(reads, func(ts []stream.Tuple) {
		for _, tup := range ts {
			out = append(out, slices.Clone(tup.Fields))
		}
	})
	for off, b := 0, 0; off < len(inputs); b++ {
		end := min(off+widths[b%len(widths)], len(inputs))
		if err := raw.PublishBatch(inputs[off:end]); err != nil {
			t.Fatal(err)
		}
		off = end
	}
	if len(out) != len(inputs) {
		t.Fatalf("%d tuples out of the view, %d in", len(out), len(inputs))
	}
	return out
}

// TestViewMatchesReference: the kinect_t view, as it serves, equals
// refTransform bit for bit. A subscriber reading every field gets all 45
// fields of every tuple; one reading what the demo plans read gets every
// field of the joints their fields lie on. Both run over referenceInputs,
// cut into batches of several widths, under every combination of the three
// steps with and without forearm smoothing — which covers each
// configuration of the E3 ablation.
func TestViewMatchesReference(t *testing.T) {
	inputs := referenceInputs()
	demo := demoReads(t)
	var demoJoints []int
	for _, f := range demo.Fields() {
		if j := f / 3; !slices.Contains(demoJoints, j) {
			demoJoints = append(demoJoints, j)
		}
	}
	for mask := 0; mask < 8; mask++ {
		for _, smoothing := range []float64{0.2, 0} {
			cfg := transform.Config{
				Shift: mask&1 != 0, Rotate: mask&2 != 0, Scale: mask&4 != 0,
				ReferenceForearm: kinect.ReferenceForearm, ForearmSmoothing: smoothing,
			}
			t.Run(fmt.Sprintf("shift=%t,rotate=%t,scale=%t,ema=%g", cfg.Shift, cfg.Rotate, cfg.Scale, smoothing), func(t *testing.T) {
				ref := &refTransform{cfg: cfg}
				want := make([][]float64, len(inputs))
				for i, in := range inputs {
					want[i] = ref.tuple(in.Fields)
				}
				all := viewOutputs(t, cfg, nil, inputs, []int{64, 1, 7, 150, 3})
				projected := viewOutputs(t, cfg, demo, inputs, []int{1, 64, 5, 64, 64, 2})
				for i := range inputs {
					for k := range want[i] {
						if math.Float64bits(all[i][k]) != math.Float64bits(want[i][k]) {
							t.Fatalf("input %d field %d: %x (%g), reference %x (%g)", i, k,
								math.Float64bits(all[i][k]), all[i][k], math.Float64bits(want[i][k]), want[i][k])
						}
					}
					for _, j := range demoJoints {
						for k := 3 * j; k < 3*j+3; k++ {
							if math.Float64bits(projected[i][k]) != math.Float64bits(want[i][k]) {
								t.Fatalf("input %d field %d under the demo read set: %x (%g), reference %x (%g)", i, k,
									math.Float64bits(projected[i][k]), projected[i][k], math.Float64bits(want[i][k]), want[i][k])
							}
						}
					}
				}
			})
		}
	}
}

// TestSincosIsSinCos pins what estimate's single math.Sincos rests on: it
// returns, bit for bit, math.Sin and math.Cos of the same angle. It holds
// where the three are the same pure-Go reduction and polynomials, as on
// amd64 (not on s390x, whose Sin and Cos are assembly). Atan2 returns
// angles in [−π, π] or NaN; the test covers those densely and the rest of
// the line sparsely.
func TestSincosIsSinCos(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	angles := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.Pi, -math.Pi, math.Pi / 2, -math.Pi / 2, math.Pi / 4, -math.Pi / 4, 3 * math.Pi / 4,
		math.SmallestNonzeroFloat64, 1e-300, 1 << 29, math.Nextafter(1<<29, 0), 1e300, math.MaxFloat64,
	}
	for _, a := range angles[5:12] {
		angles = append(angles, math.Nextafter(a, math.Inf(1)), math.Nextafter(a, math.Inf(-1)))
	}
	for range 500_000 {
		angles = append(angles, (2*rng.Float64()-1)*math.Pi)
	}
	for range 20_000 {
		angles = append(angles, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-5)))
	}
	for _, a := range angles {
		s, c := math.Sincos(a)
		if math.Float64bits(s) != math.Float64bits(math.Sin(a)) || math.Float64bits(c) != math.Float64bits(math.Cos(a)) {
			t.Fatalf("Sincos(%v) = (%v, %v), Sin, Cos = (%v, %v)", a, s, c, math.Sin(a), math.Cos(a))
		}
	}
}
