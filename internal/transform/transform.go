// Package transform implements the data transformation of §3.2 (Fig. 3):
// converting raw camera-frame skeleton tuples into a user-invariant frame so
// that one gesture definition detects the same movement regardless of where
// the user stands (position invariance), which way he faces (orientation
// invariance) and how tall he is (scale invariance).
//
// The three steps, each independently switchable for the ablation experiment
// (E3):
//
//  1. Shift: subtract the torso position — the torso becomes the origin.
//  2. Rotate: rotate about the vertical axis so the user's viewing
//     direction is canonical. The yaw is estimated from the shoulder line.
//  3. Scale: divide by the right forearm length (distance right elbow →
//     right hand), then re-multiply by a reference forearm so coordinates
//     remain in familiar millimetres (the paper's Fig. 1 windows are
//     mm-sized). This is the paper's scale factor up to the constant
//     reference factor.
//
// Like the paper's kinect_t view, the whole transformation is "a single step
// performed on the incoming data stream": View attaches it as a derived
// stream.
package transform

import (
	"fmt"
	"math"
	"math/bits"

	"gesturecep/internal/geom"
	"gesturecep/internal/kinect"
	"gesturecep/internal/stream"
)

// Config controls the transformation steps.
type Config struct {
	// Shift enables torso-origin translation (position invariance).
	Shift bool
	// Rotate enables yaw normalization (orientation invariance).
	Rotate bool
	// Scale enables forearm-length scaling (scale invariance).
	Scale bool
	// ReferenceForearm is the forearm length (mm) users are normalized to.
	ReferenceForearm float64
	// ForearmSmoothing is the EMA coefficient applied to the per-frame
	// forearm estimate (0 disables smoothing, 0.2 is a good default):
	// sensor jitter on elbow/hand otherwise wobbles the scale factor.
	ForearmSmoothing float64
}

// DefaultConfig enables all three invariance steps.
func DefaultConfig() Config {
	return Config{
		Shift:            true,
		Rotate:           true,
		Scale:            true,
		ReferenceForearm: kinect.ReferenceForearm,
		ForearmSmoothing: 0.2,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ReferenceForearm <= 0 {
		return fmt.Errorf("transform: reference forearm must be positive, got %g", c.ReferenceForearm)
	}
	if c.ForearmSmoothing < 0 || c.ForearmSmoothing > 1 {
		return fmt.Errorf("transform: smoothing %g outside [0, 1]", c.ForearmSmoothing)
	}
	return nil
}

// minForearm guards the scale division against tracker glitches that report
// elbow and hand on top of each other.
const minForearm = 50.0

// allJoints is the joint mask of every joint.
const allJoints = 1<<kinect.NumJoints - 1

// Transformer applies the §3.2 transformation frame by frame. It keeps a
// smoothed forearm estimate across frames and is therefore stateful; use
// one Transformer per stream and do not share across goroutines.
type Transformer struct {
	cfg        Config
	emaForearm float64
	hasEMA     bool
	// batch and arena hold the batch project builds: tuple headers and
	// their field arrays, numFields apiece, grown to the widest batch.
	batch []stream.Tuple
	arena []float64
	// reads is the read set project last saw, joints its joint mask.
	reads  *stream.ReadSet
	joints uint16
}

// New validates cfg and returns a Transformer.
func New(cfg Config) (*Transformer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Transformer{cfg: cfg, joints: allJoints}, nil
}

// Config returns the transformer configuration.
func (t *Transformer) Config() Config { return t.cfg }

// Reset clears the smoothed forearm state.
func (t *Transformer) Reset() { t.hasEMA = false; t.emaForearm = 0 }

// EstimateYaw returns the user's facing direction estimated from the
// shoulder line of the frame: with the simulator's conventions the vector
// from left to right shoulder maps under the user rotation to
// (cos yaw, 0, sin yaw).
func EstimateYaw(f kinect.Frame) float64 {
	return shoulderYaw(f.Pos(kinect.LeftShoulder), f.Pos(kinect.RightShoulder))
}

func shoulderYaw(left, right geom.Vec3) float64 {
	v := right.Sub(left)
	if v.X == 0 && v.Z == 0 {
		return 0
	}
	return math.Atan2(v.Z, v.X)
}

// forearm returns the smoothed right-forearm length given the elbow and hand
// positions of one frame. A non-finite distance (a NaN or ±Inf coordinate)
// is a glitch like a too-short one: fed to the average, it would poison
// every later scale.
func (t *Transformer) forearm(elbow, hand geom.Vec3) float64 {
	raw := elbow.Dist(hand)
	if raw < minForearm || math.IsNaN(raw) || math.IsInf(raw, 0) {
		if t.hasEMA {
			return t.emaForearm
		}
		raw = t.cfg.ReferenceForearm
	}
	if t.cfg.ForearmSmoothing <= 0 || !t.hasEMA {
		t.emaForearm = raw
		t.hasEMA = true
		return raw
	}
	a := t.cfg.ForearmSmoothing
	t.emaForearm = a*raw + (1-a)*t.emaForearm
	return t.emaForearm
}

// params is the transformation of one frame: p ↦ scale · rot · (p − origin).
type params struct {
	origin geom.Vec3
	rot    geom.Mat3
	scale  float64
}

// estimate writes one frame's parameters into p from the five joints they
// depend on, advancing the smoothed forearm. Frame and Tuple share it; they
// differ only in where joints are read from and written to. Each field of p
// is written once. The rotation is geom.RotY of the yaw (the inverse of the
// user's RotY(-yaw)) with sine and cosine from one math.Sincos: it reduces
// the angle once and evaluates the same polynomials as math.Sin and
// math.Cos, so on amd64 every entry is bit-identical to RotY's
// (TestSincosIsSinCos).
func (t *Transformer) estimate(p *params, torso, lShoulder, rShoulder, rElbow, rHand geom.Vec3) {
	if t.cfg.Shift {
		p.origin = torso
	} else {
		p.origin = geom.Vec3{}
	}
	if t.cfg.Rotate {
		s, c := math.Sincos(shoulderYaw(lShoulder, rShoulder))
		p.rot = geom.Mat3{{c, 0, s}, {0, 1, 0}, {-s, 0, c}}
	} else {
		p.rot = geom.Identity()
	}
	if t.cfg.Scale {
		p.scale = t.cfg.ReferenceForearm / t.forearm(rElbow, rHand)
	} else {
		p.scale = 1
	}
}

// Frame transforms one skeleton frame into the user-invariant frame. It is
// the entry point of the learner and the experiments, which work on frames;
// the serving path never builds one (see Tuple).
func (t *Transformer) Frame(f kinect.Frame) kinect.Frame {
	var par params
	t.estimate(&par, f.Pos(kinect.Torso), f.Pos(kinect.LeftShoulder), f.Pos(kinect.RightShoulder),
		f.Pos(kinect.RightElbow), f.Pos(kinect.RightHand))
	out := f
	for j := range f.Joints {
		out.Joints[j] = par.rot.Apply(f.Joints[j].Sub(par.origin)).Scale(par.scale)
	}
	return out
}

// numFields is the arity of a kinect tuple: x, y, z per joint.
const numFields = kinect.NumJoints * 3

// Tuple transforms a raw kinect tuple into one that owns its field array:
// the entry point of callers that keep the result. The result is
// bit-identical to kinect.ToTuple(t.Frame(kinect.FromTuple(in))) —
// TestTupleMatchesFrame pins it. Malformed tuples are dropped (ok = false).
func (t *Transformer) Tuple(in stream.Tuple) (stream.Tuple, bool) {
	if len(in.Fields) != numFields {
		return stream.Tuple{}, false
	}
	out := new([numFields]float64)
	t.into(out, (*[numFields]float64)(in.Fields), allJoints)
	return stream.Tuple{Ts: in.Ts, Seq: in.Seq, Fields: out[:]}, true
}

// project transforms a batch of raw kinect tuples, each exactly numFields
// wide, into the transformer's batch arena for subscribers that read only
// the fields in reads (nil: every field): the parameters are estimated for
// every tuple, so the smoothed forearm advances on each, but only the
// joints with a field in reads are shifted, rotated and scaled. The arena's
// other fields keep whatever they held. It is the kinect_t view's build
// step (see View); the batch it returns is lent until the next project.
func (t *Transformer) project(in []stream.Tuple, reads *stream.ReadSet) []stream.Tuple {
	if reads != t.reads {
		t.reads, t.joints = reads, jointMask(reads)
	}
	if len(in) > len(t.batch) {
		t.batch = make([]stream.Tuple, len(in))
		t.arena = make([]float64, len(in)*numFields)
	}
	out := t.batch[:len(in)]
	for i := range in {
		fs := (*[numFields]float64)(t.arena[i*numFields : (i+1)*numFields])
		t.into(fs, (*[numFields]float64)(in[i].Fields), t.joints)
		out[i] = stream.Tuple{Ts: in[i].Ts, Seq: in[i].Seq, Fields: fs[:]}
	}
	return out
}

// jointMask returns the joints (bit j for joint j) that hold a field of
// reads.
func jointMask(reads *stream.ReadSet) uint16 {
	if reads == nil {
		return allJoints
	}
	var m uint16
	for _, f := range reads.Fields() {
		m |= 1 << (f / 3)
	}
	return m
}

// paramJoints are the joints estimate reads.
var paramJoints = [...]kinect.Joint{kinect.Torso, kinect.LeftShoulder, kinect.RightShoulder, kinect.RightElbow, kinect.RightHand}

// rawReads returns the raw fields project reads to build the fields in
// reads (nil: every field): the three of every joint it transforms and of
// every joint the parameters are estimated from.
func rawReads(reads *stream.ReadSet) *stream.ReadSet {
	if reads == nil {
		return nil
	}
	m := jointMask(reads)
	for _, j := range paramJoints {
		m |= 1 << j
	}
	var fields []int
	for j := range kinect.NumJoints {
		if m&(1<<j) != 0 {
			fields = append(fields, 3*j, 3*j+1, 3*j+2)
		}
	}
	return stream.NewReadSet(fields...)
}

// into writes the transformation of the raw field array in to out for the
// joints in the mask, visiting only its set bits. No frame is built: the
// five joints the parameters depend on are read from in, and shift →
// rotate → scale is written straight into out. The arithmetic is Vec3.Sub,
// Mat3.Apply and Vec3.Scale spelled out in their exact expression order, so
// not one output float differs from Frame's.
func (t *Transformer) into(out, f *[numFields]float64, joints uint16) {
	joint := func(j kinect.Joint) geom.Vec3 { return geom.V(f[j*3], f[j*3+1], f[j*3+2]) }
	var par params
	t.estimate(&par, joint(kinect.Torso), joint(kinect.LeftShoulder), joint(kinect.RightShoulder),
		joint(kinect.RightElbow), joint(kinect.RightHand))
	o, r, s := par.origin, &par.rot, par.scale
	for m := joints; m != 0; m &= m - 1 {
		// The zero entries of r are multiplied too, as Mat3.Apply does: a
		// NaN or ±Inf coordinate makes them NaN.
		i := 3 * bits.TrailingZeros16(m)
		x, y, z := f[i]-o.X, f[i+1]-o.Y, f[i+2]-o.Z
		out[i] = (r[0][0]*x + r[0][1]*y + r[0][2]*z) * s
		out[i+1] = (r[1][0]*x + r[1][1]*y + r[1][2]*z) * s
		out[i+2] = (r[2][0]*x + r[2][1]*y + r[2][2]*z) * s
	}
}

// ViewName is the conventional name of the transformed stream, matching the
// paper's kinect_t.
const ViewName = "kinect_t"

// View attaches the transformation as a derived stream over src (the raw
// kinect stream) and returns it. The view shares the kinect schema: same
// attributes, transformed values. It works a batch at a time: each batch of
// src is transformed into one arena owned by the view's transformer and
// published as one batch, lent until that publish returns and overwritten
// by the next. Each batch is computed for the view's subscribers
// (stream.PublishDerivedBatch): a joint is rotated and scaled only when one
// of them reads one of its fields, so with every subscriber a deployed plan
// (anduin.Engine.DeployPlan declares what each reads), only the joints in
// the plans' union are; one subscriber that declares nothing gets all 15.
// The view in turn declares to src the raw fields it reads
// (stream.Stream.Feed): those joints and the five the parameters are
// estimated from.
func View(src *stream.Stream, cfg Config) (*stream.Stream, error) {
	tr, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("transform: view of nil stream")
	}
	if n := src.Schema().Len(); n != numFields {
		return nil, fmt.Errorf("transform: view of stream %q with %d fields, kinect tuples have %d", src.Name(), n, numFields)
	}
	view, err := stream.New(ViewName, src.Schema())
	if err != nil {
		return nil, err
	}
	build := tr.project
	if err := view.Feed(src, rawReads, func(in []stream.Tuple) {
		if err := view.PublishDerivedBatch(in, build); err != nil {
			// src and the view share a schema of numFields fields, so this
			// cannot happen.
			panic(fmt.Sprintf("transform: view %q: %v", ViewName, err))
		}
		stream.EndLoan(tr.arena)
	}); err != nil {
		return nil, err
	}
	return view, nil
}

// FrameSlice transforms a recorded sample (e.g. from the recorder) into the
// user-invariant frame with a fresh transformer.
func FrameSlice(cfg Config, frames []kinect.Frame) ([]kinect.Frame, error) {
	tr, err := New(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]kinect.Frame, len(frames))
	for i, f := range frames {
		out[i] = tr.Frame(f)
	}
	return out, nil
}
