package transform

import (
	"math"
	"testing"
	"time"

	"gesturecep/internal/geom"
	"gesturecep/internal/kinect"
	"gesturecep/internal/stream"
)

func t0() time.Time { return time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC) }

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
	bad := DefaultConfig()
	bad.ReferenceForearm = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero reference forearm accepted")
	}
	bad = DefaultConfig()
	bad.ForearmSmoothing = 2
	if err := bad.Validate(); err == nil {
		t.Error("smoothing > 1 accepted")
	}
	if _, err := New(bad); err == nil {
		t.Error("New accepted invalid config")
	}
}

// frameFor synthesizes a noise-free idle frame for the profile.
func frameFor(t *testing.T, p kinect.Profile) kinect.Frame {
	t.Helper()
	sim, err := kinect.NewSimulator(p, kinect.NoNoise(), 1)
	if err != nil {
		t.Fatal(err)
	}
	frames := sim.Idle(t0(), 100*time.Millisecond)
	return frames[0]
}

func TestTransformRecoversLocalFrame(t *testing.T) {
	// For any user profile, the transformed rest skeleton must coincide
	// with the reference rest pose: that is precisely the invariance §3.2
	// claims.
	profiles := []kinect.Profile{
		kinect.DefaultProfile(),
		kinect.ChildProfile(),
		kinect.TallProfile(),
		{Name: "turned", Height: 1800, Position: geom.V(-600, 90, 3100), Yaw: geom.Radians(-35)},
	}
	for _, p := range profiles {
		tr, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		got := tr.Frame(frameFor(t, p))
		for j := 0; j < kinect.NumJoints; j++ {
			joint := kinect.Joint(j)
			if joint == kinect.RightElbow || joint == kinect.LeftElbow {
				continue // elbows are IK-derived, not at the literal rest pose
			}
			want := kinect.RestLocal(joint)
			if got.Pos(joint).Dist(want) > 20 {
				t.Errorf("%s: joint %s transformed to %v, want %v", p.Name, joint, got.Pos(joint), want)
			}
		}
	}
}

func TestTransformInvarianceAcrossUsers(t *testing.T) {
	// The same gesture performed by different users must land in the same
	// transformed windows: compare right-hand paths pointwise.
	spec := kinect.StandardGestures()[kinect.GestureSwipeRight]
	var paths [][]geom.Vec3
	for _, p := range []kinect.Profile{kinect.DefaultProfile(), kinect.ChildProfile(), kinect.TallProfile()} {
		sim, err := kinect.NewSimulator(p, kinect.NoNoise(), 7)
		if err != nil {
			t.Fatal(err)
		}
		perf, err := sim.Perform(spec, t0(), kinect.PerformOpts{})
		if err != nil {
			t.Fatal(err)
		}
		frames, err := FrameSlice(DefaultConfig(), perf.Frames)
		if err != nil {
			t.Fatal(err)
		}
		var path []geom.Vec3
		for _, f := range frames {
			path = append(path, f.Pos(kinect.RightHand))
		}
		paths = append(paths, path)
	}
	ref := paths[0]
	for i, other := range paths[1:] {
		if len(other) != len(ref) {
			t.Fatalf("path %d has %d points, ref has %d", i+1, len(other), len(ref))
		}
		var worst float64
		for k := range ref {
			if d := ref[k].Dist(other[k]); d > worst {
				worst = d
			}
		}
		// Tolerance: IK reach clamping plus smoothing differ slightly per
		// body size; must stay well inside the paper's ±50 mm windows.
		if worst > 40 {
			t.Errorf("user %d transformed path deviates up to %.1f mm from reference", i+1, worst)
		}
	}
}

func TestAblationBreaksInvariance(t *testing.T) {
	// Disabling the shift step must leave the child user's transformed
	// coordinates far from the adult's (they stand in different places).
	spec := kinect.StandardGestures()[kinect.GestureSwipeRight]
	endpoints := make(map[string]geom.Vec3)
	for _, cfgCase := range []struct {
		name string
		cfg  Config
	}{
		{"full", DefaultConfig()},
		{"noShift", Config{Shift: false, Rotate: true, Scale: true, ReferenceForearm: 250}},
		{"noScale", Config{Shift: true, Rotate: true, Scale: false, ReferenceForearm: 250}},
	} {
		for _, p := range []kinect.Profile{kinect.DefaultProfile(), kinect.ChildProfile()} {
			sim, _ := kinect.NewSimulator(p, kinect.NoNoise(), 7)
			perf, _ := sim.Perform(spec, t0(), kinect.PerformOpts{})
			frames, err := FrameSlice(cfgCase.cfg, perf.Frames)
			if err != nil {
				t.Fatal(err)
			}
			endpoints[cfgCase.name+"/"+p.Name] = frames[len(frames)-1].Pos(kinect.RightHand)
		}
	}
	if d := endpoints["full/adult"].Dist(endpoints["full/child"]); d > 40 {
		t.Errorf("full transform: adult/child endpoints differ by %.1f mm", d)
	}
	if d := endpoints["noShift/adult"].Dist(endpoints["noShift/child"]); d < 100 {
		t.Errorf("shift ablation: endpoints still close (%.1f mm) — ablation ineffective", d)
	}
	if d := endpoints["noScale/adult"].Dist(endpoints["noScale/child"]); d < 100 {
		t.Errorf("scale ablation: endpoints still close (%.1f mm) — ablation ineffective", d)
	}
}

func TestEstimateYaw(t *testing.T) {
	for _, yawDeg := range []float64{0, 20, -35, 60} {
		p := kinect.DefaultProfile()
		p.Yaw = geom.Radians(yawDeg)
		f := frameFor(t, p)
		got := geom.Degrees(EstimateYaw(f))
		if math.Abs(got-yawDeg) > 1 {
			t.Errorf("yaw %v: estimated %.2f", yawDeg, got)
		}
	}
}

func TestForearmGuard(t *testing.T) {
	tr, _ := New(DefaultConfig())
	f := frameFor(t, kinect.DefaultProfile())
	// Glitch: elbow collapses onto the hand. The scale must not explode.
	glitch := f
	glitch.Joints[kinect.RightElbow] = glitch.Joints[kinect.RightHand]
	out := tr.Frame(glitch)
	for j := 0; j < kinect.NumJoints; j++ {
		p := out.Joints[j]
		if !p.IsFinite() || p.Norm() > 1e5 {
			t.Fatalf("glitch frame exploded: joint %d at %v", j, p)
		}
	}
	// After a good frame, the EMA recovers.
	tr.Reset()
	_ = tr.Frame(f)
	out2 := tr.Frame(glitch)
	if !out2.Pos(kinect.Head).IsFinite() {
		t.Error("EMA fallback failed")
	}
}

// TestNonFiniteForearmIsAGlitch: one frame whose right elbow or right hand
// holds a NaN or ±Inf coordinate is skipped by the smoothed forearm like a
// too-short one, so every later Tuple equals, bit for bit, what a
// transformer that never saw that frame returns.
func TestNonFiniteForearmIsAGlitch(t *testing.T) {
	sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 3)
	if err != nil {
		t.Fatal(err)
	}
	frames := sim.Idle(t0(), time.Second)
	const bad = 10
	for _, joint := range []kinect.Joint{kinect.RightElbow, kinect.RightHand} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			glitch := frames[bad]
			glitch.Joints[joint].Y = v
			saw, _ := New(DefaultConfig())
			never, _ := New(DefaultConfig())
			for i, f := range frames {
				if i == bad {
					saw.Tuple(kinect.ToTuple(glitch))
					continue
				}
				got, _ := saw.Tuple(kinect.ToTuple(f))
				want, _ := never.Tuple(kinect.ToTuple(f))
				for k := range want.Fields {
					if math.Float64bits(got.Fields[k]) != math.Float64bits(want.Fields[k]) {
						t.Fatalf("joint %d = %g at frame %d: frame %d field %d is %g, want %g",
							joint, v, bad, i, k, got.Fields[k], want.Fields[k])
					}
				}
				if math.Float64bits(saw.emaForearm) != math.Float64bits(never.emaForearm) {
					t.Fatalf("joint %d = %g at frame %d: frame %d forearm %g, want %g",
						joint, v, bad, i, saw.emaForearm, never.emaForearm)
				}
			}
		}
	}
}

func TestTupleViewDropsMalformed(t *testing.T) {
	src, err := stream.New("kinect", kinect.Schema())
	if err != nil {
		t.Fatal(err)
	}
	view, err := View(src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if view.Name() != ViewName {
		t.Errorf("view name = %q", view.Name())
	}
	var c stream.Collector
	c.Attach(view)
	f := frameFor(t, kinect.DefaultProfile())
	if err := src.Publish(kinect.ToTuple(f)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("view emitted %d tuples", c.Len())
	}
	// The view lends its tuples out of one array: with ended loans poisoned,
	// a subscriber that kept the tuple itself reads NaNs once Publish has
	// returned, while the collector's copy stays what was published.
	stream.PoisonEndedLoans(true)
	defer stream.PoisonEndedLoans(false)
	var kept stream.Tuple
	view.Subscribe(func(tp stream.Tuple) { kept = tp })
	if err := src.Publish(kinect.ToTuple(f)); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(kept.Fields[0]) {
		t.Errorf("a kept view tuple still reads %g after Publish returned", kept.Fields[0])
	}
	if got := c.Tuples(); len(got) != 2 || math.IsNaN(got[1].Fields[0]) || got[1].Fields[0] != got[0].Fields[0] {
		t.Errorf("collected copies = %v, want the published values twice", got)
	}
	short, err := stream.New("short", stream.MustSchema("a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := View(short, DefaultConfig()); err == nil {
		t.Error("view over a stream that is not kinect-shaped accepted")
	}
	// Malformed tuples cannot be published on the typed stream at all —
	// the Tuple transform's drop path is still exercised directly:
	tr, _ := New(DefaultConfig())
	if _, ok := tr.Tuple(stream.Tuple{Fields: []float64{1, 2}}); ok {
		t.Error("malformed tuple not dropped")
	}
	if _, err := View(src, Config{ReferenceForearm: -1}); err == nil {
		t.Error("invalid view config accepted")
	}
}

func TestRPYUDFs(t *testing.T) {
	udfs := RPYUDFs()
	for _, name := range []string{"rpy_yaw", "rpy_pitch", "rpy_roll"} {
		if _, ok := udfs[name]; !ok {
			t.Fatalf("missing UDF %s", name)
		}
		if udfs[name].Arity != 6 {
			t.Errorf("%s arity = %d", name, udfs[name].Arity)
		}
	}
	yaw := udfs["rpy_yaw"].Fn
	pitch := udfs["rpy_pitch"].Fn
	roll := udfs["rpy_roll"].Fn

	// Segment pointing straight forward (user frame -Z): yaw 0, pitch 0,
	// roll -90 (fully out of the frontal plane).
	fwd := []float64{0, 0, 0, 0, 0, -100}
	if got := yaw(fwd); math.Abs(got) > 1e-9 {
		t.Errorf("forward yaw = %v", got)
	}
	if got := pitch(fwd); math.Abs(got) > 1e-9 {
		t.Errorf("forward pitch = %v", got)
	}
	if got := roll(fwd); math.Abs(got-90) > 1e-9 {
		t.Errorf("forward roll = %v, want 90", got)
	}
	// Segment pointing to transformed +X: yaw +90.
	right := []float64{0, 0, 0, 100, 0, 0}
	if got := yaw(right); math.Abs(got-90) > 1e-9 {
		t.Errorf("right yaw = %v", got)
	}
	// Segment pointing straight up: pitch +90.
	up := []float64{0, 0, 0, 0, 100, 0}
	if got := pitch(up); math.Abs(got-90) > 1e-9 {
		t.Errorf("up pitch = %v", got)
	}
	// Degenerate zero segment returns 0 everywhere.
	zero := []float64{1, 2, 3, 1, 2, 3}
	if yaw(zero) != 0 || pitch(zero) != 0 || roll(zero) != 0 {
		t.Error("zero segment should yield zero angles")
	}
}

func TestForearmYawOscillatesDuringWave(t *testing.T) {
	sim, _ := kinect.NewSimulator(kinect.DefaultProfile(), kinect.NoNoise(), 3)
	perf, err := sim.Perform(kinect.StandardGestures()[kinect.GestureWave], t0(), kinect.PerformOpts{})
	if err != nil {
		t.Fatal(err)
	}
	frames, err := FrameSlice(DefaultConfig(), perf.Frames)
	if err != nil {
		t.Fatal(err)
	}
	minYaw, maxYaw := math.Inf(1), math.Inf(-1)
	for _, f := range frames {
		if !f.Ts.Before(perf.PathStart) && !f.Ts.After(perf.PathEnd) {
			y := ForearmYaw(f)
			minYaw = math.Min(minYaw, y)
			maxYaw = math.Max(maxYaw, y)
		}
	}
	if maxYaw-minYaw < 15 {
		t.Errorf("wave forearm yaw swing = %.1f°, expected a visible oscillation", maxYaw-minYaw)
	}
}
