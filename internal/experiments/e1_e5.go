package experiments

import (
	"fmt"
	"strings"
	"time"

	"gesturecep/internal/geom"
	"gesturecep/internal/kinect"
	"gesturecep/internal/learn"
	"gesturecep/internal/query"
	"gesturecep/internal/transform"
)

// E1SwipeRight reproduces Fig. 1: learn the swipe_right gesture from a few
// samples, show the generated query's pose windows (the figure's three
// boxes with their centers and ±widths), verify the query's structure
// matches the paper's (nested sequences, within, select first consume all)
// and that it detects fresh executions.
func E1SwipeRight(seed int64) (Table, string, error) {
	t := Table{
		ID:     "E1",
		Title:  "Fig. 1 — learned swipe_right windows and generated query",
		Header: []string{"pose", "center_x", "center_y", "center_z", "±half_x", "±half_y", "±half_z"},
	}
	samples, err := trainSamples(kinect.DefaultProfile(), kinect.GestureSwipeRight, 4, seed)
	if err != nil {
		return t, "", err
	}
	res, err := learn.Learn(kinect.GestureSwipeRight, samples, learn.DefaultConfig())
	if err != nil {
		return t, "", err
	}
	for i, w := range res.Model.Windows {
		c, h := w.Center(), w.HalfWidth()
		t.AddRow(iStr(i), f0(c[0]), f0(c[1]), f0(c[2]), f0(h[0]), f0(h[1]), f0(h[2]))
	}

	// Structural checks against the paper's query shape.
	q, err := query.Parse(res.QueryText)
	if err != nil {
		return t, "", fmt.Errorf("generated query does not re-parse: %w", err)
	}
	var structure []string
	if len(q.Pattern.Atoms()) >= 2 {
		structure = append(structure, fmt.Sprintf("%d pose atoms", len(q.Pattern.Atoms())))
	}
	if q.Pattern.HasWithin {
		structure = append(structure, "outer within")
	}
	if q.Pattern.HasSelect && q.Pattern.HasConsume {
		structure = append(structure, "select first consume all")
	}
	if strings.Contains(res.QueryText, "abs(") {
		structure = append(structure, "abs() range predicates")
	}
	t.Notes = append(t.Notes, "query structure: "+strings.Join(structure, ", "))

	// Detection check on a fresh session.
	sess, err := testSession(kinect.DefaultProfile(), []string{kinect.GestureSwipeRight}, 3, seed+1)
	if err != nil {
		return t, "", err
	}
	out, err := runDetection(transform.DefaultConfig(), []string{res.QueryText}, sess)
	if err != nil {
		return t, "", err
	}
	o := out[kinect.GestureSwipeRight]
	t.Notes = append(t.Notes, fmt.Sprintf("detection on fresh session: %s", o))
	return t, res.QueryText, nil
}

// E2SampleEfficiency quantifies the claim "usually, 3-5 samples are
// sufficient to achieve acceptable results": F1 as a function of training
// sample count for two gestures.
//
// To expose the sample-count dependence, the test regime is deliberately
// hard: windows are NOT inflated by the generalization minimum (MinWidth 0,
// ScaleFactor 1.05 — the windows must earn their width from the merged
// samples), and the test sessions vary execution much more strongly than
// the training jitter. With one sample the windows are degenerate and
// recall suffers; merging more samples grows them until detection
// stabilizes.
func E2SampleEfficiency(maxSamples int, seed int64) (Table, error) {
	t := Table{
		ID:     "E2",
		Title:  "F1 vs number of training samples (claim: 3-5 suffice)",
		Header: []string{"samples", "F1(swipe_right)", "F1(circle)", "mean"},
	}
	gestures := []string{kinect.GestureSwipeRight, kinect.GestureCircle}
	cfg := learn.DefaultConfig()
	cfg.ScaleFactor = 1.05
	cfg.MinWidth = 0
	cfg.Gen.MinHalfWidth = 10

	// Harder test sessions: strong per-execution variation.
	var sessions []kinect.Session
	for si := int64(0); si < 3; si++ {
		sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), seed+900+si)
		if err != nil {
			return t, err
		}
		var script []kinect.ScriptItem
		script = append(script, kinect.ScriptItem{Idle: time.Second})
		for r := 0; r < 3; r++ {
			for _, g := range append(gestures, kinect.GesturePush) {
				script = append(script,
					kinect.ScriptItem{Gesture: g, Opts: kinect.PerformOpts{PathJitter: 35}},
					kinect.ScriptItem{Idle: 1200 * time.Millisecond},
				)
			}
		}
		sess, err := sim.RunScript(script, baseTime().Add(time.Duration(si)*time.Hour), nil)
		if err != nil {
			return t, err
		}
		sessions = append(sessions, sess)
	}

	for k := 1; k <= maxSamples; k++ {
		results, err := learnQueries(kinect.DefaultProfile(), gestures, k, seed+int64(k)*7, cfg)
		if err != nil {
			return t, err
		}
		texts := []string{results[gestures[0]].QueryText, results[gestures[1]].QueryText}
		var f1a, f1b float64
		for _, sess := range sessions {
			out, err := runDetection(transform.DefaultConfig(), texts, sess)
			if err != nil {
				return t, err
			}
			f1a += out[gestures[0]].F1()
			f1b += out[gestures[1]].F1()
		}
		f1a /= float64(len(sessions))
		f1b /= float64(len(sessions))
		t.AddRow(iStr(k), f2(f1a), f2(f1b), f2((f1a+f1b)/2))
	}
	t.Notes = append(t.Notes,
		"hard regime: no minimum window width; widths must come from merged samples (training jitter 25 mm, test jitter 35 mm)")
	return t, nil
}

// E3TransformAblation reproduces the §3.2 invariance argument: recall of a
// swipe_right learned from the default user, detected on three different
// users, with each transformation step toggled. Learning and detection
// share the same transform configuration (as they do in the real pipeline).
func E3TransformAblation(seed int64) (Table, error) {
	t := Table{
		ID:     "E3",
		Title:  "Transformation ablation — recall per user (§3.2)",
		Header: []string{"config", "adult", "child", "tall+15°", "turned-40°", "falsePos"},
	}
	configs := []struct {
		name string
		cfg  transform.Config
	}{
		{"full", transform.DefaultConfig()},
		{"no-shift", transform.Config{Shift: false, Rotate: true, Scale: true, ReferenceForearm: 250, ForearmSmoothing: 0.2}},
		{"no-rotate", transform.Config{Shift: true, Rotate: false, Scale: true, ReferenceForearm: 250, ForearmSmoothing: 0.2}},
		{"no-scale", transform.Config{Shift: true, Rotate: true, Scale: false, ReferenceForearm: 250}},
		{"none", transform.Config{ReferenceForearm: 250}},
	}
	turned := kinect.Profile{Name: "turned", Height: 1800, Position: geom.V(-500, 100, 2600), Yaw: geom.Radians(-40)}
	users := []kinect.Profile{kinect.DefaultProfile(), kinect.ChildProfile(), kinect.TallProfile(), turned}

	for _, c := range configs {
		lcfg := learn.DefaultConfig()
		lcfg.Transform = c.cfg
		results, err := learnQueries(kinect.DefaultProfile(), []string{kinect.GestureSwipeRight}, 4, seed, lcfg)
		if err != nil {
			return t, err
		}
		text := results[kinect.GestureSwipeRight].QueryText
		row := []string{c.name}
		var fps int
		for ui, u := range users {
			sess, err := testSession(u, []string{kinect.GestureSwipeRight, kinect.GesturePush}, 3, seed+int64(ui)*13)
			if err != nil {
				return t, err
			}
			out, err := runDetection(c.cfg, []string{text}, sess)
			if err != nil {
				return t, err
			}
			o := out[kinect.GestureSwipeRight]
			row = append(row, f2(o.Recall()))
			fps += o.FalsePositives
		}
		row = append(row, iStr(fps))
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"expect: full config ≈ 1.0 recall everywhere; no-shift/no-rotate/no-scale break the users they claim to normalize")
	return t, nil
}

// E4MaxDistSweep reproduces the §3.3.1 threshold discussion: the relative
// max_dist fraction controls the number of extracted windows, trading
// detection complexity against overfitting.
func E4MaxDistSweep(seed int64) (Table, error) {
	t := Table{
		ID:     "E4",
		Title:  "max_dist sweep — windows vs detection quality (§3.3.1)",
		Header: []string{"fraction", "poses", "F1", "predicates"},
	}
	sess, err := testSession(kinect.DefaultProfile(), []string{kinect.GestureCircle, kinect.GesturePush}, 4, seed+5)
	if err != nil {
		return t, err
	}
	for _, frac := range []float64{0.05, 0.10, 0.15, 0.22, 0.30, 0.45, 0.60} {
		cfg := learn.DefaultConfig()
		cfg.Sampler.RelativeFraction = frac
		results, err := learnQueries(kinect.DefaultProfile(), []string{kinect.GestureCircle}, 4, seed, cfg)
		if err != nil {
			return t, err
		}
		res := results[kinect.GestureCircle]
		out, err := runDetection(transform.DefaultConfig(), []string{res.QueryText}, sess)
		if err != nil {
			return t, err
		}
		poses := len(res.Model.Windows)
		t.AddRow(fmt.Sprintf("%.2f", frac), iStr(poses), f2(out[kinect.GestureCircle].F1()), iStr(poses*3))
	}
	t.Notes = append(t.Notes,
		"small fractions overfit (many windows, slower, brittle); large fractions underfit (too few poses to stay selective)")
	return t, nil
}

// E5ScalingOverlap reproduces the §3.3.2 overlap discussion: widening
// windows generalizes patterns until different gestures start detecting
// the same movement. swipe_right and swipe_left share the same spatial
// region in opposite order — the paper's canonical conflict case.
func E5ScalingOverlap(seed int64) (Table, error) {
	t := Table{
		ID:     "E5",
		Title:  "Window scaling vs overlap problem (§3.3.2)",
		Header: []string{"scale", "recall(right)", "recall(left)", "crossFP", "overlapPairs"},
	}
	gestures := []string{kinect.GestureSwipeRight, kinect.GestureSwipeLeft}
	sess, err := testSession(kinect.DefaultProfile(), gestures, 4, seed+3)
	if err != nil {
		return t, err
	}
	for _, scale := range []float64{1.0, 1.3, 2.0, 3.5, 6.0} {
		cfg := learn.DefaultConfig()
		cfg.ScaleFactor = scale
		results, err := learnQueries(kinect.DefaultProfile(), gestures, 4, seed, cfg)
		if err != nil {
			return t, err
		}
		texts := []string{results[gestures[0]].QueryText, results[gestures[1]].QueryText}
		out, err := runDetection(transform.DefaultConfig(), texts, sess)
		if err != nil {
			return t, err
		}
		crossFP := out[gestures[0]].FalsePositives + out[gestures[1]].FalsePositives

		// §3.3.3 validation predicts the conflict statically.
		models := []learn.Model{results[gestures[0]].Model, results[gestures[1]].Model}
		overlaps := 0
		for _, ov := range checkPairOverlaps(models) {
			_ = ov
			overlaps++
		}
		t.AddRow(fmt.Sprintf("%.1f", scale),
			f2(out[gestures[0]].Recall()), f2(out[gestures[1]].Recall()),
			iStr(crossFP), iStr(overlaps))
	}
	t.Notes = append(t.Notes,
		"moderate scaling improves recall; excessive scaling raises cross-gesture false positives — the overlap problem")
	return t, nil
}

// E1Trace reproduces the sensor trace shown on the right of Fig. 1: the
// raw tuple stream of a swipe_right (torso + right hand columns).
func E1Trace(seed int64, rows int) (Table, error) {
	t := Table{
		ID:     "E1-trace",
		Title:  "Fig. 1 (right) — raw sensor tuples during swipe_right",
		Header: []string{"torsoX", "torsoY", "torsoZ", "rHandX", "rHandY", "rHandZ"},
	}
	sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), seed)
	if err != nil {
		return t, err
	}
	perf, err := sim.Perform(kinect.StandardGestures()[kinect.GestureSwipeRight], baseTime(), kinect.PerformOpts{})
	if err != nil {
		return t, err
	}
	count := 0
	for _, f := range perf.Frames {
		if f.Ts.Before(perf.PathStart) || count >= rows {
			continue
		}
		torso, hand := f.Pos(kinect.Torso), f.Pos(kinect.RightHand)
		t.AddRow(
			fmt.Sprintf("%.2f", torso.X), fmt.Sprintf("%.2f", torso.Y), fmt.Sprintf("%.2f", torso.Z),
			fmt.Sprintf("%.2f", hand.X), fmt.Sprintf("%.2f", hand.Y), fmt.Sprintf("%.2f", hand.Z),
		)
		count++
	}
	return t, nil
}
