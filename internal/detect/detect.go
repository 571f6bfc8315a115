// Package detect is the evaluation harness: it deploys gesture queries in a
// fresh engine, replays labelled sessions from the simulator, matches
// detections against ground truth and computes precision/recall/F1 and
// latency statistics. Every experiment `go run ./cmd/gesturebench` prints
// is built on this package.
package detect

import (
	"fmt"
	"sort"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/kinect"
	"gesturecep/internal/stream"
	"gesturecep/internal/transform"
)

// Outcome aggregates detection quality for one gesture (or overall).
type Outcome struct {
	TruePositives  int
	FalsePositives int
	FalseNegatives int
	// Latencies holds, per true positive, how far the detection time (the
	// event time of the last matched tuple) lagged the ground-truth
	// gesture end. Negative values mean the pattern completed before the
	// performer reached the scripted end pose.
	Latencies []time.Duration
}

// Precision returns TP / (TP + FP), or 1 when nothing was detected.
func (o Outcome) Precision() float64 {
	if o.TruePositives+o.FalsePositives == 0 {
		return 1
	}
	return float64(o.TruePositives) / float64(o.TruePositives+o.FalsePositives)
}

// Recall returns TP / (TP + FN), or 1 when nothing was expected.
func (o Outcome) Recall() float64 {
	if o.TruePositives+o.FalseNegatives == 0 {
		return 1
	}
	return float64(o.TruePositives) / float64(o.TruePositives+o.FalseNegatives)
}

// F1 returns the harmonic mean of precision and recall.
func (o Outcome) F1() float64 {
	p, r := o.Precision(), o.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// MeanLatency returns the average true-positive latency (0 when there were
// none).
func (o Outcome) MeanLatency() time.Duration {
	if len(o.Latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range o.Latencies {
		sum += l
	}
	return sum / time.Duration(len(o.Latencies))
}

// Merge combines two outcomes.
func (o Outcome) Merge(other Outcome) Outcome {
	return Outcome{
		TruePositives:  o.TruePositives + other.TruePositives,
		FalsePositives: o.FalsePositives + other.FalsePositives,
		FalseNegatives: o.FalseNegatives + other.FalseNegatives,
		Latencies:      append(append([]time.Duration(nil), o.Latencies...), other.Latencies...),
	}
}

// String implements fmt.Stringer.
func (o Outcome) String() string {
	return fmt.Sprintf("TP=%d FP=%d FN=%d P=%.2f R=%.2f F1=%.2f",
		o.TruePositives, o.FalsePositives, o.FalseNegatives, o.Precision(), o.Recall(), o.F1())
}

// DefaultTolerance is how far outside a ground-truth interval a detection's
// end time may fall and still count as a true positive. Generated queries
// can complete slightly after the scripted path end (the matched end pose
// extends into the hold period).
const DefaultTolerance = 700 * time.Millisecond

// Evaluate matches detections against ground truth per gesture name.
//
// A detection counts as a true positive when a yet-unmatched truth interval
// of the same gesture contains its end time (widened by tolerance). Each
// truth interval absorbs at most one detection; surplus detections are
// false positives, unmatched truth intervals are false negatives.
func Evaluate(truth []kinect.TruthInterval, dets []anduin.Detection, tolerance time.Duration) map[string]Outcome {
	out := make(map[string]Outcome)

	// Group truth by gesture, preserving order.
	truthBy := map[string][]kinect.TruthInterval{}
	for _, tr := range truth {
		truthBy[tr.Name] = append(truthBy[tr.Name], tr)
		if _, ok := out[tr.Name]; !ok {
			out[tr.Name] = Outcome{}
		}
	}
	detsBy := map[string][]anduin.Detection{}
	for _, d := range dets {
		detsBy[d.Gesture] = append(detsBy[d.Gesture], d)
		if _, ok := out[d.Gesture]; !ok {
			out[d.Gesture] = Outcome{}
		}
	}

	for name := range out {
		o := out[name]
		intervals := truthBy[name]
		matched := make([]bool, len(intervals))
		ds := detsBy[name]
		sort.Slice(ds, func(i, j int) bool { return ds[i].End.Before(ds[j].End) })
		for _, d := range ds {
			hit := -1
			for i, tr := range intervals {
				if matched[i] {
					continue
				}
				if !d.End.Before(tr.Start.Add(-tolerance)) && !d.End.After(tr.End.Add(tolerance)) {
					hit = i
					break
				}
			}
			if hit < 0 {
				o.FalsePositives++
				continue
			}
			matched[hit] = true
			o.TruePositives++
			o.Latencies = append(o.Latencies, d.End.Sub(intervals[hit].End))
		}
		for _, m := range matched {
			if !m {
				o.FalseNegatives++
			}
		}
		out[name] = o
	}
	return out
}

// Overall folds a per-gesture evaluation into one outcome.
func Overall(byGesture map[string]Outcome) Outcome {
	var o Outcome
	names := make([]string, 0, len(byGesture))
	for n := range byGesture {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o = o.Merge(byGesture[n])
	}
	return o
}

// Harness wires a fresh engine with the kinect pipeline and collects
// detections.
type Harness struct {
	Engine *anduin.Engine
	Raw    *stream.Stream
	View   *stream.Stream

	dets []anduin.Detection
}

// NewHarness builds an engine with the given transformation config and an
// attached detection collector.
func NewHarness(cfg transform.Config) (*Harness, error) {
	e := anduin.New()
	raw, view, err := e.KinectPipeline(cfg)
	if err != nil {
		return nil, err
	}
	h := &Harness{Engine: e, Raw: raw, View: view}
	e.Subscribe(func(d anduin.Detection) { h.dets = append(h.dets, d) })
	return h, nil
}

// Deploy activates one or more query texts.
func (h *Harness) Deploy(queryTexts ...string) error {
	for _, q := range queryTexts {
		if _, err := h.Engine.DeployText(q); err != nil {
			return err
		}
	}
	return nil
}

// Run replays a session and returns the detections it produced (also
// accumulated on the harness).
func (h *Harness) Run(sess kinect.Session) ([]anduin.Detection, error) {
	before := len(h.dets)
	if err := stream.Replay(h.Raw, kinect.ToTuples(sess.Frames)); err != nil {
		return nil, err
	}
	return append([]anduin.Detection(nil), h.dets[before:]...), nil
}

// Detections returns everything detected so far.
func (h *Harness) Detections() []anduin.Detection {
	return append([]anduin.Detection(nil), h.dets...)
}

// Reset clears collected detections.
func (h *Harness) Reset() { h.dets = nil }

// RunAndEvaluate replays the session and scores it in one step.
func (h *Harness) RunAndEvaluate(sess kinect.Session, tolerance time.Duration) (map[string]Outcome, error) {
	dets, err := h.Run(sess)
	if err != nil {
		return nil, err
	}
	return Evaluate(sess.Truth, dets, tolerance), nil
}

// Throughput measures wall-clock tuples/second for replaying the given
// frames through the harness (all deployed queries active).
func (h *Harness) Throughput(frames []kinect.Frame) (float64, error) {
	tuples := kinect.ToTuples(frames)
	start := time.Now()
	if err := stream.Replay(h.Raw, tuples); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(len(tuples)) / elapsed.Seconds(), nil
}
