// Package gesture is the public facade of the gesture-learning CEP system,
// a reproduction of "Learning Event Patterns for Gesture Detection"
// (Beier, Alaqraa, Lai, Sattler — EDBT 2014).
//
// The package wires together the internal subsystems into the workflow of
// the paper's Fig. 2:
//
//	sim := gesture.NewSimulator(...)            // stand-in for the Kinect
//	sys, _ := gesture.NewSystem()               // AnduIN-like engine + kinect_t view
//	res, _ := sys.Learn("swipe_right", samples) // §3.3 learning pipeline
//	sys.Deploy("swipe_right")                   // generated CEP query goes live
//	sys.OnDetection(func(d gesture.Detection) { ... })
//	sys.Replay(frames)                          // feed sensor tuples
//
// Replay and Feed publish through the engine's one batch entry point,
// anduin.Engine.PublishBatch, as the server does: Replay in batches of 64
// tuples, Feed a batch of one frame. Detections are the same either way.
//
// See the examples/ directory for complete programs and DESIGN.md for the
// architecture.
package gesture

import (
	"fmt"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/detect"
	"gesturecep/internal/gesturedb"
	"gesturecep/internal/kinect"
	"gesturecep/internal/learn"
	"gesturecep/internal/stream"
	"gesturecep/internal/transform"
	"gesturecep/internal/validate"
)

// Re-exported core types, so example applications only import this package.
type (
	// Detection is a fired gesture query (name + event-time interval).
	Detection = anduin.Detection
	// Frame is one skeleton snapshot from the (simulated) camera.
	Frame = kinect.Frame
	// Profile describes a simulated user.
	Profile = kinect.Profile
	// LearnResult is the outcome of the learning pipeline: model, query
	// AST and query text.
	LearnResult = learn.Result
	// LearnConfig tunes the learning pipeline.
	LearnConfig = learn.Config
	// TransformConfig tunes the §3.2 invariance transformation.
	TransformConfig = transform.Config
	// Outcome is a precision/recall/F1 evaluation result.
	Outcome = detect.Outcome
	// TruthInterval is a ground-truth gesture annotation.
	TruthInterval = kinect.TruthInterval
	// Session is a labelled synthetic sensor recording.
	Session = kinect.Session
	// ScriptItem is one step of a simulated session script.
	ScriptItem = kinect.ScriptItem
	// PerformOpts varies a simulated gesture performance.
	PerformOpts = kinect.PerformOpts
	// Simulator synthesizes skeleton streams (the Kinect stand-in).
	Simulator = kinect.Simulator
	// GestureSpec parametrizes a synthetic gesture.
	GestureSpec = kinect.GestureSpec
	// Joint identifies a skeleton joint.
	Joint = kinect.Joint
)

// Re-exported constructors and constants.
var (
	// DefaultProfile, ChildProfile and TallProfile are ready-made users.
	DefaultProfile = kinect.DefaultProfile
	ChildProfile   = kinect.ChildProfile
	TallProfile    = kinect.TallProfile
	// StandardGestures returns the built-in gesture library.
	StandardGestures = kinect.StandardGestures
	// DefaultLearnConfig returns the standard learning configuration.
	DefaultLearnConfig = learn.DefaultConfig
	// DefaultTransform returns the full §3.2 transformation.
	DefaultTransform = transform.DefaultConfig
)

// NewSimulator creates a deterministic skeleton simulator with default
// sensor noise.
func NewSimulator(p Profile, seed int64) (*Simulator, error) {
	return kinect.NewSimulator(p, kinect.DefaultNoise(), seed)
}

// System bundles the engine, the kinect→kinect_t pipeline and a gesture
// database.
type System struct {
	Engine *anduin.Engine
	DB     *gesturedb.DB

	raw *stream.Stream
	// deployed maps gesture name → engine query id.
	deployed map[string]int
}

// NewSystem builds a ready-to-use system with the full invariance
// transformation.
func NewSystem() (*System, error) {
	return NewSystemWith(transform.DefaultConfig())
}

// NewSystemWith builds a system with a custom transformation configuration
// (e.g. for ablation studies).
func NewSystemWith(cfg TransformConfig) (*System, error) {
	e := anduin.New()
	raw, _, err := e.KinectPipeline(cfg)
	if err != nil {
		return nil, err
	}
	return &System{
		Engine:   e,
		DB:       gesturedb.New(),
		raw:      raw,
		deployed: make(map[string]int),
	}, nil
}

// Learn runs the §3.3 pipeline on recorded camera-frame samples with the
// default configuration and stores the result in the system's gesture
// database.
func (s *System) Learn(name string, samples [][]Frame) (*LearnResult, error) {
	return s.LearnWith(name, samples, learn.DefaultConfig())
}

// LearnWith is Learn with an explicit pipeline configuration.
func (s *System) LearnWith(name string, samples [][]Frame, cfg LearnConfig) (*LearnResult, error) {
	res, err := learn.Learn(name, samples, cfg)
	if err != nil {
		return nil, err
	}
	entry := gesturedb.Entry{
		Name:      name,
		QueryText: res.QueryText,
		Model:     res.Model,
	}
	if err := s.DB.Put(entry); err != nil {
		return nil, err
	}
	return res, nil
}

// Deploy activates the stored gesture's query; a previously deployed
// version of the same gesture is undeployed first (runtime exchange).
func (s *System) Deploy(name string) error {
	entry, ok := s.DB.Get(name)
	if !ok {
		return fmt.Errorf("gesture: %q not in the database", name)
	}
	if id, live := s.deployed[name]; live {
		if err := s.Engine.Undeploy(id); err != nil {
			return err
		}
		delete(s.deployed, name)
	}
	id, err := s.Engine.DeployText(entry.QueryText)
	if err != nil {
		return err
	}
	s.deployed[name] = id
	return nil
}

// DeployAll activates every stored gesture.
func (s *System) DeployAll() error {
	for _, e := range s.DB.List() {
		if err := s.Deploy(e.Name); err != nil {
			return err
		}
	}
	return nil
}

// Undeploy deactivates a gesture's query.
func (s *System) Undeploy(name string) error {
	id, ok := s.deployed[name]
	if !ok {
		return fmt.Errorf("gesture: %q is not deployed", name)
	}
	delete(s.deployed, name)
	return s.Engine.Undeploy(id)
}

// Deployed returns the names of live gestures.
func (s *System) Deployed() []string {
	out := make([]string, 0, len(s.deployed))
	for _, e := range s.DB.List() {
		if _, ok := s.deployed[e.Name]; ok {
			out = append(out, e.Name)
		}
	}
	return out
}

// OnDetection registers a detection listener; the returned function removes
// it.
func (s *System) OnDetection(fn func(Detection)) func() {
	return s.Engine.Subscribe(fn)
}

// Feed pushes one camera frame into the pipeline, as a batch of one: its
// detections are dispatched before Feed returns.
func (s *System) Feed(f Frame) error {
	return s.Engine.PublishBatch(s.raw, []stream.Tuple{kinect.ToTuple(f)}, nil)
}

// Replay pushes a frame sequence through the pipeline as fast as possible,
// in batches of 64 tuples.
func (s *System) Replay(frames []Frame) error {
	return s.Engine.PublishBatch(s.raw, kinect.ToTuples(frames), nil)
}

// CrossCheck runs the §3.3.3 overlap analysis over all stored gestures.
func (s *System) CrossCheck(threshold float64) validate.ConflictReport {
	return validate.CheckAll(s.DB.Models(), threshold)
}

// SaveGestures persists the gesture database to a JSON file.
func (s *System) SaveGestures(path string) error { return s.DB.Save(path) }

// LoadGestures replaces the gesture database from a JSON file (nothing is
// deployed automatically).
func (s *System) LoadGestures(path string) error {
	db, err := gesturedb.Load(path)
	if err != nil {
		return err
	}
	s.DB = db
	return nil
}

// Evaluate scores detections against a session's ground truth.
func Evaluate(truth []TruthInterval, dets []Detection, tolerance time.Duration) map[string]Outcome {
	return detect.Evaluate(truth, dets, tolerance)
}

// DefaultTolerance is the standard truth-matching tolerance.
const DefaultTolerance = detect.DefaultTolerance
