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
// See the examples/ directory for complete programs and DESIGN.md for the
// architecture.
package gesture

import (
	"fmt"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/cluster"
	"gesturecep/internal/detect"
	"gesturecep/internal/gesturedb"
	"gesturecep/internal/kinect"
	"gesturecep/internal/learn"
	"gesturecep/internal/serve"
	"gesturecep/internal/store"
	"gesturecep/internal/stream"
	"gesturecep/internal/transform"
	"gesturecep/internal/validate"
	"gesturecep/internal/wire"
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

	raw  *stream.Stream
	view *stream.Stream
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
	raw, view, err := e.KinectPipeline(cfg)
	if err != nil {
		return nil, err
	}
	return &System{
		Engine:   e,
		DB:       gesturedb.New(),
		raw:      raw,
		view:     view,
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

// Feed pushes one camera frame into the pipeline.
func (s *System) Feed(f Frame) error {
	return s.raw.Publish(kinect.ToTuple(f))
}

// Replay pushes a frame sequence through the pipeline as fast as possible.
func (s *System) Replay(frames []Frame) error {
	return stream.Replay(s.raw, kinect.ToTuples(frames))
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

// --- Multi-tenant serving (the internal/serve runtime). ---

// Re-exported serving types, so applications only import this package.
type (
	// Plan is a compiled, immutable gesture query shareable across any
	// number of sessions and engines.
	Plan = anduin.Plan
	// PlanRegistry compiles each learned query once into a shared Plan.
	PlanRegistry = serve.Registry
	// ServeConfig tunes the session manager (shards, queue depth,
	// backpressure policy, transformation).
	ServeConfig = serve.Config
	// ServeManager multiplexes many detection sessions over a fleet of
	// shard worker goroutines.
	ServeManager = serve.Manager
	// ServeSession is one tenant: a private engine fed through the
	// sharded ingestion layer.
	ServeSession = serve.Session
	// ServeSessionOptions tunes one session beyond plan selection (e.g.
	// a stream-store recording tap).
	ServeSessionOptions = serve.SessionOptions
	// ServeSessionMetrics is a per-session counter snapshot inside
	// ServeMetrics.
	ServeSessionMetrics = serve.SessionMetrics
	// ServeMetrics is a point-in-time snapshot of the fleet's counters.
	ServeMetrics = serve.Metrics
	// BackpressurePolicy selects the behaviour of a full shard queue.
	BackpressurePolicy = serve.Policy
)

// Backpressure policies for ServeConfig.Policy.
const (
	// BlockWhenFull makes a feed wait until its batch fits the queue
	// (lossless).
	BlockWhenFull = serve.Block
	// DropOldestWhenFull evicts the oldest queued batches, whole (bounded
	// latency; every evicted tuple is counted dropped).
	DropOldestWhenFull = serve.DropOldest
)

// FrameTuple converts one camera frame to the raw tuple ServeSession.FeedTuple
// and WireSession.FeedTuple ingest: the serving stack is schema-generic, so
// the Kinect layout is applied here, at its edge.
var FrameTuple = kinect.ToTuple

// NewPlanRegistry creates an empty shared-plan registry compiling against
// the canonical kinect/kinect_t environment.
func NewPlanRegistry() *PlanRegistry { return serve.NewRegistry() }

// NewServeManager starts the multi-tenant detection runtime: a fleet of
// shard workers serving sessions that deploy plans from reg.
func NewServeManager(cfg ServeConfig, reg *PlanRegistry) (*ServeManager, error) {
	return serve.NewManager(cfg, reg)
}

// ExportPlans compiles every gesture stored in the system's database into
// reg, making the learned queries deployable by serving sessions.
func (s *System) ExportPlans(reg *PlanRegistry) error {
	for _, e := range s.DB.List() {
		if _, err := reg.Replace(e.Name, e.QueryText); err != nil {
			return err
		}
	}
	return nil
}

// --- Network ingestion (the internal/wire protocol). ---

// Re-exported wire types, so remote applications only import this package.
type (
	// WireServer accepts wire-protocol TCP connections and multiplexes
	// their sessions onto a ServeManager.
	WireServer = wire.Server
	// WireClient is one client connection to a gestured server; many
	// remote sessions can be attached and fed concurrently.
	WireClient = wire.Client
	// WireSession is the client-side handle of one served session.
	WireSession = wire.RemoteSession
	// WireAttachOptions tunes a remote session (plans, batching,
	// detection delivery).
	WireAttachOptions = wire.AttachOptions
	// WireSessionCounters is the server-side ingestion accounting returned
	// by flush and detach acknowledgements.
	WireSessionCounters = wire.SessionCounters
)

// NewWireServer creates a network ingestion server over a session manager.
// Start it with ListenAndServe (or Serve on an existing listener):
//
//	srv := gesture.NewWireServer(m)
//	go srv.ListenAndServe(":7474")
func NewWireServer(m *ServeManager) *WireServer { return wire.NewServer(m) }

// DialWire connects to a gestured server.
func DialWire(addr string) (*WireClient, error) { return wire.Dial(addr) }

// --- Cluster gateway (the internal/cluster scale-out layer). ---

// Re-exported cluster types, so scale-out deployments only import this
// package.
type (
	// ClusterBackend describes one wire backend a gateway fronts (ID +
	// address).
	ClusterBackend = cluster.Backend
	// ClusterConfig tunes a gateway: backend fleet, ring geometry
	// (virtual nodes, bounded-load factor), health probing and backend
	// recovery (Readmit / TolerateDown).
	ClusterConfig = cluster.Config
	// ClusterBackendState is one step of a gateway backend's lifecycle
	// state machine: live → ejected → recovering → live again (a fresh
	// incarnation) on re-admission.
	ClusterBackendState = cluster.BackendState
	// ClusterGateway terminates the wire protocol in front of a backend
	// fleet, sharding sessions with a bounded-load consistent-hash ring,
	// ejecting unhealthy backends and re-homing their sessions.
	ClusterGateway = cluster.Gateway
	// ClusterRing is the consistent-hash ring (virtual nodes +
	// bounded-load placement) the gateway shards sessions with.
	ClusterRing = cluster.Ring
	// ClusterSpawner runs an in-process fleet of wire backends sharing
	// one plan registry (the all-in-one cluster deployment).
	ClusterSpawner = cluster.Spawner
	// ClusterSpawnOptions tunes spawned backends (serve config, recording
	// hook).
	ClusterSpawnOptions = cluster.SpawnOptions
	// BackendMetrics is the per-backend section of a gateway's aggregated
	// metrics snapshot.
	BackendMetrics = serve.BackendMetrics
)

// Backend lifecycle states, re-exported for ClusterGateway.State callers.
const (
	ClusterStateLive       = cluster.StateLive
	ClusterStateEjected    = cluster.StateEjected
	ClusterStateRecovering = cluster.StateRecovering
)

// NewClusterRing creates an empty consistent-hash ring (vnodes <= 0 and
// factor < 1 select the defaults).
func NewClusterRing(vnodes int, factor float64) *ClusterRing {
	return cluster.NewRing(vnodes, factor)
}

// NewClusterGateway dials the configured backends and builds the gateway;
// start it with ListenAndServe (or Serve on an existing listener), exactly
// like a WireServer.
func NewClusterGateway(cfg ClusterConfig) (*ClusterGateway, error) {
	return cluster.NewGateway(cfg)
}

// SpawnCluster starts n in-process wire backends sharing reg — pass their
// descriptors (Spawner.Backends) to NewClusterGateway for an all-in-one
// cluster.
func SpawnCluster(n int, reg *PlanRegistry, opts ClusterSpawnOptions) (*ClusterSpawner, error) {
	return cluster.Spawn(n, reg, opts)
}

// --- Durable stream store (the internal/store subsystem). ---

// Re-exported store types, so recording/replay/backfill applications only
// import this package.
type (
	// StoreOptions tunes a stream writer (segment size, record batching,
	// fsync).
	StoreOptions = store.Options
	// StoreManifest is the immutable metadata of one recorded stream.
	StoreManifest = store.Manifest
	// StoreWriter appends tuples to one recorded stream as CRC-framed,
	// segmented records.
	StoreWriter = store.Writer
	// StoreReader iterates a recorded stream in append order, verifying
	// every record.
	StoreReader = store.Reader
	// StoreRecorder taps a live serving session into a stream store
	// without ever blocking the hot path.
	StoreRecorder = store.Recorder
	// StoreArchive manages the recordings of a whole server under one
	// root directory.
	StoreArchive = store.Archive
	// ReplayStoreOptions tunes playback speed (0 = max, 1 = wall clock).
	ReplayStoreOptions = store.ReplayOptions
	// ReplayStoreStats reports what a replay delivered.
	ReplayStoreStats = store.ReplayStats
	// BackfillOptions tunes offline plan evaluation over recorded history.
	BackfillOptions = store.BackfillOptions
)

// CreateStore initializes a new recorded stream of raw kinect tuples under
// root; record into it with NewStoreRecorder or StoreWriter.Append.
func CreateStore(root, name string, opts StoreOptions) (*StoreWriter, error) {
	return store.Create(root, name, kinect.Schema(), opts)
}

// OpenStore resumes appending to an existing recorded stream, repairing a
// torn tail left by a crash (see StoreWriter.Recovered).
func OpenStore(root, name string, opts StoreOptions) (*StoreWriter, error) {
	return store.Open(root, name, opts)
}

// OpenStoreReader opens a recorded stream for sequential reading.
func OpenStoreReader(root, name string) (*StoreReader, error) {
	return store.OpenReader(root, name)
}

// ListStores lists the recorded streams under root.
func ListStores(root string) ([]string, error) { return store.ListStreams(root) }

// NewStoreRecorder starts recording into w through a bounded, drop-counting
// buffer; install the recorder's Tap on a serving session via
// ServeSessionOptions.Tap.
func NewStoreRecorder(w *StoreWriter, buffer int) *StoreRecorder {
	return store.NewRecorder(w, buffer)
}

// NewStoreArchive creates a per-server recording archive rooted at dir.
func NewStoreArchive(root string, opts StoreOptions) *StoreArchive {
	return store.NewArchive(root, opts, 0)
}

// ReplayStore feeds a recorded history through a serving session at the
// configured speed; detections are byte-identical to the original run.
func ReplayStore(r *StoreReader, sess *ServeSession, opts ReplayStoreOptions) (ReplayStoreStats, error) {
	return store.ReplayToSession(r, sess, opts)
}

// BackfillStore evaluates compiled plans over a recorded history offline
// and returns the detections they produce.
func BackfillStore(r *StoreReader, plans []*Plan, opts BackfillOptions) ([]Detection, error) {
	return store.Backfill(r, plans, opts)
}

// Evaluate scores detections against a session's ground truth.
func Evaluate(truth []TruthInterval, dets []Detection, tolerance time.Duration) map[string]Outcome {
	return detect.Evaluate(truth, dets, tolerance)
}

// DefaultTolerance is the standard truth-matching tolerance.
const DefaultTolerance = detect.DefaultTolerance
