// Package anduin is the engine facade that plays the role of the AnduIN
// data-stream management system in the paper: it owns named streams and
// continuous views (kinect_t), a registry of user-defined operators (RPY
// angles, dist, …), and the set of deployed gesture detection queries.
// Detected gestures are fanned out to listeners, which is how the paper's
// applications receive "swipe_right" result tuples and map them to
// navigation operations.
//
// Queries can be deployed and undeployed at runtime — the property the
// paper's demo exploits to exchange gesture definitions while applications
// keep running.
package anduin

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gesturecep/internal/cep"
	"gesturecep/internal/kinect"
	"gesturecep/internal/query"
	"gesturecep/internal/stream"
	"gesturecep/internal/transform"
)

// Detection is the result tuple a matched gesture query produces.
type Detection struct {
	// Gesture is the query's SELECT output, e.g. "swipe_right".
	Gesture string
	// QueryID identifies the deployed query that fired.
	QueryID int
	// Start and End are the event times of the first and last contributing
	// sensor tuple.
	Start, End time.Time
	// Measures holds the query's output-measure expressions evaluated on
	// the final matched tuple (§3.3.4), in declaration order; nil when the
	// query declares none.
	Measures []float64
}

// Duration is the event-time span of the detected gesture.
func (d Detection) Duration() time.Duration { return d.End.Sub(d.Start) }

// QueryInfo describes one deployed query.
type QueryInfo struct {
	ID      int
	Gesture string
	Source  string
	Atoms   int
	Text    string
}

// Engine is the DSMS facade. Streams must be fed from a single goroutine at
// a time (the usual replay pattern); management operations (deploy,
// subscribe, …) are safe for concurrent use.
//
// Detections are dispatched in the order publishing tuple after tuple
// produces: by tuple, and for one tuple by plan in the order the streams
// deliver to them — deploy order among the plans of one stream, a view's
// plans before those of its source that subscribed after the view. A
// plan's subscriber hands its detections to the engine, which dispatches
// them at once, or, inside PublishBatch, merges the plans' detections back
// into that order once the whole batch has been evaluated.
type Engine struct {
	mu        sync.Mutex
	streams   map[string]*stream.Stream
	env       *query.Env
	queries   map[int]*deployed
	nextQuery int

	// width is the length of the batch PublishBatch is delivering (0
	// outside it); pending holds the detections found until they are
	// dispatched. Only the publishing goroutine touches either.
	width   int
	pending []pending

	listenMu  sync.Mutex
	listeners []listener // subscription order
	nextL     int
	// handlers is the immutable snapshot of the listener functions that
	// dispatch loads, rebuilt copy-on-write when the set changes (the scheme
	// of stream.Stream.handlers), so a detection takes no lock and
	// allocates nothing on its way out.
	handlers atomic.Pointer[[]func(Detection)]
}

type listener struct {
	id int
	fn func(Detection)
}

type deployed struct {
	info     QueryInfo
	nfa      *cep.NFA
	measures []func(stream.Tuple) float64
	// found is the NFA's match buffer, reused batch after batch.
	found  []cep.BatchMatch
	cancel func()
}

// pending is a detection found and not yet dispatched: at is the index, in
// the published batch, of the tuple that completed it.
type pending struct {
	at  int
	det Detection
}

// RawStreamName is the conventional name of the raw sensor stream
// registered by KinectPipeline; transform.ViewName names its transformed
// view.
const RawStreamName = "kinect"

// newEnv builds the engine's base query environment: builtin scalar
// functions plus the RPY user-defined operators of §3.2. Both live engines
// and the standalone plan environment derive from it, so the two can never
// drift apart.
func newEnv() *query.Env {
	env := query.NewEnv()
	for _, udf := range transform.RPYUDFs() {
		env.UDFs[udf.Name] = udf
	}
	return env
}

// New creates an engine with the builtin scalar functions plus the RPY
// user-defined operators of §3.2 pre-registered.
func New() *Engine {
	return &Engine{
		streams: make(map[string]*stream.Stream),
		env:     newEnv(),
		queries: make(map[int]*deployed),
	}
}

// RegisterStream creates and registers a new source stream.
func (e *Engine) RegisterStream(name string, schema *stream.Schema) (*stream.Stream, error) {
	s, err := stream.New(name, schema)
	if err != nil {
		return nil, err
	}
	if err := e.attach(s); err != nil {
		return nil, err
	}
	return s, nil
}

func (e *Engine) attach(s *stream.Stream) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.streams[s.Name()]; dup {
		return fmt.Errorf("anduin: stream %q already registered", s.Name())
	}
	e.streams[s.Name()] = s
	e.env.Schemas[s.Name()] = s.Schema()
	return nil
}

// Stream returns a registered stream by name.
func (e *Engine) Stream(name string) (*stream.Stream, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.streams[name]
	return s, ok
}

// RegisterUDF adds a scalar function to the query environment.
func (e *Engine) RegisterUDF(udf query.UDF) error {
	if udf.Name == "" || udf.Fn == nil {
		return fmt.Errorf("anduin: UDF needs a name and an implementation")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.env.UDFs[udf.Name]; dup {
		return fmt.Errorf("anduin: UDF %q already registered", udf.Name)
	}
	e.env.UDFs[udf.Name] = udf
	return nil
}

// KinectPipeline registers the raw "kinect" stream plus the transformed
// "kinect_t" view (§3.2) in one call and returns both. This is the standard
// setup of every example and experiment. The view's tuples are lent out of
// one array (transform.View): subscribers that keep one clone it. The view
// rotates and scales only the joints the deployed plans read, and every
// joint as soon as it has a subscriber that is not a deployed plan.
func (e *Engine) KinectPipeline(cfg transform.Config) (raw, view *stream.Stream, err error) {
	raw, err = e.RegisterStream(RawStreamName, kinect.Schema())
	if err != nil {
		return nil, nil, err
	}
	view, err = transform.View(raw, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := e.attach(view); err != nil {
		return nil, nil, err
	}
	return raw, view, nil
}

// Plan is a fully compiled, immutable gesture query: the shared cep.Program
// plus the resolved source stream name and output-measure evaluators. A Plan
// is compiled once and may then be deployed on any number of engines — each
// deployment instantiates its own cheap NFA from the shared Program, so a
// serving fleet of thousands of per-session engines never re-parses or
// re-compiles a learned query. Plans are safe for concurrent use.
type Plan struct {
	// Gesture is the query's SELECT output name.
	Gesture string
	// Source is the stream/view the pattern reads (normally "kinect_t").
	Source string
	// Text is the concrete query syntax the plan was compiled from.
	Text string
	// Atoms is the number of event atoms (NFA states).
	Atoms int
	// Program is the shared compiled pattern.
	Program *cep.Program
	// measures are the compiled output-measure evaluators (§3.3.4).
	measures []func(stream.Tuple) float64
	// reads is the set of source fields the pattern and measures read; nil
	// (every field) for a plan not made by CompilePlan, whose Program may
	// read anything.
	reads *stream.ReadSet
}

// NewPlanEnv returns the canonical compilation environment for gesture
// queries outside a live engine: the raw "kinect" schema, the transformed
// "kinect_t" view schema, and the builtin plus RPY scalar functions. It
// mirrors exactly what New + KinectPipeline register on a live engine
// (KinectPipeline derives the view's schema from the raw stream's), so
// plans compiled against this environment deploy onto any engine whose
// pipeline was built with KinectPipeline.
func NewPlanEnv() *query.Env {
	env := newEnv()
	env.Schemas[RawStreamName] = kinect.Schema()
	env.Schemas[transform.ViewName] = kinect.Schema()
	return env
}

// CompilePlan compiles a parsed query against env into a deployable Plan.
// An empty text is filled in by re-printing the AST.
func CompilePlan(q *query.Query, text string, env *query.Env) (*Plan, error) {
	compiled, err := query.CompileQuery(q, env)
	if err != nil {
		return nil, err
	}
	prog, err := cep.CompileProgram(compiled.Pattern, compiled.Select, compiled.Consume)
	if err != nil {
		return nil, err
	}
	if text == "" {
		text = query.Print(q)
	}
	return &Plan{
		Gesture:  compiled.Output,
		Source:   compiled.Source,
		Text:     text,
		Atoms:    compiled.NumAtoms,
		Program:  prog,
		measures: compiled.Measures,
		reads:    compiled.Reads,
	}, nil
}

// CompilePlanText parses and compiles query text against env.
func CompilePlanText(text string, env *query.Env) (*Plan, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	return CompilePlan(q, text, env)
}

// CompilePlanText compiles query text against this engine's environment
// (its registered streams and UDFs) without deploying it.
func (e *Engine) CompilePlanText(text string) (*Plan, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return CompilePlan(q, text, e.env)
}

// DeployText parses, compiles and activates a gesture query, returning its
// ID. The query starts receiving tuples immediately.
func (e *Engine) DeployText(text string) (int, error) {
	q, err := query.Parse(text)
	if err != nil {
		return 0, err
	}
	return e.deploy(q, text)
}

// Deploy activates a parsed query.
func (e *Engine) Deploy(q *query.Query) (int, error) {
	return e.deploy(q, query.Print(q))
}

func (e *Engine) deploy(q *query.Query, text string) (int, error) {
	e.mu.Lock()
	p, err := CompilePlan(q, text, e.env)
	e.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return e.DeployPlan(p)
}

// DeployPlan activates a pre-compiled plan: it instantiates a fresh NFA from
// the plan's shared Program and subscribes it to the plan's source stream,
// declaring the fields the plan reads, so a derived source such as kinect_t
// computes no more than its deployed plans read. This is the fast path of
// the serving layer — no parsing, type-checking or pattern flattening
// happens per deployment.
func (e *Engine) DeployPlan(p *Plan) (int, error) {
	if p == nil || p.Program == nil {
		return 0, fmt.Errorf("anduin: nil plan")
	}
	e.mu.Lock()
	src, ok := e.streams[p.Source]
	if !ok {
		e.mu.Unlock()
		return 0, fmt.Errorf("anduin: query %q reads unregistered stream %q", p.Gesture, p.Source)
	}
	id := e.nextQuery
	e.nextQuery++
	d := &deployed{
		info: QueryInfo{
			ID:      id,
			Gesture: p.Gesture,
			Source:  p.Source,
			Atoms:   p.Atoms,
			Text:    p.Text,
		},
		nfa:      p.Program.Instantiate(),
		measures: p.measures,
	}
	e.queries[id] = d
	e.mu.Unlock()

	// Subscribe outside the lock; stream subscription has its own lock.
	cancel := src.SubscribeBatch(p.reads, func(ts []stream.Tuple) {
		d.found = d.nfa.ProcessBatch(ts, d.found[:0])
		for i := range d.found {
			e.pending = append(e.pending, pending{at: d.found[i].At, det: d.detection(d.found[i], ts)})
		}
		// Outside PublishBatch (a tuple published straight on a stream)
		// the detections go out at once. The repo publishes only through
		// PublishBatch; this route stays because the benchmark's
		// correctness oracle (replayReference) and its per-layer timing
		// publish tuple by tuple with Stream.Publish.
		if e.width == 0 && len(e.pending) > 0 {
			e.flush(nil)
		}
	})

	// Publish the cancel function under the lock; if the query was
	// undeployed in the window since we released it, the undeployer saw a
	// nil cancel, so the subscription is ours to tear down.
	e.mu.Lock()
	_, live := e.queries[id]
	if live {
		d.cancel = cancel
	}
	e.mu.Unlock()
	if !live {
		cancel()
	}
	return id, nil
}

// detection is the result tuple of match m, found in batch ts. The output
// measures are evaluated on the match's last tuple, which the batch still
// holds (cep.BatchMatch.At).
func (d *deployed) detection(m cep.BatchMatch, ts []stream.Tuple) Detection {
	det := Detection{
		Gesture: d.info.Gesture,
		QueryID: d.info.ID,
		Start:   m.Start,
		End:     m.End,
	}
	if len(d.measures) > 0 {
		det.Measures = make([]float64, len(d.measures))
		for i, ev := range d.measures {
			det.Measures[i] = ev(ts[m.At])
		}
	}
	return det
}

// PublishBatch publishes ts on s, one of the engine's streams, and
// dispatches the detections they fire in the order publishing them tuple
// after tuple would (see Engine): the streams hand the batch on whole, each
// deployed plan evaluates it in one call (cep.NFA.ProcessBatch), and the
// plans' detections are merged back into tuple order before any is
// dispatched. A plain subscriber of a stream on the way sees a batch's
// tuples one after another before any of the batch's detections.
//
// live, when non-nil, is asked before the detections of each tuple are
// dispatched; once it reports false, no detection of that tuple or a later
// one is — how a listener that closes the session stops the rest of the
// batch. The batch is still evaluated whole: the streams' Published and the
// plans' Stats count its every tuple. Likewise a deploy, undeploy or
// subscribe made while a batch is out, by a listener or another goroutine,
// takes effect at the next batch: a plan undeployed by a listener still has
// the rest of the batch's detections dispatched. A batch wider than 64
// tuples goes through in slices of 64, each such a batch. ts is lent for
// the call.
func (e *Engine) PublishBatch(s *stream.Stream, ts []stream.Tuple, live func() bool) error {
	for len(ts) > 0 {
		if live != nil && !live() {
			return nil
		}
		n := min(len(ts), maxBatch)
		e.width = n
		err := s.PublishBatch(ts[:n])
		e.width = 0
		e.flush(live)
		if err != nil {
			return err
		}
		ts = ts[n:]
	}
	return nil
}

// maxBatch is the widest batch PublishBatch hands the streams, and so the
// most tuples a derived stream's arena holds (the kinect_t view's): a wire
// batch is normally this wide, a recorded record four times wider.
const maxBatch = 64

// flush dispatches the pending detections by tuple, and for one tuple in
// the order they were found, asking live (when non-nil) before each tuple's.
func (e *Engine) flush(live func() bool) {
	ps := e.pending
	if len(ps) > 1 {
		// Each plan's detections arrive in tuple order, one plan after
		// another: a stable sort by tuple keeps the plans' order per tuple.
		//lint:ignore hotpathalloc a type parameter, not an interface: nothing is boxed
		slices.SortStableFunc(ps, func(a, b pending) int { return cmp.Compare(a.at, b.at) })
	}
	for i := range ps {
		if live != nil && (i == 0 || ps[i].at != ps[i-1].at) && !live() {
			break
		}
		e.dispatch(ps[i].det)
	}
	clear(ps)
	e.pending = ps[:0]
}

// Undeploy removes a query; its partial matches are discarded. A nil
// cancel means the deploying goroutine has not finished subscribing yet;
// it will observe the deletion and tear the subscription down itself.
func (e *Engine) Undeploy(id int) error {
	e.mu.Lock()
	d, ok := e.queries[id]
	var cancel func()
	if ok {
		delete(e.queries, id)
		cancel = d.cancel
	}
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("anduin: no query with id %d", id)
	}
	if cancel != nil {
		cancel()
	}
	return nil
}

// UndeployAll removes every deployed query.
func (e *Engine) UndeployAll() {
	e.mu.Lock()
	cancels := make([]func(), 0, len(e.queries))
	for id, d := range e.queries {
		if d.cancel != nil {
			cancels = append(cancels, d.cancel)
		}
		delete(e.queries, id)
	}
	e.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
}

// Queries lists deployed queries ordered by ID.
func (e *Engine) Queries() []QueryInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]QueryInfo, 0, len(e.queries))
	for _, d := range e.queries {
		out = append(out, d.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// QueryStats returns the NFA counters of one deployed query.
func (e *Engine) QueryStats(id int) (processed, predCalls, matches, pruned uint64, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	d, ok := e.queries[id]
	if !ok {
		return 0, 0, 0, 0, fmt.Errorf("anduin: no query with id %d", id)
	}
	processed, predCalls, matches, pruned = d.nfa.Stats()
	return processed, predCalls, matches, pruned, nil
}

// Subscribe registers a detection listener; the returned function removes
// it. Listeners run synchronously on the tuple-publishing goroutine, in
// subscription order — keep them fast.
func (e *Engine) Subscribe(fn func(Detection)) func() {
	e.listenMu.Lock()
	id := e.nextL
	e.nextL++
	e.listeners = append(e.listeners, listener{id: id, fn: fn})
	e.rebuildHandlersLocked()
	e.listenMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			e.listenMu.Lock()
			for i, l := range e.listeners {
				if l.id == id {
					e.listeners = append(e.listeners[:i], e.listeners[i+1:]...)
					break
				}
			}
			e.rebuildHandlersLocked()
			e.listenMu.Unlock()
		})
	}
}

// rebuildHandlersLocked regenerates the delivery snapshot. Callers must
// hold e.listenMu.
func (e *Engine) rebuildHandlersLocked() {
	hs := make([]func(Detection), len(e.listeners))
	for i, l := range e.listeners {
		hs[i] = l.fn
	}
	e.handlers.Store(&hs)
}

func (e *Engine) dispatch(d Detection) {
	if hs := e.handlers.Load(); hs != nil {
		for _, fn := range *hs {
			fn(d)
		}
	}
}
