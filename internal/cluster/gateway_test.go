package cluster_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/cluster"
	"gesturecep/internal/e2e"
	"gesturecep/internal/kinect"
	"gesturecep/internal/obs"
	"gesturecep/internal/serve"
	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

// TestGatewayZeroDivergence is the cluster acceptance bar: 64 sessions
// driven through the gateway across 3 backends must produce detections
// byte-identical to the same stream on a single direct node AND to the
// bare-engine reference replay — scale-out must not perturb semantics. The
// whole run executes with the observability layer live (stage instruments
// on every backend, trace sampling on every session, the admin plane
// scraping mid-flight) to prove observing the pipeline does not perturb it
// either.
func TestGatewayZeroDivergence(t *testing.T) {
	frames := e2e.PlaybackFrames(t, 7)
	tuples := kinect.ToTuples(frames)
	h := e2e.Start(t, e2e.Options{
		Backends: 3,
		Gateway:  true,
		Serve:    serve.Config{Shards: 2, QueueDepth: 128},
	})
	admin, err := obs.StartAdmin("127.0.0.1:0", obs.AdminConfig{
		Collect: h.Gateway.WriteProm,
		Ready:   h.Gateway.Ready,
		Events:  h.Gateway.Events,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	plan, _ := h.Registry.Get("swipe_right")
	want := e2e.EncodeDets(t, e2e.BareReplay(t, plan, e2e.WireTuples(t, tuples)))

	// The same stream against one backend directly, bypassing the gateway.
	direct, err := wire.Dial(h.Spawner.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	drs, err := direct.Attach("direct-reference", wire.AttachOptions{BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tuples {
		if err := drs.FeedTuple(tp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := drs.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := e2e.EncodeDets(t, drs.Detections()); !bytes.Equal(got, want) {
		t.Fatal("single direct node diverges from bare replay")
	}

	const sessions, conns = 64, 4
	clients := make([]*wire.Client, conns)
	for i := range clients {
		clients[i] = h.Dial()
	}
	results := make([][]byte, sessions)
	counters := make([]wire.SessionCounters, sessions)
	errs := make(chan error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Every 8th batch trace-sampled: the observability acceptance
			// bar is byte-identical detections with tracing live.
			rs, err := clients[i%conns].Attach(fmt.Sprintf("user-%02d", i), wire.AttachOptions{BatchSize: 16, TraceEvery: 8})
			if err != nil {
				errs <- err
				return
			}
			for _, tp := range tuples {
				if err := rs.FeedTuple(tp); err != nil {
					errs <- err
					return
				}
			}
			if _, err := rs.Flush(); err != nil {
				errs <- err
				return
			}
			results[i] = e2e.EncodeDets(t, rs.Detections())
			if counters[i], err = rs.Detach(); err != nil {
				errs <- err
			}
		}(i)
	}
	// Scrape the admin plane while the sessions stream — observation under
	// load must not perturb the data path.
	if resp, err := http.Get("http://" + admin.Addr().String() + "/metrics"); err != nil {
		t.Errorf("mid-run /metrics scrape: %v", err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if bytes.Equal(want, e2e.EncodeDets(t, nil)) {
		t.Fatal("bare replay detected nothing")
	}
	for i, got := range results {
		if !bytes.Equal(got, want) {
			t.Errorf("session %d routed through the gateway diverged from the direct node", i)
		}
		if c := counters[i]; c.In != uint64(len(tuples)) || c.Out != c.In || c.Dropped != 0 {
			t.Errorf("session %d counters = %+v, want in=out=%d dropped=0", i, c, len(tuples))
		}
	}

	// The load actually spread: at least two backends forwarded tuples, and
	// the per-backend forward counters account for every tuple fed.
	mm := h.Gateway.Metrics()
	if len(mm.Backends) != 3 {
		t.Fatalf("gateway reports %d backends, want 3", len(mm.Backends))
	}
	var forwarded uint64
	busy := 0
	for _, be := range mm.Backends {
		forwarded += be.Tuples
		if be.Tuples > 0 {
			busy++
		}
		if !be.Healthy {
			t.Errorf("backend %s unhealthy after a clean run", be.ID)
		}
	}
	if wantFwd := uint64(sessions * len(tuples)); forwarded != wantFwd {
		t.Errorf("backends saw %d forwarded tuples, want %d", forwarded, wantFwd)
	}
	if busy < 2 {
		t.Errorf("only %d backends received traffic; the ring did not spread 64 sessions", busy)
	}

	// The final exposition carries the per-backend forward-latency
	// histograms fed by the trace-sampled batches.
	resp, err := http.Get("http://" + admin.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exposition := string(body)
	for _, want := range []string{
		"# TYPE cluster_backend_forward_seconds histogram",
		"cluster_backend_forward_seconds_bucket",
		"cluster_backends_live 3",
		`serve_tuples_total{stage="processed"}`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("final /metrics missing %q", want)
		}
	}
	if sampled := sumSeries(scrape(t, h.Gateway), "cluster_backend_forward_seconds_count"); sampled == 0 {
		t.Error("no batch was forward-timed despite TraceEvery=8 on 64 sessions")
	}
}

// TestGatewayFailover kills a backend while sessions are mid-stream and
// checks the re-home contract: every session finishes on a healthy
// backend, detections acknowledged before the kill survive it, anything else
// the victim relayed before it died is what the tuples lost with it fire (see
// rehomedDetections), the post-re-home detections are exactly a replay of
// what the surviving backend admitted, and the reported drop count equals
// fed-minus-recorded — the recorder's tally. Run under -race in CI, this is
// the failover soak.
func TestGatewayFailover(t *testing.T) {
	frames := e2e.PlaybackFrames(t, 9)
	tuples := kinect.ToTuples(frames)
	half := len(tuples) / 2
	chunk1, chunk2 := tuples[:half], tuples[half:]

	const backends = 3
	h := e2e.Start(t, e2e.Options{
		Backends:       backends,
		Gateway:        true,
		Serve:          serve.Config{Shards: 2, QueueDepth: 128},
		Record:         true,
		RecorderBuffer: 1 << 15,
		ProbeInterval:  25 * time.Millisecond,
	})
	plan, _ := h.Registry.Get("swipe_right")

	const sessions = 12
	cl := h.Dial()
	ids := make([]string, sessions)
	rss := make([]*wire.RemoteSession, sessions)
	preKill := make([][]byte, sessions)
	for i := range rss {
		ids[i] = fmt.Sprintf("soak-%02d", i)
		rs, err := cl.Attach(ids[i], wire.AttachOptions{BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		rss[i] = rs
		for _, tp := range chunk1 {
			if err := rs.FeedTuple(tp); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rs.Flush(); err != nil {
			t.Fatal(err)
		}
		preKill[i] = e2e.EncodeDets(t, rs.Detections())
	}

	// Pick the victim: a backend that owns at least one session. Recording
	// streams are created at attach, so the archive tells us placement.
	victim := -1
	onVictim := make(map[string]bool)
	for b := 0; b < backends && victim < 0; b++ {
		for _, id := range ids {
			if h.HasRecording(b, id) {
				victim = b
				break
			}
		}
	}
	if victim < 0 {
		t.Fatal("no backend owns any session")
	}
	for _, id := range ids {
		onVictim[id] = h.HasRecording(victim, id)
	}

	// Kill it mid-stream: feeders are pushing chunk2 concurrently; the
	// kill lands once a third of the second half is in flight.
	var fed atomic.Int64
	killAt := int64(sessions * len(chunk2) / 3)
	killed := make(chan struct{})
	go func() {
		for fed.Load() < killAt {
			time.Sleep(time.Millisecond)
		}
		h.KillBackend(victim)
		close(killed)
	}()
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := range rss {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, tp := range chunk2 {
				if err := rss[i].FeedTuple(tp); err != nil {
					errs <- fmt.Errorf("session %s: %w", ids[i], err)
					return
				}
				fed.Add(1)
			}
		}(i)
	}
	wg.Wait()
	<-killed
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	finalDets := make([][]byte, sessions)
	finalCounters := make([]wire.SessionCounters, sessions)
	for i, rs := range rss {
		if _, err := rs.Flush(); err != nil {
			t.Fatalf("session %s: final flush: %v", ids[i], err)
		}
		finalDets[i] = e2e.EncodeDets(t, rs.Detections())
		c, err := rs.Detach()
		if err != nil {
			t.Fatalf("session %s: detach: %v", ids[i], err)
		}
		finalCounters[i] = c
	}
	h.Stop() // flush the surviving archives so recordings are readable

	total := uint64(len(tuples))
	fedTuples := e2e.WireTuples(t, tuples)
	rehomed := 0
	for i, id := range ids {
		c := finalCounters[i]
		if c.In != total || c.Out != c.In || c.Dropped > total {
			t.Errorf("session %s counters = %+v, want in=out=%d", id, c, total)
			continue
		}
		// Locate the session's final home among the survivors.
		home := -1
		for b := 0; b < backends; b++ {
			if b != victim && h.HasRecording(b, id) {
				home = b
				break
			}
		}
		if onVictim[id] {
			rehomed++
			if home < 0 {
				t.Errorf("session %s never re-homed off the dead backend", id)
				continue
			}
			if c.Dropped < uint64(len(chunk1)) {
				t.Errorf("session %s dropped %d tuples, want ≥ %d (its pre-kill state died)",
					id, c.Dropped, len(chunk1))
			}
		} else {
			if home < 0 {
				t.Errorf("session %s has no recording on its healthy backend", id)
				continue
			}
			if c.Dropped != 0 {
				t.Errorf("session %s on a healthy backend dropped %d tuples", id, c.Dropped)
			}
		}
		recorded := h.Recorded(home, id)
		// The recorder's tally IS the drop accounting: every fed tuple is
		// either in the final home's recording or reported dropped.
		if got := total - uint64(len(recorded)); c.Dropped != got {
			t.Errorf("session %s reports %d drops, recorder tally says %d (fed %d, recorded %d)",
				id, c.Dropped, got, total, len(recorded))
		}
		// No acked detection is lost, and everything after re-home is
		// byte-identical to a bare replay of what the final home admitted.
		var want []byte
		if onVictim[id] {
			want = rehomedDetections(t, plan, fedTuples[:c.Dropped], preKill[i], finalDets[i], recorded)
		} else {
			want = e2e.EncodeDets(t, e2e.BareReplay(t, plan, recorded))
		}
		if !bytes.Equal(finalDets[i], want) {
			t.Errorf("session %s detections diverge from the deterministic reconstruction", id)
		}
	}
	if rehomed == 0 {
		t.Fatal("victim backend owned no sessions; failover path never exercised")
	}

	mm := h.Gateway.Metrics()
	var lost, rehomedCount uint64
	for _, be := range mm.Backends {
		if be.ID == h.Spawner.ID(victim) {
			if be.Healthy {
				t.Error("victim backend still marked healthy")
			}
			lost = be.Lost
			rehomedCount = be.Rehomed
		}
	}
	if rehomedCount != uint64(rehomed) {
		t.Errorf("gateway re-homed %d sessions off the victim, metrics say %d", rehomed, rehomedCount)
	}
	var wantLost uint64
	for i, id := range ids {
		if onVictim[id] {
			wantLost += finalCounters[i].Dropped
		}
	}
	if lost != wantLost {
		t.Errorf("victim Lost = %d, session drop counts sum to %d", lost, wantLost)
	}
	for _, id := range h.Gateway.Ring().Backends() {
		if id == h.Spawner.ID(victim) {
			t.Error("victim backend still on the ring")
		}
	}
}

// TestGatewayRecovery is the recovery soak (run under -race in CI): a
// backend is killed mid-stream, its sessions re-home with explicit loss
// accounting, then the backend restarts on the same address and the
// gateway must re-admit it — fresh incarnation, back on the ring — within
// the backoff budget. Existing sessions stay put (no forced migration);
// new sessions land on the recovered backend through the bounded-load
// ring. Across the whole episode, all 64 sessions (24 pre-kill + 40
// post-recovery) must reconcile drop accounting against the stream-store
// recorder and produce detections byte-identical to the deterministic
// reconstruction.
func TestGatewayRecovery(t *testing.T) {
	frames := e2e.PlaybackFrames(t, 11)
	tuples := kinect.ToTuples(frames)
	half := len(tuples) / 2
	chunk1, chunk2 := tuples[:half], tuples[half:]

	const backends = 3
	h := e2e.Start(t, e2e.Options{
		Backends:       backends,
		Gateway:        true,
		Serve:          serve.Config{Shards: 2, QueueDepth: 128},
		Record:         true,
		RecorderBuffer: 1 << 15,
		ProbeInterval:  25 * time.Millisecond,
	})
	plan, _ := h.Registry.Get("swipe_right")
	want := e2e.EncodeDets(t, e2e.BareReplay(t, plan, e2e.WireTuples(t, tuples)))

	// Phase 1: 24 sessions feed the first half of the stream and ack it.
	const oldSessions = 24
	cl := h.Dial()
	ids := make([]string, oldSessions)
	rss := make([]*wire.RemoteSession, oldSessions)
	preKill := make([][]byte, oldSessions)
	for i := range rss {
		ids[i] = fmt.Sprintf("soak-%02d", i)
		rs, err := cl.Attach(ids[i], wire.AttachOptions{BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		rss[i] = rs
		for _, tp := range chunk1 {
			if err := rs.FeedTuple(tp); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rs.Flush(); err != nil {
			t.Fatal(err)
		}
		preKill[i] = e2e.EncodeDets(t, rs.Detections())
	}

	// Pick a victim that owns at least one session (placement is visible
	// through the recording archives).
	victim := -1
	onVictim := make(map[string]bool)
	for b := 0; b < backends && victim < 0; b++ {
		for _, id := range ids {
			if h.HasRecording(b, id) {
				victim = b
				break
			}
		}
	}
	if victim < 0 {
		t.Fatal("no backend owns any session")
	}
	victimID := h.Spawner.ID(victim)
	for _, id := range ids {
		onVictim[id] = h.HasRecording(victim, id)
	}

	// Phase 2: kill the victim while the second half is in flight.
	var fed atomic.Int64
	killAt := int64(oldSessions * len(chunk2) / 3)
	killed := make(chan struct{})
	go func() {
		for fed.Load() < killAt {
			time.Sleep(time.Millisecond)
		}
		h.KillBackend(victim)
		close(killed)
	}()
	var wg sync.WaitGroup
	errs := make(chan error, oldSessions)
	for i := range rss {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, tp := range chunk2 {
				if err := rss[i].FeedTuple(tp); err != nil {
					errs <- fmt.Errorf("session %s: %w", ids[i], err)
					return
				}
				fed.Add(1)
			}
		}(i)
	}
	wg.Wait()
	<-killed
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Settle every old session before the restart: a flush forces any
	// session still bound to the dead incarnation through eject + re-home,
	// so the fleet deterministically reaches the steady state recovery
	// starts from — victim ejected, every old session homed on a survivor.
	for i, rs := range rss {
		if _, err := rs.Flush(); err != nil {
			t.Fatalf("session %s: settling flush: %v", ids[i], err)
		}
	}
	settleDeadline := time.Now().Add(10 * time.Second)
	for h.Gateway.State(victimID) == cluster.StateLive {
		if time.Now().After(settleDeadline) {
			t.Fatal("victim never ejected after its kill")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 3: restart the victim on the same address; the gateway must
	// re-admit it within the backoff budget (the harness backoff caps at
	// 100ms — 10s of grace is pure CI slack).
	h.RestartBackend(victim)
	deadline := time.Now().Add(10 * time.Second)
	for h.Gateway.State(victimID) != cluster.StateLive {
		if time.Now().After(deadline) {
			t.Fatalf("victim in state %q, not re-admitted within the backoff budget",
				h.Gateway.State(victimID))
		}
		time.Sleep(5 * time.Millisecond)
	}
	onRing := false
	for _, id := range h.Gateway.Ring().Backends() {
		onRing = onRing || id == victimID
	}
	if !onRing {
		t.Fatal("victim re-admitted but absent from the ring")
	}
	// No forced migration: the recovered backend starts empty; every old
	// session stays where failover put it.
	mm := h.Gateway.Metrics()
	for _, be := range mm.Backends {
		if be.ID == victimID {
			if !be.Healthy || be.State != string(cluster.StateLive) {
				t.Errorf("victim row after re-admission: healthy=%t state=%q", be.Healthy, be.State)
			}
			if be.Sessions != 0 {
				t.Errorf("victim carries %d sessions right after re-admission; re-balance must be gradual", be.Sessions)
			}
			if be.Ejections != 1 || be.Readmissions != 1 {
				t.Errorf("victim ejections=%d readmissions=%d, want 1/1", be.Ejections, be.Readmissions)
			}
		}
	}

	// Phase 4: 40 new sessions arrive. The bounded-load ring must steer a
	// share of them onto the recovered backend (pigeonhole: the two
	// survivors' caps cannot absorb all of them).
	const newSessions = 40
	const conns = 4
	newClients := make([]*wire.Client, conns)
	for i := range newClients {
		newClients[i] = h.Dial()
	}
	newIDs := make([]string, newSessions)
	newRss := make([]*wire.RemoteSession, newSessions)
	for i := range newRss {
		newIDs[i] = fmt.Sprintf("fresh-%02d", i)
		rs, err := newClients[i%conns].Attach(newIDs[i], wire.AttachOptions{BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		newRss[i] = rs
	}
	if load := h.Gateway.Ring().Load(victimID); load == 0 {
		t.Fatal("no new session placed on the recovered backend")
	}
	newErrs := make(chan error, newSessions)
	for i := range newRss {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, tp := range tuples {
				if err := newRss[i].FeedTuple(tp); err != nil {
					newErrs <- fmt.Errorf("session %s: %w", newIDs[i], err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-newErrs:
		t.Fatal(err)
	default:
	}

	// Drain everything and snapshot the fleet while it is still alive.
	finalDets := make([][]byte, oldSessions)
	finalCounters := make([]wire.SessionCounters, oldSessions)
	for i, rs := range rss {
		if _, err := rs.Flush(); err != nil {
			t.Fatalf("session %s: final flush: %v", ids[i], err)
		}
		finalDets[i] = e2e.EncodeDets(t, rs.Detections())
		c, err := rs.Detach()
		if err != nil {
			t.Fatalf("session %s: detach: %v", ids[i], err)
		}
		finalCounters[i] = c
	}
	newDets := make([][]byte, newSessions)
	newCounters := make([]wire.SessionCounters, newSessions)
	for i, rs := range newRss {
		if _, err := rs.Flush(); err != nil {
			t.Fatalf("session %s: flush: %v", newIDs[i], err)
		}
		newDets[i] = e2e.EncodeDets(t, rs.Detections())
		c, err := rs.Detach()
		if err != nil {
			t.Fatalf("session %s: detach: %v", newIDs[i], err)
		}
		newCounters[i] = c
	}
	mm = h.Gateway.Metrics()
	h.Stop() // flush every archive so the recordings are readable

	// Old sessions: same contract as the failover soak — every fed tuple
	// is either in the final home's recording or reported dropped, and the
	// detections are exactly the acked prefix plus a bare replay of what
	// the final home admitted.
	total := uint64(len(tuples))
	fedTuples := e2e.WireTuples(t, tuples)
	rehomed := 0
	for i, id := range ids {
		c := finalCounters[i]
		if c.In != total || c.Out != c.In || c.Dropped > total {
			t.Errorf("session %s counters = %+v, want in=out=%d", id, c, total)
			continue
		}
		home := -1
		for b := 0; b < backends; b++ {
			if b != victim && h.HasRecording(b, id) {
				home = b
				break
			}
		}
		if onVictim[id] {
			rehomed++
			if home < 0 {
				t.Errorf("session %s never re-homed off the dead backend", id)
				continue
			}
		} else if home < 0 {
			t.Errorf("session %s has no recording on its healthy backend", id)
			continue
		} else if c.Dropped != 0 {
			t.Errorf("session %s on a healthy backend dropped %d tuples", id, c.Dropped)
		}
		recorded := h.Recorded(home, id)
		if got := total - uint64(len(recorded)); c.Dropped != got {
			t.Errorf("session %s reports %d drops, recorder tally says %d (fed %d, recorded %d)",
				id, c.Dropped, got, total, len(recorded))
		}
		var wantDets []byte
		if onVictim[id] {
			wantDets = rehomedDetections(t, plan, fedTuples[:c.Dropped], preKill[i], finalDets[i], recorded)
		} else {
			wantDets = e2e.EncodeDets(t, e2e.BareReplay(t, plan, recorded))
		}
		if !bytes.Equal(finalDets[i], wantDets) {
			t.Errorf("session %s detections diverge from the deterministic reconstruction", id)
		}
	}
	if rehomed == 0 {
		t.Fatal("victim backend owned no sessions; recovery path never stressed")
	}

	// New sessions: a fully clean run — zero drops, full-stream semantics
	// byte-identical to the bare replay — wherever they landed, the
	// recovered backend included.
	onRecovered := 0
	for i, id := range newIDs {
		c := newCounters[i]
		if c.In != total || c.Out != c.In || c.Dropped != 0 {
			t.Errorf("session %s counters = %+v, want in=out=%d dropped=0", id, c, total)
		}
		home := -1
		for b := 0; b < backends; b++ {
			if h.HasRecording(b, id) {
				home = b
				break
			}
		}
		if home < 0 {
			t.Errorf("session %s was never recorded anywhere", id)
			continue
		}
		if home == victim {
			onRecovered++
		}
		if got := uint64(len(h.Recorded(home, id))); got != total {
			t.Errorf("session %s: home recorded %d of %d tuples", id, got, total)
		}
		if !bytes.Equal(newDets[i], want) {
			t.Errorf("session %s detections diverge from the bare replay", id)
		}
	}
	if onRecovered == 0 {
		t.Error("no new session served by the recovered backend")
	}

	// Fleet accounting: the victim's row carries the episode — sessions
	// re-homed off it, their dead-incarnation tuples as Lost — and the
	// survivors never flapped.
	var wantLost uint64
	for i, id := range ids {
		if onVictim[id] {
			wantLost += finalCounters[i].Dropped
		}
	}
	for _, be := range mm.Backends {
		if be.ID == victimID {
			if be.Rehomed != uint64(rehomed) {
				t.Errorf("victim Rehomed = %d, want %d", be.Rehomed, rehomed)
			}
			if be.Lost != wantLost {
				t.Errorf("victim Lost = %d, session drop counts sum to %d", be.Lost, wantLost)
			}
		} else {
			if be.Ejections != 0 || be.Readmissions != 0 || be.State != string(cluster.StateLive) {
				t.Errorf("survivor %s: ejections=%d readmissions=%d state=%q, want a quiet live row",
					be.ID, be.Ejections, be.Readmissions, be.State)
			}
		}
	}
}

// TestGatewayTolerateDown starts a gateway against a fleet with one dead
// backend: it must serve on the live subset and admit the dead backend
// through the recovery machinery when it comes up.
func TestGatewayTolerateDown(t *testing.T) {
	h := e2e.Start(t, e2e.Options{Backends: 2, Serve: serve.Config{Shards: 1}})
	h.KillBackend(1)
	downID := h.Spawner.ID(1)

	gw, err := cluster.NewGateway(cluster.Config{
		Backends:          h.Spawner.Backends(),
		Name:              "tolerant",
		ProbeInterval:     25 * time.Millisecond,
		ProbeTimeout:      time.Second,
		ReadmitBackoff:    10 * time.Millisecond,
		ReadmitMaxBackoff: 100 * time.Millisecond,
		Logger:            obs.NewLogger(256, func(e obs.Event) { t.Logf("%s", e) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if st := gw.State(downID); st != cluster.StateRecovering {
		t.Fatalf("down backend state = %q, want %q", st, cluster.StateRecovering)
	}
	if ids := gw.Ring().Backends(); len(ids) != 1 || ids[0] != h.Spawner.ID(0) {
		t.Fatalf("ring holds %v, want only the live backend", ids)
	}

	// The degraded gateway serves: a session lands on the live backend.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go gw.Serve(ln)
	cl, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rs, err := cl.Attach("degraded-0", wire.AttachOptions{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	frames := e2e.PlaybackFrames(t, 3)
	if err := e2e.FeedFrames(rs, frames); err != nil {
		t.Fatal(err)
	}
	if c, err := rs.Flush(); err != nil || c.In != uint64(len(frames)) || c.Out != c.In || c.Dropped != 0 {
		t.Fatalf("degraded flush = %+v, %v; want in=out=%d dropped=0", c, err, len(frames))
	}

	// Bring the backend up; the recovery loop must admit it.
	h.RestartBackend(1)
	deadline := time.Now().Add(10 * time.Second)
	for gw.State(downID) != cluster.StateLive {
		if time.Now().After(deadline) {
			t.Fatalf("restarted backend in state %q, never admitted", gw.State(downID))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := gw.Ring().Len(); got != 2 {
		t.Fatalf("ring holds %d backends after admission, want 2", got)
	}
	for _, be := range gw.Metrics().Backends {
		if be.ID == downID && (be.Ejections != 0 || be.Readmissions != 1) {
			t.Errorf("admitted backend ejections=%d readmissions=%d, want 0/1", be.Ejections, be.Readmissions)
		}
	}

	// The late-joining backend must start receiving sessions: the live
	// backend's bounded-load cap cannot absorb them all.
	for i := 0; i < 8; i++ {
		if _, err := cl.Attach(fmt.Sprintf("late-%d", i), wire.AttachOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if load := gw.Ring().Load(downID); load == 0 {
		t.Error("no session placed on the late-joining backend")
	}
}

// rehomedDetections reconstructs, canonically encoded, what a client must
// hold for a session whose home was killed mid-stream: a prefix of what the
// dead backend could have fired from the lost tuples (every tuple the final
// home never saw — forwarded to the victim, or dropped on the way), then
// exactly a bare replay of what the final home recorded. The kill lands while
// feeders run, so how much of the victim's output was relayed is the one
// thing the episode leaves open; the client's own list (final) settles its
// length, bounded below by what it had acknowledged before the kill and above
// by everything the lost tuples can fire. Content and order stay exact.
func rehomedDetections(t testing.TB, plan *anduin.Plan, lost []stream.Tuple, preKill, final []byte, recorded []stream.Tuple) []byte {
	t.Helper()
	count := func(encoded []byte) int {
		_, _, dets, err := wire.DecodeDetections(encoded)
		if err != nil {
			t.Fatal(err)
		}
		return len(dets)
	}
	victim := e2e.BareReplay(t, plan, lost)
	tail := e2e.BareReplay(t, plan, recorded)
	relayed := max(count(final)-len(tail), count(preKill))
	if relayed > len(victim) {
		t.Errorf("client holds %d detections from the dead backend, the %d tuples it was sent fire only %d",
			relayed, len(lost), len(victim))
		relayed = len(victim)
	}
	return e2e.EncodeDets(t, append(victim[:relayed:relayed], tail...))
}

// BenchmarkGatewayProxy measures the full proxied path — client codec →
// gateway frame relay → backend frame loop → sharded manager → detection
// relay back through the gateway — for one session replaying a recording
// per iteration. Compare with BenchmarkWireLoopback (same path minus the
// gateway hop) for the proxy overhead.
func BenchmarkGatewayProxy(b *testing.B) {
	benchGatewayProxy(b, 0)
}

// BenchmarkGatewayProxyTraced is the same path with the observability layer
// live: stage instruments on every backend and 1-in-1024 trace sampling on
// the client. The delta against BenchmarkGatewayProxy is the observability
// overhead at the production sampling rate.
func BenchmarkGatewayProxyTraced(b *testing.B) {
	benchGatewayProxy(b, 1024)
}

func benchGatewayProxy(b *testing.B, traceEvery int) {
	h := e2e.Start(b, e2e.Options{Backends: 3, Gateway: true, Serve: serve.Config{Shards: 2}})
	player, err := kinect.NewSimulator(kinect.ChildProfile(), kinect.DefaultNoise(), 7)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := player.RunScript([]kinect.ScriptItem{
		{Idle: 500 * time.Millisecond},
		{Gesture: kinect.GestureSwipeRight, Opts: kinect.PerformOpts{PathJitter: 15}},
		{Idle: time.Second},
	}, e2e.TestTime(), nil)
	if err != nil {
		b.Fatal(err)
	}
	tuples := kinect.ToTuples(rec.Frames)
	stride := rec.Duration() + time.Second

	cl := h.Dial()
	rs, err := cl.Attach("bench", wire.AttachOptions{BatchSize: 64, Discard: true, TraceEvery: traceEvery})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offset := time.Duration(i) * stride
		for _, tp := range tuples {
			tp.Ts = tp.Ts.Add(offset)
			if err := rs.FeedTuple(tp); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := rs.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(tuples))/b.Elapsed().Seconds(), "tuples/s")
}
