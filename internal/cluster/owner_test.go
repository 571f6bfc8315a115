package cluster

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"gesturecep/internal/kinect"
	"gesturecep/internal/serve"
	"gesturecep/internal/store"
	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

// ownerFixture is a gateway over n real in-process backends (Spawn: each a
// full wire server, so every candidate speaks the protocol correctly until
// the row kills it), probes off so only the ownership paths may eject, and
// one front connection. The backends named in recording record their
// sessions, which makes those sessions read every field.
type ownerFixture struct {
	sp *Spawner
	gw *Gateway
	cl *wire.Client
}

func newOwnerFixture(t *testing.T, backends int, recording ...string) *ownerFixture {
	t.Helper()
	reg := serve.NewRegistry()
	// Ownership never looks inside a tuple; one plan that cannot fire is
	// enough for the backends to admit sessions.
	if _, err := reg.Register("never", `SELECT "never" MATCHING kinect_t(rHand_y > 100000);`); err != nil {
		t.Fatal(err)
	}
	var opts SpawnOptions
	if len(recording) > 0 {
		opts.Record = func(id string, srv *wire.Server) {
			if slices.Contains(recording, id) {
				archive := store.NewArchive(t.TempDir(), kinect.Schema(), store.Options{}, 0)
				t.Cleanup(func() { archive.Close() })
				archive.Serve(srv, reg.Resolve, nil)
			}
		}
	}
	sp, err := Spawn(backends, reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.Close)
	gw, err := NewGateway(Config{Backends: sp.Backends(), ProbeInterval: -1, ProbeTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go gw.Serve(ln)
	cl, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return &ownerFixture{sp: sp, gw: gw, cl: cl}
}

func (f *ownerFixture) attach(t *testing.T, id string) *wire.RemoteSession {
	t.Helper()
	rs, err := f.cl.Attach(id, wire.AttachOptions{BatchSize: 4, Discard: true})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// feed sends n kinect-width tuples, continuing the session's sequence at from.
func (f *ownerFixture) feed(t *testing.T, rs *wire.RemoteSession, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		tp := stream.Tuple{
			Ts:     time.Unix(1395655200, 0).Add(time.Duration(i) * 33 * time.Millisecond),
			Seq:    uint64(i),
			Fields: make([]float64, kinect.Schema().Len()),
		}
		if err := rs.FeedTuple(tp); err != nil {
			t.Fatal(err)
		}
	}
}

// flush checks the session counters of one flush ack. The gateway's ack
// keeps the serving layer's accounting — every tuple taken in has left the
// queue, In == Out — and reports as Dropped, within that, exactly the tuples
// that died with a previous owner: In − Dropped is what the current owner
// holds.
func (f *ownerFixture) flush(t *testing.T, rs *wire.RemoteSession, in, dropped uint64) {
	t.Helper()
	c, err := rs.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if c.In != in || c.Out != c.In || c.Dropped != dropped {
		t.Errorf("counters = %+v, want in=out=%d dropped=%d", c, in, dropped)
	}
}

// session finds a front session's ownership record on the incarnation that
// carries it.
func (f *ownerFixture) session(t *testing.T, id string) *proxySession {
	t.Helper()
	for _, m := range f.gw.fleet.snapshot() {
		if m.be == nil {
			continue
		}
		m.be.mu.Lock()
		for ps := range m.be.sessions {
			if ps.id == id {
				m.be.mu.Unlock()
				return ps
			}
		}
		m.be.mu.Unlock()
	}
	t.Fatalf("no proxied session %q", id)
	return nil
}

// index maps a backend ID back to its spawner slot.
func (f *ownerFixture) index(t *testing.T, id string) int {
	t.Helper()
	for i := 0; i < f.sp.Len(); i++ {
		if f.sp.ID(i) == id {
			return i
		}
	}
	t.Fatalf("no spawned backend %q", id)
	return -1
}

func (f *ownerFixture) ownerOf(t *testing.T, id string) *backend {
	t.Helper()
	ps := f.session(t, id)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.be
}

// conserved asserts ring-load conservation: the slots the ring charges, the
// sessions registered on in-service incarnations, and the sessions the row
// says are bound all agree — no slot leaked by a failed placement, none
// double-released by a move.
func (f *ownerFixture) conserved(t *testing.T, bound int) {
	t.Helper()
	load, registered := 0, 0
	for _, m := range f.gw.fleet.snapshot() {
		load += f.gw.Ring().Load(m.id)
		if m.be != nil && !m.be.isEjected() {
			registered += m.be.sessionCount()
		}
	}
	if load != bound || registered != bound {
		t.Errorf("ring charges %d slots, live incarnations carry %d sessions, want both %d", load, registered, bound)
	}
}

func (f *ownerFixture) rehomedTotal() (n uint64) {
	for _, m := range f.gw.fleet.snapshot() {
		n += m.stats.rehomed.Load()
	}
	return n
}

// TestOwnershipTransitions walks the one ownership transition
// (ensureOwnerLocked → place → bind) through every verdict a candidate can
// give. Each row returns how many sessions it left bound to a live
// incarnation; ring-load conservation is asserted after every row.
func TestOwnershipTransitions(t *testing.T) {
	rows := []struct {
		name     string
		backends int
		run      func(t *testing.T, f *ownerFixture) (bound int)
	}{
		{"healthy candidate", 2, func(t *testing.T, f *ownerFixture) int {
			rs := f.attach(t, "s")
			f.feed(t, rs, 0, 16)
			f.flush(t, rs, 16, 0)
			if be := f.ownerOf(t, "s"); be == nil || be.isEjected() {
				t.Errorf("session owner = %+v, want a live incarnation", be)
			}
			if n := f.rehomedTotal(); n != 0 {
				t.Errorf("a first placement counted %d re-homes", n)
			}
			return 1
		}},
		{"owner dies, healthy candidate takes over", 2, func(t *testing.T, f *ownerFixture) int {
			rs := f.attach(t, "s")
			f.feed(t, rs, 0, 8)
			f.flush(t, rs, 8, 0)
			old := f.ownerOf(t, "s")
			f.sp.Kill(f.index(t, old.id))
			// The flush finds the corpse, charges its 8 tuples to Lost and
			// lands on the survivor, whose fresh session has seen nothing.
			f.flush(t, rs, 8, 8)
			f.feed(t, rs, 8, 4)
			f.flush(t, rs, 12, 8)
			now := f.ownerOf(t, "s")
			if now == old || now.isEjected() {
				t.Errorf("session still owned by %s (ejected %t) after its death", now.id, now.isEjected())
			}
			if got := old.stats.rehomed.Load(); got != 1 {
				t.Errorf("dead owner Rehomed = %d, want 1", got)
			}
			if got := old.stats.lost.Load(); got != 8 {
				t.Errorf("dead owner Lost = %d, want 8", got)
			}
			return 1
		}},
		{"candidate refuses attach", 1, func(t *testing.T, f *ownerFixture) int {
			// Occupy the session ID on the backend itself, behind the
			// gateway's back, so the backend refuses the gateway's attach.
			direct, err := wire.Dial(f.sp.Addr(0))
			if err != nil {
				t.Fatal(err)
			}
			defer direct.Close()
			if _, err := direct.Attach("dup", wire.AttachOptions{Discard: true}); err != nil {
				t.Fatal(err)
			}
			_, err = f.cl.Attach("dup", wire.AttachOptions{Discard: true})
			if _, ok := err.(*wire.ErrorReply); !ok || !strings.Contains(err.Error(), "attach refused") {
				t.Fatalf("attach error = %v (%T), want a session-scoped refusal", err, err)
			}
			m, _ := f.gw.fleet.lookup(f.sp.ID(0))
			if m.state != StateLive || m.stats.ejections.Load() != 0 {
				t.Errorf("refusing backend: state %s, %d ejections; a refusal is not a death", m.state, m.stats.ejections.Load())
			}
			return 0
		}},
		{"candidate dies on attach", 2, func(t *testing.T, f *ownerFixture) int {
			first, _ := f.gw.Ring().Lookup("s") // empty ring loads: Acquire starts here
			f.sp.Kill(f.index(t, first))
			rs := f.attach(t, "s")
			f.feed(t, rs, 0, 4)
			f.flush(t, rs, 4, 0)
			if be := f.ownerOf(t, "s"); be.id == first {
				t.Errorf("session placed on the dead candidate %s", first)
			}
			m, _ := f.gw.fleet.lookup(first)
			if m.state != StateRecovering || m.stats.ejections.Load() != 1 {
				t.Errorf("dead candidate: state %s, %d ejections, want recovering after one ejection", m.state, m.stats.ejections.Load())
			}
			if n := f.rehomedTotal(); n != 0 {
				t.Errorf("a first placement counted %d re-homes", n)
			}
			return 1
		}},
		{"candidate dies between attach and registration", 2, func(t *testing.T, f *ownerFixture) int {
			ps := &proxySession{gw: f.gw, id: "s", push: new(wire.Push)}
			ps.mu.Lock()
			defer ps.mu.Unlock()
			be, rs, err := f.gw.place(ps, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.gw.eject(be, ps) // after the attach ack, before bind registers
			if f.gw.bind(ps, be, rs, 0) {
				t.Fatal("bind accepted a retired incarnation")
			}
			if ps.be != nil || ps.cur.Load() != nil {
				t.Fatal("a refused bind changed the ownership record")
			}
			if err := f.gw.ensureOwnerLocked(ps); err != nil {
				t.Fatalf("session stranded: %v", err)
			}
			if ps.be == be || ps.be.isEjected() || ps.cur.Load() != ps.be {
				t.Errorf("session owner %s (ejected %t) after the candidate died", ps.be.id, ps.be.isEjected())
			}
			return 1
		}},
		{"no live backend", 1, func(t *testing.T, f *ownerFixture) int {
			rs := f.attach(t, "s")
			f.feed(t, rs, 0, 8)
			f.flush(t, rs, 8, 0)
			f.sp.Kill(0)
			var first string
			for attempt := 1; attempt <= 3; attempt++ {
				_, err := rs.Flush()
				if _, ok := err.(*wire.ErrorReply); !ok || !strings.Contains(err.Error(), "no live backend to re-home onto") {
					t.Fatalf("flush %d error = %v (%T), want the sticky re-home failure", attempt, err, err)
				}
				if first == "" {
					first = err.Error()
				} else if err.Error() != first {
					t.Errorf("flush %d error = %q, want the same sticky %q", attempt, err, first)
				}
			}
			m, _ := f.gw.fleet.lookup(f.sp.ID(0))
			if got := m.stats.rehomed.Load(); got != 0 {
				t.Errorf("Rehomed = %d for a session that found no new owner, want 0", got)
			}
			if got := m.stats.lost.Load(); got != 8 {
				t.Errorf("Lost = %d, want the 8 tuples that died with the backend", got)
			}
			return 0
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			f := newOwnerFixture(t, row.backends)
			f.conserved(t, row.run(t, f))
		})
	}
}

// placedOn returns a session ID whose first ring candidate is backend.
func (f *ownerFixture) placedOn(backend string) string {
	for i := 0; ; i++ {
		if first, _ := f.gw.Ring().Lookup(fmt.Sprint("s", i)); first == backend {
			return fmt.Sprint("s", i)
		}
	}
}

// TestRehomeKeepsReadSet: a session's client narrows its batches to the read
// set the first owner advertised, and the gateway forwards them unchanged,
// so a new owner must read the same set. When the only candidate left is a
// recording backend — its sessions read every field — the failover refuses
// it: the session fails with the sticky error, the candidate is detached
// from and receives no batch.
func TestRehomeKeepsReadSet(t *testing.T) {
	f := newOwnerFixture(t, 2, BackendID(1))
	id := f.placedOn(BackendID(0))
	rs := f.attach(t, id)
	if rs.Reads() == nil {
		t.Fatal("a session of a backend that does not record was given no read set")
	}
	f.feed(t, rs, 0, 8)
	f.flush(t, rs, 8, 0)
	if be := f.ownerOf(t, id); be.id != BackendID(0) {
		t.Fatalf("session placed on %s, want %s", be.id, BackendID(0))
	}
	f.sp.Kill(0)
	var first string
	for attempt := 1; attempt <= 2; attempt++ {
		_, err := rs.Flush()
		if _, ok := err.(*wire.ErrorReply); !ok || !strings.Contains(err.Error(), "re-home refused") ||
			!strings.Contains(err.Error(), "reads every field") {
			t.Fatalf("flush %d error = %v (%T), want the sticky refusal of an owner that reads another set", attempt, err, err)
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Errorf("flush %d error = %q, want the same sticky %q", attempt, err, first)
		}
	}
	if m := f.sp.Manager(1).Metrics(); m.Sessions != 0 || m.Enqueued != 0 {
		t.Errorf("the refused owner holds %d sessions and took %d tuples, want none", m.Sessions, m.Enqueued)
	}
	f.conserved(t, 0)
}

// TestMigrationKeepsReadSet: a recording session's client sends full width,
// so a drain must not move it onto a backend whose sessions read less. The
// migration is refused like any target refusal — the target is detached
// from before any history reaches it, the source unseals, the drain
// reverts — and the session goes on serving where it was, losing nothing.
func TestMigrationKeepsReadSet(t *testing.T) {
	f := newOwnerFixture(t, 2, BackendID(0))
	id := f.placedOn(BackendID(0))
	rs := f.attach(t, id)
	if rs.Reads() != nil {
		t.Fatalf("a recording session's client sends fields %v, want every field", rs.Reads())
	}
	f.feed(t, rs, 0, 8)
	f.flush(t, rs, 8, 0)
	if _, err := f.gw.Drain(BackendID(0)); err == nil || !strings.Contains(err.Error(), "migration target refused attach") {
		t.Fatalf("drain error = %v, want the target's read set refused", err)
	}
	if m := f.sp.Manager(1).Metrics(); m.Sessions != 0 || m.Enqueued != 0 {
		t.Errorf("the refused target holds %d sessions and took %d tuples, want none", m.Sessions, m.Enqueued)
	}
	f.feed(t, rs, 8, 4)
	f.flush(t, rs, 12, 0)
	if be := f.ownerOf(t, id); be.id != BackendID(0) {
		t.Errorf("session owned by %s after a refused migration, want %s", be.id, BackendID(0))
	}
}

// TestAddBackendVerifiesLiveness pins the one dial path: an address that
// accepts connections but never answers a ping is refused by AddBackend
// within about ProbeTimeout — not admitted as live on the strength of a TCP
// accept, and not left blocking every later membership verb — and leaves the
// membership and the ring as they were.
func TestAddBackendVerifiesLiveness(t *testing.T) {
	sp, err := Spawn(1, serve.NewRegistry(), SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	const probeTimeout = 150 * time.Millisecond
	gw, err := NewGateway(Config{Backends: sp.Backends(), ProbeInterval: -1, ProbeTimeout: probeTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	hole := startFakeBackend(t, 0)

	start := time.Now()
	err = gw.AddBackend("hole", hole.Addr())
	if took := time.Since(start); err == nil || took > 10*probeTimeout {
		t.Fatalf("AddBackend of an accept-only address = %v after %v, want an error within ~%v", err, took, probeTimeout)
	}
	if st := gw.State("hole"); st != "" {
		t.Errorf("refused backend left in state %q", st)
	}
	if ids := gw.Ring().Backends(); len(ids) != 1 || ids[0] != sp.ID(0) {
		t.Errorf("ring holds %v after the refusal, want only %s", ids, sp.ID(0))
	}
	if live, total := gw.LiveBackends(); live != 1 || total != 1 {
		t.Errorf("fleet is %d live of %d after the refusal, want 1 of 1", live, total)
	}
	// The membership lock is free again: the next verb runs.
	if err := gw.RemoveBackend("hole"); err == nil || !strings.Contains(err.Error(), "no backend hole") {
		t.Errorf("RemoveBackend after the refusal = %v, want an unknown-backend error", err)
	}
}

// TestInstallRefusesSupersededRecovery pins which recovery loop may fill a
// recovering member: RemoveBackend → AddBackend → eject puts the ID back in
// recovery under a new loop, and an older loop that was already dialing
// when it was cancelled must not install over it (it would clear the new
// loop's claim without stopping it, and bring back the old address).
func TestInstallRefusesSupersededRecovery(t *testing.T) {
	sp, err := Spawn(2, serve.NewRegistry(), SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	// An hour of backoff parks every recovery loop in its select, so the
	// test alone decides who calls install and when.
	gw, err := NewGateway(Config{Backends: sp.Backends(), ProbeInterval: -1,
		ProbeTimeout: time.Second, ReadmitBackoff: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	id, addr := sp.ID(0), sp.Backends()[0].Addr

	// ejectCurrent retires id's incarnation and returns the claim of the
	// recovery loop that took the member over.
	ejectCurrent := func() chan struct{} {
		t.Helper()
		m, _ := gw.fleet.lookup(id)
		if m.be == nil {
			t.Fatalf("backend %s has no incarnation to eject (state %s)", id, m.state)
		}
		gw.eject(m.be, nil)
		m, _ = gw.fleet.lookup(id)
		if m.state != StateRecovering || m.cancel == nil {
			t.Fatalf("after eject: state %s, claim %v; want recovering with a claim", m.state, m.cancel)
		}
		return m.cancel
	}

	stale := ejectCurrent()
	if err := gw.RemoveBackend(id); err != nil {
		t.Fatal(err)
	}
	if err := gw.AddBackend(id, addr); err != nil {
		t.Fatal(err)
	}
	current := ejectCurrent()

	if _, err := gw.fleet.install(id, addr, stale); err == nil {
		t.Fatal("a superseded recovery loop installed an incarnation")
	}
	if _, err := gw.fleet.install(id, addr, nil); err == nil {
		t.Fatal("a claimless install filled a member a recovery loop owns")
	}
	m, _ := gw.fleet.lookup(id)
	if m.state != StateRecovering || m.cancel != current || m.be != nil {
		t.Fatalf("refused installs changed the member: state %s, be %v, claim kept %v",
			m.state, m.be, m.cancel == current)
	}
	if ids := gw.Ring().Backends(); len(ids) != 1 || ids[0] != sp.ID(1) {
		t.Errorf("ring holds %v while %s recovers, want only %s", ids, id, sp.ID(1))
	}

	be, err := gw.fleet.install(id, addr, current)
	if err != nil {
		t.Fatalf("the owning recovery loop was refused: %v", err)
	}
	if m, _ := gw.fleet.lookup(id); m.state != StateLive || m.be != be || m.cancel != nil {
		t.Errorf("after the owning install: state %s, claim %v", m.state, m.cancel)
	}
}
