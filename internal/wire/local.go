package wire

import (
	"fmt"
	"io"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/serve"
	"gesturecep/internal/stream"
)

// localHost serves a serve.Manager in this process — what NewServer builds.
// It alone records its sessions into the server's Archive, and only its
// sessions can be a migration source or target.
type localHost struct {
	srv *Server
	mgr *serve.Manager
}

func (h *localHost) SessionCount() int      { return h.mgr.SessionCount() }
func (h *localHost) Metrics() serve.Metrics { return h.mgr.Metrics() }

func (h *localHost) Attach(req AttachRequest, push *Push) (Session, AttachReply, error) {
	var rec Recording
	if h.srv.Archive != nil {
		var err error
		if rec, err = h.srv.Archive.RecordSession(req.ID); err != nil {
			return nil, AttachReply{}, fmt.Errorf("wire: recording %q: %w", req.ID, err)
		}
	}
	sess, err := h.mgr.CreateSessionWith(req.ID, serve.SessionOptions{
		Gestures:  req.Gestures,
		CatchUpTo: req.StartAt,
	})
	if err != nil {
		if rec != nil {
			rec.End(true)
		}
		return nil, AttachReply{}, err
	}
	reply := AttachReply{Plans: req.Gestures}
	if len(reply.Plans) == 0 {
		reply.Plans = h.mgr.Registry().Names()
	}
	if raw, ok := sess.Engine().Stream(anduin.RawStreamName); ok {
		reply.Fields = raw.Schema().Len()
	}
	ls := newLocalSession(h.srv, sess, rec, reply.Fields)
	if !ls.full {
		reply.Reads = ls.reads.Fields()
	}
	// Stream detections out instead of buffering them in the session: the
	// listener runs on the shard worker, so it only parks them in the push
	// buffer; the connection's pusher goroutine owns the socket writes.
	ls.cancel = sess.OnDetection(func(d anduin.Detection) {
		if sess.CatchingUp() {
			// Catch-up replay re-fires detections the source backend
			// already delivered to the client; muting them here is the
			// exactly-once half of the migration contract. MigrateCommit
			// flushes before unmuting, so no replayed detection can race
			// past this check.
			return
		}
		_, _, dropped := sess.Counters()
		push.Detections(dropped, []anduin.Detection{d})
	})
	sess.SetCollect(false)
	return ls, reply, nil
}

// newLocalSession wraps a session whose every plan is deployed, so its read
// set is final: what it reads of each tuple, and so what its batches are
// decoded to for the session's life. Its client sends exactly that set —
// unless the session records (rec non-nil), whose archive keeps whole
// tuples: it is sent every field and still decodes only its read set. A set
// of no field is sent as every field too, since a batch carries at least
// one. fields is the raw schema width.
func newLocalSession(srv *Server, sess *serve.Session, rec Recording, fields int) *localSession {
	reads := sess.Reads()
	return &localSession{
		srv: srv, sess: sess, cancel: func() {}, rec: rec,
		reads: reads, fields: fields,
		full: rec != nil || len(reads.Fields()) == 0,
	}
}

// HistoryReader iterates a recorded session's admitted tuples in record
// batches, ending with io.EOF — the shape of *store.Reader, declared here so
// the wire layer can stream migration history without importing the store.
// A batch is lent: it is valid until the next Lend or Close.
type HistoryReader interface {
	Lend() ([]stream.Tuple, error)
	Close() error
}

// localSession is one serve.Session attached over the wire.
type localSession struct {
	srv    *Server
	sess   *serve.Session
	cancel func()
	rec    Recording // nil when the server has no archive

	// reads is what the session reads of each tuple (nil: every field), the
	// fields a batch is decoded to and scattered back to the schema width
	// fields; full reports that a batch carries every field rather than
	// exactly reads (newLocalSession).
	reads  *stream.ReadSet
	fields int
	full   bool

	// Migration source state: the open history cursor of a sealed session
	// and its absolute tuple position. Only the connection's reader
	// goroutine touches these (every migrate frame, detach and teardown run
	// there), so they need no lock.
	migReader HistoryReader
	migSent   uint64
}

func (ls *localSession) Batch(b RawBatch) error {
	// Only trace-sampled batches pay for clock reads; the flag check is a
	// byte mask on the raw payload.
	var start time.Time
	if BatchTraced(b.Payload) {
		start = time.Now()
	}
	// Only the fields the session reads are decoded — for the demo plans 15
	// of 45 — whether the batch carries just those or, for a recording
	// session, every field. The shard worker checks the set a batch holds
	// covers what the session reads when it publishes.
	buf := getBatchBuf()
	batch, err := decodeBatch(buf, b.Payload, ls.reads, ls.fields, ls.full)
	if err != nil {
		buf.Release()
		return err
	}
	count := len(batch.Tuples) // batch is the queue's once FeedLent admits it
	if batch.SentNs != 0 {
		ls.srv.batchDecode.ObserveSince(start)
		ls.srv.ingress.Observe(time.Duration(start.UnixNano() - batch.SentNs))
	}
	// The decoded slice is lent whole, one shard-queue operation per wire
	// batch, and buf rides along: whoever takes the batch out of the queue
	// releases it. FeedLent blocks on a full shard queue under serve.Block —
	// this is the backpressure path. A traced batch's timestamp rides along
	// so the serve-side stage histograms see it.
	if err := ls.sess.FeedLent(batch.Tuples, ls.reads, batch.SentNs, buf); err != nil {
		// Refused, so never lent. A feed failure means the session or manager
		// closed under the connection; it is fatal so the client never
		// receives an error frame it has no request in flight for.
		buf.Release()
		return fmt.Errorf("session %q: %w", ls.sess.ID(), err)
	}
	if ls.rec != nil {
		// Admitted, so recorded: the archive holds exactly what the session
		// accepted, tuples DropOldest may yet evict included (drops are a
		// serving artifact, not part of the history). The payload's tuple
		// bodies are the bytes a record stores, so they are copied as they
		// are; the connection's reader, the one feeder, keeps the order.
		ls.rec.TapBodies(batchBodies(b.Payload, count, ls.fields), ls.fields)
	}
	return nil
}

func (ls *localSession) Sync(detach bool) (SessionCounters, error) {
	ls.sess.Flush()
	c := ls.counters()
	if detach {
		ls.Close()
	}
	return c, nil
}

func (ls *localSession) counters() SessionCounters {
	in, out, dropped := ls.sess.Counters()
	return SessionCounters{In: in, Out: out, Dropped: dropped}
}

func (ls *localSession) Close() {
	ls.cancel()
	ls.closeHistory()
	ls.sess.Close()
	if ls.rec != nil {
		ls.rec.End(false)
	}
}

func (ls *localSession) closeHistory() {
	if ls.migReader != nil {
		ls.migReader.Close()
		ls.migReader = nil
	}
}

// migrant resolves a migration frame's handle to a session of the local
// host. When it cannot, the failure has been reported to the client as
// session-scoped (ls is nil and err is that write's outcome): a session of
// any other host answers like a server with no history source.
func (c *conn) migrant(handle uint32) (cs *connSession, ls *localSession, err error) {
	cs = c.session(handle)
	if cs == nil {
		return nil, nil, c.sessionError(handle, fmt.Errorf("wire: no session with handle %d", handle))
	}
	ls, ok := cs.sess.(*localSession)
	if !ok {
		return nil, nil, c.sessionError(handle, fmt.Errorf("wire: server has no migration history source"))
	}
	return cs, ls, nil
}

// handleMigrateBegin seals a session for migration: feeds are refused, the
// queue is drained, and the recorded history is opened and verified complete
// against the admitted-tuple count — which becomes the cut ordinal. On any
// failure the session is unsealed and resumes untouched.
func (c *conn) handleMigrateBegin(payload []byte) error {
	var req MigrateBeginRequest
	if err := unmarshalStrict(payload, &req); err != nil {
		return fmt.Errorf("migrate-begin: %w", err)
	}
	cs, ls, err := c.migrant(req.Handle)
	if ls == nil {
		return err
	}
	if ls.rec == nil {
		return c.sessionError(req.Handle, fmt.Errorf("wire: session %q is not recorded: no history to migrate", ls.sess.ID()))
	}
	if ls.migReader != nil {
		return c.sessionError(req.Handle, fmt.Errorf("wire: session %q: migration already in progress", ls.sess.ID()))
	}
	// Seal first so the admitted count is a stable cut, then drain the
	// queue so every admitted tuple has been evaluated and tapped.
	ls.sess.Seal()
	ls.sess.Flush()
	in, _, _ := ls.sess.Counters()
	hr, recorded, err := ls.rec.History()
	if err == nil && recorded != in {
		hr.Close()
		err = fmt.Errorf("recording holds %d of %d admitted tuples; a lossy tap cannot rebuild state", recorded, in)
	}
	if err != nil {
		ls.sess.Unseal()
		return c.sessionError(req.Handle, fmt.Errorf("wire: session %q: %w", ls.sess.ID(), err))
	}
	ls.migReader, ls.migSent = hr, 0
	return c.reply(FrameMigrateBeginOK, &MigrateBeginReply{Handle: cs.handle, Ordinal: in})
}

// handleMigrateState streams the next chunk of a sealed session's recorded
// history: one record re-encoded as a canonical batch payload (handle 0; the
// requester patches it before forwarding), empty payload at end of history.
// The record is borrowed from the history reader and encoded before this
// returns, which is before anything reads the history again.
// A request whose After disagrees with the cursor reopens the history and
// skips forward — how a retry against a fresh target restarts from zero.
func (c *conn) handleMigrateState(payload []byte) error {
	var req MigrateStateRequest
	if err := unmarshalStrict(payload, &req); err != nil {
		return fmt.Errorf("migrate-state: %w", err)
	}
	cs, ls, err := c.migrant(req.Handle)
	if ls == nil {
		return err
	}
	if ls.migReader == nil {
		return c.sessionError(req.Handle, fmt.Errorf("wire: session %q: no migration in progress", ls.sess.ID()))
	}
	if req.After < ls.migSent {
		ls.closeHistory()
		hr, _, err := ls.rec.History()
		if err != nil {
			// The session stays sealed: the requester decides whether to
			// retry or abort (which unseals).
			return c.sessionError(req.Handle, fmt.Errorf("wire: session %q: reopen history: %w", ls.sess.ID(), err))
		}
		ls.migReader, ls.migSent = hr, 0
	}
	var chunk []stream.Tuple
	for chunk == nil {
		tuples, err := ls.migReader.Lend()
		if err == io.EOF {
			break
		}
		if err != nil {
			return c.sessionError(req.Handle, fmt.Errorf("wire: session %q: history read: %w", ls.sess.ID(), err))
		}
		end := ls.migSent + uint64(len(tuples))
		if req.After >= end {
			ls.migSent = end
			continue
		}
		chunk = tuples[req.After-ls.migSent:]
		ls.migSent = end
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if len(chunk) == 0 {
		return c.w.WriteFrame(FrameMigrateStateOK, nil)
	}
	buf, err := AppendBatch(cs.encBuf[:0], 0, len(chunk[0].Fields), chunk)
	if err != nil {
		return err
	}
	cs.encBuf = buf[:0]
	return c.w.WriteFrame(FrameMigrateStateOK, buf)
}

// handleMigrateCommit finalizes a migration leg. Abort resumes a sealed
// source in place (the target never materialized — nothing was lost);
// otherwise the session is a catch-up target whose replay must land exactly
// on the cut ordinal before detection delivery resumes.
func (c *conn) handleMigrateCommit(payload []byte) error {
	var req MigrateCommitRequest
	if err := unmarshalStrict(payload, &req); err != nil {
		return fmt.Errorf("migrate-commit: %w", err)
	}
	cs, ls, err := c.migrant(req.Handle)
	if ls == nil {
		return err
	}
	if req.Abort {
		ls.closeHistory()
		if !ls.sess.Sealed() {
			return c.sessionError(req.Handle, fmt.Errorf("wire: session %q: no migration to abort", ls.sess.ID()))
		}
		ls.sess.Unseal()
	} else {
		ls.sess.Flush()
		if got := ls.sess.CatchUpTarget(); req.Ordinal != got {
			return c.sessionError(req.Handle, fmt.Errorf("wire: session %q: commit ordinal %d, attached at %d", ls.sess.ID(), req.Ordinal, got))
		}
		if err := ls.sess.EndCatchUp(); err != nil {
			return c.sessionError(req.Handle, err)
		}
	}
	counters := ls.counters()
	cs.stamp(&counters)
	return c.reply(FrameMigrateCommitOK, &counters)
}
