package wire

import (
	"bytes"
	"errors"
	"testing"

	"gesturecep/internal/serve"
)

// Tests of where a recording session's tap sits: localSession.Batch hands
// the recording the tuple bodies of every batch the session admitted, once
// admitted, and nothing of a batch it refused.

// tapRecording is a Recording that keeps what it was tapped with.
type tapRecording struct {
	bodies []byte
	taps   int
}

func (r *tapRecording) TapBodies(bodies []byte, fields int) {
	if fields != kinectFields {
		panic("tapped with the wrong width")
	}
	r.bodies = append(r.bodies, bodies...)
	r.taps++
}

func (r *tapRecording) History() (HistoryReader, uint64, error) {
	return nil, 0, errors.New("no history")
}

func (r *tapRecording) End(bool) {}

// recordFixture is lendFixture for a recording session.
func recordFixture(t *testing.T, cfg serve.Config, queries ...string) (*serve.Manager, *localSession, *tapRecording) {
	t.Helper()
	mgr, ls := lendFixture(t, cfg, queries...)
	rec := new(tapRecording)
	return mgr, newLocalSession(ls.srv, ls.sess, rec, kinectFields), rec
}

// bodiesOf is what the recording of the given payloads holds: each one's
// tuple bodies, in order.
func bodiesOf(t *testing.T, payloads ...[]byte) []byte {
	t.Helper()
	var out []byte
	for _, p := range payloads {
		_, count, fields, err := BatchGeometry(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, batchBodies(p, count, fields)...)
	}
	return out
}

// TestRecordingTapsAdmittedBatches: a recording session is sent every field
// and records each admitted batch's tuple bodies as they are — a traced
// batch's without its trailer — in feed order, one tap per batch, into its
// own recording; a batch its decode refuses reaches no recording.
func TestRecordingTapsAdmittedBatches(t *testing.T) {
	mgr, ls, rec := recordFixture(t, serve.Config{Shards: 2}, tickQuery)
	if !ls.full || ls.reads == nil {
		t.Fatalf("a recording session decodes %v of full-width batches (full %v), want its read set of every field", ls.reads.Fields(), ls.full)
	}
	other, err := mgr.CreateSession("other")
	if err != nil {
		t.Fatal(err)
	}
	otherRec := new(tapRecording)
	ols := newLocalSession(ls.srv, other, otherRec, kinectFields)
	payloads := lendPayloads(4, 16, kinectFields, nil)
	traced, err := appendBatch(nil, 1, kinectFields, poolTuples(3, kinectFields), 77)
	if err != nil {
		t.Fatal(err)
	}
	payloads = append(payloads, traced)
	for i, p := range payloads {
		owner := ls
		if i%2 == 1 {
			owner = ols
		}
		if err := owner.Batch(RawBatch{Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	narrow := appendReadBatch(nil, 1, poolTuples(2, kinectFields), ls.reads.Fields(), 0)
	if err := ls.Batch(RawBatch{Payload: narrow}); err == nil {
		t.Fatal("a recording session accepted a batch of only its read set")
	}
	ls.sess.Flush()
	other.Flush()
	if want := bodiesOf(t, payloads[0], payloads[2], payloads[4]); rec.taps != 3 || !bytes.Equal(rec.bodies, want) {
		t.Errorf("recording holds %d bytes in %d taps, want the %d of its 3 admitted batches", len(rec.bodies), rec.taps, len(want))
	}
	if want := bodiesOf(t, payloads[1], payloads[3]); otherRec.taps != 2 || !bytes.Equal(otherRec.bodies, want) {
		t.Errorf("the other session's recording holds %d bytes in %d taps, want the %d of its 2 batches", len(otherRec.bodies), otherRec.taps, len(want))
	}
	wantCounters(t, ls.sess, 16+16+3, 0)
	wantAllReleased(t, mgr)
}

// TestRecordingSkipsRefusedBatches: a batch a sealed session refuses never
// reaches its recording — the recording stays the migration cut — and once
// unsealed the session records again.
func TestRecordingSkipsRefusedBatches(t *testing.T) {
	mgr, ls, rec := recordFixture(t, serve.Config{Shards: 1}, tickQuery)
	payloads := lendPayloads(3, 8, kinectFields, nil)
	if err := ls.Batch(RawBatch{Payload: payloads[0]}); err != nil {
		t.Fatal(err)
	}
	ls.sess.Seal()
	if err := ls.Batch(RawBatch{Payload: payloads[1]}); err == nil {
		t.Fatal("a sealed session admitted a batch")
	}
	if want := bodiesOf(t, payloads[0]); rec.taps != 1 || !bytes.Equal(rec.bodies, want) {
		t.Fatalf("after the refusal the recording holds %d bytes in %d taps, want the %d of the one admitted batch", len(rec.bodies), rec.taps, len(want))
	}
	ls.sess.Unseal()
	if err := ls.Batch(RawBatch{Payload: payloads[2]}); err != nil {
		t.Fatal(err)
	}
	ls.sess.Flush()
	if want := bodiesOf(t, payloads[0], payloads[2]); rec.taps != 2 || !bytes.Equal(rec.bodies, want) {
		t.Errorf("after the unseal the recording holds %d bytes in %d taps, want the %d of both admitted batches", len(rec.bodies), rec.taps, len(want))
	}
	wantCounters(t, ls.sess, 16, 0)
	wantAllReleased(t, mgr)
}

// TestRecordingKeepsEvictedBatches: a batch DropOldest evicts was admitted,
// so it is recorded — drops are a serving artifact, not part of the history.
func TestRecordingKeepsEvictedBatches(t *testing.T) {
	mgr, ls, rec := recordFixture(t, serve.Config{Shards: 1, QueueDepth: 128, Policy: serve.DropOldest}, tickQuery)
	entered, release := holdWorker(ls.sess)
	payloads := lendPayloads(6, 64, kinectFields, nil)
	for i, p := range payloads {
		if err := ls.Batch(RawBatch{Payload: p}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-entered
		}
	}
	release()
	ls.sess.Flush()
	wantCounters(t, ls.sess, 384, 192)
	if want := bodiesOf(t, payloads...); rec.taps != 6 || !bytes.Equal(rec.bodies, want) {
		t.Errorf("recording holds %d bytes in %d taps, want the %d of all 6 admitted batches", len(rec.bodies), rec.taps, len(want))
	}
	wantAllReleased(t, mgr)
}
