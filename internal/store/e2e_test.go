package store_test

import (
	"bytes"
	"testing"

	"gesturecep/internal/e2e"
	"gesturecep/internal/serve"
	"gesturecep/internal/store"
	"gesturecep/internal/wire"
)

// TestRecordOverWire runs the full production recording path through the
// shared harness: a backend with a recording archive, a remote client
// feeding frames over the wire, and a replay of the recorded stream that
// must reproduce the remote session's detections byte for byte.
func TestRecordOverWire(t *testing.T) {
	frames := e2e.PlaybackFrames(t, 11)
	h := e2e.Start(t, e2e.Options{Serve: serve.Config{Shards: 2}, Record: true})

	cl := h.Dial()
	// A failed attach (unknown plan) must not leave an empty recording
	// behind, and must not burn the session's stream name.
	if _, err := cl.Attach("remote-1", wire.AttachOptions{Gestures: []string{"nope"}}); err == nil {
		t.Fatal("attach with an unknown plan succeeded")
	}
	if h.HasRecording(0, "remote-1") {
		t.Fatal("failed attach littered the archive with an empty stream")
	}

	rs, err := cl.Attach("remote-1", wire.AttachOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2e.FeedFrames(rs, frames); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	remote := rs.Detections()
	if len(remote) == 0 {
		t.Fatal("remote session detected nothing")
	}
	if _, err := rs.Detach(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	h.Stop() // flush the archive; the registry survives for the replay

	// The recorded stream holds exactly what the server admitted; replay
	// through a fresh manager must reproduce the remote detections.
	m, err := serve.NewManager(serve.Config{Shards: 2}, h.Registry)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sess, err := m.CreateSession("replay-remote")
	if err != nil {
		t.Fatal(err)
	}
	r, err := store.OpenReader(h.RecordRoot(0), "remote-1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := store.Replay(r, sess.FeedTuple, store.ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	sess.Flush()
	replayed := sess.Detections()
	if !bytes.Equal(e2e.EncodeDets(t, remote), e2e.EncodeDets(t, replayed)) {
		t.Errorf("replay of wire recording diverges:\nremote: %+v\nreplay: %+v", remote, replayed)
	}
}
