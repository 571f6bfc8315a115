package e2e_test

import (
	"errors"
	"net"
	"testing"

	"gesturecep/internal/e2e"
	"gesturecep/internal/kinect"
	"gesturecep/internal/serve"
	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

// TestProtocolConformance pins what a client can observe of the protocol's
// server side, once, against both hosts of the one wire.Server: a gestured
// (the local serve.Manager host) and a gateway in front of two of them. A
// row that needs a different answer per host reads it from the host case;
// everything else must be indistinguishable.
func TestProtocolConformance(t *testing.T) {
	plans := map[string]string{"never": `SELECT "never" MATCHING kinect_t(rHand_y > 100000);`}
	hosts := []struct {
		name     string
		opts     e2e.Options
		pongName string
		backends int // rows in Metrics.Backends
	}{
		{"server", e2e.Options{Serve: serve.Config{Shards: 1}, Plans: plans}, "backend-0", 0},
		{"gateway", e2e.Options{Backends: 2, Gateway: true, Serve: serve.Config{Shards: 1}, Plans: plans}, "e2e-gateway", 2},
	}

	attach := func(t *testing.T, cl *wire.Client, id string) *wire.RemoteSession {
		t.Helper()
		rs, err := cl.Attach(id, wire.AttachOptions{BatchSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	// refused requires a session-scoped refusal: an *ErrorReply, after which
	// the connection still answers.
	refused := func(t *testing.T, cl *wire.Client, what string, err error) {
		t.Helper()
		var er *wire.ErrorReply
		if !errors.As(err, &er) {
			t.Errorf("%s: error = %v (%T), want *wire.ErrorReply", what, err, err)
		}
		if _, err := cl.Metrics(); err != nil {
			t.Errorf("%s: connection did not survive: %v", what, err)
		}
	}
	// survives requires a bystander session on the same connection to still
	// take tuples and flush them.
	survives := func(t *testing.T, rs *wire.RemoteSession) {
		t.Helper()
		if err := rs.FeedTuple(stream.Tuple{Ts: e2e.TestTime(), Fields: make([]float64, rs.Fields())}); err != nil {
			t.Fatal(err)
		}
		if c, err := rs.Flush(); err != nil || c.In != 1 || c.Out != 1 {
			t.Errorf("bystander session: flush = %+v, %v, want in=out=1", c, err)
		}
	}
	// fatal sends one raw frame on a fresh connection and requires exactly
	// one FrameError followed by EOF.
	fatal := func(t *testing.T, addr string, ft wire.FrameType, payload []byte) {
		t.Helper()
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		if err := wire.NewWriter(raw).WriteFrame(ft, payload); err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(raw)
		if f, err := r.Next(); err != nil || f.Type != wire.FrameError {
			t.Fatalf("reply = %v/%v, want one error frame", f.Type, err)
		}
		if f, err := r.Next(); err == nil {
			t.Errorf("connection survived a protocol violation (next frame: %v)", f.Type)
		}
	}

	rows := []struct {
		name string
		run  func(t *testing.T, h *e2e.Harness, cl *wire.Client)
	}{
		{"duplicate id", func(t *testing.T, h *e2e.Harness, cl *wire.Client) {
			attach(t, cl, "dup")
			_, err := cl.Attach("dup", wire.AttachOptions{})
			refused(t, cl, "second attach of one id", err)
		}},
		{"unknown plan", func(t *testing.T, h *e2e.Harness, cl *wire.Client) {
			_, err := cl.Attach("ghost", wire.AttachOptions{Gestures: []string{"nosuch"}})
			refused(t, cl, "attach with an unregistered plan", err)
		}},
		{"double detach", func(t *testing.T, h *e2e.Harness, cl *wire.Client) {
			rs := attach(t, cl, "twice")
			if _, err := rs.Detach(); err != nil {
				t.Fatal(err)
			}
			_, err := rs.Detach()
			refused(t, cl, "second detach", err)
		}},
		{"flush on an unknown handle", func(t *testing.T, h *e2e.Harness, cl *wire.Client) {
			rs := attach(t, cl, "gone")
			if _, err := rs.Detach(); err != nil {
				t.Fatal(err)
			}
			_, err := rs.Flush()
			refused(t, cl, "flush after detach", err)
		}},
		{"ping echoes seq, name and session count", func(t *testing.T, h *e2e.Harness, cl *wire.Client) {
			rs := attach(t, cl, "counted")
			if got, want := rs.Fields(), kinect.Schema().Len(); got != want {
				t.Errorf("attach reports %d fields, want %d", got, want)
			}
			for seq, sessions := range []int{1, 0} {
				if sessions == 0 {
					if _, err := rs.Detach(); err != nil {
						t.Fatal(err)
					}
				}
				pong, err := cl.Ping(uint64(42 + seq))
				if err != nil {
					t.Fatal(err)
				}
				if pong.Seq != uint64(42+seq) || pong.Sessions != sessions {
					t.Errorf("pong = %+v, want seq=%d sessions=%d", pong, 42+seq, sessions)
				}
			}
		}},
		{"version mismatch is fatal", func(t *testing.T, h *e2e.Harness, cl *wire.Client) {
			fatal(t, h.Addr(), wire.FrameAttach, []byte(`{"version":99,"id":"v"}`))
		}},
		{"batch for an unknown handle is fatal", func(t *testing.T, h *e2e.Harness, cl *wire.Client) {
			payload, err := wire.AppendBatch(nil, 42, 3, []stream.Tuple{{Ts: e2e.TestTime(), Fields: []float64{1, 2, 3}}})
			if err != nil {
				t.Fatal(err)
			}
			fatal(t, h.Addr(), wire.FrameBatch, payload)
		}},
		// Neither host has an archive here, so both answer a backfill and
		// every migration frame like a server without a source: refused,
		// with the connection and its other sessions untouched.
		{"backfill without a source", func(t *testing.T, h *e2e.Harness, cl *wire.Client) {
			bystander := attach(t, cl, "bystander")
			_, err := cl.Backfill(wire.BackfillRequest{Streams: []string{"any"}}, nil)
			refused(t, cl, "backfill", err)
			survives(t, bystander)
		}},
		{"migrate frames without a source", func(t *testing.T, h *e2e.Harness, cl *wire.Client) {
			rs := attach(t, cl, "stays")
			_, err := rs.MigrateBegin()
			refused(t, cl, "migrate-begin", err)
			_, err = rs.MigrateFetch(0)
			refused(t, cl, "migrate-state", err)
			_, err = rs.MigrateAbort()
			refused(t, cl, "migrate-commit", err)
			survives(t, rs)
		}},
	}

	for _, host := range hosts {
		t.Run(host.name, func(t *testing.T) {
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					h := e2e.Start(t, host.opts)
					row.run(t, h, h.Dial())
				})
			}
			// What differs by host: who answers a ping, and whether metrics
			// carry per-backend rows (a gateway aggregates its fleet).
			t.Run("identity and metrics", func(t *testing.T) {
				h := e2e.Start(t, host.opts)
				cl := h.Dial()
				if pong, err := cl.Ping(7); err != nil || pong.Name != host.pongName {
					t.Errorf("pong = %+v, %v, want name %q", pong, err, host.pongName)
				}
				rs := attach(t, cl, "metered")
				frames := e2e.PlaybackFrames(t, 3)
				if err := e2e.FeedFrames(rs, frames); err != nil {
					t.Fatal(err)
				}
				if _, err := rs.Flush(); err != nil {
					t.Fatal(err)
				}
				mm, err := cl.Metrics()
				if err != nil {
					t.Fatal(err)
				}
				if len(mm.Backends) != host.backends || mm.Enqueued != uint64(len(frames)) || mm.Sessions != 1 {
					t.Errorf("metrics = %+v, want %d backend rows, %d enqueued across 1 session", mm, host.backends, len(frames))
				}
			})
		})
	}
}
