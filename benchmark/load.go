package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/kinect"
	"gesturecep/internal/wire"
)

// flushEvery is the closed loop's window: a session waits for a flush
// acknowledgement after every flushEvery batches, so a connection never has
// more than about two rounds of batches outstanding and the flush round
// trip is sampled throughout the run.
const flushEvery = 16

// session is the loader's side of one remote session. fed, counters and err
// belong to the feeding goroutine until it returns; sent, lat and dets are
// shared with the connection's read goroutine under mu.
type session struct {
	id     string
	recIdx int
	rec    *recording
	rs     *wire.RemoteSession

	fed      int
	meter    *atomic.Uint64 // when set, counts tuples handed to the client library
	counters wire.SessionCounters
	err      error
	attach   time.Duration

	// Closed loop: sent[k] is when batch k was handed to the client
	// library. Open loop: tuple j is due at first+j×period.
	batch  int
	first  time.Time
	period time.Duration

	mu      sync.Mutex
	sent    []time.Time
	lat     []time.Duration // detection latencies
	strayed int             // detections whose end time maps to no fed tuple
	dets    []anduin.Detection
}

// onDetection runs on the client's read goroutine for every pushed
// detection: latency is the push's arrival minus the moment the
// detection's final tuple was sent (closed loop) or was due (open loop).
func (s *session) onDetection(d anduin.Detection) {
	now := time.Now()
	j, ok := s.rec.indexOf(d.End)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case !ok:
		s.strayed++
	case s.period > 0:
		s.lat = append(s.lat, now.Sub(s.first.Add(time.Duration(j)*s.period)))
	case j/s.batch < len(s.sent):
		s.lat = append(s.lat, now.Sub(s.sent[j/s.batch]))
	default:
		s.strayed++
	}
}

// attachSessions opens n sessions named prefix-NN, session i on connection
// i%len(conns) and recording i%numRecordings.
func attachSessions(conns []*counted, recs []*recording, prefix string, n, batch, traceEvery int) ([]*session, error) {
	sessions := make([]*session, n)
	for i := range sessions {
		s := &session{
			id:     fmt.Sprintf("%s-%03d", prefix, i),
			recIdx: i % len(recs),
			rec:    recs[i%len(recs)],
			batch:  batch,
		}
		start := time.Now()
		rs, err := conns[i%len(conns)].Attach(s.id, wire.AttachOptions{
			BatchSize:   batch,
			TraceEvery:  traceEvery,
			OnDetection: s.onDetection,
		})
		if err != nil {
			return nil, fmt.Errorf("attach %s: %w", s.id, err)
		}
		s.attach = time.Since(start)
		s.rs = rs
		sessions[i] = s
	}
	return sessions, nil
}

// ofConn returns the sessions attached to connection c of n.
func ofConn(sessions []*session, c, n int) []*session {
	var out []*session
	for i := c; i < len(sessions); i += n {
		out = append(out, sessions[i])
	}
	return out
}

// feedBatch hands the session's next batch tuples to the client library,
// which writes them to the socket as one frame.
func (s *session) feedBatch() error {
	s.mu.Lock()
	s.sent = append(s.sent, time.Now())
	s.mu.Unlock()
	for i := 0; i < s.batch; i++ {
		if err := s.rs.FeedTuple(s.rec.at(s.fed)); err != nil {
			return err
		}
		s.fed++
	}
	if s.meter != nil {
		s.meter.Add(uint64(s.batch))
	}
	return nil
}

// feedClosed is one connection's closed-loop feeder: it walks its sessions
// round-robin, one batch each, until stop reports true (checked once per
// round), and has one session per round wait for a flush acknowledgement —
// each session every flushEvery rounds, staggered. Socket writes block when
// the server's shard queues are full, so the server paces the loop.
func feedClosed(sessions []*session, stop func(round int) bool) {
	for round := 0; !stop(round); round++ {
		for k, s := range sessions {
			if s.err != nil {
				continue
			}
			if s.err = s.feedBatch(); s.err == nil && (round+k*flushEvery/len(sessions))%flushEvery == flushEvery-1 {
				_, s.err = s.rs.Flush()
			}
		}
	}
	detachAll(sessions)
}

// detachAll detaches the sessions with pipelined round trips and collects
// their final counters and detections. Detach flushes first, so every
// detection for every fed tuple has arrived when it returns.
func detachAll(sessions []*session) {
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			counters, err := s.rs.Detach()
			if s.err == nil {
				s.counters, s.err = counters, err
			}
			s.dets = s.rs.TakeDetections()
		}(s)
	}
	wg.Wait()
}

// dueEvent is one scheduled send of the open loop.
type dueEvent struct {
	session int           // index into the connection's session list
	due     time.Duration // offset from the run's start
}

// dueSchedule lists one connection's sends in due order for an open loop of
// `total` sessions at `period` each, staggered evenly across the period:
// global session g is first due at g×period/total and this connection (c of
// n) carries sessions c, c+n, c+2n, …. The list covers [0, length).
func dueSchedule(c, n, total int, period, length time.Duration) []dueEvent {
	var out []dueEvent
	for frame := 0; ; frame++ {
		base := time.Duration(frame) * period
		if base >= length {
			return out
		}
		for k, g := 0, c; g < total; k, g = k+1, g+n {
			if due := base + time.Duration(g)*period/time.Duration(total); due < length {
				out = append(out, dueEvent{session: k, due: due})
			}
		}
	}
}

// sleepUntil blocks the calling thread in nanosleep(2). time.Sleep will not
// do for pacing: an idle Go scheduler parks in epoll_wait, whose timeout is
// whole milliseconds, so sub-millisecond sleeps wake about half a
// millisecond late (measured on the reference host: p50 542 µs late against
// 64 µs for nanosleep) — more than the latency being measured.
func sleepUntil(t time.Time) {
	for wait := time.Until(t); wait > 0; wait = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // woken early by a signal: the loop sleeps the rest
	}
}

// feedPaced is one connection's open-loop scheduler: it walks the due list
// and sends each tuple when due, never waiting for the server. It returns
// how late each send left. Sessions must use batch size 1.
func feedPaced(sessions []*session, start time.Time, events []dueEvent) []time.Duration {
	late := make([]time.Duration, 0, len(events))
	for _, ev := range events {
		due := start.Add(ev.due)
		sleepUntil(due)
		s := sessions[ev.session]
		if s.err != nil {
			continue
		}
		late = append(late, time.Since(due))
		s.err = s.rs.FeedTuple(s.rec.at(s.fed))
		s.fed++
		if s.meter != nil {
			s.meter.Add(1)
		}
	}
	detachAll(sessions)
	return late
}

// framePeriod is the open loop's per-session rate: the Kinect's 30 Hz.
const framePeriod = kinect.FramePeriod
