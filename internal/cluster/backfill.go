package cluster

import (
	"fmt"
	"sync"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/obs"
	"gesturecep/internal/store"
	"gesturecep/internal/wire"
)

// BackfillResult is the deterministic merge of a fleet backfill. Streams is
// the canonical evaluation order (sorted, deduped — store.SortStreams);
// Detections is aligned with it, each stream's detections in evaluation
// order. Every backend in service (live or draining) evaluates every stream
// it holds, and each stream's detections come from one copy: the one that
// read the most tuples, the earlier backend in admission order on a tie. Sources maps
// each backend to the streams whose copy it supplied, and Records and
// Tuples sum over the chosen copies. A copy a session left behind when it
// moved is a prefix of the copy it moved to, and its detections a prefix
// of that copy's, so the result is byte-identical to single-node
// store.BackfillStreams over the union of the fleet's archives with each
// stream's fullest copy.
type BackfillResult struct {
	Streams    []string             `json:"streams"`
	Detections [][]anduin.Detection `json:"-"`
	Sources    map[string][]string  `json:"sources"`
	Missing    []string             `json:"missing,omitempty"`
	Records    uint64               `json:"records"`
	Tuples     uint64               `json:"tuples"`
	Found      int                  `json:"found"`
}

// DetectionTotal counts the merged detections.
func (r *BackfillResult) DetectionTotal() int {
	n := 0
	for _, g := range r.Detections {
		n += len(g)
	}
	return n
}

// Backfill evaluates the recorded streams req names across the fleet in
// parallel and merges the detections deterministically:
//
//  1. Canonicalize the stream list (sorted, deduped) — the order both the
//     merge and the single-node baseline use.
//  2. Send every backend in service the whole list at once. That includes a
//     draining backend: it still answers, and it is the only holder of the
//     sessions it has not moved yet. Each call runs on a dedicated
//     connection: a backfill request holds its server connection's reader
//     goroutine, so the proxied live sessions' shared connections are
//     never touched. Sessions are placed by bounded-load
//     Acquire and move on drains and failovers, so any backend may hold
//     any stream, and a stream may be held twice.
//  3. Per stream, keep the copy that read the most tuples (see
//     BackfillResult).
//
// Streams no backend in service archives come back in Result.Missing with an
// empty detection group; the caller decides whether that is an error.
// A failed backend call contributes nothing: its detections buffer locally
// and are dropped with it.
func (gw *Gateway) Backfill(req wire.BackfillRequest) (*BackfillResult, error) {
	start := time.Now()
	res, err := gw.backfill(req)
	if err != nil {
		gw.backfillsFailed.Add(1)
		return nil, err
	}
	gw.backfills.Add(1)
	gw.backfillStreams.Add(uint64(res.Found))
	gw.backfillDur.ObserveSince(start)
	return res, nil
}

func (gw *Gateway) backfill(req wire.BackfillRequest) (*BackfillResult, error) {
	req.Streams = store.SortStreams(req.Streams)
	streams := req.Streams
	if len(streams) == 0 {
		return nil, fmt.Errorf("cluster: backfill needs at least one stream")
	}
	var serving []member
	for _, m := range gw.fleet.snapshot() {
		if (m.state == StateLive || m.state == StateDraining) && m.be != nil {
			serving = append(serving, m)
		}
	}
	if len(serving) == 0 {
		return nil, fmt.Errorf("cluster: backfill: no backend in service")
	}

	copies := make([]*backfillCopy, len(serving))
	var wg sync.WaitGroup
	for j, m := range serving {
		wg.Add(1)
		go func() {
			defer wg.Done()
			copies[j] = gw.backfillOn(req, m)
		}()
	}
	wg.Wait()

	res := mergeCopies(streams, copies)
	gw.log.Info("fleet backfill merged",
		obs.F("streams", len(streams)), obs.F("found", res.Found),
		obs.F("missing", len(res.Missing)), obs.F("detections", res.DetectionTotal()))
	return res, nil
}

// mergeCopies picks each stream's fullest copy out of the backends'
// answers, given in admission order (nil for a failed call).
func mergeCopies(streams []string, copies []*backfillCopy) *BackfillResult {
	res := &BackfillResult{
		Streams:    streams,
		Detections: make([][]anduin.Detection, len(streams)),
		Sources:    make(map[string][]string, len(copies)),
	}
	for i, name := range streams {
		best := -1
		for j, c := range copies {
			if c != nil && !c.missing[i] && (best < 0 || c.reply.StreamTuples[i] > copies[best].reply.StreamTuples[i]) {
				best = j
			}
		}
		if best < 0 {
			res.Missing = append(res.Missing, name)
			continue
		}
		c := copies[best]
		res.Detections[i] = c.dets[i]
		res.Records += c.reply.StreamRecords[i]
		res.Tuples += c.reply.StreamTuples[i]
		res.Found++
		res.Sources[c.id] = append(res.Sources[c.id], name)
	}
	return res
}

// backfillCopy is one backend's answer to a fleet backfill: its detections
// and reply (which Client.Backfill checked has a count per stream), indexed
// like the canonical stream list.
type backfillCopy struct {
	id      string
	dets    [][]anduin.Detection
	reply   wire.BackfillReply
	missing map[int]bool
}

// backfillOn asks backend m for every stream of req. It returns nil when
// the call fails, so a partial answer is never merged.
func (gw *Gateway) backfillOn(req wire.BackfillRequest, m member) *backfillCopy {
	// A dedicated connection per call: the backfill request occupies the
	// server connection's reader goroutine until done, which must never
	// stall the proxied live sessions sharing the pooled data connection.
	cl, err := wire.DialTimeout(m.addr, gw.cfg.ProbeTimeout)
	if err != nil {
		gw.log.Warn("backfill dial failed", obs.F("backend", m.id), obs.F("err", err.Error()))
		return nil
	}
	defer cl.Close()
	c := &backfillCopy{id: m.id, dets: make([][]anduin.Detection, len(req.Streams))}
	c.reply, err = cl.Backfill(req, func(i int, dets []anduin.Detection) {
		if i >= 0 && i < len(c.dets) {
			c.dets[i] = append(c.dets[i], dets...)
		}
	})
	if err != nil {
		gw.log.Warn("backfill call failed", obs.F("backend", m.id), obs.F("err", err.Error()))
		return nil
	}
	c.missing = make(map[int]bool, len(c.reply.Missing))
	for _, i := range c.reply.Missing {
		c.missing[i] = true
	}
	return c
}
