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

// BackfillSpec names the offline work a fleet backfill fans out: which
// recorded streams to evaluate, under which plans (empty = every registered
// plan), bounded to event times in [Since, Until) (zero = unbounded).
type BackfillSpec struct {
	Streams  []string
	Gestures []string
	Since    time.Time
	Until    time.Time
}

// BackfillResult is the deterministic merge of a fleet backfill. Streams is
// the canonical evaluation order (sorted, deduped — store.SortStreams);
// Detections is aligned with it, each stream's detections in evaluation
// order. Because every stream is evaluated by exactly one backend's
// store.Backfill path and the merge concatenates the per-stream groups in
// canonical order, the result is byte-identical to single-node
// store.BackfillStreams over the union of the fleet's archives — regardless
// of how the ring happened to partition the work.
type BackfillResult struct {
	Streams    []string             `json:"streams"`
	Detections [][]anduin.Detection `json:"-"`
	Partitions map[string][]string  `json:"partitions"`
	Missing    []string             `json:"missing,omitempty"`
	Records    uint64               `json:"records"`
	Tuples     uint64               `json:"tuples"`
	Found      int                  `json:"found"`
	Retried    int                  `json:"retried"`
}

// DetectionTotal counts the merged detections.
func (r *BackfillResult) DetectionTotal() int {
	n := 0
	for _, g := range r.Detections {
		n += len(g)
	}
	return n
}

// Backfill evaluates recorded streams across the live fleet in parallel and
// merges the detections deterministically. The plan:
//
//  1. Canonicalize the stream list (sorted, deduped) — the order both the
//     merge and the single-node baseline use.
//  2. Partition streams across live backends by ring lookup (the pure
//     consistent-hash assignment; load bounds don't apply to batch work).
//  3. Run each partition through the wire protocol's backfill path on a
//     dedicated connection per backend — a backfill request holds its
//     server connection's reader goroutine, so the proxied live sessions'
//     shared connections are never touched.
//  4. Sessions are placed by bounded-load Acquire, not pure Lookup, so a
//     stream's recording often lives on a different backend than the ring
//     names: streams a backend reports Missing (and whole partitions whose
//     backend call failed) are retried on the remaining live backends in
//     admission order until located or exhausted.
//
// Streams no live backend archives come back in Result.Missing with an
// empty detection group; the caller decides whether that is an error.
// A failed backend call never contributes partial results — its streams are
// wholly retried elsewhere — so no detection is ever merged twice.
func (gw *Gateway) Backfill(spec BackfillSpec) (*BackfillResult, error) {
	start := time.Now()
	res, err := gw.backfill(spec)
	if err != nil {
		gw.backfillsFailed.Add(1)
		return nil, err
	}
	gw.backfills.Add(1)
	gw.backfillStreams.Add(uint64(res.Found))
	gw.backfillDur.ObserveSince(start)
	return res, nil
}

func (gw *Gateway) backfill(spec BackfillSpec) (*BackfillResult, error) {
	streams := store.SortStreams(spec.Streams)
	if len(streams) == 0 {
		return nil, fmt.Errorf("cluster: backfill needs at least one stream")
	}
	var live []member
	for _, m := range gw.fleet.snapshot() {
		if m.state == StateLive && m.be != nil {
			live = append(live, m)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("cluster: backfill: no live backends")
	}
	res := &BackfillResult{
		Streams:    streams,
		Detections: make([][]anduin.Detection, len(streams)),
		Partitions: make(map[string][]string, len(live)),
	}

	// Ring partition: stream name → owning live backend. Deterministic for
	// a given membership, but correctness never depends on it — any
	// backend may hold any recording (see the retry pass).
	partition := make(map[string][]int, len(live))
	for i, name := range streams {
		id, ok := gw.fleet.ring.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("cluster: backfill: ring is empty")
		}
		partition[id] = append(partition[id], i)
	}

	// located[i] flips when stream i's detections are merged; tried tracks
	// which backends already answered (or failed) for a stream so the retry
	// pass never re-asks.
	located := make([]bool, len(streams))
	tried := make([]map[string]bool, len(streams))
	for i := range tried {
		tried[i] = map[string]bool{}
	}

	type call struct {
		member
		idxs []int
	}
	runWave := func(calls []call) {
		var wg sync.WaitGroup
		for _, c := range calls {
			wg.Add(1)
			go func(c call) {
				defer wg.Done()
				gw.backfillOn(spec, c.member, c.idxs, streams, res, located, tried)
			}(c)
		}
		wg.Wait()
	}

	var wave []call
	for _, m := range live {
		if idxs := partition[m.id]; len(idxs) > 0 {
			wave = append(wave, call{m, idxs})
			names := make([]string, len(idxs))
			for j, i := range idxs {
				names[j] = streams[i]
			}
			res.Partitions[m.id] = names
		}
	}
	runWave(wave)

	// Retry pass: offer every still-unlocated stream to each remaining live
	// backend, one backend per wave, until everything is found or the fleet
	// is exhausted. Waves stay parallel-free here (one backend at a time)
	// because each wave's remainder depends on the last.
	for _, m := range live {
		var idxs []int
		for i := range streams {
			if !located[i] && !tried[i][m.id] {
				idxs = append(idxs, i)
			}
		}
		if len(idxs) == 0 {
			continue
		}
		res.Retried += len(idxs)
		runWave([]call{{m, idxs}})
	}

	for i, name := range streams {
		if located[i] {
			res.Found++
		} else {
			res.Missing = append(res.Missing, name)
		}
	}
	gw.log.Info("fleet backfill merged",
		obs.F("streams", len(streams)), obs.F("found", res.Found),
		obs.F("missing", len(res.Missing)), obs.F("retried", res.Retried),
		obs.F("detections", res.DetectionTotal()))
	return res, nil
}

// backfillOn runs one backfill call against backend m for the given stream
// indices, merging what it finds. Results land at disjoint global indices
// (idxs never overlaps across concurrent calls of one wave), so only the
// shared counters need res's lock, held via gw.backfillMu. On any call-level
// error the backend is marked tried for every offered stream and nothing is
// merged — the whole sublist stays eligible for retry elsewhere.
func (gw *Gateway) backfillOn(spec BackfillSpec, m member, idxs []int, streams []string,
	res *BackfillResult, located []bool, tried []map[string]bool) {
	id := m.id
	for _, i := range idxs {
		tried[i][id] = true
	}
	names := make([]string, len(idxs))
	for j, i := range idxs {
		names[j] = streams[i]
	}
	// A dedicated connection per call: the backfill request occupies the
	// server connection's reader goroutine until done, which must never
	// stall the proxied live sessions sharing the pooled data connection.
	cl, err := wire.DialTimeout(m.addr, gw.cfg.ProbeTimeout)
	if err != nil {
		gw.log.Warn("backfill dial failed",
			obs.F("backend", id), obs.F("streams", len(names)), obs.F("err", err.Error()))
		return
	}
	defer cl.Close()
	req := wire.BackfillRequest{Streams: names, Gestures: spec.Gestures}
	if !spec.Since.IsZero() {
		req.SinceNs = spec.Since.UnixNano()
	}
	if !spec.Until.IsZero() {
		req.UntilNs = spec.Until.UnixNano()
	}
	// Detections buffer locally and merge only after the reply confirms
	// success — a mid-request failure must not leave partial groups behind.
	got := make([][]anduin.Detection, len(idxs))
	reply, err := cl.Backfill(req, func(local int, dets []anduin.Detection) {
		if local >= 0 && local < len(got) {
			got[local] = append(got[local], dets...)
		}
	})
	if err != nil {
		gw.log.Warn("backfill call failed",
			obs.F("backend", id), obs.F("streams", len(names)), obs.F("err", err.Error()))
		return
	}
	missing := make(map[int]bool, len(reply.Missing))
	for _, local := range reply.Missing {
		missing[local] = true
	}
	gw.backfillMu.Lock()
	for j, i := range idxs {
		if missing[j] {
			continue
		}
		res.Detections[i] = got[j]
		located[i] = true
	}
	res.Records += reply.Records
	res.Tuples += reply.Tuples
	gw.backfillMu.Unlock()
}

// BackfillStats is the backfill plane's counter snapshot.
type BackfillStats struct {
	Runs     uint64        `json:"runs"`
	Failed   uint64        `json:"failed"`
	Streams  uint64        `json:"streams"`
	Duration obs.HistStats `json:"duration"`
}

// BackfillStats snapshots the fleet-backfill counters.
func (gw *Gateway) BackfillStats() BackfillStats {
	return BackfillStats{
		Runs:     gw.backfills.Load(),
		Failed:   gw.backfillsFailed.Load(),
		Streams:  gw.backfillStreams.Load(),
		Duration: gw.backfillDur.Snapshot().Stats(),
	}
}
