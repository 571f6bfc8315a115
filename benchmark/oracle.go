package main

import (
	"bytes"
	"fmt"
	"sync"

	"gesturecep/internal/anduin"
	"gesturecep/internal/transform"
	"gesturecep/internal/wire"
)

// reference is the bare-engine replay of one looped recording: every
// detection in firing order, with the looped-stream index of the tuple that
// fired it — so one replay to the longest session answers every session
// that was fed a prefix.
type reference struct {
	dets []anduin.Detection
	at   []int
}

// replayReference publishes the first n tuples of the looped recording
// through a standalone engine deploying plans in order — the single-node
// semantics every served, proxied or recorded path must reproduce.
func replayReference(plans []*anduin.Plan, rec *recording, n int) (*reference, error) {
	engine := anduin.New()
	raw, _, err := engine.KinectPipeline(transform.DefaultConfig())
	if err != nil {
		return nil, err
	}
	ref := &reference{}
	j := 0
	engine.Subscribe(func(d anduin.Detection) {
		ref.dets = append(ref.dets, d)
		ref.at = append(ref.at, j)
	})
	for _, p := range plans {
		if _, err := engine.DeployPlan(p); err != nil {
			return nil, err
		}
	}
	for ; j < n; j++ {
		if err := raw.Publish(rec.at(j)); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// prefix returns the detections fired by the first n tuples.
func (r *reference) prefix(n int) []anduin.Detection {
	k := 0
	for k < len(r.at) && r.at[k] < n {
		k++
	}
	return r.dets[:k]
}

// detBytes canonicalizes a detection list to wire bytes (in frames of at
// most wire.MaxDetections) so lists from different paths compare exactly.
func detBytes(dets []anduin.Detection) ([]byte, error) {
	var buf []byte
	for first := true; first || len(dets) > 0; first = false {
		n := min(len(dets), wire.MaxDetections)
		var err error
		if buf, err = wire.AppendDetections(buf, 0, 0, dets[:n]); err != nil {
			return nil, err
		}
		dets = dets[n:]
	}
	return buf, nil
}

// oracleWorkers bounds the concurrent reference replays to the host's two
// cores.
const oracleWorkers = 2

// buildReferences replays every recording the sessions used, each once, to
// the longest prefix any of its sessions was fed.
func buildReferences(plans []*anduin.Plan, recs []*recording, sessions []*session) ([]*reference, error) {
	longest := make([]int, len(recs))
	for _, s := range sessions {
		longest[s.recIdx] = max(longest[s.recIdx], s.fed)
	}
	refs := make([]*reference, len(recs))
	errs := make([]error, len(recs))
	sem := make(chan struct{}, oracleWorkers)
	var wg sync.WaitGroup
	for i := range recs {
		if longest[i] == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			refs[i], errs[i] = replayReference(plans, recs[i], longest[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// checkSession compares the outcome of a session that ran without error
// with the reference and returns why its tuples count as failed, or nil.
func checkSession(s *session, ref *reference) error {
	c := s.counters
	switch {
	case c.In != uint64(s.fed):
		return fmt.Errorf("server admitted %d of %d tuples", c.In, s.fed)
	case c.In != c.Out:
		return fmt.Errorf("in %d != out %d after detach", c.In, c.Out)
	case c.Dropped != 0 || c.DetectionsDropped != 0:
		return fmt.Errorf("%d tuples and %d detections dropped", c.Dropped, c.DetectionsDropped)
	}
	return sameDetections("live", s.dets, ref.prefix(s.fed))
}

func sameDetections(what string, got, want []anduin.Detection) error {
	gb, err := detBytes(got)
	if err != nil {
		return err
	}
	wb, err := detBytes(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(gb, wb) {
		return fmt.Errorf("%s detections differ from the reference: got %d, want %d", what, len(got), len(want))
	}
	return nil
}
