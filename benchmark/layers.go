package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/cep"
	"gesturecep/internal/kinect"
	"gesturecep/internal/learn"
	"gesturecep/internal/obs"
	"gesturecep/internal/query"
	"gesturecep/internal/serve"
	"gesturecep/internal/store"
	"gesturecep/internal/stream"
	"gesturecep/internal/transform"
	"gesturecep/internal/wire"
)

const (
	// layerBatches requests walk the layers in one budget pass; a request
	// is one layerBatch-tuple batch of looped recording 0 — gestures and
	// the idle between them, not idle frames alone.
	layerBatches = 500
	layerBatch   = 64
	// layerDets detections per detection-codec call.
	layerDets = 16
	// layerSeeks timed seeks into the archive the pass wrote.
	layerSeeks = 64
)

// layerBudget measures every layer a tuple crosses from outside, on one
// goroutine: each request walks the layers' public functions in turn, each
// call wrapped in a span under the request's root span. The pass runs twice,
// spans on and spans off, and the difference is the tracing overhead. Values
// are medians over the requests of a span's self time, per tuple.
func layerBudget(in *inputs, dir string) (values, *tracer, error) {
	tr := newTracer()
	traced, stats, err := walkLayers(in, filepath.Join(dir, "layers-traced"), tr)
	if err != nil {
		return nil, nil, err
	}
	plain, _, err := walkLayers(in, filepath.Join(dir, "layers-plain"), nil)
	if err != nil {
		return nil, nil, err
	}

	self := selfByName(tr.spans)
	// per returns the median self time of the named span divided by how
	// many units of work one span covers, in nanoseconds.
	per := func(name string, units float64) float64 {
		ds := self[name]
		vs := make([]float64, len(ds))
		for i, d := range ds {
			vs[i] = float64(d) / units
		}
		return median(vs)
	}
	// amortised is the mean instead, for a layer that does its work in
	// bursts: the store writer buffers 255 appends and frames a record on
	// the 256th, which a median over requests would never see.
	amortised := func(name string, units float64) float64 {
		var sum time.Duration
		for _, d := range self[name] {
			sum += d
		}
		return float64(sum) / (units * float64(len(self[name])))
	}
	v := values{
		"kinect.to_tuple_ns":         per("kinect.to_tuple", layerBatch),
		"wire.encode_ns":             per("wire.encode", layerBatch),
		"wire.encode_b1_ns":          per("wire.encode_b1", layerBatch),
		"wire.decode_ns":             per("wire.decode", layerBatch),
		"wire.decode_b1_ns":          per("wire.decode_b1", layerBatch),
		"wire.frame_io_us_per_batch": per("wire.frame_io", 1) / 1e3,
		"wire.det_encode_ns":         per("wire.det_encode", layerDets),
		"wire.det_decode_ns":         per("wire.det_decode", layerDets),
		"transform.tuple_ns":         per("transform.tuple", layerBatch),
		"stream.publish_ns":          per("stream.publish", layerBatch),
		"cep.process_ns":             per("cep.process", layerBatch*float64(len(in.gestures))),
		"cep.pred_calls_per_tuple":   stats.predCalls,
		"cep.active_runs_mean":       stats.activeRuns,
		"anduin.publish_ns":          per("anduin.publish", layerBatch),
		"serve.feed_ns":              per("serve.feed", layerBatch),
		"store.tap_ns":               per("store.tap", layerBatch),
		"store.append_ns":            amortised("store.append", layerBatch),
		"store.read_ns":              per("store.read", store.DefaultBatchTuples),
		"store.backfill_ns":          per("store.backfill", float64(layerBatches*layerBatch)),
		"store.seek_us":              per("store.seek", 1) / 1e3,
		"obs.observe_ns":             per("obs.observe", layerBatch),
		"learn.learn_ms_per_gesture": per("learn.learn", 1) / 1e6,
		"query.parse_us":             per("query.parse", 1) / 1e3,
		"anduin.compile_plan_us":     per("anduin.compile_plan", 1) / 1e3,
		"anduin.deploy_plan_us":      per("anduin.deploy_plan", 1) / 1e3,
		"trace.overhead_pct":         100 * (traced - plain).Seconds() / plain.Seconds(),
		"trace.spans":                float64(len(tr.spans)),
	}
	// The budget residuals: what the engine's publish costs beyond the
	// layers it is made of, and what the serving queue adds to a publish.
	v["anduin.unattributed_ns"] = v["anduin.publish_ns"] - v["transform.tuple_ns"] -
		v["stream.publish_ns"] - float64(len(in.gestures))*v["cep.process_ns"]
	v["serve.queue_overhead_ns"] = v["serve.feed_ns"] - v["anduin.publish_ns"]
	return v, tr, nil
}

// layerStats are the counts taken at the layer boundaries of one pass.
type layerStats struct {
	predCalls  float64 // predicate evaluations per tuple, mean over the NFAs
	activeRuns float64 // active runs per NFA, mean over the requests
}

// walkLayers is one budget pass: the set-up layers once, then layerBatches
// requests through every per-tuple layer, then the archive readers. It
// returns the wall time of the request loop.
func walkLayers(in *inputs, dir string, tr *tracer) (time.Duration, layerStats, error) {
	var stats layerStats

	// Set-up layers: learn → parse → compile → deploy, per gesture.
	env := anduin.NewPlanEnv()
	engine := anduin.New()
	raw, _, err := engine.KinectPipeline(transform.DefaultConfig())
	if err != nil {
		return 0, stats, err
	}
	var fired []anduin.Detection
	engine.Subscribe(func(d anduin.Detection) { fired = append(fired, d) })
	reg := serve.NewRegistry()
	var plans []*anduin.Plan
	var nfas []*cep.NFA
	for _, g := range in.gestures {
		sp := tr.begin("learn.learn", -1, -1)
		res, err := learn.Learn(g.name, g.samples, learn.DefaultConfig())
		tr.end(sp)
		if err != nil {
			return 0, stats, err
		}
		sp = tr.begin("query.parse", -1, -1)
		q, err := query.Parse(res.QueryText)
		tr.end(sp)
		if err != nil {
			return 0, stats, err
		}
		sp = tr.begin("anduin.compile_plan", -1, -1)
		plan, err := anduin.CompilePlan(q, res.QueryText, env)
		tr.end(sp)
		if err != nil {
			return 0, stats, err
		}
		sp = tr.begin("anduin.deploy_plan", -1, -1)
		_, err = engine.DeployPlan(plan)
		tr.end(sp)
		if err != nil {
			return 0, stats, err
		}
		if _, err := reg.Register(g.name, res.QueryText); err != nil {
			return 0, stats, err
		}
		plans = append(plans, plan)
		nfas = append(nfas, plan.Program.Instantiate())
	}

	// One instance of every per-tuple layer.
	transformer, err := transform.New(transform.DefaultConfig())
	if err != nil {
		return 0, stats, err
	}
	fanout, err := stream.New("fanout", kinect.Schema())
	if err != nil {
		return 0, stats, err
	}
	delivered := 0
	for range in.gestures {
		fanout.Subscribe(func(stream.Tuple) { delivered++ })
	}
	mgr, err := serve.NewManager(serve.Config{Shards: 1}, reg)
	if err != nil {
		return 0, stats, err
	}
	defer mgr.Close()
	sess, err := mgr.CreateSession("layers")
	if err != nil {
		return 0, stats, err
	}
	opts := store.Options{SegmentBytes: 1 << 20} // several segments, so seeks use the sparse index
	appendTo, err := store.Create(dir, "append", kinect.Schema(), opts)
	if err != nil {
		return 0, stats, err
	}
	defer appendTo.Close()
	tapped, err := store.Create(dir, "tap", kinect.Schema(), opts)
	if err != nil {
		return 0, stats, err
	}
	recorder := store.NewRecorder(tapped, 0)
	defer recorder.Close()
	tap := recorder.Tap()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, stats, err
	}
	defer ln.Close()
	out, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, stats, err
	}
	defer out.Close()
	inbound, err := ln.Accept()
	if err != nil {
		return 0, stats, err
	}
	defer inbound.Close()
	fw, fr := wire.NewWriter(out), wire.NewReader(inbound)
	hist := obs.NewHistogram()

	rec := in.recs[0]
	fields := len(rec.tuples[0].Fields)
	tuples := make([]stream.Tuple, layerBatch)
	view := make([]stream.Tuple, 0, layerBatch)
	singles := make([][]byte, layerBatch)
	var payload, detBuf []byte
	converted, activeRuns := 0, 0

	loopStart := time.Now()
	for b := 0; b < layerBatches; b++ {
		for i := range tuples {
			tuples[i] = rec.at(b*layerBatch + i)
		}
		root := tr.begin("batch", b, -1)

		sp := tr.begin("kinect.to_tuple", b, root)
		for i := 0; i < layerBatch; i++ {
			converted += len(kinect.ToTuple(rec.frames[(b*layerBatch+i)%len(rec.frames)]).Fields)
		}
		tr.end(sp)

		sp = tr.begin("wire.encode", b, root)
		payload, err = wire.AppendBatch(payload[:0], 1, fields, tuples)
		tr.end(sp)
		if err != nil {
			return 0, stats, err
		}
		sp = tr.begin("wire.encode_b1", b, root)
		for i := range tuples {
			if singles[i], err = wire.AppendBatch(singles[i][:0], 1, fields, tuples[i:i+1]); err != nil {
				return 0, stats, err
			}
		}
		tr.end(sp)

		sp = tr.begin("wire.frame_io", b, root)
		err = fw.WriteFrame(wire.FrameBatch, payload)
		var frame wire.Frame
		if err == nil {
			frame, err = fr.Next()
		}
		tr.end(sp)
		if err != nil {
			return 0, stats, err
		}

		sp = tr.begin("wire.decode", b, root)
		decoded, err := wire.DecodeBatch(frame.Payload)
		tr.end(sp)
		if err != nil || len(decoded.Tuples) != layerBatch {
			return 0, stats, fmt.Errorf("layer budget: frame came back as %d tuples: %v", len(decoded.Tuples), err)
		}
		sp = tr.begin("wire.decode_b1", b, root)
		for i := range singles {
			if _, err = wire.DecodeBatch(singles[i]); err != nil {
				return 0, stats, err
			}
		}
		tr.end(sp)

		view = view[:0]
		sp = tr.begin("transform.tuple", b, root)
		for _, t := range tuples {
			if vt, ok := transformer.Tuple(t); ok {
				view = append(view, vt)
			}
		}
		tr.end(sp)

		sp = tr.begin("stream.publish", b, root)
		for _, vt := range view {
			if err = fanout.Publish(vt); err != nil {
				return 0, stats, err
			}
		}
		tr.end(sp)

		sp = tr.begin("cep.process", b, root)
		for _, nfa := range nfas {
			for _, vt := range view {
				nfa.Process(vt)
			}
		}
		tr.end(sp)
		for _, nfa := range nfas {
			activeRuns += nfa.ActiveRuns()
		}

		sp = tr.begin("anduin.publish", b, root)
		for _, t := range tuples {
			if err = raw.Publish(t); err != nil {
				return 0, stats, err
			}
		}
		tr.end(sp)

		sp = tr.begin("serve.feed", b, root)
		for _, t := range tuples {
			if err = sess.FeedTuple(t); err != nil {
				return 0, stats, err
			}
		}
		mgr.Flush()
		tr.end(sp)

		sp = tr.begin("store.tap", b, root)
		for _, t := range tuples {
			tap(t)
		}
		tr.end(sp)

		sp = tr.begin("store.append", b, root)
		for _, t := range tuples {
			if err = appendTo.Append(t); err != nil {
				return 0, stats, err
			}
		}
		tr.end(sp)

		if len(fired) >= layerDets {
			dets := fired[len(fired)-layerDets:]
			sp = tr.begin("wire.det_encode", b, root)
			detBuf, err = wire.AppendDetections(detBuf[:0], 1, 0, dets)
			tr.end(sp)
			if err != nil {
				return 0, stats, err
			}
			sp = tr.begin("wire.det_decode", b, root)
			_, _, back, err := wire.DecodeDetections(detBuf)
			tr.end(sp)
			if err != nil || len(back) != layerDets {
				return 0, stats, fmt.Errorf("layer budget: %d detections came back: %v", len(back), err)
			}
		}

		sp = tr.begin("obs.observe", b, root)
		for i := 0; i < layerBatch; i++ {
			hist.Observe(time.Duration(b*layerBatch + i))
		}
		tr.end(sp)

		tr.end(root)
	}
	loop := time.Since(loopStart)
	if converted == 0 || delivered == 0 || len(fired) < layerDets {
		return 0, stats, errors.New("layer budget: a layer did no work")
	}

	var processed, predCalls uint64
	for _, nfa := range nfas {
		p, c, _, _ := nfa.Stats()
		processed, predCalls = processed+p, predCalls+c
	}
	stats.predCalls = float64(predCalls) / float64(processed)
	stats.activeRuns = float64(activeRuns) / float64(layerBatches*len(nfas))

	// The archive layers read what the loop appended.
	if err := appendTo.Close(); err != nil {
		return 0, stats, err
	}
	total := uint64(layerBatches * layerBatch)
	r, err := store.OpenReader(dir, "append")
	if err != nil {
		return 0, stats, err
	}
	defer r.Close()
	for {
		// One span per record of store.DefaultBatchTuples tuples.
		sp := tr.begin("store.read", -1, -1)
		_, err := r.Next()
		tr.end(sp)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, stats, err
		}
	}
	if _, n := r.Counters(); n != total {
		return 0, stats, fmt.Errorf("layer budget: read back %d of %d appended tuples", n, total)
	}

	r2, err := store.OpenReader(dir, "append")
	if err != nil {
		return 0, stats, err
	}
	defer r2.Close()
	sp := tr.begin("store.backfill", -1, -1)
	_, err = store.Backfill(r2, plans, store.BackfillOptions{Discard: true})
	tr.end(sp)
	if err != nil {
		return 0, stats, err
	}
	for k := uint64(0); k < layerSeeks; k++ {
		off := (k*2654435761 + 12345) % total // scattered, repeatable offsets
		sp := tr.begin("store.seek", -1, -1)
		_, err := r2.SeekTuple(off)
		tr.end(sp)
		if err != nil {
			return 0, stats, err
		}
	}
	return loop, stats, nil
}
