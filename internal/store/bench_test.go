package store

import (
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/kinect"
	"gesturecep/internal/learn"
	"gesturecep/internal/stream"
)

// benchTuples synthesizes kinect-width tuples (45 fields, 30 Hz spacing).
func benchTuples(n int) []stream.Tuple {
	schema := kinect.Schema()
	base := time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)
	out := make([]stream.Tuple, n)
	for i := range out {
		fs := make([]float64, schema.Len())
		for j := range fs {
			fs[j] = float64((i+j)%100) * 0.01
		}
		out[i] = stream.Tuple{Ts: base.Add(time.Duration(i) * 33 * time.Millisecond), Seq: uint64(i), Fields: fs}
	}
	return out
}

// benchDir returns a bench working directory on an in-memory filesystem
// when one is available (/dev/shm on Linux), falling back to b.TempDir().
//
// Writing to real disk made the committed RecordAppend number a measurement
// of the host, not the code: a short run is absorbed by the page cache
// (~1.0 GB/s apparent), while a sustained run is throttled by kernel
// writeback to device bandwidth (~90 MB/s apparent) — same binary, an 11×
// spread purely from run duration. tmpfs removes the device from the loop,
// so the number tracks the append path itself: encode, CRC framing,
// buffering, segment rolls.
func benchDir(b *testing.B) string {
	const shm = "/dev/shm"
	if fi, err := os.Stat(shm); err == nil && fi.IsDir() {
		dir, err := os.MkdirTemp(shm, "storebench-")
		if err == nil {
			b.Cleanup(func() { os.RemoveAll(dir) })
			return dir
		}
	}
	return b.TempDir()
}

// BenchmarkRecordAppend measures the append path (buffered records, CRC
// framing, segment rolls) at kinect tuple width, on an in-memory filesystem
// so the result is not a function of host disk writeback (see benchDir).
// The on-filesystem working set is additionally bounded by recreating the
// stream every resetEvery tuples (outside the timer): without the bound,
// a long run accumulates gigabytes of segments and the apparent MB/s decays
// with b.N — the committed number would depend on the bench duration, not
// the code.
func BenchmarkRecordAppend(b *testing.B) {
	// ~376 MB of segments between resets at kinect width.
	const resetEvery = 1 << 20
	tuples := benchTuples(4096)
	dir := benchDir(b)
	w, err := Create(dir, "bench", kinect.Schema(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { w.Close() }()
	bytesPerTuple := int64(tupleBytes(kinect.Schema().Len()))
	b.SetBytes(bytesPerTuple)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%resetEvery == 0 {
			b.StopTimer()
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			if err := os.RemoveAll(dir); err != nil {
				b.Fatal(err)
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				b.Fatal(err)
			}
			if w, err = Create(dir, "bench", kinect.Schema(), Options{}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := w.Append(tuples[i%len(tuples)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSeek measures positioning a reader deep into a many-segment
// stream — the sparse-index path (segment binary search + sidecar lookup +
// bounded residual scan) against the full decode-and-skip scan it replaces.
// Each iteration opens a fresh reader and seeks to a pseudo-random late
// offset, then reads one record to prove the position is live. The
// ordinal modes seek by record ordinal instead: the reader itself skips the
// records before the target, validating each without converting a field —
// a bounded residual with the index, the whole prefix without.
func BenchmarkSeek(b *testing.B) {
	root := benchDir(b)
	const n = 1 << 16
	tuples := benchTuples(n)
	w, err := Create(root, "bench", kinect.Schema(), Options{SegmentBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	for i := range tuples {
		if err := w.Append(tuples[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	records := uint64(n / DefaultBatchTuples)
	for _, mode := range []struct {
		name             string
		indexed, ordinal bool
	}{{"indexed", true, false}, {"scan", false, false}, {"ordinal/indexed", true, true}, {"ordinal/scan", false, true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := OpenReader(root, "bench")
				if err != nil {
					b.Fatal(err)
				}
				if !mode.indexed {
					// Forget sidecars without touching disk: mark every
					// segment's index lookup as already failed.
					for s := range r.segs {
						m, err := r.metaAt(s)
						if err != nil {
							b.Fatal(err)
						}
						m.idx, m.idxTried = nil, true
					}
				}
				if mode.ordinal {
					if err := r.SeekOrdinal(records/2 + uint64(i*31)%(records/2)); err != nil {
						b.Fatal(err)
					}
					if _, err := r.Next(); err != nil {
						b.Fatal(err)
					}
					r.Close()
					continue
				}
				off := uint64(n/2 + (i*4973)%(n/2)) // late, varying offsets
				rem, err := r.SeekTuple(off)
				if err != nil {
					b.Fatal(err)
				}
				// Skip the residual the way Replay does, then deliver one
				// tuple to prove the position is live. Indexed: residual is
				// under one index stride. Scan: residual is the whole offset.
				delivered := false
				for !delivered {
					got, err := r.Next()
					if err != nil {
						b.Fatal(err)
					}
					if rem >= uint64(len(got)) {
						rem -= uint64(len(got))
						continue
					}
					delivered = true
				}
				r.Close()
			}
		})
	}
}

// BenchmarkReplayThroughput measures the read path: segment decode, CRC
// verification and tuple delivery into a no-op sink.
func BenchmarkReplayThroughput(b *testing.B) {
	root := benchDir(b)
	const n = 8192
	tuples := benchTuples(n)
	w, err := Create(root, "bench", kinect.Schema(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := range tuples {
		if err := w.Append(tuples[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n) * int64(tupleBytes(kinect.Schema().Len())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenReader(root, "bench")
		if err != nil {
			b.Fatal(err)
		}
		var got uint64
		for {
			tuples, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			got += uint64(len(tuples))
		}
		r.Close()
		if got != n {
			b.Fatal(fmt.Errorf("read %d tuples, want %d", got, n))
		}
	}
}

// BenchmarkRecorderTap measures the recording pipeline a served batch pays
// for and the one behind it: the tap (a 64-tuple batch's bodies copied onto
// the backlog under its lock, as a recording session hands them over), the
// drain's swap and the writer's record cuts. Every syncEvery batches the
// backlog is drained — inside the timer — so nothing is ever dropped and the
// figure is tuples recorded, not tuples offered. syncEvery batches stay under
// maxSpareTuples: a bare tap loop outruns the drain, which a served session
// does not, and past that bound the recorder gives its buffers up after every
// burst, so the loop would time growing them back. One op is one batch.
func BenchmarkRecorderTap(b *testing.B) {
	const batch, resetEvery, syncEvery = 64, 1 << 14, 16
	fields := kinect.Schema().Len()
	size := batch * tupleBytes(fields)
	bodies := appendBodies(nil, benchTuples(4096))
	dir := benchDir(b)
	w, err := Create(dir, "bench", kinect.Schema(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	rec := NewRecorder(w, 0)
	defer func() { rec.Close() }()
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%resetEvery == 0 {
			b.StopTimer()
			if err := rec.Close(); err != nil {
				b.Fatal(err)
			}
			if err := os.RemoveAll(dir); err != nil {
				b.Fatal(err)
			}
			if w, err = Create(dir, "bench", kinect.Schema(), Options{}); err != nil {
				b.Fatal(err)
			}
			rec = NewRecorder(w, 0)
			b.StartTimer()
		}
		off := i % (len(bodies) / size) * size
		rec.TapBodies(bodies[off:off+size], fields)
		if i%syncEvery == syncEvery-1 {
			if err := rec.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := rec.Sync(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if rec.Dropped() != 0 {
		b.Fatalf("the recorder dropped %d tuples", rec.Dropped())
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "tuples/s")
}

// benchPlans learns the first n demo gestures the way cmd/gestured does at
// start-up and compiles them.
func benchPlans(b testing.TB, n int) []*anduin.Plan {
	b.Helper()
	learned, err := learn.Demo(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	env := anduin.NewPlanEnv()
	var plans []*anduin.Plan
	for _, res := range learned {
		plan, err := anduin.CompilePlanText(res.QueryText, env)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, plan)
	}
	return plans
}

// BenchmarkBackfill measures offline evaluation of one recorded stream — a
// played session looped to ≈ 16 k tuples — with four learned plans deployed:
// segment read, CRC, decode, the kinect_t view and four NFAs per tuple. What
// it allocates is the engine's set-up and the detections.
func BenchmarkBackfill(b *testing.B) {
	root := benchDir(b)
	plans := benchPlans(b, 4)
	once := kinect.ToTuples(playbackFrames(b, 7))
	stride := once[len(once)-1].Ts.Sub(once[0].Ts) + time.Second
	w, err := Create(root, "bench", kinect.Schema(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	for loop := 0; n < 1<<14; loop++ {
		for _, tu := range once {
			tu.Ts, tu.Seq = tu.Ts.Add(time.Duration(loop)*stride), uint64(n)
			if err := w.Append(tu); err != nil {
				b.Fatal(err)
			}
			n++
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenReader(root, "bench")
		if err != nil {
			b.Fatal(err)
		}
		dets, err := Backfill(r, plans, BackfillOptions{})
		r.Close()
		if err != nil {
			b.Fatal(err)
		}
		if _, got := r.Counters(); got != uint64(n) || len(dets) == 0 {
			b.Fatalf("backfilled %d of %d tuples, %d detections", got, n, len(dets))
		}
	}
	b.ReportMetric(float64(b.N)*float64(n)/b.Elapsed().Seconds(), "tuples/s")
}
