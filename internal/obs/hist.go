package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: values 0..31 ns get one bucket each, then every
// power-of-two octave is split into 32 linear sub-buckets, so the relative
// error of any recorded value is bounded by 1/32 (~3%). 60 octaves cover
// every positive int64 nanosecond value (≈292 years), so recording can never
// index out of range.
const (
	histSubBits = 5
	histSubs    = 1 << histSubBits                  // linear sub-buckets per octave
	histBuckets = histSubs * (64 - histSubBits + 1) // 32 linear + 59 octaves × 32
)

// Histogram is a lock-free log-linear histogram of durations. Recording is
// one atomic add; snapshots copy the buckets without stopping writers and
// merge across shards, backends and processes. The zero value is NOT ready
// to use concurrently with Merge-heavy readers on 32-bit platforms — use
// NewHistogram; all methods are nil-safe so an unconfigured *Histogram is a
// valid no-op sink.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIdx maps a nanosecond value to its bucket.
func bucketIdx(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	u := uint64(ns)
	if u < histSubs {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // >= histSubBits
	sub := (u >> uint(exp-histSubBits)) & (histSubs - 1)
	return (exp-histSubBits+1)*histSubs + int(sub)
}

// bucketUpper returns the largest nanosecond value a bucket holds
// (inclusive), saturating at MaxInt64 for the top octave.
func bucketUpper(idx int) int64 {
	if idx < histSubs {
		return int64(idx)
	}
	block := idx >> histSubBits // >= 1
	exp := uint(block + histSubBits - 1)
	sub := uint64(idx & (histSubs - 1))
	if exp >= 63 {
		return math.MaxInt64
	}
	lower := uint64(1)<<exp + sub<<(exp-histSubBits)
	upper := lower + uint64(1)<<(exp-histSubBits) - 1
	if upper > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(upper)
}

// Observe records one duration. Nil-safe and lock-free: callers on hot paths
// need no guard around an optional histogram.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	h.buckets[bucketIdx(ns)].Add(1)
	h.sum.Add(ns)
	h.count.Add(1)
}

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start))
}

// Count returns the number of recorded values (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot copies the histogram without pausing writers. Buckets are read
// individually, so a snapshot racing a record may see the count and the
// bucket disagree by in-flight observations — monitoring-consistent, the
// same contract the serve metrics counters follow. Quantiles are computed
// from the buckets, so they are always internally consistent.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Sum = h.sum.Load()
	s.Buckets = make([]uint64, histBuckets)
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	return s
}

// HistSnapshot is a point-in-time copy of a histogram. Snapshots merge: the
// fleet-wide distribution is the bucket-wise sum of the per-shard or
// per-backend ones, so a merged p999 is a true quantile of the union, never
// an average of quantiles.
type HistSnapshot struct {
	Count   uint64
	Sum     int64 // nanoseconds
	Buckets []uint64
}

// Merge folds another snapshot into this one.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	if s.Buckets == nil {
		s.Buckets = make([]uint64, histBuckets)
	}
	for i := range o.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Quantile returns the q-quantile (0 < q <= 1) as a duration: the upper
// bound of the bucket holding the target rank, so the true value is at most
// ~3% below the reported one. An empty snapshot reports 0.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= target {
			return time.Duration(bucketUpper(i))
		}
	}
	return time.Duration(bucketUpper(len(s.Buckets) - 1))
}
